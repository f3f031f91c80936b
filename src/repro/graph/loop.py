"""The loop unit: a host loop's iterations after the first, in one C call.

In the paper CG's host scalar algebra (α, β, the norm, the exit test)
is JIT-compiled Julia, so an iteration costs only its kernels.  Here the
first iteration runs as written, with the carried scalar and every
region result a :class:`LoopScalar` — a value-carrying proxy that
records its ops, the way the tracer records kernel bodies — and the
rest run in the loop driver (:func:`repro.ir.cgen.loop_driver`) over
the regions' compiled native nodes: same machine code, same words, same
IEEE ops, same bits.  Fences and counters: docs/API.md "Launch graphs &
fusion".
"""

from __future__ import annotations

import ctypes
import operator
from typing import Any, Callable, Iterator

import numpy as np

from .. import faults
from ..core.context import current_context
from ..core.exceptions import KernelExecutionError
from ..ir import cgen, writes
from ..ir.cgen import LOOP_OPS, NativeDeclined, _data_ptr
from .capture import _pkg

__all__ = ["GraphLoop", "LoopScalar"]

#: Values a register holds: the driver's registers are doubles.
_FLOATS = (float, bool, np.bool_)

#: Iterations per driver call: the bound on its history buffer.
_BATCH = 1 << 12


def _value(x: Any) -> Any:
    return x.value if isinstance(x, LoopScalar) else x


def _op(op: str, fn: Callable, swap: bool = False):
    def method(self, other):
        a, b = (other, self) if swap else (self, other)
        return self.loop._emit(op, fn(_value(a), _value(b)), a, b)

    return method


def _escape(fn: Callable):
    """An op the driver has no opcode for: the value leaves the tape."""

    def method(self, *others):
        self.loop._reason = "recurrence"
        return fn(self.value, *map(_value, others))

    return method


class LoopScalar:
    """A scalar of the recording iteration: its concrete ``value`` and
    the driver register ``reg`` that holds it on later iterations."""

    __slots__ = ("loop", "reg", "value")

    def __init__(self, loop: "GraphLoop", reg: int, value: Any):
        self.loop, self.reg, self.value = loop, reg, value

    __truediv__ = _op("div", operator.truediv)
    __rtruediv__ = _op("div", operator.truediv, swap=True)
    __mul__ = _op("mul", operator.mul)
    __rmul__ = _op("mul", operator.mul, swap=True)
    __add__ = _op("add", operator.add)
    __radd__ = _op("add", operator.add, swap=True)
    __sub__ = _op("sub", operator.sub)
    __rsub__ = _op("sub", operator.sub, swap=True)
    __le__ = _op("le", operator.le)
    __ge__ = _op("le", operator.le, swap=True)  # a >= b is b <= a
    __eq__ = _escape(operator.eq)
    __ne__ = _escape(operator.ne)
    __float__ = _escape(float)
    __hash__ = None

    def __neg__(self):
        return self.loop._emit("neg", -self.value, self)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.sqrt and method == "__call__" and not kwargs:
            return self.loop._emit("sqrt", np.sqrt(self.value), self)
        self.loop._reason = "recurrence"
        return getattr(ufunc, method)(*map(_value, inputs), **kwargs)

    def __bool__(self) -> bool:
        """A branch: on the first comparison, the exit test."""
        loop = self.loop
        at = loop._defined[self.reg]
        if loop._test is None and at >= 0 and loop._code[at][0] == "le":
            loop._test = (len(loop._code), self.reg)
        else:
            loop._reason = "recurrence"
        return bool(self.value)


def _plain(fn: Callable, carry: Any, limit: int) -> Iterator[tuple]:
    for _ in range(limit):
        ret = fn(carry)
        yield ret
        if ret[2]:
            return
        carry = ret[0]


class _Call:
    """One native node call of the driven program: its position ``pc``,
    what a replay of it moves, and the buffers its instruction names."""

    __slots__ = ("pc", "plan", "dst", "charges", "buffers", "graph")

    def __init__(self, pc, plan, dst, charges, buffers):
        self.pc, self.plan, self.dst = pc, plan, dst
        self.charges, self.buffers = charges, buffers
        self.graph = None  # set on the last node of its region


class GraphLoop:
    """A host loop of :class:`GraphRegion` runs (through :meth:`run`) and
    scalar algebra, iterated through :meth:`steps`.  The recording is,
    per register, its value and defining instruction (``-1``: none); the
    instructions ``(op, dst, *registers)`` or ``("call", dst, graph,
    {slot: register})``; the exit test ``(position, register)``; and
    the ``_reason`` it cannot be driven, if any."""

    __slots__ = ("_recording", "_values", "_defined", "_code", "_test", "_reason")

    def __init__(self) -> None:
        self._recording = False

    def _reg(self, value: Any, defined: int) -> LoopScalar:
        if not isinstance(value, _FLOATS):
            self._reason = "recurrence"
        self._values.append(value)
        self._defined.append(defined)
        return LoopScalar(self, len(self._values) - 1, value)

    def _operand(self, x: Any) -> int:
        if isinstance(x, LoopScalar):
            return x.reg
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            self._reason = "recurrence"
            return 0
        return self._reg(float(x), -1).reg

    def _emit(self, op: str, value: Any, *operands: Any) -> LoopScalar:
        if op == "div" and any(isinstance(_value(x), np.generic) for x in operands):
            op = "divf"  # NumPy divides by zero without raising
        regs = [self._operand(x) for x in operands]
        out = self._reg(value, len(self._code))
        self._code.append((op, out.reg, *regs))
        return out

    def run(self, region, key: tuple, body: Callable, **slots: Any):
        """``region.run(key, body, **slots)``, recorded in the first
        iteration as a call of the graph it instantiated."""
        if not self._recording:
            return region.run(key, body, **slots)
        ret = region.run(key, body, **{k: _value(v) for k, v in slots.items()})
        graph = region.graph(key)
        kind = graph.return_convention[0] if graph is not None else None
        if kind not in ("none", "single"):
            self._reason = "uncaptured"
            return ret
        regs = {name: self._operand(v) for name, v in slots.items()}
        out = self._reg(ret, len(self._code)) if kind == "single" else None
        self._code.append(("call", -1 if out is None else out.reg, graph, regs))
        return ret if out is None else out

    def steps(
        self, fn: Callable, carry: Any, limit: int, *, checkpoint=None
    ) -> Iterator[tuple]:
        """Run ``fn`` for up to ``limit`` iterations, yielding each
        one's ``(carry, record, done)`` and stopping after a ``done``.

        ``fn(carry)`` is one iteration from the carried scalar.  The
        only branch it may take on a region-derived value is on its
        exit test ``done``, to skip the rest of the iteration, and it
        computes ``carry`` and ``record`` before that test.  A
        ``checkpoint`` saves between iterations: it keeps the replay."""
        if limit < 1:
            return
        if not _pkg().graphs_enabled():
            yield from _plain(fn, carry, limit)
            return
        self._values, self._defined, self._code = [], [], []
        self._test = self._reason = None
        self._recording = True
        try:
            ret = fn(self._reg(carry, -1))
        finally:
            self._recording = False
        out = tuple(map(_value, ret))
        yield out
        if out[2] or limit == 1:
            return
        calls, code = self._program(ret, checkpoint)
        if calls is None:
            _pkg()._COUNTS.bump_key("loop_declined", code)
            yield from _plain(fn, out[0], limit - 1)
        else:
            yield from self._drive(calls, code, out[0], limit - 1)

    def _program(self, ret: tuple, checkpoint) -> tuple:
        """``(calls, code)`` for the driver, or ``(None, reason)``."""
        ctx = current_context()
        carried, record = self._operand(ret[0]), self._operand(ret[1])
        test = self._test
        reason = (
            "checkpoint" if checkpoint is not None
            else "faults" if faults.injection_possible()
            else "hooks" if ctx.hooked
            else "pending" if ctx.pending_launches
            else self._reason or (
                "recurrence"
                if test is None
                or not isinstance(ret[2], LoopScalar)
                or ret[2].reg != test[1]
                or max(self._defined[carried], self._defined[record]) >= test[0]
                else None
            )
        )
        if reason is not None:
            return None, reason
        backend = ctx.backend()
        code: list = []
        calls: list[_Call] = []
        for index, entry in enumerate(self._code + [None]):
            if index == test[0]:
                code += (LOOP_OPS["hist"], carried, record, LOOP_OPS["exit"], test[1])
            if entry is None:
                break
            if entry[0] != "call":
                code += (LOOP_OPS[entry[0]], *entry[1:])
                continue
            _, dst, graph, regs = entry
            if graph.ctx is not ctx or graph.backend is not backend or (
                backend.schedule_epoch() != graph.epoch
            ):
                return None, "backend"
            for k, node in enumerate(graph.nodes):
                out = dst if dst >= 0 and k == graph.return_convention[1] else -1
                call = self._node(node, backend, regs, len(code), out)
                if isinstance(call, str):
                    return None, call
                calls.append(call)
                code += call.buffers[0]
            call.graph = graph
        code += (LOOP_OPS["mov"], 0, carried)
        return (calls, code) if cgen.loop_driver() else (None, "driver")

    @staticmethod
    def _node(node, backend, regs: dict, pc: int, dst: int):
        """The :class:`_Call` of one node at ``pc``, its result to
        register ``dst`` (``-1``: none) — or the reason it declines."""
        plan = node.plan
        native, schedule = plan.kernel.native, plan.schedule
        charges = backend.loop_charges(plan)
        if plan.backend is not backend or charges is None:
            return "backend"
        if native is None:
            return "native"
        if not schedule.inline or len(schedule.domains) != 1:
            return "chunked"
        if plan.is_reduce and native.leases_lanes(plan.op):
            return "fold"
        patches = []
        for pos, name in node.slot_map.items():
            word = native.float_word(pos)
            if word is None or pos in node.const_slots:
                return "slot"
            patches += (word, regs[name])
        try:
            entry, words, out, tiles = native.loop_call(
                schedule.domains[0], plan.resolved_args, plan.is_reduce
            )
        except NativeDeclined:
            return "preflight"
        instruction = (
            LOOP_OPS["call"], entry, ctypes.addressof(words),
            0 if out is None else ctypes.addressof(out), tiles, dst,
            len(patches) // 2, *patches,
        )
        return _Call(pc, plan, dst, charges, (instruction, words, out))

    def _drive(self, calls, code, carry, limit) -> Iterator[tuple]:
        """Run ``limit`` iterations in driver calls of up to
        :data:`_BATCH` each, yielding them as the plain loop would."""
        prog = np.array(code, dtype=np.int64)
        regs = np.array(self._values, dtype=np.float64)
        regs[0] = carry
        hist = np.empty(2 * min(limit, _BATCH))
        st = np.zeros(4, dtype=np.int64)
        why = 0
        while limit > 0 and not why:
            batch = min(limit, _BATCH)
            cgen.loop_driver()(
                _data_ptr(prog), len(prog), _data_ptr(regs), _data_ptr(hist),
                batch, _data_ptr(st),
            )
            it, why, pc, err = st.tolist()
            _account(calls, regs, it, why, pc)
            rows = hist[: 2 * (it + (why == 1))].tolist()
            for j in range(0, len(rows), 2):
                yield rows[j], rows[j + 1], why == 1 and j == 2 * it
            limit -= batch
        if why == 2:
            raise ZeroDivisionError("float division by zero")
        if why == 3:
            raise KernelExecutionError(
                f"out-of-bounds store into argument {err - 1}: "
                "native scatter index outside the array extent"
            )


def _account(calls: list, regs, it: int, why: int, pc: int) -> None:
    """Move every counter the per-region replays of ``it`` iterations and
    a last, partial one (the calls before ``pc``) would have moved, in
    their order.  A node error (``why == 3``) was charged for the call at
    ``pc`` too: ``Backend.execute`` charges a node before running it."""
    ran = calls * it + ([c for c in calls if c.pc < pc] if why else [])
    charged = ran + [c for c in calls if c.pc == pc and why == 3]
    acc = calls[0].plan.backend.accounting
    reduces = sum([c.plan.construct == "reduce" for c in charged])
    acc.n_reduce += reduces
    acc.n_for += len(charged) - reduces
    acc.n_kernel_launches += len(charged)
    sim = acc.sim_time
    for x in [x for c in charged for x in c.charges]:
        sim += x
    acc.sim_time = sim
    nodes = 0
    for c in ran:
        writes.note_writes(c.plan.written_ids)
        if c.graph is not None:
            c.graph.replays += 1
            nodes += len(c.graph.nodes)
        if c.dst >= 0:
            c.plan.result = float(regs[c.dst])
    counts = _pkg()._COUNTS
    counts.bump("replays", sum([c.graph is not None for c in ran]))
    counts.bump("nodes_replayed", nodes)
    counts.bump("loop_iterations", it + (why == 1))
    if why < 2:
        counts.bump("loop_calls")
    else:  # handed back to Python mid-iteration
        counts.bump_key("loop_declined", "divisor" if why == 2 else "error")
