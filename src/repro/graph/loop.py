"""The loop unit: a host loop's iterations in one C call.

In the paper CG's host scalar algebra (α, β, the norm, the exit test)
is JIT-compiled Julia, so an iteration costs only its kernels, and a
second solve over new arrays of the same types starts on machine code.
Here an iteration is recorded with the carried scalar and every region
result a :class:`LoopScalar` — a value-carrying proxy that records its
ops, the way the tracer records kernel bodies — and the loop driver
(:func:`repro.ir.cgen.loop_driver`) runs it over the regions' compiled
native nodes: same machine code, same words, same IEEE ops, same bits.

The first iteration is recorded *dry* first: its constructs are
recorded, not staged or run.  The recording keys a :class:`_Template` —
a driven program without its arrays — on the context's kernel cache.
A hit binds this loop's arrays to the template and the driver runs
every iteration; a miss runs the first iteration eagerly (its regions
capture), the driver runs the rest, and the program it ran is stored
as the template.  Fences and counters: docs/API.md "The loop unit".
"""

from __future__ import annotations

import ctypes
import operator
from typing import Any, Callable, Iterator, Optional

import numpy as np

from ..core.backend import Backend
from ..core.context import current_context
from ..core.exceptions import KernelExecutionError
from ..ir import cgen, writes
from ..ir.cgen import LOOP_OPS, NativeDeclined, _data_ptr
from ..ir.compile import executor_mode, resolve_cache
from ..ir.verify import active_verify_mode
from .capture import DryCapture, DryEscape, LaunchGraph, ScalarSlot, _pkg

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
        loop = self.loop
        value = 0.0 if loop._mode == "dry" else fn(_value(a), _value(b))
        return loop._emit(op, value, a, b)

    return method


def _escape(fn: Callable):
    """An op the driver has no opcode for: the value leaves the tape."""

    def method(self, *others):
        self.loop._refuse()
        return fn(self.value, *map(_value, others))

    return method


class LoopScalar:
    """A scalar of the recorded iteration: its ``value`` (``0.0`` for a
    computed one in a dry recording) and the driver register ``reg``
    that holds it when driven."""

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
        self.loop._refuse()
        return getattr(ufunc, method)(*map(_value, inputs), **kwargs)

    def __bool__(self) -> bool:
        """A branch: on the first comparison, the exit test — which a
        dry recording takes as false, to record the whole iteration."""
        loop = self.loop
        at = loop._defined[self.reg]
        if loop._test is None and at >= 0 and loop._code[at][0] == "le":
            loop._test = (len(loop._code), self.reg)
            if loop._mode == "dry":
                return False
        else:
            loop._refuse()
        return bool(self.value)


def _plain(fn: Callable, carry: Any, limit: int) -> Iterator[tuple]:
    for _ in range(limit):
        ret = fn(carry)
        yield ret
        if ret[2]:
            return
        carry = ret[0]


def _fence(ctx, checkpoint) -> Optional[str]:
    """The reason no driver may run this loop, checked before anything
    runs — or ``None``."""
    return "checkpoint" if checkpoint is not None else ctx.fence()


class _Call:
    """One native node call of the driven program: its position ``pc``,
    what a run of it moves (``charges``, ``reduce``, the ``written``
    storage ids, ``nodes`` — on the last node of its region, the
    region's node count) and the buffers its instruction names.  A call
    built from a captured graph also holds its ``plan``, the
    ``sources`` of its arguments and, on a region's last node, the
    ``graph``."""

    __slots__ = (
        "pc", "dst", "charges", "reduce", "written", "buffers",
        "plan", "sources", "graph", "nodes",
    )

    def __init__(self, pc, dst, charges, reduce, written, buffers, plan=None, sources=None):
        self.pc, self.dst, self.charges = pc, dst, charges
        self.reduce, self.written, self.buffers = reduce, written, buffers
        self.plan, self.sources = plan, sources
        self.graph, self.nodes = None, 0


class _Template:
    """A driven program without its arrays, stored on the kernel cache
    under the key of the dry recording of its first iteration.

    ``code`` is the program with stale word and out addresses; per node,
    ``nodes`` holds its position, compiled kernel, domain, construct,
    the dry recording's ``(launch, position)`` of each argument, result
    register, modeled charges and region size.  ``regions`` and
    ``fused_pairs`` are what its regions' graphs counted when they were
    instantiated; ``pins`` keeps the recorded kernels alive, whose
    ``id()`` the key holds."""

    __slots__ = ("code", "nodes", "regions", "fused_pairs", "pins")

    def __init__(self, code: list, calls: list, offsets: list, pins: tuple):
        self.code = np.array(code, dtype=np.int64)
        graphs = [c.graph for c in calls if c.graph is not None]
        self.regions = len(graphs)
        self.fused_pairs = sum([g.fused_pairs for g in graphs])
        self.nodes, region = [], 0
        for c in calls:
            plan, base = c.plan, offsets[region]
            self.nodes.append((
                c.pc, plan.kernel, plan.schedule.domains[0], plan.is_reduce,
                tuple([(base + i, pos) for i, pos in c.sources]),
                c.dst, c.charges, c.nodes,
            ))
            region += c.nodes > 0
        self.pins = pins

    def bind(self, recorded: list) -> Optional[tuple]:
        """``(calls, code)`` over the arguments of a dry recording's
        ``recorded`` nodes: each node pre-flighted and packed — or
        ``None`` when a pre-flight declines."""
        code = self.code.copy()
        calls = []
        for pc, kernel, domain, reduce, sources, dst, charges, nodes in self.nodes:
            args = [recorded[i].resolved_args[pos] for i, pos in sources]
            try:
                _, words, out, _ = kernel.native.loop_call(domain, args, reduce)
            except NativeDeclined:
                return None
            code[pc + 2] = ctypes.addressof(words)
            code[pc + 3] = 0 if out is None else ctypes.addressof(out)
            call = _Call(pc, dst, charges, reduce, kernel.launches.written_ids(args), (words, out))
            call.nodes = nodes
            calls.append(call)
        return calls, code


class GraphLoop:
    """A host loop of :class:`GraphRegion` runs (through :meth:`run`) and
    scalar algebra, iterated through :meth:`steps`.  A recording
    (``_mode`` ``"dry"`` or ``"record"``) is, per register, its value
    and defining instruction (``-1``: none); the instructions ``(op,
    dst, *registers)`` or ``("call", dst, graph, {slot: register})`` —
    in a dry one, the region's return convention and launch count in
    place of the graph; the exit test ``(position, register)``; and the
    ``_reason`` it cannot be driven, if any."""

    __slots__ = ("_mode", "_values", "_defined", "_code", "_test", "_reason")

    def __init__(self) -> None:
        self._mode: Optional[str] = None

    def _begin(self, mode: str, carry: Any) -> LoopScalar:
        self._values, self._defined, self._code = [], [], []
        self._test = self._reason = None
        self._mode = mode
        return self._reg(carry, -1)

    def _refuse(self) -> None:
        """The tape escapes the driver; a dry recording stops here."""
        if self._mode == "dry":
            raise DryEscape
        self._reason = "recurrence"

    def _reg(self, value: Any, defined: int) -> LoopScalar:
        if not isinstance(value, _FLOATS):
            self._refuse()
        self._values.append(value)
        self._defined.append(defined)
        return LoopScalar(self, len(self._values) - 1, value)

    def _operand(self, x: Any) -> int:
        if isinstance(x, LoopScalar):
            return x.reg
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            self._refuse()
            return 0
        return self._reg(float(x), -1).reg

    def _emit(self, op: str, value: Any, *operands: Any) -> LoopScalar:
        if op == "div":
            for x in operands:
                if isinstance(_value(x), np.generic):
                    op = "divf"  # NumPy divides by zero without raising
                    break
        regs = [x.reg if isinstance(x, LoopScalar) else self._operand(x) for x in operands]
        out = self._reg(value, len(self._code))
        self._code.append((op, out.reg, *regs))
        return out

    def _call(self, ret: Any, entry: Any, slots: dict, single: bool):
        regs = {name: self._operand(v) for name, v in slots.items()}
        out = self._reg(ret, len(self._code)) if single else None
        self._code.append(("call", -1 if out is None else out.reg, entry, regs))
        return ret if out is None else out

    def run(self, region, key: tuple, body: Callable, **slots: Any):
        """``region.run(key, body, **slots)``, recorded in the first
        iteration as a call of the graph it instantiated."""
        mode = self._mode
        if mode is None:
            return region.run(key, body, **slots)
        if mode == "dry":
            return self._dry_run(region, body, slots)
        ret = region.run(key, body, **{k: _value(v) for k, v in slots.items()})
        graph = region.graph(key)
        kind = graph.return_convention[0] if graph is not None else None
        if kind not in ("none", "single"):
            self._reason = "uncaptured"
            return ret
        return self._call(ret, graph, slots, kind == "single")

    def _dry_run(self, region, body: Callable, slots: dict):
        """A region run in a dry recording: ``body``'s launches recorded,
        none run."""
        cap = current_context().graph_capture
        if cap.untaken:  # a launch outside any region
            raise DryEscape
        ret = body(**{k: ScalarSlot(k, 0.0) for k in slots})
        graph = cap.take(region.name)
        convention = graph.match_return(ret) if graph.nodes else None
        if convention is None or convention[0] not in ("none", "single"):
            raise DryEscape
        entry = (convention, len(graph.nodes))
        return self._call(0.0, entry, slots, convention[0] == "single")

    def _tape(self) -> tuple:
        """The recording's code as a key: a call by its result and slot
        registers, ``divf`` as ``div`` (a dry recording has no values to
        tell them apart)."""
        return tuple([
            ("call", e[1], tuple(e[3].items())) if e[0] == "call"
            else ("div", *e[1:]) if e[0] == "divf"
            else e
            for e in self._code
        ])

    def _exits(self, ret: tuple) -> Optional[tuple]:
        """``(carried, record, test)`` registers of the iteration that
        returned ``ret`` — or ``None``: it cannot be driven."""
        carried, record = self._operand(ret[0]), self._operand(ret[1])
        test = self._test
        if (
            test is None
            or not isinstance(ret[2], LoopScalar)
            or ret[2].reg != test[1]
            or max(self._defined[carried], self._defined[record]) >= test[0]
        ):
            return None
        return carried, record, test

    def steps(
        self, fn: Callable, carry: Any, limit: int, *, checkpoint=None
    ) -> Iterator[tuple]:
        """Run ``fn`` for up to ``limit`` iterations, yielding each
        one's ``(carry, record, done)`` and stopping after a ``done``.

        ``fn(carry)`` is one iteration from the carried scalar, and it
        may run more than once per loop: its only effects are its
        constructs.  The only branch it may take on a region-derived
        value is on its exit test ``done``, to skip the rest of the
        iteration, and it computes ``carry`` and ``record`` before that
        test.  A ``checkpoint`` saves between iterations: it keeps the
        replay."""
        if limit < 1:
            return
        if not _pkg().graphs_enabled():
            yield from _plain(fn, carry, limit)
            return
        ctx = current_context()
        backend = ctx.backend()
        key = nodes = None
        if (
            _fence(ctx, checkpoint) is None
            and ctx.graph_capture is None
            and executor_mode() == "native"
            and type(backend).loop_charges is not Backend.loop_charges
        ):
            key, nodes = self._dry(fn, carry, ctx)
        if key is not None:
            template = resolve_cache(ctx.kernel_cache).structure(key)
            bound = template.bind(nodes) if template is not None else None
            if bound is not None:
                # Each region's stored structure is rebound, through the
                # template: the counters move as its rebind would.
                bump = _pkg()._bump
                bump("loop_bound")
                bump("captures", template.regions)
                bump("rebinds", template.regions)
                if template.fused_pairs:
                    bump("fused_pairs", template.fused_pairs)
                yield from self._drive(*bound, backend, carry, limit)
                return
        try:
            ret = fn(self._begin("record", carry))
        finally:
            self._mode = None
        out = tuple(map(_value, ret))
        yield out
        if out[2] or limit == 1:
            return
        exits = self._exits(ret)
        calls, code = self._program(exits, checkpoint)
        if calls is None:
            _pkg()._COUNTS.bump_key("loop_declined", code)
            yield from _plain(fn, out[0], limit - 1)
            return
        if key is not None and self._records(key, exits, nodes, ctx):
            offsets = np.cumsum([0] + [count for _, count in key[3]]).tolist()
            template = _Template(code, calls, offsets, tuple([n.kernel for n in nodes]))
            resolve_cache(ctx.kernel_cache).store_structure(key, template)
        yield from self._drive(calls, code, backend, out[0], limit - 1)

    def _dry(self, fn: Callable, carry: Any, ctx) -> tuple:
        """``(key, nodes)`` of a dry recording of ``fn(carry)`` — or
        ``(None, None)`` when it met anything it cannot record.  The key
        is the tape's code, exit registers, per region its return
        convention and launch count, the structure key of all its
        launches as one graph, the types of its scalars that are not
        computed, and the verify mode."""
        cap = DryCapture(ctx)
        try:
            with cap:
                ret = fn(self._begin("dry", carry))
                exits = self._exits(ret)
                if exits is None or cap.untaken:
                    return None, None
        except Exception:  # noqa: BLE001
            # Whatever a dry iteration raises, the eager one that follows
            # raises again where it would have: after the launches before it.
            return None, None
        finally:
            self._mode = None
        graph = cap.graph("loop")
        launches = graph.structure_key(ctx, ctx.fault_plan is None)
        if launches is None:
            return None, None
        key = (
            "loop",
            self._tape(),
            exits,
            tuple([e[2] for e in self._code if e[0] == "call"]),
            launches,
            tuple([type(v) for v, at in zip(self._values, self._defined) if at < 0]),
            active_verify_mode(),
        )
        return key, graph.nodes

    def _records(self, key: tuple, exits: tuple, nodes: list, ctx) -> bool:
        """Whether this eager first iteration recorded what the dry one
        keyed: the same tape and exits, and per region the structure
        key of the dry recording's launches."""
        if key[1:3] != (self._tape(), exits):
            return False
        graphs = [e[2] for e in self._code if e[0] == "call"]
        _, backend, epoch, _, _ = key[4]
        start = 0
        for graph, (_, count) in zip(graphs, key[3]):
            dry = LaunchGraph(graph.name, nodes[start : start + count], backend, epoch)
            start += count
            if graph.key is None or dry.structure_key(ctx, ctx.fault_plan is None) != graph.key:
                return False
        return True

    def _program(self, exits: Optional[tuple], checkpoint) -> tuple:
        """``(calls, code)`` for the driver, or ``(None, reason)``."""
        ctx = current_context()
        reason = _fence(ctx, checkpoint) or self._reason or (
            "recurrence" if exits is None else None
        )
        if reason is not None:
            return None, reason
        carried, record, test = exits
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
                made = _node(node, backend, regs, len(code), out)
                if isinstance(made, str):
                    return None, made
                instruction, call = made
                calls.append(call)
                code += instruction
            call.graph, call.nodes = graph, len(graph.nodes)
        code += (LOOP_OPS["mov"], 0, carried)
        return (calls, code) if cgen.loop_driver() else (None, "driver")

    def _drive(self, calls, code, backend, carry, limit) -> Iterator[tuple]:
        """Run ``limit`` iterations in driver calls of up to
        :data:`_BATCH` each, yielding them as the plain loop would."""
        prog = np.asarray(code, dtype=np.int64)
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
            _account(calls, backend, regs, it, why, pc)
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


def _node(node, backend, regs: dict, pc: int, dst: int):
    """The instruction and :class:`_Call` of one node at ``pc``, its
    result to register ``dst`` (``-1``: none) — or the reason it
    declines."""
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
    except NativeDeclined as exc:
        return "compiling" if exc.reason == "pending" else "preflight"
    instruction = (
        LOOP_OPS["call"], entry, ctypes.addressof(words),
        0 if out is None else ctypes.addressof(out), tiles, dst,
        len(patches) // 2, *patches,
    )
    call = _Call(
        pc, dst, charges, plan.is_reduce, plan.written_ids, (words, out),
        plan, node.sources,
    )
    return instruction, call


def _account(calls: list, backend, regs, it: int, why: int, pc: int) -> None:
    """Move every counter the per-region replays of ``it`` iterations and
    a last, partial one (the calls before ``pc``) would have moved, in
    O(nodes) Python: each counter once, the modeled clock charge by
    charge in their order (so its bits match), and each node's written
    ids to the version its last run would have left.  A node error
    (``why == 3``) was charged for the call at ``pc`` too:
    ``Backend.execute`` charges a node before running it."""
    done = [c for c in calls if c.pc < pc] if why else []
    charged = done + [c for c in calls if c.pc == pc] if why == 3 else done
    acc = backend.accounting
    reduces = it * sum([c.reduce for c in calls]) + sum([c.reduce for c in charged])
    launches = it * len(calls) + len(charged)
    acc.n_reduce += reduces
    acc.n_for += launches - reduces
    acc.n_kernel_launches += launches
    sim = acc.sim_time
    for x in [x for c in calls for x in c.charges] * it + [
        x for c in charged for x in c.charges
    ]:
        sim += x
    acc.sim_time = sim
    n, p = len(calls), len(done)
    last = [((it - 1) * n + k + 1, c) for k, c in enumerate(calls) if k >= p] if it else []
    last += [(it * n + k + 1, c) for k, c in enumerate(done)]
    clock = replays = nodes = 0
    for at, c in last:
        writes.note_writes(c.written, at - clock)
        clock = at
    for k, c in enumerate(calls):
        runs = it + (k < p)
        if c.nodes and runs:
            replays += runs
            nodes += runs * c.nodes
            if c.graph is not None:
                c.graph.replays += runs
        if c.dst >= 0 and runs and c.plan is not None:
            c.plan.result = float(regs[c.dst])
    counts = _pkg()._COUNTS
    counts.bump("replays", replays)
    counts.bump("nodes_replayed", nodes)
    counts.bump("loop_iterations", it + (why == 1))
    if why < 2:
        counts.bump("loop_calls")
    else:  # handed back to Python mid-iteration
        counts.bump_key("loop_declined", "divisor" if why == 2 else "error")
