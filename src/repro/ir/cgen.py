"""Trace-to-C code generation: the *native* rung of the executor ladder.

The codegen tier (:mod:`repro.ir.codegen`) removed the per-launch IR walk
but still pays NumPy's per-ufunc dispatch and materializes whole-domain
temporaries.  Julia's LLVM JIT — the performance baseline the paper
leans on — emits one fused scalar loop instead.  This module closes that
last gap: a verified, optimized :class:`~repro.ir.nodes.Trace` is
lowered into a single C translation unit — fused scalar loop nests,
guards as branches, gathers via clamped indexing, add-reduces folded
per tile — compiled once with the system C compiler
(``PYACC_CC``, see :mod:`repro.ir.nativecache`) and called through
stdlib :mod:`ctypes` with per-chunk bounds, so every backend family
(serial / threads / cuda-sim / multi-sim) runs the same machine loop
over its own chunks.  The ctypes call releases the GIL, so the threads
backend gets genuine parallel chunk execution out of the rung for free.

Bit-identity contract
---------------------
The differential suite requires native == codegen == vector **bit for
bit** on every verified kernel, so the lowering only admits constructs
whose per-lane C evaluation provably reproduces the vectorizer's
whole-domain NumPy semantics:

* **Store groups.**  Stores are partitioned into consecutive groups with
  no intra-group cross-lane dependence: a group is either a run of
  identity-indexed stores whose expressions load group-written arrays
  only at identity positions (per-lane load-after-store then equals the
  vectorizer's whole-domain store-then-load), or a singleton scatter
  store.  Each group lowers to one loop nest; the loop boundary is the
  whole-domain barrier the vectorizer's store-by-store order implies.
* **The single-loop licence.**  For independent lanes any execution
  order — store by store over the box, or lane by lane — yields the same
  bits, so the barriers are unnecessary exactly where they cost (the
  paper's fused LBM step: 18 scatter stores, 18 whole-domain passes).
  When partitioning yields more than one group, the lowering asks
  :func:`repro.ir.verify.lane_conflict` for a *proof* (never an absence
  of findings; independent of the ``verify`` mode and ``@suppress``)
  that (1) no store can meet another store or a load of its array from
  a different lane and (2) every access to a written array has an
  integer affine index inside ``[0, extent)`` — NumPy scatters wrap
  negative indices and gathers clamp, so an unproven index is not the
  element the affine form names; the index arithmetic itself must be
  64-bit (or weak) integer, where C's wrapping ring arithmetic and the
  affine form agree on every in-range value.  On proof all stores share
  **one** loop nest in program order (``_invalidate`` reloads a lane's
  own load-after-store) and lose the scatter wrap / out-of-bounds exit,
  dead code under (2); gathers keep their clamps.  The proof holds for
  one ``(box, shapes, scalar values)``, so lane independence becomes a
  pre-flight assumption like contiguity: a single-loop kernel re-proves
  it per call (memoized) and declines ``lanes`` otherwise.  Kernels
  without a proof — data-dependent scatters, suppressed races — keep
  the grouped lowering; a kernel has one lowering, chosen by proof.
* **Reduction fold.**  A reduce kernel walks the
  :attr:`~repro.ir.vectorizer.IndexDomain.tiles` of its chunk in one
  call.  ``add`` folds each tile in C — a transcription of NumPy's
  pairwise sum shared by every reduce translation unit
  (:data:`_FOLD_SOURCE`), streaming the per-lane float64 values through
  a 128-lane block on the C stack — and returns one partial per tile;
  Python folds the partials (``fold_partials``), so the reduce is
  bit-identical to the other rungs.  NumPy's summation order is an
  implementation detail, so the transcription is checked against
  ``ndarray.sum()`` once per process (:func:`fold_in_c`); on a mismatch,
  and always for ``min``/``max`` (whose SIMD order for NaN and ``-0.0``
  is not ours to transcribe), the loop writes a tile's per-lane values
  into an arena-leased buffer and the fold stays NumPy's.
* **Operation allowlist.**  Only ops whose C scalar semantics match the
  NumPy ufunc exactly are admitted (IEEE ``+ - * /``, NaN-propagating
  min/max ternaries, ``sqrt``/``floor``/``ceil``/``abs``/``neg``,
  comparisons, logical combinators, select, C-truncation casts); per-node
  dtypes come from the NEP-50 probe lattice (:mod:`repro.ir.shapes`) and
  operands are cast to the probed result dtype, float32 math runs in C
  ``float``.  Everything else — ``pow``/``mod``/``floordiv``,
  transcendentals with libm-vs-NumPy ULP drift, bool arithmetic, float
  indices — **declines** with a recorded reason and the kernel falls to
  codegen, exactly like codegen declines to vector.

Run-time pre-flight declines (see :class:`NativeKernel`) re-check the
assumptions the C code bakes in — dtype/rank/contiguity, identity-access
extents, written-array aliasing, weak-int narrowing, lane independence
of a single-loop kernel — before any side effect, so an ineligible
*call* (not just an ineligible kernel) falls back with the arrays
untouched.
"""

from __future__ import annotations

import ctypes
import math
import struct
from typing import Any, Optional, Sequence

import numpy as np

from ..core.exceptions import KernelExecutionError
from . import nodes as N
from . import verify as _verify
from .arena import ChunkArena, ScratchArena, resolve as _resolve_arena
from .nativecache import (
    NativeCompileError,
    compile_source,
    record_c_fold,
    record_decline,
    record_single_loop,
)
from .shapes import Lattice, _static_identity, promote, scalar_dtype
from .vectorizer import (
    _check_reduce,
    _fold_lanes,
    _REDUCE_IDENTITY,
    IndexDomain,
    fold_partials,
)

__all__ = [
    "NativeLoweringError",
    "NativeDeclined",
    "NativeKernel",
    "lower_native",
]


class NativeLoweringError(Exception):
    """The trace uses a construct outside the native bit-identity
    contract; the compile ladder stays on codegen.  ``reason`` is the
    decline-taxonomy token recorded in ``cache_info()["native"]``."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


class NativeDeclined(Exception):
    """A *call* failed the run-time pre-flight (taxonomy token in
    ``reason``); the caller falls through to the codegen program with
    every argument untouched."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Dtype mapping
# ---------------------------------------------------------------------------

#: np dtype-code -> C element type.  The allowlist *is* the eligibility
#: certificate: anything else declines with ``dtype:<code>``.
_CTYPE = {
    "f8": "double",
    "f4": "float",
    "i8": "int64_t",
    "i4": "int32_t",
    "b1": "uint8_t",
}

_F8 = np.dtype(np.float64)
_I8 = np.dtype(np.int64)
_BOOL = np.dtype(np.bool_)

#: Binary ops with exact C equivalents (min/max are special-cased).
_BIN_SYM = {"add": "+", "sub": "-", "mul": "*", "truediv": "/"}

#: Unary ops admitted (correctly-rounded / exact in both worlds).
_UN_OK = frozenset({"neg", "abs", "sqrt", "floor", "ceil"})

_CMP_SYM = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}
_BOOL_SYM = {"and": "&&", "or": "||", "xor": "!="}


def _dt_code(dt: np.dtype) -> str:
    return dt.kind + str(dt.itemsize)


def _ctype_of(dt: np.dtype) -> str:
    if not dt.isnative:
        raise NativeLoweringError(f"dtype:{dt.str}")
    ct = _CTYPE.get(_dt_code(dt))
    if ct is None:
        raise NativeLoweringError(f"dtype:{_dt_code(dt)}")
    return ct


def _float_literal(v: float) -> str:
    if math.isnan(v):
        return "NAN"
    if math.isinf(v):
        return "INFINITY" if v > 0 else "(-INFINITY)"
    return f"({v.hex()})" if v < 0 else v.hex()


# ---------------------------------------------------------------------------
# Store-group partitioning
# ---------------------------------------------------------------------------


def _store_roots(st: N.Store) -> list[N.Node]:
    roots = list(st.indices) + [st.value]
    if st.condition is not None:
        roots.append(st.condition)
    return roots


def _partition_groups(trace: N.Trace) -> list[list[N.Store]]:
    """Split stores into loops whose per-lane execution matches the
    vectorizer's whole-domain store order (see module docstring)."""
    ndim = trace.ndim
    groups: list[list[N.Store]] = []
    cur: list[N.Store] = []
    cur_written: set[int] = set()
    for st in trace.stores:
        if not _static_identity(st.indices, ndim):
            # A scatter store loops alone: cross-lane writes interleaved
            # with anything else would reorder against the vectorizer.
            if any(
                isinstance(nd, N.Load) and nd.array.pos == st.array.pos
                for root in _store_roots(st)
                for nd in N.walk(root)
            ):
                # Per-lane read/write of the *same* array through
                # computed indices (a permutation) cannot match the
                # gather-all-then-scatter whole-domain order.
                raise NativeLoweringError("scatter-read-overlap")
            if cur:
                groups.append(cur)
                cur, cur_written = [], set()
            groups.append([st])
            continue
        # Identity store: joins the current group unless it reads a
        # group-written array at non-identity indices.
        breaks = any(
            isinstance(nd, N.Load)
            and nd.array.pos in cur_written
            and not _static_identity(nd.indices, ndim)
            for root in _store_roots(st)
            for nd in N.walk(root)
        )
        if breaks and cur:
            groups.append(cur)
            cur, cur_written = [], set()
        cur.append(st)
        cur_written.add(st.array.pos)
    if cur:
        groups.append(cur)
    return groups


#: The add-fold every reduce translation unit calls through a pointer,
#: built once per artifact cache: NumPy's ``pairwise_sum``, transcribed.
#: A span of more than 128 lanes splits at ``n / 2`` rounded down to a
#: multiple of 8; a leaf asks the kernel's ``fill`` for its lanes'
#: values (a block on the C stack — no lane buffer), sums them with
#: eight accumulators combined as a balanced tree and adds the
#: remainder left to right (under eight lanes: left to right from
#: ``-0.0``); ``ndarray.sum()`` then starts from ``+0.0``.  Under the
#: rung's flags (no contraction, no reassociation) this equals
#: ``ndarray.sum()`` bit for bit — an implementation detail of NumPy's,
#: so :func:`fold_in_c` checks it once per process through
#: ``pyacc_fold_check``, which also hands out ``pyacc_fold``'s address.
_FOLD_SOURCE = """\
#include <stdint.h>
#include <string.h>

typedef void (*pyacc_fill)(const void *cx, int64_t k, int64_t m, double *blk);

static double pairwise(pyacc_fill fill, const void *cx, int64_t k, int64_t n) {
  if (n <= 128) {
    double a[128], res, r0, r1, r2, r3, r4, r5, r6, r7;
    int64_t i;
    fill(cx, k, n, a);
    if (n < 8) {
      res = -0.0;
      for (i = 0; i < n; ++i) res += a[i];
      return res;
    }
    r0 = a[0]; r1 = a[1]; r2 = a[2]; r3 = a[3];
    r4 = a[4]; r5 = a[5]; r6 = a[6]; r7 = a[7];
    for (i = 8; i < n - (n % 8); i += 8) {
      r0 += a[i]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
      r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
    }
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    for (; i < n; ++i) res += a[i];
    return res;
  }
  const int64_t h = n / 2 - (n / 2) % 8;
  const double left = pairwise(fill, cx, k, h);
  return left + pairwise(fill, cx, k + h, n - h);
}

double pyacc_fold(pyacc_fill fill, const void *cx, int64_t n) {
  return 0.0 + pairwise(fill, cx, 0, n);
}

static void copy_fill(const void *cx, int64_t k, int64_t m, double *blk) {
  memcpy(blk, (const double *)cx + k, (size_t)m * sizeof(double));
}

double pyacc_fold_check(const double *v, int64_t n, int64_t *fold) {
  *fold = (int64_t)(intptr_t)&pyacc_fold;
  return pyacc_fold(copy_fill, v, n);
}
"""


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _NativeLowering:
    def __init__(self, trace: N.Trace, args: Sequence[Any]):
        if np.dtype(np.intp).itemsize != 8:  # pragma: no cover - x86/arm64
            raise NativeLoweringError("intp-size")
        self.trace = trace
        self.ndim = trace.ndim
        self.args = args
        self.lanes = False  # lowered as one loop nest under the licence
        self.lat = Lattice(trace.ndim, args)
        # Per-array static facts, keyed by argument position.
        self.arr_dtype: dict[int, np.dtype] = {}
        self.arr_rank: dict[int, int] = {}
        self.extent_slots: set[int] = set()  # identity access: hi <= shape
        self.gather_slots: set[int] = set()  # has non-identity loads
        self.written: dict[int, bool] = {}  # pos -> has scatter store
        self.fscalar: list[int] = []  # positions staged as double
        self.iscalar: list[int] = []  # positions staged as int64
        self.narrow_i4: set[int] = set()  # weak ints cast to int32 sites
        # Emission state (reset per loop body).
        self.body: list[str] = []
        self.emitted: dict[int, tuple[str, Any]] = {}
        self.deps: dict[int, frozenset[int]] = {}
        self._tmp = 0
        self._scalar_codes: dict[int, tuple[str, Any]] = {}

    # -- the single-loop licence ---------------------------------------------
    def lane_refusal(self) -> Optional[str]:
        """Why the stores of this trace may not share one loop nest, or
        ``None`` — the licence — when the lanes are *proven* independent
        for the compiling call's ``args`` over any box, i.e. with the
        indices bounded by the kernel's guards alone (see
        :func:`repro.ir.verify.lane_conflict`; the pre-flight re-proves
        every call over its real box).  The proof speaks about the
        element an affine form names, so every index into a written
        array must also be computed in 64-bit (or weak) integers: there
        C's wrapping ring arithmetic yields the form's value whenever
        that value is in range, which narrower or float intermediates
        do not guarantee."""
        written = {st.array.pos for st in self.trace.stores}
        accesses: list = list(self.trace.stores)
        for root in self.trace.expressions():
            accesses += [
                nd
                for nd in N.walk(root)
                if isinstance(nd, N.Load) and nd.array.pos in written
            ]
        for acc in accesses:
            for ix in acc.indices:
                for nd in N.walk(ix):
                    elem = self.lat.dtype(nd)
                    if not (elem == "wi" if isinstance(elem, str) else elem == _I8):
                        return (
                            f"an index into arg{acc.array.pos} is not "
                            "computed in 64-bit integers"
                        )
        shapes, scalars = _verify._args_env(self.args)
        return _verify.lane_conflict(
            self.trace, dims=None, shapes=shapes, scalars=scalars
        )

    # -- argument staging --------------------------------------------------
    def _array(self, node: N.ArrayArg) -> int:
        pos = node.pos
        if pos not in self.arr_dtype:
            arr = self.args[pos]
            if not isinstance(arr, np.ndarray):
                raise NativeLoweringError("not-an-array")
            _ctype_of(arr.dtype)  # dtype allowlist
            self.arr_dtype[pos] = arr.dtype
            self.arr_rank[pos] = arr.ndim
        return pos

    def _scalar(self, pos: int) -> tuple[str, Any]:
        got = self._scalar_codes.get(pos)
        if got is not None:
            return got
        elem = scalar_dtype(self.args[pos])
        if elem is None:
            raise NativeLoweringError("scalar-type")
        if isinstance(elem, np.dtype):
            _ctype_of(elem)
            kind = elem.kind
        else:
            kind = {"wf": "f", "wi": "i", "wb": "b"}[elem]
        if kind == "f":
            self.fscalar.append(pos)
        else:
            self.iscalar.append(pos)
        out = (f"s{pos}", elem)
        self._scalar_codes[pos] = out
        return out

    # -- expression emission ----------------------------------------------
    def _new_tmp(self) -> str:
        self._tmp += 1
        return f"t{self._tmp}"

    def _deps_of(self, *children: N.Node) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for c in children:
            d = self.deps.get(id(c))
            if d:
                out |= d
        return out

    def _invalidate(self, pos: int) -> None:
        dead = [nid for nid, dp in self.deps.items() if pos in dp]
        for nid in dead:
            self.emitted.pop(nid, None)
            self.deps.pop(nid, None)

    def _reset_body(self) -> None:
        self.body = []
        self.emitted = {}
        self.deps = {}

    def coerce(self, code_elem: tuple[str, Any], target: np.dtype) -> str:
        """C expression casting ``code`` (of lattice element ``elem``)
        to ``target`` — the NEP-50 operand cast the ufunc would apply."""
        code, elem = code_elem
        if isinstance(elem, np.dtype) and elem == target:
            return code
        tcode = _dt_code(target)
        if tcode == "b1":
            return f"(uint8_t)(({code}) != 0)"
        if tcode == "i4" and elem == "wi":
            # Weak Python int narrowed to int32: exact only when the
            # runtime value fits — checked per call in the pre-flight.
            if code.startswith("s") and code[1:].isdigit():
                self.narrow_i4.add(int(code[1:]))
        return f"({_CTYPE[tcode]})({code})"

    def _as_bool(self, code_elem: tuple[str, Any]) -> str:
        code, elem = code_elem
        if isinstance(elem, np.dtype) and elem == _BOOL:
            return code
        return f"(({code}) != 0)"

    def _node_dtype(self, node: N.Node) -> np.dtype:
        dt = self.lat.dtype(node)
        if not isinstance(dt, np.dtype):
            raise NativeLoweringError("dtype")
        _ctype_of(dt)
        return dt

    def emit(self, node: N.Node) -> tuple[str, Any]:
        """Emit ``node`` into the current loop body; returns
        ``(C code, lattice element)`` — a temp name for interior nodes,
        an inline literal/parameter for leaves."""
        if isinstance(node, N.Const):
            v = node.value
            if isinstance(v, bool):
                return ("1" if v else "0", "wb")
            if isinstance(v, int):
                if not -(2**63) <= v < 2**63:
                    raise NativeLoweringError("const-range")
                return (f"INT64_C({v})", "wi")
            if isinstance(v, float):
                return (_float_literal(v), "wf")
            raise NativeLoweringError("const-type")
        if isinstance(node, N.Index):
            if node.axis >= self.ndim:
                raise NativeLoweringError("axis-range")
            return (f"i{node.axis}", np.dtype(np.intp))
        if isinstance(node, N.ScalarArg):
            return self._scalar(node.pos)
        nid = id(node)
        got = self.emitted.get(nid)
        if got is not None:
            return got
        code, elem, deps = self._emit_inner(node)
        var = self._new_tmp()
        ct = _ctype_of(elem) if isinstance(elem, np.dtype) else "double"
        self.body.append(f"const {ct} {var} = {code};")
        out = (var, elem)
        self.emitted[nid] = out
        if deps:
            self.deps[nid] = deps
        return out

    def _flat_index(self, pos: int, idx_codes: list[str]) -> str:
        """Row-major flat offset from per-axis int64 index codes."""
        rank = self.arr_rank[pos]
        terms = []
        for ax, code in enumerate(idx_codes):
            if ax < rank - 1:
                terms.append(f"({code}) * a{pos}_s{ax}")
            else:
                terms.append(f"({code})")
        return " + ".join(terms)

    def _gather_index(self, pos: int, ix: N.Node, ax: int) -> str:
        """Clamped int64 index for a gather load (mirrors ``_gather``)."""
        code, elem = self.emit(ix)
        if isinstance(elem, np.dtype):
            if elem.kind not in "ib":
                raise NativeLoweringError("float-index")
            code = self.coerce((code, elem), np.dtype(np.int64))
        elif elem == "wi" or elem == "wb":
            pass  # already an int64-typed C expression
        else:
            raise NativeLoweringError("float-index")
        var = self._new_tmp()
        n = f"a{pos}_n{ax}"
        self.body.append(f"int64_t {var} = {code};")
        self.body.append(f"if ({var} < 0) {var} = 0;")
        self.body.append(f"if ({var} >= {n}) {var} = {n} - 1;")
        return var

    def _emit_inner(self, node: N.Node):
        if isinstance(node, N.Load):
            pos = self._array(node.array)
            arr_dt = self.arr_dtype[pos]
            if _static_identity(node.indices, self.ndim):
                if self.arr_rank[pos] != self.ndim:
                    raise NativeLoweringError("rank")
                self.extent_slots.add(pos)
                flat = self._flat_index(
                    pos, [f"i{ax}" for ax in range(self.ndim)]
                )
            else:
                self.gather_slots.add(pos)
                idx = [
                    self._gather_index(pos, ix, ax)
                    for ax, ix in enumerate(node.indices)
                ]
                flat = self._flat_index(pos, idx)
            code = f"a{pos}[{flat}]"
            if _dt_code(arr_dt) == "b1":
                code = f"({code} != 0)"
            # After the index expressions were emitted: their own loads
            # are this load's dependencies too.
            return code, arr_dt, self._deps_of(*node.indices) | {pos}
        if isinstance(node, N.BinOp):
            if node.op not in _BIN_SYM and node.op not in ("min", "max"):
                raise NativeLoweringError(f"op:{node.op}")
            rdt = self._node_dtype(node)
            if rdt == _BOOL:
                raise NativeLoweringError("bool-arith")
            a = self.coerce(self.emit(node.lhs), rdt)
            b = self.coerce(self.emit(node.rhs), rdt)
            deps = self._deps_of(node.lhs, node.rhs)
            if node.op in ("min", "max"):
                rel = "<" if node.op == "min" else ">"
                if rdt.kind == "f":
                    # np.minimum/maximum propagate NaN from either side.
                    code = f"(({a} {rel} {b} || {a} != {a}) ? {a} : {b})"
                else:
                    code = f"(({a} {rel} {b}) ? {a} : {b})"
                return code, rdt, deps
            return f"({a} {_BIN_SYM[node.op]} {b})", rdt, deps
        if isinstance(node, N.UnOp):
            if node.op not in _UN_OK:
                raise NativeLoweringError(f"op:{node.op}")
            rdt = self._node_dtype(node)
            v = self.coerce(self.emit(node.operand), rdt)
            deps = self._deps_of(node.operand)
            if node.op == "neg":
                return f"(-({v}))", rdt, deps
            if node.op == "abs":
                if rdt.kind == "f":
                    fn = "fabsf" if rdt.itemsize == 4 else "fabs"
                    return f"{fn}({v})", rdt, deps
                return f"(({v}) < 0 ? -({v}) : ({v}))", rdt, deps
            # sqrt/floor/ceil: correctly-rounded libm = NumPy's loops.
            fn = node.op + ("f" if rdt.itemsize == 4 else "")
            return f"{fn}({v})", rdt, deps
        if isinstance(node, N.Compare):
            common = promote("add", self.lat.dtype(node.lhs), self.lat.dtype(node.rhs))
            if not isinstance(common, np.dtype):
                raise NativeLoweringError("dtype")
            _ctype_of(common)
            a = self.coerce(self.emit(node.lhs), common)
            b = self.coerce(self.emit(node.rhs), common)
            return (
                f"(uint8_t)({a} {_CMP_SYM[node.op]} {b})",
                _BOOL,
                self._deps_of(node.lhs, node.rhs),
            )
        if isinstance(node, N.BoolOp):
            a = self._as_bool(self.emit(node.lhs))
            b = self._as_bool(self.emit(node.rhs))
            return (
                f"(uint8_t)({a} {_BOOL_SYM[node.op]} {b})",
                _BOOL,
                self._deps_of(node.lhs, node.rhs),
            )
        if isinstance(node, N.Not):
            v = self._as_bool(self.emit(node.operand))
            return f"(uint8_t)(!{v})", _BOOL, self._deps_of(node.operand)
        if isinstance(node, N.Select):
            rdt = self._node_dtype(node)
            c = self._as_bool(self.emit(node.cond))
            t = self.coerce(self.emit(node.if_true), rdt)
            f = self.coerce(self.emit(node.if_false), rdt)
            return (
                f"({c} ? {t} : {f})",
                rdt,
                self._deps_of(node.cond, node.if_true, node.if_false),
            )
        if isinstance(node, N.Cast):
            target = np.dtype(np.int64 if node.kind == "int" else np.float64)
            v = self.coerce(self.emit(node.operand), target)
            return v, target, self._deps_of(node.operand)
        raise NativeLoweringError("node-type")

    # -- stores ------------------------------------------------------------
    def _store_cast(self, code_elem: tuple[str, Any], pos: int) -> str:
        """Value cast for assignment into array ``pos`` (NumPy's unsafe
        same-kind assignment cast = the C conversion)."""
        return self.coerce(code_elem, self.arr_dtype[pos])

    def emit_store(self, st: N.Store) -> None:
        pos = self._array(st.array)
        identity = _static_identity(st.indices, self.ndim)
        self.written.setdefault(pos, False)
        # Evaluation order mirrors codegen: value, then mask, then (for
        # scatters) the index expressions.
        val = self.emit(st.value)
        mask = None
        if st.condition is not None:
            mask = self._as_bool(self.emit(st.condition))
        if identity:
            if self.arr_rank[pos] != self.ndim:
                raise NativeLoweringError("rank")
            self.extent_slots.add(pos)
            flat = self._flat_index(pos, [f"i{ax}" for ax in range(self.ndim)])
            assign = f"a{pos}[{flat}] = {self._store_cast(val, pos)};"
            if mask is None:
                self.body.append(assign)
            else:
                self.body.append(f"if ({mask}) {{ {assign} }}")
            self._invalidate(pos)
            return
        # Scatter store: negative indices wrap, out-of-bounds on a taken
        # lane aborts the kernel (the Python wrapper raises the same
        # KernelExecutionError the vectorizer's fancy-index path does).
        self.written[pos] = True
        idx_codes = []
        for ax, ix in enumerate(st.indices):
            code, elem = self.emit(ix)
            if isinstance(elem, np.dtype):
                if elem.kind not in "ib":
                    raise NativeLoweringError("float-index")
                code = self.coerce((code, elem), np.dtype(np.int64))
            elif elem not in ("wi", "wb"):
                raise NativeLoweringError("float-index")
            idx_codes.append(code)
        if self.lanes:
            # Licensed: the index is proven inside [0, extent) on every
            # taken lane (re-proven per call by the pre-flight), so the
            # wrap and the out-of-bounds exit would be dead code.
            assign = (
                f"a{pos}[{self._flat_index(pos, idx_codes)}] = "
                f"{self._store_cast(val, pos)};"
            )
            self.body.append(
                assign if mask is None else f"if ({mask}) {{ {assign} }}"
            )
            self._invalidate(pos)
            return
        guard_open = f"if ({mask}) {{" if mask is not None else "{"
        self.body.append(guard_open)
        checked = []
        for ax, code in enumerate(idx_codes):
            n = f"a{pos}_n{ax}"
            xv = self._new_tmp()
            self.body.append(f"  int64_t {xv} = {code};")
            self.body.append(
                f"  if ({xv} < -{n} || {xv} >= {n}) "
                f"return {pos} + 1;"
            )
            self.body.append(f"  if ({xv} < 0) {xv} += {n};")
            checked.append(xv)
        flat = self._flat_index(pos, checked)
        self.body.append(f"  a{pos}[{flat}] = {self._store_cast(val, pos)};")
        self.body.append("}")
        self._invalidate(pos)

    # -- assembly ----------------------------------------------------------
    def _loop_nest(self, body: list[str]) -> list[str]:
        lines = []
        for ax in range(self.ndim):
            pad = "  " * ax
            lines.append(
                f"{pad}for (int64_t i{ax} = lo{ax}; i{ax} < hi{ax}; ++i{ax}) {{"
            )
        pad = "  " * self.ndim
        lines += [pad + line for line in body]
        for ax in reversed(range(self.ndim)):
            lines.append("  " * ax + "}")
        return lines

    def _fill(self, body: list[str], value: str) -> list[str]:
        """Body of the kernel's ``fill``: the result of lanes ``k .. k +
        m`` of the tile box (row-major) into ``blk`` — the result's loop
        nest, entered at lane ``k`` (axis ``ax`` starts its first pass
        at ``st<ax>``, every later one at ``lo<ax>``) and left after
        ``m`` lanes."""
        last = self.ndim - 1
        store = [*body, f"blk[f + (i{last} - st{last})] = {value};"]
        if not last:
            return [
                "const int64_t st0 = lo0 + k, f = 0;",
                "for (int64_t i0 = st0; i0 < st0 + m; ++i0) {",
                *["  " + line for line in store],
                "}",
            ]
        lines = [
            f"int64_t st{ax} = lo{ax} + k % e{ax}; k /= e{ax};"
            for ax in range(last, 0, -1)
        ]
        lines += ["int64_t f = 0;", "for (int64_t i0 = lo0 + k; f < m; ++i0) {"]
        for ax in range(1, last):
            lines.append(
                "  " * ax
                + f"for (int64_t i{ax} = st{ax}; i{ax} < hi{ax} && f < m; ++i{ax}) {{"
            )
        pad = "  " * last
        lines += [
            f"{pad}int64_t run = hi{last} - st{last};",
            f"{pad}if (run > m - f) run = m - f;",
            f"{pad}for (int64_t i{last} = st{last}; i{last} < st{last} + run; ++i{last}) {{",
            *[pad + "  " + line for line in store],
            f"{pad}}}",
            f"{pad}f += run; st{last} = lo{last};",
        ]
        for ax in range(last - 1, 0, -1):
            lines += ["  " * ax + "}", "  " * ax + f"st{ax} = lo{ax};"]
        lines.append("}")
        return lines

    def lower(self) -> dict:
        groups = _partition_groups(self.trace)
        if len(groups) > 1 and self.lane_refusal() is None:
            # Independent lanes give the same bits in any order: run
            # every store of a lane in program order inside one loop
            # nest (``_invalidate`` keeps its own load-after-store
            # right) instead of one whole-domain pass per group.
            self.lanes = True
            groups = [list(self.trace.stores)]
        loops: list[list[str]] = []
        for group in groups:
            self._reset_body()
            for st in group:
                self.emit_store(st)
            loops.append(self._loop_nest(self.body))
        has_result = self.trace.result is not None
        if has_result:
            self._reset_body()
            value = self.coerce(self.emit(self.trace.result), _F8)
            result_body = self.body

        # Packed call ABI (see NativeKernel._call): one int64 word
        # buffer — bounds, (reduce kernels: tile count, tile table and
        # the fold's address,) data pointers, shapes, integer scalars —
        # with the float scalars as doubles behind them; an
        # out-of-bounds scatter returns ``pos + 1``.
        arr_order = sorted(self.arr_dtype)
        head = 2 * self.ndim
        bounds = []
        for ax in range(self.ndim):
            bounds.append(f"const int64_t lo{ax} = w[{2 * ax}];")
            bounds.append(f"const int64_t hi{ax} = w[{2 * ax + 1}];")
        for ax in range(1, self.ndim):
            bounds.append(f"const int64_t e{ax} = hi{ax} - lo{ax};")
        off = head + (3 if has_result else 0)
        decls = []
        for k, pos in enumerate(arr_order):
            ct = _CTYPE[_dt_code(self.arr_dtype[pos])]
            decls.append(f"{ct} *a{pos} = ({ct} *)(intptr_t)w[{off + k}];")
        off += len(arr_order)
        for pos in arr_order:
            rank = self.arr_rank[pos]
            for ax in range(rank):
                decls.append(f"const int64_t a{pos}_n{ax} = w[{off + ax}];")
            # Row-major strides (pre-flight requires C-contiguity).
            for ax in range(rank - 1):
                factors = " * ".join(
                    f"a{pos}_n{x}" for x in range(ax + 1, rank)
                )
                decls.append(f"const int64_t a{pos}_s{ax} = {factors};")
            off += rank
        for k, pos in enumerate(self.iscalar):
            elem = self._scalar_codes[pos][1]
            ct = _CTYPE[_dt_code(elem)] if isinstance(elem, np.dtype) else "int64_t"
            if ct == "uint8_t":
                decls.append(
                    f"const uint8_t s{pos} = (uint8_t)(w[{off + k}] != 0);"
                )
            else:
                decls.append(f"const {ct} s{pos} = ({ct})w[{off + k}];")
        off += len(self.iscalar)
        if self.fscalar:
            decls.append(f"const double *fw = (const double *)(w + {off});")
        for k, pos in enumerate(self.fscalar):
            elem = self._scalar_codes[pos][1]
            ct = _CTYPE[_dt_code(elem)] if isinstance(elem, np.dtype) else "double"
            decls.append(f"const {ct} s{pos} = ({ct})fw[{k}];")

        entry = [
            "int64_t pyacc_kernel(const int64_t *w, double *out) {",
            "  (void)w; (void)out;",
        ]
        lines = ["#include <stdint.h>", "#include <math.h>", ""]
        if not has_result:
            lines += entry
            lines += ["  " + line for line in bounds + decls]
            lines.append("")
            for loop in loops:
                lines += ["  " + line for line in loop]
                lines.append("")
        else:
            # A reduce kernel walks the tiles of the call's box: the
            # stores over a tile, then its result through ``fill`` —
            # folded to ``out[tile]`` by the shared pairwise sum
            # (:data:`_FOLD_SOURCE`) or, for the lane-buffer callers
            # (tile count 0), every lane's value into ``out``.
            tile_bounds = [line.replace("w[", "tb[") for line in bounds]
            lanes = " * ".join(
                ["(hi0 - lo0)"] + [f"e{ax}" for ax in range(1, self.ndim)]
            )
            tile = list(tile_bounds)
            for loop in loops:
                tile += loop
            tile += [
                "if (!out) continue;",
                "const pyacc_cx cx = {w, tb};",
                f"if (nt) out[tile] = fold(fill, &cx, {lanes});",
                f"else fill(&cx, 0, {lanes}, out);",
            ]
            lines += [
                "typedef struct { const int64_t *w, *tb; } pyacc_cx;",
                "typedef void (*pyacc_fill)(const void *, int64_t, int64_t, double *);",
                "typedef double (*pyacc_fold)(pyacc_fill, const void *, int64_t);",
                "",
                "static void fill(const void *cx, int64_t k, int64_t m, double *blk) {",
                "  const int64_t *w = ((const pyacc_cx *)cx)->w;",
                "  const int64_t *tb = ((const pyacc_cx *)cx)->tb;",
                "  (void)w;",
                *["  " + line for line in tile_bounds + decls],
                *["  " + line for line in self._fill(result_body, value)],
                "}",
                "",
                *entry,
                *["  " + line for line in decls],
                f"  const int64_t nt = w[{head}];",
                f"  const int64_t *tb = w[{head + 1}] ? "
                f"(const int64_t *)(intptr_t)w[{head + 1}] : w;",
                f"  const pyacc_fold fold = (pyacc_fold)(intptr_t)w[{head + 2}];",
                "  for (int64_t tile = 0; tile < (nt ? nt : 1); "
                f"++tile, tb += {head}) {{",
                *["    " + line for line in tile],
                "  }",
            ]
        lines += ["  return 0;", "}"]

        return {
            "source": "\n".join(lines) + "\n",
            "arr_order": tuple(arr_order),
            "arr_dtype": {p: self.arr_dtype[p] for p in arr_order},
            "arr_rank": {p: self.arr_rank[p] for p in arr_order},
            "extent_slots": tuple(sorted(self.extent_slots)),
            "gather_slots": frozenset(self.gather_slots),
            "written": dict(self.written),
            "fscalar": tuple(self.fscalar),
            "iscalar": tuple(self.iscalar),
            "narrow_i4": tuple(sorted(self.narrow_i4)),
            "has_result": has_result,
            # Single-loop kernels re-prove the licence per call, keyed
            # on the scalars the proof can read; ``None`` = grouped.
            "lane_scalars": (
                _verify.consumed_scalars(self.trace) if self.lanes else None
            ),
        }


# ---------------------------------------------------------------------------
# Runtime wrapper
# ---------------------------------------------------------------------------

_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

_ADDRESSOF = ctypes.addressof
_RAW0 = ctypes.c_char * 0

#: A reduce kernel's head words for "no fold": every lane's value in
#: ``out`` (``min``/``max``, ``evaluate_values``) or no ``out`` at all.
_LANES = (0, 0, 0)

#: Bound on a single-loop kernel's per-call proof memo — a backstop for
#: a sweep over problem sizes (each chunk box of each size is one entry).
_LANE_MEMO_MAX = 64


def _data_ptr(arr: np.ndarray) -> int:
    """Raw data pointer without the ``.ctypes`` interface object.

    ``ndarray.ctypes`` constructs a fresh interface wrapper on every
    access (~3x the cost of the whole pointer extraction); going through
    the buffer protocol keeps the per-launch marshal overhead at the
    level of the C call itself.  Read-only arrays refuse the writable
    buffer protocol and take the attribute path.
    """
    try:
        return _ADDRESSOF(_RAW0.from_buffer(arr))
    except (TypeError, ValueError, BufferError):
        return arr.ctypes.data


class NativeKernel:
    """A trace compiled to a shared object, callable per chunk.

    ``run_for``/``run_reduce`` mirror the other rungs' entry points; a
    call whose arguments violate a baked-in assumption raises
    :class:`NativeDeclined` *before any side effect* and the compiled
    kernel falls through to its codegen program.

    Call ABI: ``int64_t pyacc_kernel(const int64_t *w, double *out)``.
    ``w`` is one per-call buffer — chunk bounds, for a reduce kernel
    three words (tiles to fold, their table, the fold's address), then
    the words :meth:`preflight` returns (data pointers, shapes, integer
    scalars as int64, float scalars as doubles) — filled by a single
    :class:`struct.Struct` pack sized once per kernel.  The buffer is a
    local of the call, so pool threads share no marshal state; the
    return value is 0, or ``pos + 1`` of the array an out-of-bounds
    scatter hit.  ``out`` receives one partial per tile (an add-reduce)
    or every lane's value (tile count 0).

    A *single-loop* kernel (``spec["lane_scalars"]`` is not ``None``)
    was lowered under the lane-independence licence and holds the
    ``trace`` to re-prove it: its C code is only correct for calls whose
    lanes are proven independent, so :meth:`preflight` declines
    ``lanes`` for any other call.
    """

    __slots__ = (
        "source",
        "ndim",
        "has_result",
        "_fn",
        "_arr_order",
        "_arr_dtype",
        "_arr_rank",
        "_extent_slots",
        "_gather_slots",
        "_written",
        "_fscalar",
        "_iscalar",
        "_narrow_i4",
        "_lane_scalars",
        "_lane_memo",
        "_trace",
        "_arrays",
        "_alias_pairs",
        "_pack",
        "_c_fold",
        "_slots",
    )

    def __init__(self, spec: dict, trace: N.Trace):
        self.source = spec["source"]
        self.ndim = spec["ndim"]
        self.has_result = spec["has_result"]
        self._arr_order = spec["arr_order"]
        self._arr_dtype = spec["arr_dtype"]
        self._arr_rank = spec["arr_rank"]
        self._extent_slots = spec["extent_slots"]
        self._gather_slots = spec["gather_slots"]
        self._written = spec["written"]
        self._fscalar = spec["fscalar"]
        self._iscalar = spec["iscalar"]
        self._narrow_i4 = spec["narrow_i4"]
        self._lane_scalars = lanes = spec.get("lane_scalars")
        self._lane_memo: dict = {}
        self._trace = trace
        self._fn = compile_source(self.source)
        if lanes is not None:
            record_single_loop()
        # Pre-flight tables, resolved once: per-array facts, and the
        # (written, other, strict) index pairs into ``_arr_order`` whose
        # storage must not overlap.  Per-lane loops can only reorder
        # against the vectorizer through shared storage; ``strict`` pairs
        # (a scatter-written array, a written array whose alias is
        # gather-loaded, or any pair of a single-loop kernel — its proof
        # is per argument position) decline even when both names are one
        # object, the rest only for distinct overlapping views.
        order = self._arr_order
        self._arrays = tuple(
            (p, self._arr_dtype[p], self._arr_rank[p], p in self._written,
             p in self._extent_slots)
            for p in order
        )
        self._alias_pairs = tuple(
            (
                order.index(w),
                k,
                scatter or o in self._gather_slots or lanes is not None,
            )
            for w, scatter in self._written.items()
            for k, o in enumerate(order)
            if o != w
        )
        n_words = (
            2 * self.ndim
            + (3 if self.has_result else 0)  # tile count, tile table, fold
            + len(order)
            + sum(self._arr_rank.values())
            + len(self._iscalar)
        )
        self._pack = struct.Struct(f"{n_words}q{len(self._fscalar)}d").pack
        # Add-reduces fold in C (``_c_fold``: the shared fold's address)
        # unless this host's NumPy sums in another order, see fold_in_c.
        # ``_slots`` recycles the partials' out buffers: pop/append are
        # atomic, so pool threads running chunks of one kernel never
        # share a slot and a call allocates nothing.
        self._c_fold = fold_in_c() if self.has_result else 0
        self._slots: list = []
        if self._c_fold:
            record_c_fold()

    # -- pre-flight --------------------------------------------------------
    def preflight(self, domain: IndexDomain, args: Sequence[Any]) -> list:
        """Check this call against every baked-in assumption and return
        its marshalled words (data pointers, shapes, integer scalars,
        float scalars) for :meth:`_call`; raise :class:`NativeDeclined`
        otherwise.  Side-effect free, and monotone in ``domain``: the
        words of a box that passed serve every sub-box."""
        ranges = domain.ranges
        if len(ranges) != self.ndim:
            raise NativeDeclined("domain-rank")
        # An identity-accessed array the zero-based box covers exactly
        # needs no per-axis extent walk.
        full = domain.shape if domain.zero_based else None
        arrs, words, shapes = [], [], []
        for pos, dtype, rank, written, extent in self._arrays:
            arr = args[pos]
            if not isinstance(arr, np.ndarray):
                raise NativeDeclined("not-an-array")
            if arr.dtype != dtype:
                raise NativeDeclined("dtype-drift")
            if arr.ndim != rank:
                raise NativeDeclined("rank-drift")
            flags = arr.flags
            if not flags.c_contiguous:
                raise NativeDeclined("non-contiguous")
            if written and not flags.writeable:
                raise NativeDeclined("read-only")
            shape = arr.shape
            if extent and shape != full:
                for (_, hi), n in zip(ranges, shape):
                    if hi > n:
                        raise NativeDeclined("extent")
            arrs.append(arr)
            words.append(_data_ptr(arr))
            shapes += shape
        for kw, ko, strict in self._alias_pairs:
            aw, ao = arrs[kw], arrs[ko]
            if (
                (strict or ao is not aw)
                and words[kw] < words[ko] + ao.nbytes
                and words[ko] < words[kw] + aw.nbytes
            ):
                raise NativeDeclined("alias")
        if self._lane_scalars is not None:
            self._check_lanes(ranges, shapes, args)
        for pos in self._narrow_i4:
            if not _I32_MIN <= int(args[pos]) <= _I32_MAX:
                raise NativeDeclined("scalar-overflow")
        words += shapes
        for pos in self._iscalar:
            v = int(args[pos])
            if not _I64_MIN <= v <= _I64_MAX:
                raise NativeDeclined("scalar-overflow")
            words.append(v)
        for pos in self._fscalar:
            words.append(float(args[pos]))
        return words

    def _check_lanes(self, ranges, shapes: list, args: Sequence[Any]) -> None:
        """Decline ``lanes`` unless this call's lanes are proven
        independent over the zero-based box enclosing ``ranges`` (which
        serves every sub-box, so tiles and tail chunks share a proof).
        Verdicts are memoized per ``(box, shapes, consumed scalars)``;
        the unlocked dict write is the benign race of ``KernelCache``."""
        dims = []
        for lo, hi in ranges:
            if lo < 0:  # outside the zero-based box the proof covers
                raise NativeDeclined("lanes")
            dims.append(hi)
        key = (
            tuple(dims),
            tuple(shapes),
            tuple([args[pos] for pos in self._lane_scalars]),
        )
        memo = self._lane_memo
        proven = memo.get(key)
        if proven is None:
            env_shapes, scalars = _verify._args_env(args)
            try:
                proven = (
                    _verify.lane_conflict(
                        self._trace, dims=key[0], shapes=env_shapes, scalars=scalars
                    )
                    is None
                )
            except Exception:  # e.g. an inf/NaN guard scalar: no proof
                proven = False
            if len(memo) >= _LANE_MEMO_MAX:
                memo.clear()
            memo[key] = proven
        if not proven:
            raise NativeDeclined("lanes")

    # -- invocation --------------------------------------------------------
    def _call(self, domain: IndexDomain, words: list, out, head: tuple = ()):
        """Run the C loop over ``domain`` with pre-flighted ``words``.
        Reduce kernels take three ``head`` words: the tiles to fold,
        their table (:attr:`IndexDomain.tile_words`) and the fold's
        address — or :data:`_LANES` for every lane's value in ``out``."""
        w = self._pack(*domain.bounds, *head, *words)
        # ctypes releases the GIL for the duration of the call — chunked
        # launches on the threads backend run truly in parallel here.
        err = self._fn(w, out)
        if err:
            raise KernelExecutionError(
                f"out-of-bounds store into argument {err - 1}: "
                "native scatter index outside the array extent"
            )

    def run_for(
        self,
        domain: IndexDomain,
        args: Sequence[Any],
        arena: Optional[ScratchArena] = None,
    ) -> None:
        head = _LANES if self.has_result else ()
        self._call(domain, self.preflight(domain, args), None, head)

    def evaluate_values(
        self, domain: IndexDomain, args: Sequence[Any]
    ) -> np.ndarray:
        """Per-lane result values over ``domain`` (float64, domain
        shape) — the native analogue of
        :func:`repro.ir.vectorizer.evaluate_values`, used by the
        cuda-sim per-block reduction primitives.  Stores run too,
        exactly like the vectorizer's variant."""
        if not self.has_result:
            raise KernelExecutionError(
                "kernel returns no value on any path"
            )
        words = self.preflight(domain, args)
        buf = np.empty(domain.shape, dtype=np.float64)
        self._call(domain, words, _data_ptr(buf), _LANES)
        return buf

    def run_reduce(
        self,
        domain: IndexDomain,
        args: Sequence[Any],
        op: str = "add",
        arena: Optional[ScratchArena] = None,
    ) -> float:
        """Reduce over ``domain`` — a whole chunk: one pre-flight, then
        its :attr:`~IndexDomain.tiles` in order, partials folded with
        ``op``.  ``add`` is one C call that leaves one pairwise-summed
        partial per tile in a recycled slot; ``min``/``max`` (NumPy's
        SIMD order for NaN and ``-0.0`` is not ours to transcribe) and
        a host whose fold self-check failed run tile by tile through an
        arena-leased lane buffer that NumPy folds."""
        _check_reduce(self.has_result, op)
        if domain.size == 0:
            return _REDUCE_IDENTITY[op]
        words = self.preflight(domain, args)
        if not self.leases_lanes(op):
            n, table, _ = domain.tile_words
            slots = self._slots
            try:
                slot = slots.pop()
            except IndexError:
                slot = ()
            if len(slot) < n:
                slot = (ctypes.c_double * n)()
            self._call(domain, words, slot, (n, table, self._c_fold))
            value = slot[0] if n == 1 else fold_partials(op, slot[:n])
            slots.append(slot)
            return value
        tiles = domain.tiles
        if len(tiles) > 1:
            arena = ChunkArena(arena)
        return fold_partials(
            op, [self._fold_lanes(tile, words, op, arena) for tile in tiles]
        )

    def leases_lanes(self, op: str) -> bool:
        """Whether an ``op`` reduce leases a float64 lane buffer per tile
        from the arena (:meth:`_fold_lanes`): every op but an ``add``
        folded in C.  Graph builds reserve the buffer only when true."""
        return op != "add" or not self._c_fold

    def _fold_lanes(self, tile: IndexDomain, words: list, op: str, arena) -> float:
        """One tile through the lane buffer: per-lane values land in an
        arena-leased float64 buffer (raw pointer handed to C) and the
        fold is NumPy's — the codegen/vector rungs' own."""
        frame = _resolve_arena(arena).frame()
        try:
            buf = frame.take(tile.shape, np.float64)
            self._call(tile, words, _data_ptr(buf), _LANES)
            return _fold_lanes(buf, tile.shape, op)
        finally:
            frame.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NativeKernel ndim={self.ndim} arrays={len(self._arr_order)}>"
        )


#: :func:`fold_in_c`'s answer for this process (``None``: not yet asked).
_FOLD: Optional[int] = None


def _fold_reference(values: np.ndarray) -> float:
    return float(values.sum())


def fold_in_c() -> int:
    """Address of the shared C add-fold (:data:`_FOLD_SOURCE`), or 0
    when add-reduces must not use it here.  The fold transcribes NumPy's
    pairwise sum, whose order NumPy does not promise; so once per
    process it is run against ``ndarray.sum()`` on fixed vectors (both
    leaf shapes, two split levels, all ``-0.0``).  A mismatch — or a
    check that cannot run — records one ``fold`` decline and every
    add-reduce keeps the lane-buffer path."""
    global _FOLD
    if _FOLD is None:
        k = np.array(range(1101), dtype=np.float64)
        v = (k * 0.7 - 300.1) * 10.0 ** (k % 17 - 8)
        addr = ctypes.c_int64()
        try:
            check = compile_source(_FOLD_SOURCE, "pyacc_fold_check")
            check.restype = ctypes.c_double
            check.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
            ok = all(
                struct.pack("d", check(_data_ptr(vec), vec.size, ctypes.byref(addr)))
                == struct.pack("d", _fold_reference(vec))
                for vec in (v, v[:100], v[:7], np.full(9, -0.0))
            )
        except NativeCompileError:  # no verdict is a failed check
            ok = False
        if not ok:
            record_decline("fold")
        _FOLD = addr.value if ok else 0
    return _FOLD


def lower_native(trace: N.Trace, args: Sequence[Any]) -> NativeKernel:
    """Lower an optimized trace to a compiled :class:`NativeKernel`.

    Raises :class:`NativeLoweringError` (trace outside the bit-identity
    contract) or :class:`~repro.ir.nativecache.NativeCompileError`
    (compiler missing / compile / load failure); both carry the decline
    ``reason`` the caller records.  The caller keeps its codegen program
    as the fallback rung either way.
    """
    lowering = _NativeLowering(trace, args)
    try:
        spec = lowering.lower()
    except (NativeLoweringError, NativeCompileError):
        raise
    except Exception as exc:  # defensive: never break compilation
        raise NativeLoweringError("lowering-failed", str(exc)) from exc
    spec["ndim"] = trace.ndim
    return NativeKernel(spec, trace)


def try_lower_native(
    trace: Optional[N.Trace], args: Sequence[Any]
) -> tuple[Optional[NativeKernel], Optional[str]]:
    """Best-effort native lowering: ``(kernel, None)`` on success,
    ``(None, reason)`` on decline — with the decline recorded in the
    native counters (see :func:`repro.ir.nativecache.native_stats`)."""
    if trace is None:
        return None, "no-trace"
    try:
        return lower_native(trace, args), None
    except (NativeLoweringError, NativeCompileError) as exc:
        record_decline(exc.reason)
        return None, exc.reason
