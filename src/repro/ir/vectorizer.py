"""Vectorized execution of traced kernels over index grids.

This is the back half of the tracing JIT: it evaluates a
:class:`~repro.ir.nodes.Trace` over an N-dimensional index domain using
NumPy array programs — one broadcasted operation per IR node — instead of
a Python loop per index.  It plays the role the LLVM code generator plays
for Julia kernels: the user-visible contract (a scalar kernel applied at
every index) is identical; only the execution strategy differs.

Key behaviours
--------------
* **Broadcast index grids.**  The 2-D domain ``(M, N)`` is represented as
  ``i = arange(M)[:, None]`` and ``j = arange(N)[None, :]`` so every node
  evaluates to an array broadcastable to ``(M, N)`` without materializing
  the full grid per index.  Sub-ranges (``lo..hi``) are supported so the
  threads backend can execute coarse-grained chunks of the domain.
* **Memoization + store invalidation.**  Node evaluation is memoized per
  node object (CSE).  A :class:`~repro.ir.nodes.Store` to array ``p``
  invalidates memoized :class:`~repro.ir.nodes.Load` results from ``p``
  (and anything computed from them), preserving the scalar program-order
  semantics of load-after-store within a lane.
* **Masked effects.**  A guarded store only writes lanes where its
  condition holds.  Loads are evaluated *eagerly* over the whole domain,
  so gather indices are clamped into bounds; lanes whose path condition is
  false never use the clamped garbage.  This mirrors how predicated SIMT
  hardware executes both sides of a branch.
* **Fast paths.**  The overwhelmingly common store pattern —
  unconditional, identity indices (``x[i] = ...``, ``x[i, j] = ...``) —
  lowers to a whole-array slice assignment.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Any, Sequence

import numpy as np

from ..core.exceptions import KernelExecutionError
from . import nodes as N

__all__ = [
    "IndexDomain",
    "VectorEvaluator",
    "execute_trace",
    "reduce_trace",
    "fold_partials",
    "evaluate_values",
]


#: Lanes per execution tile: the largest block whose ufunc temporaries
#: stay cache-resident.  From a 2-thread NumPy AXPY sweep at n = 2^24 on
#: the reference host: one full-size temporary 43.7 ms; blocks of 8 K /
#: 16 K / 32 K / 64 K / 128 K / 256 K lanes 49.3 / 20.2 / 14.4 / 13.0 /
#: 13.3 / 15.1 ms.
TILE_LANES = 1 << 16


class IndexDomain:
    """An axis-aligned sub-box of the launch domain.

    ``ranges`` holds ``(lo, hi)`` per axis (half-open), ``bounds`` the
    same numbers flat (the native call ABI's leading words); ``shape``
    is the dense shape of the box.  Construction is O(1) in lanes: the
    broadcast-ready index arrays (``grids``) and the cache-sized
    sub-boxes every trace-based executor rung actually runs (``tiles``,
    and their packed form ``tile_words``) are built on first read and
    cached on the instance.
    """

    __slots__ = (
        "ranges",
        "bounds",
        "shape",
        "size",
        "zero_based",
        "_grids",
        "_tiles",
        "_tile_words",
    )

    def __init__(self, ranges: Sequence[tuple[int, int]]):
        if not 1 <= len(ranges) <= 3:
            raise KernelExecutionError(
                f"index domain must be 1-D..3-D, got {len(ranges)} axes"
            )
        self.ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
        for lo, hi in self.ranges:
            if hi < lo:
                raise KernelExecutionError(f"empty/negative axis range {lo}..{hi}")
        self.bounds = tuple(b for lo_hi in self.ranges for b in lo_hi)
        self.shape = tuple(hi - lo for lo, hi in self.ranges)
        self.size = math.prod(self.shape)
        self.zero_based = all(lo == 0 for lo, _ in self.ranges)
        self._grids = None
        self._tiles = None
        self._tile_words = None

    @classmethod
    def of(cls, ranges: Sequence[tuple[int, int]]) -> "IndexDomain":
        """The shared instance for ``ranges``.

        Launch and chunk domains recur on every launch of the same
        problem size, so backends stage through this memoised
        constructor: a domain, its tiles and any grids a kernel did need
        are built once per problem size, not once per launch.
        :class:`IndexDomain` is immutable and its grids are frozen, so
        sharing one instance across launches and threads is safe.
        """
        return _domain(tuple((int(lo), int(hi)) for lo, hi in ranges))

    @classmethod
    def full(cls, dims: Sequence[int]) -> "IndexDomain":
        """The whole launch domain ``(0, d)`` per axis (shared instance)."""
        return _domain(tuple((0, int(d)) for d in dims))

    @property
    def grids(self) -> tuple[np.ndarray, ...]:
        """Broadcast-ready index arrays, one per axis.

        Only kernels that use an index as a *value* (offset/gather
        indexing, index arithmetic, scatters) read these; identity-indexed
        kernels run on slices and never build them.
        """
        grids = self._grids
        if grids is None:
            nd = len(self.ranges)
            built = []
            for ax, (lo, hi) in enumerate(self.ranges):
                idx = np.arange(lo, hi, dtype=np.intp)
                # Domains are shared across launches and threads — freeze
                # the grids so no executor can scribble on another
                # launch's index arrays.
                idx.setflags(write=False)
                shape = [1] * nd
                shape[ax] = hi - lo
                built.append(idx.reshape(shape))
            grids = self._grids = tuple(built)
        return grids

    @property
    def tiles(self) -> tuple["IndexDomain", ...]:
        """This box cut into contiguous sub-boxes of at most
        :data:`TILE_LANES` lanes, in row-major order (``(self,)`` when
        the box is already that small).

        Iterations of a construct are independent (the V101/V102 facts
        chunked execution already relies on), so running tile by tile
        instead of over the whole box changes no result — only where the
        temporaries live.  The tuple is cached so per-domain-object
        caches (hoisted prologues) see stable tile objects.
        """
        tiles = self._tiles
        if tiles is None:
            tiles = self._tiles = (
                (self,) if self.size <= TILE_LANES else tuple(self._cut())
            )
        return tiles

    @property
    def tile_words(self) -> tuple:
        """``(tile count, address of the tiles' bounds, keep-alive)`` —
        the two words a native add-reduce walks :attr:`tiles` by.  The
        table is one int64 row of ``bounds`` per tile; a box that is its
        own single tile passes address 0 and the kernel reads the call's
        own bounds instead."""
        tw = self._tile_words
        if tw is None:
            tiles = self.tiles
            if len(tiles) == 1:
                tw = (1, 0, None)
            else:
                table = np.array([t.bounds for t in tiles], dtype=np.int64)
                tw = (len(tiles), table.ctypes.data, table)
            self._tile_words = tw
        return tw

    def _cut(self):
        """Blocks of whole leading-axis rows; a single row wider than a
        tile is cut along the next axis instead."""
        ranges = self.ranges
        ax = next(i for i, s in enumerate(self.shape) if s > 1)
        lo, hi = ranges[ax]
        step = max(1, TILE_LANES // math.prod(self.shape[ax + 1 :]))
        for a in range(lo, hi, step):
            block = ((a, min(a + step, hi)),)
            yield from IndexDomain(ranges[:ax] + block + ranges[ax + 1 :]).tiles

    @property
    def ndim(self) -> int:
        return len(self.ranges)

    def is_full_identity(self, arr_shape: tuple[int, ...]) -> bool:
        """True when this domain covers ``arr_shape`` exactly (axis by
        axis), enabling the whole-array fast path."""
        # Hot path of every executor — a zero-based box covers the array
        # exactly iff the dense shapes match (one tuple comparison).
        return self.zero_based and arr_shape == self.shape


@lru_cache(maxsize=256)
def _domain(ranges: tuple[tuple[int, int], ...]) -> IndexDomain:
    """Memoized domain construction (see :meth:`IndexDomain.of`)."""
    return IndexDomain(ranges)


_BIN_FUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "truediv": np.true_divide,
    "floordiv": np.floor_divide,
    "mod": np.mod,
    "pow": np.power,
    "min": np.minimum,
    "max": np.maximum,
}

_UN_FUNCS = {
    "neg": np.negative,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "floor": np.floor,
    "ceil": np.ceil,
    "sign": np.sign,
}

_CMP_FUNCS = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}

_BOOL_FUNCS = {
    "and": np.logical_and,
    "or": np.logical_or,
    "xor": np.logical_xor,
}


class VectorEvaluator:
    """Evaluates IR nodes to (broadcastable) NumPy values over a domain."""

    def __init__(self, domain: IndexDomain, args: Sequence[Any]):
        self.domain = domain
        self.args = args
        self._memo: dict[int, Any] = {}
        # node-id -> array arg position, for store invalidation
        self._load_deps: dict[int, set[int]] = {}

    # -- evaluation ------------------------------------------------------
    def eval(self, node: N.Node) -> Any:
        memo = self._memo
        nid = id(node)
        if nid in memo:
            return memo[nid]
        value, deps = self._eval_inner(node)
        memo[nid] = value
        if deps:
            self._load_deps[nid] = deps
        return value

    def _deps_of(self, *children: N.Node) -> set[int]:
        deps: set[int] = set()
        for c in children:
            d = self._load_deps.get(id(c))
            if d:
                deps |= d
        return deps

    def _eval_inner(self, node: N.Node) -> tuple[Any, set[int]]:
        if isinstance(node, N.Const):
            return node.value, set()
        if isinstance(node, N.Index):
            if node.axis >= self.domain.ndim:
                raise KernelExecutionError(
                    f"kernel uses index axis {node.axis} but the launch "
                    f"domain is {self.domain.ndim}-D"
                )
            return self.domain.grids[node.axis], set()
        if isinstance(node, N.ScalarArg):
            return self.args[node.pos], set()
        if isinstance(node, N.Load):
            arr = self._array(node.array.pos)
            deps = self._deps_of(*node.indices)
            deps.add(node.array.pos)
            if self._identity_axes(node.indices) and len(arr.shape) == self.domain.ndim:
                # View fast path: x[i] / x[i, j] over (a chunk of) the
                # domain reads the array (slice) directly, no gather copy.
                if self.domain.is_full_identity(arr.shape):
                    return arr, deps
                if all(hi <= s for (lo, hi), s in zip(self.domain.ranges, arr.shape)):
                    return (
                        arr[tuple(slice(lo, hi) for lo, hi in self.domain.ranges)],
                        deps,
                    )
            idx = tuple(self.eval(ix) for ix in node.indices)
            value = _gather(arr, idx)
            return value, deps
        if isinstance(node, N.BinOp):
            a = self.eval(node.lhs)
            b = self.eval(node.rhs)
            return _BIN_FUNCS[node.op](a, b), self._deps_of(node.lhs, node.rhs)
        if isinstance(node, N.UnOp):
            return (
                _UN_FUNCS[node.op](self.eval(node.operand)),
                self._deps_of(node.operand),
            )
        if isinstance(node, N.Compare):
            a = self.eval(node.lhs)
            b = self.eval(node.rhs)
            return _CMP_FUNCS[node.op](a, b), self._deps_of(node.lhs, node.rhs)
        if isinstance(node, N.BoolOp):
            a = self.eval(node.lhs)
            b = self.eval(node.rhs)
            return _BOOL_FUNCS[node.op](a, b), self._deps_of(node.lhs, node.rhs)
        if isinstance(node, N.Not):
            return (
                np.logical_not(self.eval(node.operand)),
                self._deps_of(node.operand),
            )
        if isinstance(node, N.Select):
            c = self.eval(node.cond)
            t = self.eval(node.if_true)
            f = self.eval(node.if_false)
            return np.where(c, t, f), self._deps_of(
                node.cond, node.if_true, node.if_false
            )
        if isinstance(node, N.Cast):
            v = self.eval(node.operand)
            if node.kind == "int":
                out = np.asarray(v).astype(np.int64)
            else:
                out = np.asarray(v).astype(np.float64)
            return out, self._deps_of(node.operand)
        raise KernelExecutionError(f"unknown IR node {type(node).__name__}")

    def _array(self, pos: int) -> np.ndarray:
        arr = self.args[pos]
        if not isinstance(arr, np.ndarray):
            raise KernelExecutionError(
                f"argument {pos} is referenced as an array in the trace but "
                f"a {type(arr).__name__} was passed"
            )
        return arr

    # -- effects -----------------------------------------------------------
    def _invalidate(self, array_pos: int) -> None:
        """Drop memoized values that (transitively) read ``array_pos``."""
        dead = [
            nid for nid, deps in self._load_deps.items() if array_pos in deps
        ]
        for nid in dead:
            self._memo.pop(nid, None)
            self._load_deps.pop(nid, None)

    def run_store(self, store: N.Store) -> None:
        arr = self._array(store.array.pos)
        value = self.eval(store.value)
        mask = None
        if store.condition is not None:
            mask = self.eval(store.condition)
            if mask is False or (np.isscalar(mask) and not mask):
                return
            if mask is True or (np.isscalar(mask) and mask):
                mask = None

        identity = self._identity_axes(store.indices)
        if identity and mask is None and self.domain.is_full_identity(arr.shape):
            # Whole-array assignment: x[i, j] = value over the full domain.
            arr[...] = value
            self._invalidate(store.array.pos)
            return
        if identity and mask is None:
            # Contiguous sub-box assignment (chunked execution).
            slices = tuple(slice(lo, hi) for lo, hi in self.domain.ranges)
            arr[slices] = np.broadcast_to(value, self.domain.shape)
            self._invalidate(store.array.pos)
            return

        # General masked scatter.
        shape = self.domain.shape
        idx = tuple(
            np.broadcast_to(np.asarray(self.eval(ix)), shape)
            for ix in store.indices
        )
        idx = tuple(_as_index_array(ix) for ix in idx)
        value_b = np.broadcast_to(np.asarray(value), shape)
        if mask is None:
            try:
                arr[idx] = value_b
            except IndexError as exc:
                raise KernelExecutionError(
                    f"out-of-bounds store into argument {store.array.pos}: {exc}"
                ) from exc
        else:
            sel = np.broadcast_to(np.asarray(mask, dtype=bool), shape)
            if not sel.any():
                return
            try:
                arr[tuple(ix[sel] for ix in idx)] = value_b[sel]
            except IndexError as exc:
                raise KernelExecutionError(
                    f"out-of-bounds store into argument {store.array.pos}: {exc}"
                ) from exc
        self._invalidate(store.array.pos)

    def _identity_axes(self, indices: tuple[N.Node, ...]) -> bool:
        """True when ``indices`` is exactly (Index(0), Index(1), ...)."""
        if len(indices) != self.domain.ndim:
            return False
        return all(
            isinstance(ix, N.Index) and ix.axis == ax
            for ax, ix in enumerate(indices)
        )


def _as_index_array(ix: np.ndarray) -> np.ndarray:
    if ix.dtype.kind in "iu":
        return ix
    # Float-valued index expressions are truncated toward zero, matching
    # the paper's ``trunc(Int, ind)`` idiom.
    return np.trunc(ix).astype(np.intp)


# ``np.clip`` burns several microseconds per call in dispatcher layers and
# dtype-limit probes — pure overhead at the small launch domains iterative
# solvers live at, where a stencil kernel issues dozens of clamped gathers
# per launch.  The raw ufunc does the same clamp without the wrapping.
try:  # numpy >= 2.0
    from numpy._core.umath import clip as _clip_uf
except ImportError:  # pragma: no cover - numpy 1.x
    try:
        from numpy.core.umath import clip as _clip_uf  # type: ignore
    except ImportError:
        _clip_uf = np.clip


def _clamp_index(arr: np.ndarray, idx: tuple[Any, ...]) -> tuple:
    """The clamped integer index tuple ``_gather`` would use.

    Split out so a frozen launch graph can precompute it once per
    instantiation when the index expressions are replay-invariant (the
    clamp depends only on the array's *shape*, never its contents).
    """
    out_idx = []
    for ax, ix in enumerate(idx):
        if not isinstance(ix, np.ndarray) and not np.isscalar(ix):
            ix = np.asarray(ix)
        if isinstance(ix, np.ndarray) and ix.ndim:
            if ix.dtype.kind not in "iu":
                ix = np.trunc(ix).astype(np.intp)
            out_idx.append(_clip_uf(ix, 0, arr.shape[ax] - 1))
        else:
            ii = int(ix)
            if ii < 0:
                ii = 0
            elif ii >= arr.shape[ax]:
                ii = arr.shape[ax] - 1
            out_idx.append(ii)
    return tuple(out_idx)


def _gather(arr: np.ndarray, idx: tuple[Any, ...]) -> np.ndarray:
    """Gather ``arr[idx...]`` with out-of-bounds lanes clamped.

    Predicated execution evaluates loads on lanes whose path condition is
    false; those lanes' indices may be out of bounds (e.g. ``x[i - 1]`` at
    ``i == 0`` under an interior-only guard).  Clamping keeps the gather
    defined; guarded stores ensure clamped values are never consumed on a
    taken path.
    """
    return arr[_clamp_index(arr, idx)]


def execute_trace(
    trace: N.Trace, domain: IndexDomain, args: Sequence[Any]
) -> None:
    """Run a ``parallel_for`` trace (effects only) over ``domain``."""
    ev = VectorEvaluator(domain, args)
    for store in trace.stores:
        ev.run_store(store)


def evaluate_values(
    trace: N.Trace, domain: IndexDomain, args: Sequence[Any]
) -> np.ndarray:
    """Run a reduce trace's effects and return the *per-lane* values as a
    dense float64 array of the domain's shape (no fold applied).

    Used by the simulated-GPU native reduction path, which folds per block
    first (the paper's Fig. 3 two-kernel scheme), and by tests that check
    partial-reduction equivalence.
    """
    if trace.result is None:
        raise KernelExecutionError(
            "kernel returns no value; cannot evaluate per-lane values"
        )
    ev = VectorEvaluator(domain, args)
    for store in trace.stores:
        ev.run_store(store)
    values = ev.eval(trace.result)
    return np.ascontiguousarray(
        np.broadcast_to(np.asarray(values, dtype=np.float64), domain.shape)
    )


#: The reduce ops, one row each: the ufunc that folds lanes, tiles,
#: chunks and shards, and the identity an empty domain reduces to.
#: Every rung and backend reads its op's row here, so the interpreter,
#: the compiled rungs and the simulated devices fold alike.
_REDUCE = {
    "add": (np.add, 0.0),
    "min": (np.minimum, float(np.inf)),
    "max": (np.maximum, float(-np.inf)),
}


def _check_reduce(has_result: bool, op: str) -> tuple:
    """``op``'s ``(ufunc, identity)`` row, for a kernel that must return
    a value."""
    if not has_result:
        raise KernelExecutionError(
            "parallel_reduce kernel did not return a value on any path"
        )
    row = _REDUCE.get(op)
    if row is None:
        raise KernelExecutionError(f"unsupported reduction op {op!r}")
    return row


def _fold_lanes(values: Any, shape: tuple, op: str) -> float:
    """Fold per-lane values over a (non-empty) domain of ``shape`` — the
    one fold every rung shares, so they agree bitwise: NumPy's pairwise
    ``add`` and its NaN-propagating ``minimum`` / ``maximum``."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != shape:
        values = np.broadcast_to(values, shape)
    return float(_REDUCE[op][0].reduce(values, axis=None))


def fold_partials(op: str, partials: Sequence[float]) -> float:
    """Fold per-tile / per-chunk / per-shard reduce partials with ``op``,
    left to right — the one partial fold the tile loop and every backend
    share, so they agree bitwise.  A single partial is returned
    unchanged.
    """
    row = _REDUCE.get(op)
    if row is None:
        raise KernelExecutionError(f"unsupported reduction op {op!r}")
    if len(partials) == 1:
        return partials[0]
    return float(reduce(row[0], partials))


def reduce_trace(
    trace: N.Trace,
    domain: IndexDomain,
    args: Sequence[Any],
    op: str = "add",
) -> float:
    """Run a ``parallel_reduce`` trace over ``domain`` and fold the
    per-lane values with ``op`` (``add``, ``min`` or ``max``)."""
    identity = _check_reduce(trace.result is not None, op)[1]
    if domain.size == 0:
        return identity
    ev = VectorEvaluator(domain, args)
    for store in trace.stores:
        ev.run_store(store)
    return _fold_lanes(ev.eval(trace.result), domain.shape, op)
