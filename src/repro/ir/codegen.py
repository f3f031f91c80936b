"""Trace-to-NumPy code generation: the codegen rung of the executor
ladder (above ``vector``, below ``native`` — :mod:`repro.ir.cgen`
compiles traces all the way to machine code via the system C compiler,
and keeps this rung's program as its per-call fallback).

:mod:`repro.ir.vectorizer` executes a traced kernel by *walking* the IR on
every launch — re-dispatching on node types, re-building the memo table,
and allocating a fresh temporary per node.  That interpretive overhead is
exactly what the paper's LLVM code generator does not pay: a Julia kernel
is lowered once and every subsequent launch calls machine code.  This
module closes the gap at the Python level: an optimized
:class:`~repro.ir.nodes.Trace` is lowered **once** into straight-line
Python/NumPy source — one ufunc call per IR node, in program order —
compiled via :func:`compile`/``exec`` and cached on the
:class:`~repro.ir.compile.CompiledKernel`.  Steady-state launches then
run a plain Python function: no IR walk, no isinstance dispatch, no memo
dict.

Semantics are the vectorizer's, statically replayed
---------------------------------------------------
The generated program must be **bit-identical** to the IR walk (the
differential suite in ``tests/test_codegen.py`` enforces this), so the
lowering mirrors :class:`~repro.ir.vectorizer.VectorEvaluator` mechanism
by mechanism:

* **Memoization** becomes SSA-style temporaries: each distinct node object
  is emitted once and later uses reference its variable.
* **Store invalidation** becomes *static re-emission*: after a store to
  array position ``p``, every emitted temporary whose value transitively
  read ``p`` is forgotten; a later use re-emits the computation, exactly
  as the evaluator re-walks it after dropping the memo entry.
* The **identity fast paths** (whole-array / sub-box views for
  ``x[i, j]``-shaped loads and stores) and the clamped-**gather** /
  masked-**scatter** general paths are shared with the vectorizer — the
  runtime helpers below call the very same code.

Arena-backed temporaries
------------------------
Where the result dtype and shape can be *proven* at lowering time
(exactly the launch-domain shape, concrete dtype per the NEP-50 lattice
in :mod:`repro.ir.shapes`), the emitted ufunc writes into a recycled
scratch buffer (``out=_take(shape, dtype)``, see :mod:`repro.ir.arena`)
instead of allocating; the final operation of an unconditional identity
store is fused straight into the destination array (``np.add(a, b,
out=x)`` for AXPY) whenever the certified dtype matches the destination
exactly — float32, int and bool kernels included.  Anything uncertain
simply allocates like the vectorizer does, which is always correct.
"""

from __future__ import annotations

import math
import re
from typing import Any, Optional, Sequence

import numpy as np

from ..core.exceptions import KernelExecutionError
from . import nodes as N
from .arena import ScratchArena, resolve as _resolve_arena
from .shapes import Lattice, _static_identity
from .vectorizer import (
    _as_index_array,
    _BIN_FUNCS,
    _BOOL_FUNCS,
    _check_reduce,
    _clamp_index,
    _CMP_FUNCS,
    _fold_lanes,
    _gather,
    _UN_FUNCS,
    IndexDomain,
)

__all__ = ["CodegenError", "CodegenProgram", "lower_trace"]


class CodegenError(Exception):
    """Lowering declined this trace; the caller falls back to the IR walk."""


# ---------------------------------------------------------------------------
# Runtime helpers shared by all generated programs.
#
# These replicate the vectorizer's Load/Store paths verbatim; keeping them
# as plain functions (bound into the generated module's globals) keeps the
# generated source short and guarantees the two executors cannot drift.
# ---------------------------------------------------------------------------


def _chk_array(args: Sequence[Any], pos: int) -> np.ndarray:
    arr = args[pos]
    if not isinstance(arr, np.ndarray):
        raise KernelExecutionError(
            f"argument {pos} is referenced as an array in the trace but "
            f"a {type(arr).__name__} was passed"
        )
    return arr


def _load_ident(arr: np.ndarray, dom: IndexDomain) -> np.ndarray:
    """``x[i]`` / ``x[i, j]`` over (a chunk of) the domain — view fast
    path, falling back to the clamped gather over the index grids."""
    if len(arr.shape) == dom.ndim:
        if dom.is_full_identity(arr.shape):
            return arr
        if all(hi <= s for (lo, hi), s in zip(dom.ranges, arr.shape)):
            return arr[tuple(slice(lo, hi) for lo, hi in dom.ranges)]
    return _gather(arr, dom.grids)


def _store_ident(arr: np.ndarray, dom: IndexDomain, value: Any) -> None:
    """Unconditional identity store: whole-array or sub-box assignment."""
    if dom.is_full_identity(arr.shape):
        arr[...] = value
        return
    slices = tuple(slice(lo, hi) for lo, hi in dom.ranges)
    arr[slices] = np.broadcast_to(value, dom.shape)


def _ident_view(arr: np.ndarray, dom: IndexDomain) -> Optional[np.ndarray]:
    """The destination view an identity store writes, or ``None`` when the
    assignment path must be taken (shape mismatch → same errors as the
    vectorizer)."""
    if dom.is_full_identity(arr.shape):
        return arr
    if len(arr.shape) == dom.ndim and all(
        hi <= s for (lo, hi), s in zip(dom.ranges, arr.shape)
    ):
        return arr[tuple(slice(lo, hi) for lo, hi in dom.ranges)]
    return None


def _scatter(arr, dom, idx_vals, value, mask, pos):
    shape = dom.shape
    idx = tuple(
        _as_index_array(np.broadcast_to(np.asarray(v), shape))
        for v in idx_vals
    )
    value_b = np.broadcast_to(np.asarray(value), shape)
    if mask is None:
        try:
            arr[idx] = value_b
        except IndexError as exc:
            raise KernelExecutionError(
                f"out-of-bounds store into argument {pos}: {exc}"
            ) from exc
        return
    sel = np.broadcast_to(np.asarray(mask, dtype=bool), shape)
    if not sel.any():
        return
    try:
        arr[tuple(ix[sel] for ix in idx)] = value_b[sel]
    except IndexError as exc:
        raise KernelExecutionError(
            f"out-of-bounds store into argument {pos}: {exc}"
        ) from exc


def _normalize_mask(mask):
    """The vectorizer's scalar-mask protocol: statically false skips the
    store, statically true degrades to unconditional.  Returns the
    sentinel ``_SKIP`` for "store suppressed"."""
    if mask is False or (np.isscalar(mask) and not mask):
        return _SKIP
    if mask is True or (np.isscalar(mask) and mask):
        return None
    return mask


_SKIP = object()


def _store_guarded_ident(arr, dom, value, mask, pos):
    """Identity-indexed store with a guard: scalar-true masks take the
    same fast path the vectorizer takes; lane masks scatter over grids."""
    mask = _normalize_mask(mask)
    if mask is _SKIP:
        return
    if mask is None:
        _store_ident(arr, dom, value)
        return
    _scatter(arr, dom, dom.grids, value, mask, pos)


def _store_general(arr, dom, idx_vals, value, mask, pos):
    if mask is not None:
        mask = _normalize_mask(mask)
        if mask is _SKIP:
            return
    _scatter(arr, dom, idx_vals, value, mask, pos)


# ---------------------------------------------------------------------------
# Static inference: result dtype and broadcast shape per node.
#
# The NEP-50 dtype/shape lattice lives in :mod:`repro.ir.shapes` (shared
# with the effects summaries and the translation validator); codegen
# consumes its ``full_domain_dtype`` certificate: a concrete dtype means
# the ufunc result is provably an array of exactly the launch-domain
# shape with that dtype, so ``out=`` stores the same bits an assignment
# would.  ``None`` means "allocate like the vectorizer" — always correct.
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _Lowering:
    def __init__(self, trace: N.Trace, args: Sequence[Any]):
        self.trace = trace
        self.ndim = trace.ndim
        self.infer = Lattice(trace.ndim, args)
        self.args = args
        self.lines: list[str] = []
        self.emitted: dict[int, str] = {}
        self.deps: dict[int, frozenset[int]] = {}
        self.used_axes: set[int] = set()
        self.used_scalars: set[int] = set()
        self.used_arrays: set[int] = set()
        self.n_out = 0  # arena-buffer writes emitted (introspection)
        #: Certified dtype per arena draw, in emission order; draw ``k``
        #: is emitted as ``out=_take(_shape, _od{k})``.
        self.out_dtypes: list[np.dtype] = []
        self._tmp_n = 0
        self._counts = self._use_counts(trace)
        # Per-line provenance, parallel to ``lines``: ``None`` for effect
        # lines (stores, control flow), else ``(var, array_deps,
        # scalar_deps, idx_tokens)`` — what launch-graph instantiation
        # needs to hoist replay-invariant lines (see lower_trace_hoisted).
        self.line_meta: list = []
        self._sdeps: dict[int, frozenset[int]] = {}

    def _node_sdeps(self, node: N.Node) -> frozenset[int]:
        """Transitive ScalarArg positions under ``node`` (memoized)."""
        nid = id(node)
        got = self._sdeps.get(nid)
        if got is not None:
            return got
        if isinstance(node, N.ScalarArg):
            out = frozenset({node.pos})
        else:
            out = frozenset()
            for child in node.children:
                out |= self._node_sdeps(child)
        self._sdeps[nid] = out
        return out

    def _line(self, text: str, meta=None) -> None:
        self.lines.append(text)
        self.line_meta.append(meta)

    @staticmethod
    def _use_counts(trace: N.Trace) -> dict[int, int]:
        """How many times the evaluator would be asked for each node: once
        per root slot plus once per parent reference in the shared DAG."""
        counts: dict[int, int] = {}
        seen: set[int] = set()
        stack: list[N.Node] = []
        for root in trace.expressions():
            counts[id(root)] = counts.get(id(root), 0) + 1
            stack.append(root)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for child in node.children:
                counts[id(child)] = counts.get(id(child), 0) + 1
                stack.append(child)
        return counts

    def _tmp(self) -> str:
        self._tmp_n += 1
        return f"t{self._tmp_n}"

    def _deps_of(self, *children: N.Node) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for c in children:
            d = self.deps.get(id(c))
            if d:
                out |= d
        return out

    def _invalidate(self, array_pos: int) -> None:
        dead = [
            nid for nid, dp in self.deps.items() if array_pos in dp
        ]
        for nid in dead:
            self.emitted.pop(nid, None)
            self.deps.pop(nid, None)

    # -- expressions -----------------------------------------------------
    def emit(self, node: N.Node) -> str:
        if isinstance(node, N.Const):
            v = node.value
            if isinstance(v, float) and not math.isfinite(v):
                if math.isnan(v):
                    return "_np.nan"
                return "_np.inf" if v > 0 else "(-_np.inf)"
            if isinstance(v, (bool, int, float)):
                return repr(v)
            raise CodegenError(f"non-literal constant {type(v).__name__}")
        if isinstance(node, N.Index):
            if node.axis >= self.ndim:
                raise CodegenError(
                    f"index axis {node.axis} out of range for "
                    f"{self.ndim}-D domain"
                )
            self.used_axes.add(node.axis)
            return f"_g{node.axis}"
        if isinstance(node, N.ScalarArg):
            self.used_scalars.add(node.pos)
            return f"_s{node.pos}"
        nid = id(node)
        if nid in self.emitted:
            return self.emitted[nid]
        rhs, deps = self._emit_inner(node)
        var = self._tmp()
        idx_tokens = None
        if isinstance(node, N.Load) and not _static_identity(
            node.indices, self.ndim
        ):
            # Children already emitted: these calls only return names.
            idx_tokens = (
                node.array.pos,
                tuple(self.emit(ix) for ix in node.indices),
            )
        self.lines.append(f"{var} = {rhs}")
        self.line_meta.append(
            (var, deps, self._node_sdeps(node), idx_tokens)
        )
        self.emitted[nid] = var
        if deps:
            self.deps[nid] = deps
        return var

    def _maybe_out(self, node: N.Node) -> str:
        """``, out=_take(_shape, _od{k})`` when the result is provably a
        full-domain array of a known dtype — the arena-backed allocation
        elision (f4/f8/int/bool alike, per the NEP-50 lattice)."""
        dt = self.infer.full_domain_dtype(node)
        if dt is None:
            return ""
        k = len(self.out_dtypes)
        self.out_dtypes.append(dt)
        self.n_out += 1
        return f", out=_take(_shape, _od{k})"

    def _array_ref(self, pos: int) -> str:
        self.used_arrays.add(pos)
        return f"_a{pos}"

    def _emit_inner(self, node: N.Node) -> tuple[str, frozenset[int]]:
        if isinstance(node, N.Load):
            arr = self._array_ref(node.array.pos)
            if _static_identity(node.indices, self.ndim):
                return f"_load_ident({arr}, _dom)", frozenset(
                    {node.array.pos}
                )
            idx = ", ".join(self.emit(ix) for ix in node.indices)
            deps = self._deps_of(*node.indices) | {node.array.pos}
            return f"_gather({arr}, ({idx},))", deps
        if isinstance(node, N.BinOp):
            a = self.emit(node.lhs)
            b = self.emit(node.rhs)
            deps = self._deps_of(node.lhs, node.rhs)
            return f"_b_{node.op}({a}, {b}{self._maybe_out(node)})", deps
        if isinstance(node, N.UnOp):
            v = self.emit(node.operand)
            deps = self._deps_of(node.operand)
            return f"_u_{node.op}({v}{self._maybe_out(node)})", deps
        if isinstance(node, N.Compare):
            a = self.emit(node.lhs)
            b = self.emit(node.rhs)
            return f"_c_{node.op}({a}, {b})", self._deps_of(
                node.lhs, node.rhs
            )
        if isinstance(node, N.BoolOp):
            a = self.emit(node.lhs)
            b = self.emit(node.rhs)
            return f"_l_{node.op}({a}, {b})", self._deps_of(
                node.lhs, node.rhs
            )
        if isinstance(node, N.Not):
            v = self.emit(node.operand)
            return f"_l_not({v})", self._deps_of(node.operand)
        if isinstance(node, N.Select):
            c = self.emit(node.cond)
            t = self.emit(node.if_true)
            f = self.emit(node.if_false)
            return f"_where({c}, {t}, {f})", self._deps_of(
                node.cond, node.if_true, node.if_false
            )
        if isinstance(node, N.Cast):
            v = self.emit(node.operand)
            target = "_np.int64" if node.kind == "int" else "_np.float64"
            return f"_np.asarray({v}).astype({target})", self._deps_of(
                node.operand
            )
        raise CodegenError(f"unknown IR node {type(node).__name__}")

    # -- effects -----------------------------------------------------------
    def _fusable(self, store: N.Store) -> bool:
        """Can the store's value ufunc write the destination directly?
        Requires: single-use BinOp/UnOp value, provably a full-domain
        array of a known dtype, and a destination of *exactly* that
        dtype — so ``out=`` stores the same bits slice assignment
        would (no hidden cast)."""
        value = store.value
        if not isinstance(value, (N.BinOp, N.UnOp)):
            return False
        if self._counts.get(id(value), 0) != 1 or id(value) in self.emitted:
            return False
        cert = self.infer.full_domain_dtype(value)
        if cert is None:
            return False
        dest = self.args[store.array.pos]
        return isinstance(dest, np.ndarray) and dest.dtype == cert

    def emit_store(self, store: N.Store) -> None:
        pos = store.array.pos
        arr = self._array_ref(pos)
        identity = _static_identity(store.indices, self.ndim)

        if store.condition is None and identity:
            if self._fusable(store):
                value = store.value
                if isinstance(value, N.BinOp):
                    a = self.emit(value.lhs)
                    b = self.emit(value.rhs)
                    call = f"_b_{value.op}({a}, {b}"
                else:
                    v = self.emit(value.operand)
                    call = f"_u_{value.op}({v}"
                for text in (
                    f"_d = _ident_view({arr}, _dom)",
                    "if _d is not None:",
                    f"    {call}, out=_d)",
                    "else:",
                    f"    _store_ident({arr}, _dom, {call}))",
                ):
                    self._line(text)
            else:
                val = self.emit(store.value)
                self._line(f"_store_ident({arr}, _dom, {val})")
            self._invalidate(pos)
            return

        # Evaluation order matches the vectorizer: value, then mask, then
        # (for non-identity stores) the scatter indices.
        val = self.emit(store.value)
        mask = (
            self.emit(store.condition)
            if store.condition is not None
            else "None"
        )
        if identity:
            self._line(
                f"_store_guarded_ident({arr}, _dom, {val}, {mask}, {pos})"
            )
        else:
            idx = ", ".join(self.emit(ix) for ix in store.indices)
            self._line(
                f"_store_general({arr}, _dom, ({idx},), {val}, {mask}, {pos})"
            )
        self._invalidate(pos)

    # -- assembly -----------------------------------------------------------
    def lower(self) -> tuple[str, bool]:
        for store in self.trace.stores:
            self.emit_store(store)
        has_result = self.trace.result is not None
        if has_result:
            self._line(f"return {self.emit(self.trace.result)}")

        body = ["def _kernel(args, _dom, _take):"]
        body.append(f"    if len(_dom.ranges) != {self.ndim}:")
        body.append(
            "        raise _KernelExecutionError("
            f"'kernel was generated for a {self.ndim}-D domain, got '"
            " + str(len(_dom.ranges)) + '-D')"
        )
        body.append("    _shape = _dom.shape")
        for ax in sorted(self.used_axes):
            body.append(f"    _g{ax} = _dom.grids[{ax}]")
        for pos in sorted(self.used_arrays):
            body.append(f"    _a{pos} = _chk_array(args, {pos})")
        for pos in sorted(self.used_scalars):
            body.append(f"    _s{pos} = args[{pos}]")
        body += [f"    {line}" for line in self.lines]
        return "\n".join(body) + "\n", has_result


def _program_globals() -> dict:
    g = {
        "_np": np,
        "_gather": _gather,
        "_load_ident": _load_ident,
        "_store_ident": _store_ident,
        "_ident_view": _ident_view,
        "_store_guarded_ident": _store_guarded_ident,
        "_store_general": _store_general,
        "_chk_array": _chk_array,
        "_where": np.where,
        "_l_not": np.logical_not,
        "_KernelExecutionError": KernelExecutionError,
    }
    for op, fn in _BIN_FUNCS.items():
        g[f"_b_{op}"] = fn
    for op, fn in _UN_FUNCS.items():
        g[f"_u_{op}"] = fn
    for op, fn in _CMP_FUNCS.items():
        g[f"_c_{op}"] = fn
    for op, fn in _BOOL_FUNCS.items():
        g[f"_l_{op}"] = fn
    return g


#: Compiled code objects keyed on (source, filename).  Generated text
#: is deterministic per trace, so recaptures and warm rebuilds reuse the
#: parse; the persistent compile cache seeds this from marshaled
#: bytecode (:func:`seed_code`) so a warm process never re-parses.
_CODE_CACHE: dict = {}


def _compile_source(source: str, filename: str):
    key = (source, filename)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = compile(source, filename, "exec")
        if len(_CODE_CACHE) > 512:  # churn guard
            _CODE_CACHE.clear()
        _CODE_CACHE[key] = code
    return code


def seed_code(source: str, filename: str, code) -> None:
    """Pre-populate the parse cache with an externally supplied code
    object (the persistent cache's marshaled bytecode)."""
    _CODE_CACHE[(source, filename)] = code


def _bind_out_dtypes(namespace: dict, out_dtypes: Sequence[np.dtype]) -> None:
    """Bind ``_od{k}`` dtype constants for the generated arena draws.

    float64 binds the ``np.float64`` *type* object so
    :meth:`~repro.ir.arena.ArenaFrame.take`'s identity fast path stays
    on the hot launch path.
    """
    for k, dt in enumerate(out_dtypes):
        namespace[f"_od{k}"] = np.float64 if dt == np.float64 else dt


class CodegenProgram:
    """A trace lowered to an executable straight-line NumPy program.

    ``source`` is the generated Python (dumpable via
    :func:`repro.ir.inspect.inspect_kernel`); ``run_for``/``run_reduce``
    mirror the vectorizer entry points, with an optional
    :class:`~repro.ir.arena.ScratchArena` supplying the ``out=``
    temporaries (the context arena in staged dispatch, a process default
    otherwise).
    """

    __slots__ = (
        "source",
        "ndim",
        "has_result",
        "n_out_buffers",
        "out_dtypes",
        "_fn",
    )

    def __init__(
        self,
        source: str,
        ndim: int,
        has_result: bool,
        out_dtypes: Sequence[np.dtype] = (),
    ):
        self.source = source
        self.ndim = ndim
        self.has_result = has_result
        self.out_dtypes = tuple(out_dtypes)
        self.n_out_buffers = len(self.out_dtypes)
        namespace = _program_globals()
        _bind_out_dtypes(namespace, self.out_dtypes)
        code = _compile_source(source, "<pyacc-codegen>")
        exec(code, namespace)
        self._fn = namespace["_kernel"]

    def run_for(
        self,
        domain: IndexDomain,
        args: Sequence[Any],
        arena: Optional[ScratchArena] = None,
    ) -> None:
        frame = _resolve_arena(arena).frame()
        try:
            self._fn(args, domain, frame.take)
        finally:
            frame.release()

    def run_reduce(
        self,
        domain: IndexDomain,
        args: Sequence[Any],
        op: str = "add",
        arena: Optional[ScratchArena] = None,
    ) -> float:
        identity = _check_reduce(self.has_result, op)[1]
        if domain.size == 0:
            return identity
        # The fold reads ``values`` (possibly an arena buffer) — the frame
        # is released only after the fold so no concurrent launch can
        # recycle the buffer mid-reduction.
        frame = _resolve_arena(arena).frame()
        try:
            values = self._fn(args, domain, frame.take)
            return _fold_lanes(values, domain.shape, op)
        finally:
            frame.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CodegenProgram ndim={self.ndim} "
            f"out_buffers={self.n_out_buffers}>"
        )


def lower_trace(trace: N.Trace, args: Sequence[Any]) -> CodegenProgram:
    """Lower an optimized trace to a :class:`CodegenProgram`.

    ``args`` are the trace-time arguments — their dtypes (already part of
    the kernel-cache key) drive the ``out=`` certification.  Raises
    :class:`CodegenError` when the trace uses a construct the generator
    does not support; the compile ladder then stays on the IR walk.
    """
    lowering = _Lowering(trace, args)
    try:
        source, has_result = lowering.lower()
        return CodegenProgram(
            source, trace.ndim, has_result, lowering.out_dtypes
        )
    except CodegenError:
        raise
    except Exception as exc:  # defensive: never break compilation
        raise CodegenError(f"lowering failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Hoisted programs (launch-graph replay)
# ---------------------------------------------------------------------------


#: Compiled (prologue, kernel) function pairs keyed by source text —
#: see HoistedProgram.__init__.
_HOIST_FN_CACHE: dict = {}


class HoistedProgram:
    """A codegen program partitioned for launch-graph replay.

    Launch-graph instantiation (:mod:`repro.graph`) knows which inputs of
    a frozen node can never change between replays — scalars that are not
    graph slots, the frozen domain, array shapes — and which arrays are
    *candidate* consts (written by no node in the graph).  Every
    generated line whose transitive inputs are replay-invariant — index
    arithmetic, loads from constant arrays (an ELL matrix's
    ``cols``/``vals``), gather-index clamps — moves into a *prologue*
    that runs **once per (instantiation, tile of a schedule chunk)**;
    replays execute only the variant remainder against the cached
    prologue values.  The CUDA-Graphs analogue is address pre-binding: the graph
    re-launches with operand addresses (here: index arrays and constant
    operands) already resolved.

    Candidate consts are only sound while nothing *outside* the graph
    writes them, so the instantiation snapshots their global
    write-versions (:mod:`repro.ir.writes`) and re-validates before each
    replay, demoting arrays that moved (re-lowering without them) or
    calling :meth:`clear_prologues` to re-bind after a global reset.

    Drop-in for :class:`CodegenProgram` (same ``run_for``/``run_reduce``/
    ``n_out_buffers`` surface), so frozen plans execute through every
    backend unchanged.  Prologue values are cached per executed domain
    *object* — a tile of a scheduled chunk; domains and their tiles are
    shared instances (:meth:`IndexDomain.of`), and the cache pins the
    domain, so ids cannot recycle; a re-schedule after device loss
    simply misses and re-binds.
    """

    __slots__ = (
        "source",
        "prologue_source",
        "ndim",
        "has_result",
        "n_out_buffers",
        "out_dtypes",
        "n_hoisted",
        "_fn",
        "_pro",
        "_pre_cache",
    )

    def __init__(
        self,
        prologue_source: str,
        source: str,
        ndim: int,
        has_result: bool,
        out_dtypes: Sequence[np.dtype],
        n_hoisted: int,
    ):
        self.prologue_source = prologue_source
        self.source = source
        self.ndim = ndim
        self.has_result = has_result
        self.out_dtypes = tuple(out_dtypes)
        self.n_out_buffers = len(self.out_dtypes)
        self.n_hoisted = n_hoisted
        # Compiled code depends only on the source pair — share it
        # across instantiations (graph recaptures re-lower the same
        # trace to the same text; per-instantiation state lives in
        # _pre_cache, bound lazily from the actual launch args).
        cached = _HOIST_FN_CACHE.get((prologue_source, source))
        if cached is None:
            namespace = _program_globals()
            namespace["_clamp_index"] = _clamp_index
            exec(
                _compile_source(prologue_source, "<pyacc-hoist-pro>"),
                namespace,
            )
            exec(_compile_source(source, "<pyacc-hoist>"), namespace)
            cached = (namespace["_prologue"], namespace["_kernel"])
            if len(_HOIST_FN_CACHE) > 256:  # churn guard
                _HOIST_FN_CACHE.clear()
            _HOIST_FN_CACHE[(prologue_source, source)] = cached
        self._pro, self._fn = cached
        self._pre_cache: dict[int, tuple] = {}

    def fresh(self) -> "HoistedProgram":
        """This program with no prologue values bound: what a launch
        graph *rebound* to other arrays runs, because ``_pre_cache``
        holds values gathered from this binding's const arrays.  The
        compiled source pair is shared (``_HOIST_FN_CACHE``)."""
        return HoistedProgram(
            self.prologue_source,
            self.source,
            self.ndim,
            self.has_result,
            self.out_dtypes,
            self.n_hoisted,
        )

    def clear_prologues(self) -> None:
        """Drop cached prologue values (const-array snapshot went
        stale); the next run re-binds them from current contents."""
        self._pre_cache.clear()

    def _pre_for(self, domain: IndexDomain, args: Sequence[Any]) -> tuple:
        got = self._pre_cache.get(id(domain))
        if got is not None and got[0] is domain:
            return got[1], got[2]
        pre = self._pro(args, domain)
        # Pre-bind the scratch buffers too: every ``out=`` in the main
        # body draws the frozen chunk shape, so replay never touches the
        # arena (the buffers live exactly as long as this instantiation,
        # recycled dirty across replays like arena buffers are across
        # launches).
        bufs = tuple(
            np.empty(domain.shape, dtype=dt) for dt in self.out_dtypes
        )
        # Re-schedule churn guard.  One entry per *tile* of every
        # scheduled chunk, so the bound is in tiles: 2^10 of them pin at
        # most what one 2^26-lane domain's prologue values occupy.
        if len(self._pre_cache) > 1024:
            self._pre_cache.clear()
        self._pre_cache[id(domain)] = (domain, pre, bufs)
        return pre, bufs

    def run_for(
        self,
        domain: IndexDomain,
        args: Sequence[Any],
        arena: Optional[ScratchArena] = None,
    ) -> None:
        pre, bufs = self._pre_for(domain, args)
        self._fn(args, domain, bufs, pre)

    def run_reduce(
        self,
        domain: IndexDomain,
        args: Sequence[Any],
        op: str = "add",
        arena: Optional[ScratchArena] = None,
    ) -> float:
        identity = _check_reduce(self.has_result, op)[1]
        if domain.size == 0:
            return identity
        pre, bufs = self._pre_for(domain, args)
        values = self._fn(args, domain, bufs, pre)
        return _fold_lanes(values, domain.shape, op)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HoistedProgram ndim={self.ndim} hoisted={self.n_hoisted} "
            f"out_buffers={self.n_out_buffers}>"
        )


#: An arena draw in generated source: ``, out=_take(_shape, _od{k})``
#: where ``k`` indexes the lowering's ``out_dtypes`` list.
_OUT_RE = re.compile(r", out=_take\(_shape, _od(\d+)\)")
_TEMP_RE = re.compile(r"\bt\d+\b")


def _token_invariant(
    token: str, invariant: set, const_scalars: frozenset
) -> bool:
    if token.startswith("t"):
        return token in invariant
    if token.startswith("_s"):
        return int(token[2:]) in const_scalars
    return True  # literal, _g{axis} (domain is frozen per graph node)


def lower_trace_hoisted(
    trace: N.Trace,
    args: Sequence[Any],
    const_arrays: frozenset,
    const_scalars: frozenset,
) -> Optional[HoistedProgram]:
    """Partition a trace's generated program for graph replay.

    ``const_arrays``/``const_scalars`` are the argument positions the
    launch graph proved replay-invariant.  Returns ``None`` when nothing
    hoists (the plain :class:`CodegenProgram` is already optimal) or the
    trace does not lower.
    """
    lowering = _Lowering(trace, args)
    try:
        for store in trace.stores:
            lowering.emit_store(store)
        has_result = trace.result is not None
        if has_result:
            lowering._line(f"return {lowering.emit(trace.result)}")
    except CodegenError:
        return None
    except Exception:  # pragma: no cover - mirrors lower_trace's guard
        return None

    invariant: set[str] = set()
    pro_lines: list[str] = []
    main_lines: list[str] = []
    n_pre = 0
    for line, meta in zip(lowering.lines, lowering.line_meta):
        if meta is None:
            main_lines.append(line)
            continue
        var, adeps, sdeps, idx_tokens = meta
        if adeps <= const_arrays and sdeps <= const_scalars:
            # A hoisted line allocates once in the prologue; drop its
            # arena draw (the draw ids in the main text stay unique).
            pro_lines.append(_OUT_RE.sub("", line))
            invariant.add(var)
            continue
        if (
            idx_tokens is not None
            and adeps - {idx_tokens[0]} <= const_arrays
            and sdeps <= const_scalars
            and all(
                _token_invariant(tok, invariant, const_scalars)
                for tok in idx_tokens[1]
            )
        ):
            # Gather from a *mutable* array through replay-invariant
            # indices: pre-clamp the index tuple once (the clamp depends
            # only on the array's shape), leaving a plain fancy-index on
            # the hot path.
            n_pre += 1
            pvar = f"p{n_pre}"
            arr_pos, tokens = idx_tokens
            idx = ", ".join(tokens)
            pro_lines.append(
                f"{pvar} = _clamp_index(_a{arr_pos}, ({idx},))"
            )
            main_lines.append(f"{var} = _a{arr_pos}[{pvar}]")
            invariant.add(pvar)
            continue
        main_lines.append(line)

    if not pro_lines:
        return None

    main_text = "\n".join(main_lines)
    exported = sorted(
        {m.group(0) for m in _TEMP_RE.finditer(main_text)} & invariant
    ) + sorted(v for v in invariant if v.startswith("p"))

    def headers(indent: str, with_scalars: bool) -> list[str]:
        out = []
        for ax in sorted(lowering.used_axes):
            out.append(f"{indent}_g{ax} = _dom.grids[{ax}]")
        for pos in sorted(lowering.used_arrays):
            out.append(f"{indent}_a{pos} = _chk_array(args, {pos})")
        if with_scalars:
            for pos in sorted(lowering.used_scalars):
                out.append(f"{indent}_s{pos} = args[{pos}]")
        return out

    pro = ["def _prologue(args, _dom):"]
    pro += headers("    ", True)
    pro += [f"    {line}" for line in pro_lines]
    pro.append(f"    return ({', '.join(exported)},)" if exported else
               "    return ()")

    # Every scratch draw left in the main body is ``_take(_shape, _od{i})``
    # with the frozen chunk shape — rewrite the k-th draw to a pre-bound
    # buffer ``_bk`` (of the draw's certified dtype) so replay bypasses
    # the arena entirely (the instantiation owns the buffers; see
    # HoistedProgram._pre_for).
    draw_ids = [int(m.group(1)) for m in _OUT_RE.finditer(main_text)]
    buf_dtypes = tuple(lowering.out_dtypes[i] for i in draw_ids)
    n_out = len(draw_ids)
    for k in range(n_out):
        main_text = _OUT_RE.sub(f", out=_b{k}", main_text, count=1)

    body = ["def _kernel(args, _dom, _bufs, _pre):"]
    body.append(f"    if len(_dom.ranges) != {lowering.ndim}:")
    body.append(
        "        raise _KernelExecutionError("
        f"'kernel was generated for a {lowering.ndim}-D domain, got '"
        " + str(len(_dom.ranges)) + '-D')"
    )
    body.append("    _shape = _dom.shape")
    body += headers("    ", True)
    if exported:
        body.append(f"    ({', '.join(exported)},) = _pre")
    if n_out:
        names = ", ".join(f"_b{k}" for k in range(n_out))
        body.append(f"    ({names},) = _bufs")
    body += [f"    {line}" for line in main_text.split("\n")]
    try:
        return HoistedProgram(
            "\n".join(pro) + "\n",
            "\n".join(body) + "\n",
            trace.ndim,
            has_result,
            buf_dtypes,
            len(pro_lines),
        )
    except Exception:  # pragma: no cover - defensive; fall back to plain
        return None
