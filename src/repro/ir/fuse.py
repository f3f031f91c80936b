"""Cross-launch kernel fusion for captured launch graphs.

A captured iteration body (see :mod:`repro.graph`) is a short, fixed
sequence of launches over the same index domain — CG's inner pattern is
``s = A p`` then ``dot(p, s)``, two full traversals of the same vectors.
The paper's JIT model leaves that on the table too: JACC compiles each
kernel once but still launches them separately.  This pass merges
adjacent plans of a captured graph into **one** codegen program: the
producer's stores and the consumer's expression run in a single
traversal, intermediates stay in arena scratch, and a trailing
``parallel_reduce`` is inlined into the element stage of the reduction —
CG's four-launch inner pattern becomes two.

Safety
------
Fusion changes *when* each element of the second kernel runs relative to
the first: unfused, kernel 1 finishes over the whole domain (all chunks,
all devices) before kernel 2 starts; fused, they interleave per chunk.
That reordering is invisible exactly when every cross-kernel data
dependence is element-local, so the rule is:

  for every array the two kernels **share** (same storage) where at
  least one side **writes** it, *all* accesses to that array in *both*
  traces must be static-identity indexed (``x[i]``/``x[i, j]`` on the
  launch axes).

Identity accesses touch only the element the lane owns, so per-chunk
interleaving computes bit-identical results under every backend's
decomposition (the same argument the verifier's V101 chunk-independence
analysis makes).  Arrays shared read-only, or private to one kernel, are
unconstrained — the tridiagonal matvec's ``p[i±1]`` reads fuse with a
following DOT because ``p`` is never written.

Everything else is conservative: both kernels must be codegen-tier
(fusing would otherwise *change* executor tier mid-ladder), same domain,
same backend, and the merged trace must lower — any
:class:`~repro.ir.codegen.CodegenError` declines the pair and the graph
simply replays them back-to-back.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.exceptions import KernelExecutionError
from ..core.plan import LaunchPlan
from . import nodes as N
from .codegen import CodegenError, _static_identity, lower_trace
from .compile import CompiledKernel
from .optimize import optimize_trace
from .stats import analyze

__all__ = ["fuse_plans", "fusable", "fuse_decline_reason"]


# ---------------------------------------------------------------------------
# Safety analysis
# ---------------------------------------------------------------------------


def _identity_only(trace: N.Trace, pos: int) -> bool:
    """Every load and store touching array position ``pos`` is
    static-identity indexed on the launch axes."""
    ndim = trace.ndim
    for store in trace.stores:
        if store.array.pos == pos and not _static_identity(
            store.indices, ndim
        ):
            return False
    for root in trace.expressions():
        for node in N.walk(root):
            if (
                isinstance(node, N.Load)
                and node.array.pos == pos
                and not _static_identity(node.indices, ndim)
            ):
                return False
    return True


def _written_positions(trace: N.Trace) -> set[int]:
    return {store.array.pos for store in trace.stores}


def _shared_arrays(
    a_args: list, b_args: list
) -> list[tuple[int, int]]:
    """``(pos_in_a, pos_in_b)`` pairs referring to the same ndarray
    storage (object identity — resolved args share buffers across
    backends in the simulator)."""
    pairs = []
    for bp, bval in enumerate(b_args):
        if not isinstance(bval, np.ndarray):
            continue
        for ap, aval in enumerate(a_args):
            if aval is bval:
                pairs.append((ap, bp))
                break
    return pairs


def fuse_decline_reason(a: LaunchPlan, b: LaunchPlan) -> Optional[str]:
    """Why plan ``b`` cannot fuse into plan ``a`` — ``None`` if it can.

    The static half of the fusion legality check (the final lowering can
    still decline with ``"lowering"``, which :func:`fuse_plans` reports
    by returning ``None``).  Ordering safety — whether ``b`` may *move*
    next to ``a`` — is the caller's responsibility (the program pass
    checks def-use conflicts).

    Reasons: ``"reduce-producer"``, ``"dims"``, ``"backend"``,
    ``"no-kernel"``, ``"tier"``, ``"no-trace"``, ``"non-element-local"``.
    """
    if a.construct != "for":
        return "reduce-producer"  # a reduce terminates a fusion chain
    if a.dims != b.dims:
        return "dims"
    if a.backend is not b.backend:
        return "backend"
    ka, kb = a.kernel, b.kernel
    if ka is None or kb is None:
        return "no-kernel"
    if not ka.mode.startswith(("codegen", "native")):
        return "tier"
    if not kb.mode.startswith(("codegen", "native")):
        return "tier"
    if ka.trace is None or kb.trace is None or ka.codegen is None:
        return "no-trace"
    a_writes = _written_positions(ka.trace)
    b_writes = _written_positions(kb.trace)
    for ap, bp in _shared_arrays(a.resolved_args, b.resolved_args):
        if ap in a_writes or bp in b_writes:
            if not _identity_only(ka.trace, ap):
                return "non-element-local"
            if not _identity_only(kb.trace, bp):
                return "non-element-local"
    return None


def fusable(a: LaunchPlan, b: LaunchPlan) -> bool:
    """Static go/no-go for fusing plan ``b`` into plan ``a``.

    Checks everything except the final lowering (which
    :func:`fuse_plans` still guards).
    """
    return fuse_decline_reason(a, b) is None


# ---------------------------------------------------------------------------
# Trace merging
# ---------------------------------------------------------------------------


def _remap(
    node: N.Node, pos_map: dict[int, int], memo: dict[int, N.Node]
) -> N.Node:
    """Clone ``node`` with argument positions remapped, preserving the
    DAG's sharing structure (the executors memoize per node object, so a
    shared subtree must stay shared after the clone)."""
    nid = id(node)
    if nid in memo:
        return memo[nid]
    if isinstance(node, (N.Const, N.Index)):
        out: N.Node = node  # position-free nodes are safely shared
    elif isinstance(node, N.ScalarArg):
        out = N.ScalarArg(pos_map[node.pos])
    elif isinstance(node, N.ArrayArg):
        out = N.ArrayArg(pos_map[node.pos], node.ndim)
    elif isinstance(node, N.Load):
        out = N.Load(
            _remap(node.array, pos_map, memo),
            [_remap(ix, pos_map, memo) for ix in node.indices],
        )
    elif isinstance(node, N.BinOp):
        out = N.BinOp(
            node.op,
            _remap(node.lhs, pos_map, memo),
            _remap(node.rhs, pos_map, memo),
        )
    elif isinstance(node, N.UnOp):
        out = N.UnOp(node.op, _remap(node.operand, pos_map, memo))
    elif isinstance(node, N.Compare):
        out = N.Compare(
            node.op,
            _remap(node.lhs, pos_map, memo),
            _remap(node.rhs, pos_map, memo),
        )
    elif isinstance(node, N.BoolOp):
        out = N.BoolOp(
            node.op,
            _remap(node.lhs, pos_map, memo),
            _remap(node.rhs, pos_map, memo),
        )
    elif isinstance(node, N.Not):
        out = N.Not(_remap(node.operand, pos_map, memo))
    elif isinstance(node, N.Select):
        out = N.Select(
            _remap(node.cond, pos_map, memo),
            _remap(node.if_true, pos_map, memo),
            _remap(node.if_false, pos_map, memo),
        )
    elif isinstance(node, N.Cast):
        out = N.Cast(node.kind, _remap(node.operand, pos_map, memo))
    else:  # pragma: no cover - the IR is closed
        raise CodegenError(f"cannot remap IR node {type(node).__name__}")
    memo[nid] = out
    return out


def _make_fused_fn(name: str):
    """A placeholder kernel function for the fused plan: it carries the
    combined name for labels/diagnostics but never executes — fused
    kernels run their generated program only."""

    def _fused(*args):  # pragma: no cover - codegen always present
        raise KernelExecutionError(
            f"fused kernel {name!r} executes via its generated program only"
        )

    _fused.__name__ = name
    _fused.__qualname__ = name
    return _fused


def fuse_plans(
    a: LaunchPlan, b: LaunchPlan
) -> Optional[tuple[LaunchPlan, dict[int, int]]]:
    """Fuse adjacent captured plans ``a`` (a for-plan) and ``b`` into one.

    Returns ``(fused_plan, b_pos_map)`` — the fused plan is fully staged
    (backend, kernel, schedule attached) and ``b_pos_map`` maps ``b``'s
    argument positions to fused positions so the caller can relocate
    scalar-slot bindings.  Returns ``None`` when the pair is not fusable
    or the merged trace declines to lower.
    """
    if not fusable(a, b):
        return None
    from . import compilecache

    ta, tb = a.kernel.trace, b.kernel.trace

    # Union argument list: arrays dedupe on storage identity, scalars
    # always append (equal values may be distinct slots).
    fused_resolved = list(a.resolved_args)
    fused_user = list(a.args)
    pos_map: dict[int, int] = {}
    shared = dict(
        (bp, ap) for ap, bp in _shared_arrays(a.resolved_args, b.resolved_args)
    )
    for bp, bval in enumerate(b.resolved_args):
        if bp in shared:
            pos_map[bp] = shared[bp]
        else:
            pos_map[bp] = len(fused_resolved)
            fused_resolved.append(bval)
            fused_user.append(b.args[bp])

    # Persistent program tier: an earlier instantiate of this graph
    # already merged/lowered this pair (or proved it declines) — the
    # argument remapping above is recomputed (cheap, pure bookkeeping),
    # the lowering is not.
    cached = compilecache.fused_lookup(a, b, _make_fused_fn)
    if cached is None:
        return None  # recorded lowering decline
    if cached is not compilecache.MISSING:
        return _attach(cached, a, b, fused_user, fused_resolved), pos_map

    memo: dict[int, N.Node] = {}
    b_stores = [
        N.Store(
            _remap(st.array, pos_map, memo),
            [_remap(ix, pos_map, memo) for ix in st.indices],
            _remap(st.value, pos_map, memo),
            None
            if st.condition is None
            else _remap(st.condition, pos_map, memo),
        )
        for st in tb.stores
    ]
    b_result = (
        None if tb.result is None else _remap(tb.result, pos_map, memo)
    )

    merged_const = dict(ta.const_args)
    for p, v in tb.const_args.items():
        merged_const[pos_map[p]] = v
    merged = N.Trace(
        ndim=ta.ndim,
        stores=tuple(ta.stores) + tuple(b_stores),
        result=b_result,
        array_args=sorted(
            set(ta.array_args) | {pos_map[p] for p in tb.array_args}
        ),
        scalar_args=sorted(
            set(ta.scalar_args) | {pos_map[p] for p in tb.scalar_args}
        ),
        const_args=merged_const,
        n_paths=ta.n_paths + tb.n_paths,
        shape_dependent=ta.shape_dependent or tb.shape_dependent,
        implicit_return_paths=tb.implicit_return_paths,
    )
    merged = optimize_trace(merged)  # cross-kernel CSE / hash-consing
    try:
        program = lower_trace(merged, fused_resolved)
    except CodegenError:
        compilecache.fused_record(a, b, None)
        return None

    # Fused kernels inherit the native rung when both inputs held it:
    # the merged trace gets its own C translation unit (the cross-launch
    # fusion win compounds with the compiled-loop win).  A decline keeps
    # the fused codegen program — same ladder as single kernels.
    native = None
    if a.kernel.mode.startswith("native") and b.kernel.mode.startswith(
        "native"
    ):
        from .cgen import try_lower_native

        native, _ = try_lower_native(merged, fused_resolved)

    name_a = getattr(a.fn, "__name__", "kernel")
    name_b = getattr(b.fn, "__name__", "kernel")
    fused_name = (
        f"{name_a}+{name_b}"
        if a.kernel.mode in ("codegen-fused", "native-fused")
        else f"fused({name_a}+{name_b})"
    )
    kernel = CompiledKernel(
        fn=_make_fused_fn(fused_name),
        ndim=merged.ndim,
        mode="native-fused" if native is not None else "codegen-fused",
        trace=merged,
        stats=analyze(merged),
        codegen=program,
        native=native,
    )
    compilecache.fused_record(a, b, kernel, fused_name)
    return _attach(kernel, a, b, fused_user, fused_resolved), pos_map


def _attach(
    kernel: CompiledKernel,
    a: LaunchPlan,
    b: LaunchPlan,
    fused_user: list,
    fused_resolved: list,
) -> LaunchPlan:
    """Stage the fused kernel as a full LaunchPlan on ``a``'s backend."""
    fused = LaunchPlan(
        construct=b.construct,
        dims=a.dims,
        fn=kernel.fn,
        args=tuple(fused_user),
        op=b.op,
    )
    fused.backend = a.backend
    fused.resolved_args = fused_resolved
    fused.policy = a.policy
    fused.arena = a.arena
    fused.kernel = kernel
    fused.backend.stage(fused)
    return fused
