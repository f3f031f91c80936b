"""Per-plan memory-effects summaries and cross-launch hazard analysis.

Global fusion (:mod:`repro.ir.program`) reasons about *what a launch
touches*; this module reifies that reasoning as data, independent of
the pass.  An :class:`EffectsSummary` condenses one staged
:class:`~repro.core.plan.LaunchPlan` into affine read/write regions per
array argument, derived from the same guard-refined index-distance
lattice the kernel verifier uses (:func:`repro.ir.verify.
abstract_accesses`), plus storage-id read/write sets consistent with
:meth:`repro.ir.verify.LaunchRecords.written_ids`.

The summaries are the shared foundation for:

* the translation validator (:mod:`repro.ir.validate`), which re-derives
  the legality of every applied pass rewrite from summaries alone;
* the cross-launch diagnostics — V601 (async RAW/WAW race between
  unsynchronized ``launch(..., sync=False)`` handles, the hazard the
  original JACC OpenACC runtime manages dynamically across streams),
  V602 (graph-level dead store spanning launches) and V603
  (reduce-into-aliased-input hazard on fused nodes).

Summaries are conservative by construction: anything the affine lattice
cannot bound widens to an unbounded region, and untraced
(interpreter-tier) plans are *opaque* — assumed to read and write every
ndarray argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from . import nodes as N
from .deadstore import fully_overwritten_positions
from .diagnostics import Diagnostic, rule_severity
from .shapes import _static_identity
from .verify import _args_env, _lin_range, abstract_accesses
from .writes import hazards

__all__ = [
    "ArrayEffect",
    "EffectsSummary",
    "summarize_trace",
    "snapshot_effects",
    "plan_effects",
    "async_hazards",
    "program_dead_stores",
    "reduce_alias_hazards",
    "regions_may_overlap",
]

_INF = float("inf")

#: Unbounded per-axis interval — the region lattice's ⊤ element.
_TOP = (-_INF, _INF)


@dataclass(frozen=True)
class ArrayEffect:
    """What one launch does to one array argument.

    Regions are per-array-axis ``(lo, hi)`` interval tuples bounding the
    union of every access's index range over the launch domain (after
    guard refinement); ``None`` means the array is not accessed that
    way.  ``*_exact`` is True when every contributing access had an
    affine form — i.e. the region is tight, not widened to ⊤ on some
    axis.
    """

    pos: int
    sid: int
    shape: Optional[tuple]
    read_region: Optional[tuple]
    write_region: Optional[tuple]
    reads_exact: bool = True
    writes_exact: bool = True
    #: Every read / write is the static identity access ``a[i, j, ...]``
    #: on the launch axes — the pattern under which element-wise fusion
    #: preserves per-iteration value flow.
    identity_reads: bool = True
    identity_writes: bool = True
    #: An unconditional identity store covers the array exactly (launch
    #: dims == array shape): the launch replaces the array's contents.
    full_overwrite: bool = False

    @property
    def is_read(self) -> bool:
        return self.read_region is not None

    @property
    def is_written(self) -> bool:
        return self.write_region is not None


@dataclass(frozen=True)
class EffectsSummary:
    """Memory effects of one staged launch plan.

    ``arrays`` holds one :class:`ArrayEffect` per accessed array
    argument position; the ``*_ids`` sets are storage ids (``id()`` of
    the resolved ndarray), the same key space as
    :meth:`repro.ir.verify.LaunchRecords.written_ids` and the
    write-version table (:mod:`repro.ir.writes`).  ``opaque`` plans (no trace) read and
    write everything.
    """

    kernel: str
    ndim: int
    dims: Optional[tuple]
    arrays: tuple
    read_ids: frozenset
    write_ids: frozenset
    #: Storage ids some effect proves fully overwritten.  When one array
    #: aliases several argument positions the claim must hold for every
    #: alias's combined accesses, so aliased sids are excluded.
    full_overwrite_ids: frozenset
    #: Storage ids the reduce result expression loads, split by whether
    #: every such load is the static identity access.
    result_read_ids: frozenset = frozenset()
    result_nonidentity_ids: frozenset = frozenset()
    is_reduce: bool = False
    opaque: bool = False

    def effect(self, pos: int) -> Optional[ArrayEffect]:
        """The :class:`ArrayEffect` for argument position ``pos``."""
        for eff in self.arrays:
            if eff.pos == pos:
                return eff
        return None

    def effects_for_sid(self, sid: int) -> tuple:
        """Every :class:`ArrayEffect` whose storage is ``sid``."""
        return tuple(eff for eff in self.arrays if eff.sid == sid)

    def describe(self) -> str:
        """Human-readable dump (``python -m repro.ir.inspect --program``)."""

        def fmt_region(region):
            return "[" + ", ".join(
                f"{int(lo) if lo != -_INF else '-inf'}"
                f"..{int(hi) if hi != _INF else 'inf'}"
                for lo, hi in region
            ) + "]"

        head = f"effects {self.kernel!r}"
        if self.is_reduce:
            head += " (reduce)"
        if self.opaque:
            return head + ": opaque (no trace; reads+writes every array)"
        lines = [head + f" over dims={self.dims}"]
        for eff in self.arrays:
            parts = []
            if eff.is_read:
                tag = "identity" if eff.identity_reads else (
                    "exact" if eff.reads_exact else "widened"
                )
                parts.append(f"reads {fmt_region(eff.read_region)} ({tag})")
            if eff.is_written:
                tag = "identity" if eff.identity_writes else (
                    "exact" if eff.writes_exact else "widened"
                )
                parts.append(f"writes {fmt_region(eff.write_region)} ({tag})")
            if eff.full_overwrite:
                parts.append("full overwrite")
            lines.append(f"  arg{eff.pos}: " + "; ".join(parts))
        return "\n".join(lines)


def regions_may_overlap(a: Optional[tuple], b: Optional[tuple]) -> bool:
    """Whether two per-axis interval regions can share an element.

    ``None`` (unknown region) conservatively overlaps everything.
    """
    if a is None or b is None:
        return True
    return all(
        not (alo > bhi or blo > ahi) for (alo, ahi), (blo, bhi) in zip(a, b)
    )


def _identity_forms(forms, ndim: int) -> bool:
    """Whether affine forms are exactly ``a[i, j, ...]`` on the axes."""
    if forms is None or len(forms) != ndim:
        return False
    for ax, form in enumerate(forms):
        if form is None or form.const != 0:
            return False
        for a, c in enumerate(form.coeffs):
            if c != (1 if a == ax else 0):
                return False
    return True


def _access_region(access) -> tuple[tuple, bool]:
    """Per-axis interval of one access; second element = all-affine."""
    region = []
    exact = True
    for form in access.forms:
        if form is None:
            region.append(_TOP)
            exact = False
        else:
            region.append(_lin_range(form, access.box))
    return tuple(region), exact


def _union(a: Optional[tuple], b: tuple) -> tuple:
    if a is None:
        return b
    return tuple(
        (min(alo, blo), max(ahi, bhi)) for (alo, ahi), (blo, bhi) in zip(a, b)
    )


def summarize_trace(
    trace: N.Trace,
    dims: Optional[Sequence[int]],
    args: Sequence[Any],
    *,
    kernel: str = "<kernel>",
    is_reduce: bool = False,
) -> EffectsSummary:
    """Build the effects summary of one optimized trace.

    ``args`` are the resolved launch arguments; array storage ids come
    from them, and concrete scalar values refine the guard boxes exactly
    as the verifier sees them.
    """
    dims_t = tuple(dims) if dims is not None else None
    shapes, scalars = _args_env(args)
    accesses = abstract_accesses(
        trace, dims=dims_t, shapes=shapes, scalars=scalars, kernel=kernel
    )
    ndim = trace.ndim

    per_pos: dict[int, dict] = {}
    for acc in accesses:
        pos = acc.array.pos
        slot = per_pos.setdefault(
            pos,
            {
                "read_region": None,
                "write_region": None,
                "reads_exact": True,
                "writes_exact": True,
                "identity_reads": True,
                "identity_writes": True,
            },
        )
        region, exact = _access_region(acc)
        identity = _identity_forms(acc.forms, ndim)
        if acc.kind == "store":
            slot["write_region"] = _union(slot["write_region"], region)
            slot["writes_exact"] = slot["writes_exact"] and exact
            slot["identity_writes"] = slot["identity_writes"] and identity
        else:
            slot["read_region"] = _union(slot["read_region"], region)
            slot["reads_exact"] = slot["reads_exact"] and exact
            slot["identity_reads"] = slot["identity_reads"] and identity

    full_positions = fully_overwritten_positions(trace)
    effects = []
    for pos in sorted(per_pos):
        slot = per_pos[pos]
        arr = args[pos] if pos < len(args) else None
        sid = id(arr) if isinstance(arr, np.ndarray) else -pos - 1
        shape = shapes.get(pos)
        effects.append(
            ArrayEffect(
                pos=pos,
                sid=sid,
                shape=shape,
                full_overwrite=(
                    pos in full_positions
                    and dims_t is not None
                    and shape == dims_t
                ),
                **slot,
            )
        )
    effects_t = tuple(effects)

    read_ids = frozenset(e.sid for e in effects_t if e.is_read)
    write_ids = frozenset(e.sid for e in effects_t if e.is_written)
    full_ids = frozenset(
        e.sid
        for e in effects_t
        if e.full_overwrite
        and sum(1 for o in effects_t if o.sid == e.sid) == 1
    )

    result_reads: set[int] = set()
    result_nonident: set[int] = set()
    if trace.result is not None:
        for node in N.walk(trace.result):
            if isinstance(node, N.Load):
                pos = node.array.pos
                arr = args[pos] if pos < len(args) else None
                sid = id(arr) if isinstance(arr, np.ndarray) else -pos - 1
                result_reads.add(sid)
                if not _static_identity(node.indices, ndim):
                    result_nonident.add(sid)

    return EffectsSummary(
        kernel=kernel,
        ndim=ndim,
        dims=dims_t,
        arrays=effects_t,
        read_ids=read_ids,
        write_ids=write_ids,
        full_overwrite_ids=full_ids,
        result_read_ids=frozenset(result_reads),
        result_nonidentity_ids=frozenset(result_nonident),
        is_reduce=is_reduce or trace.result is not None,
    )


def snapshot_effects(plan) -> EffectsSummary:
    """The effects summary of a staged plan, computed fresh (uncached).

    The fusion pass uses this to snapshot pre-rewrite effects at apply
    time, so the validator's evidence never depends on a cache entry a
    later stage (hoisting, recompiles) may have refreshed.
    """
    kernel = plan.kernel
    trace = kernel.trace if kernel is not None else None
    name = getattr(plan.fn, "__name__", repr(plan.fn))
    if trace is None:
        every = frozenset(
            id(a) for a in plan.resolved_args if isinstance(a, np.ndarray)
        )
        return EffectsSummary(
            kernel=name,
            ndim=len(plan.dims),
            dims=tuple(plan.dims),
            arrays=(),
            read_ids=every,
            write_ids=every,
            full_overwrite_ids=frozenset(),
            is_reduce=plan.is_reduce,
            opaque=True,
        )
    return summarize_trace(
        trace,
        plan.dims,
        plan.resolved_args,
        kernel=name,
        is_reduce=plan.is_reduce,
    )


def plan_effects(plan) -> EffectsSummary:
    """The (cached) effects summary of a staged launch plan.

    Requires the plan to have passed the compile stage.  Untraced
    (interpreter-tier) kernels yield an *opaque* summary that
    conservatively reads and writes every resolved ndarray.
    """
    if plan.effects is None:
        plan.effects = snapshot_effects(plan)
    return plan.effects


def _diag(rule: str, kernel: str, message: str, provenance: str = ""):
    return Diagnostic(
        rule=rule,
        severity=rule_severity(rule),
        kernel=kernel,
        message=message,
        provenance=provenance,
    )


def async_hazards(plan, pending_plans) -> list:
    """V601: RAW/WAW races between a new async launch and pending ones.

    ``pending_plans`` are the staged plans of still-running
    ``launch(..., sync=False)`` handles on the same context.  On the
    current single in-order stream these are ordered; the diagnostic
    flags the *portability* hazard — on a true multi-stream device the
    new launch's reads/writes race the pending writes unless the host
    synchronizes between them.
    """
    new = plan_effects(plan)
    diags = []
    for prev in pending_plans:
        if prev is plan:
            continue
        old = plan_effects(prev)
        kinds = hazards(
            old.write_ids, old.read_ids, new.write_ids, new.read_ids
        )
        kinds = tuple(k for k in kinds if k != "WAR")
        if not kinds:
            continue
        shared = old.write_ids & (new.read_ids | new.write_ids)
        diags.append(
            _diag(
                "V601",
                new.kernel,
                f"unsynchronized launch overlaps pending launch "
                f"{old.kernel!r} ({'/'.join(kinds)} on {len(shared)} shared "
                "array(s)); call synchronize() or handle.wait() between "
                "them",
                provenance=f"pending={old.kernel}",
            )
        )
    return diags


def program_dead_stores(labeled_summaries: Sequence[tuple]) -> list:
    """V602: stores fully overwritten by a later launch, never read.

    ``labeled_summaries`` is the instantiated program's nodes in
    execution order as ``(label, EffectsSummary)`` pairs.  A write to
    storage ``s`` by node *i* is graph-level dead when no later node (or
    opaque plan) reads ``s`` before some node *j* fully overwrites it.
    Nothing eliminates such a store; the diagnostic tells the user
    about it instead — it is a warning, never fatal.
    """
    diags = []
    for i, (label_i, si) in enumerate(labeled_summaries):
        if si.opaque:
            continue
        for sid in si.write_ids:
            if sid in si.read_ids:
                # A self-reading write (x[i] += ...) is not provably dead.
                continue
            for label_j, sj in labeled_summaries[i + 1:]:
                if sj.opaque or sid in sj.read_ids:
                    break
                if sid in sj.full_overwrite_ids:
                    diags.append(
                        _diag(
                            "V602",
                            label_i,
                            f"store by {label_i!r} is fully overwritten by "
                            f"{label_j!r} with no intervening read "
                            "(graph-level dead store)",
                            provenance=f"killer={label_j}",
                        )
                    )
                    break
    return diags


def reduce_alias_hazards(summary: EffectsSummary) -> list:
    """V603: a fused reduce reads, at non-identity indices, an array the
    same node writes — chunked execution would observe partial writes."""
    bad = summary.result_nonidentity_ids & summary.write_ids
    if not bad:
        return []
    return [
        _diag(
            "V603",
            summary.kernel,
            "fused reduction loads an array this node also writes at "
            "non-identity indices; chunk-parallel execution reads "
            "elements mid-overwrite",
            provenance=f"{len(bad)} aliased array(s)",
        )
    ]
