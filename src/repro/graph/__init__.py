"""Launch graphs: capture, fusion, and replay for iterative workloads.

JACC's evaluation workloads repeat one short launch sequence thousands of
times; the paper's JIT amortizes *compilation* once per kernel, but the
staged dispatch pipeline still pays plan construction, cache lookups,
verification and schedule building on every launch.  This package
amortizes the *orchestration* the same way CUDA Graphs do:

* :class:`~repro.graph.capture.GraphCapture` /
  ``ExecutionContext.capture()`` record the staged
  :class:`~repro.core.plan.LaunchPlan`\\ s a code region issues (the
  region still executes eagerly — relaxed capture);
* :meth:`~repro.graph.capture.LaunchGraph.instantiate` freezes them:
  compatible launches fuse into single programs
  (:mod:`repro.ir.program`), arena pools are pre-sized, and all
  per-launch decisions are hoisted — once per *structure*: a later
  capture of the same launch sequence over other arrays of the same
  signature rebinds the stored result instead of rebuilding it;
* :meth:`~repro.graph.capture.InstantiatedGraph.replay` re-executes the
  sequence with only scalar-slot rebinding, through the same execute
  stage as normal dispatch (bit-identical results, identical fault
  accounting).

:class:`~repro.graph.region.GraphRegion` packages the capture-or-replay
decision for the apps.  The whole subsystem is a pure performance layer:
``PYACC_GRAPH=off`` (or ``graph = "off"`` in LocalPreferences.toml)
restores per-launch staged dispatch, and the differential suite holds
the two modes bit-identical across every backend.
"""

from __future__ import annotations

from typing import Optional

from ..core.exceptions import GraphError
from ..core.preferences import MODES
from ..obs import Counters, register
from .capture import (
    GraphCapture,
    GraphNode,
    InstantiatedGraph,
    LaunchGraph,
    ScalarSlot,
)
from .region import GraphRegion

__all__ = [
    "GraphCapture",
    "GraphError",
    "GraphNode",
    "GraphRegion",
    "InstantiatedGraph",
    "LaunchGraph",
    "ScalarSlot",
    "graph_mode",
    "set_graph_mode",
    "graphs_enabled",
    "graph_stats",
    "reset_graph_stats",
    "passes_mode",
    "set_passes_mode",
]


#: The ``graph`` and ``passes`` knobs (``PYACC_GRAPH`` / ``PYACC_PASSES``,
#: see :data:`repro.core.preferences.MODES`).  ``*_mode()`` is the mode
#: in effect — every :class:`GraphRegion` run consults it, resolved once
#: and cached; ``set_*_mode(mode | None)`` is the process-wide override
#: (tests / differential runs).  A passes override takes effect at the
#: next ``instantiate()``.
graph_mode = MODES["graph"].get
set_graph_mode = MODES["graph"].set
passes_mode = MODES["passes"].get
set_passes_mode = MODES["passes"].set


def graphs_enabled() -> bool:
    """True when regions may capture and replay launch graphs."""
    return graph_mode() == "on"


# ---------------------------------------------------------------------------
# Process-wide counters (cache_info()["graph"] / bench --json)
# ---------------------------------------------------------------------------

#: One block, one lock: capture/replay totals, the fusion pass's
#: decisions (``fuse_*`` + ``declined`` by reason — taxonomy in
#: docs/API.md) and the translation validator's (``fuse_confirmed`` /
#: ``fuse_rejected``, programs, degradations, ``diagnostics`` by rule).
_COUNTS = Counters(
    "graph",
    (
        "captures",  # every instantiated graph, built in full or rebound
        "rebinds",  # ... of which: a stored structure bound to new arrays
        "replays",
        "nodes_replayed",
        "fused_pairs",
        "invalidations",
        "uncaptureable",
        "fuse_applied",
        "fuse_nonadjacent",  # merges that hopped over an independent node
        "fuse_confirmed",
        "fuse_rejected",
        "programs",
        "degraded",
    ),
    keyed=("declined", "diagnostics"),
)
_bump = _COUNTS.bump

#: ``graph_stats()["passes"]`` has one live row, ``fuse``.  These three
#: are constant zero rows kept because the frozen benchmark
#: (benchmarks/perf/probes.counters → per-layer metrics
#: ``graph.passes.{dse,sink,schedule}_applied``) indexes them by name.
_FROZEN_PASS_ROWS = ("dse", "sink", "schedule")


def _record_pass(
    name: str,
    *,
    applied: int = 0,
    declined: Optional[str] = None,
    nonadjacent: int = 0,
) -> None:
    """Account one fusion decision (applied / declined-with-reason).

    Every decision the pass takes — including the ``CodegenError`` drops
    — lands in ``graph_stats()["passes"]``, never silently vanishes.
    """
    if applied:
        _bump(f"{name}_applied", applied)
    if nonadjacent:
        _bump(f"{name}_nonadjacent", nonadjacent)
    if declined is not None:
        _COUNTS.bump_key("declined", declined)


def _record_validate(
    kind: str,
    *,
    confirmed: int = 0,
    rejected: int = 0,
    programs: int = 0,
    degraded: int = 0,
    diagnostics=(),
) -> None:
    """Account translation-validator activity (repro.ir.validate)."""
    for field, n in (
        (f"{kind}_confirmed", confirmed),
        (f"{kind}_rejected", rejected),
        ("programs", programs),
        ("degraded", degraded),
    ):
        if n:
            _bump(field, n)
    for d in diagnostics:
        _COUNTS.bump_key("diagnostics", d.rule)


def graph_stats() -> dict:
    """Process-wide launch-graph activity since start (or last reset).

    Besides the capture/replay counters, ``"passes"`` holds the fusion
    pass's applied/declined counts (declines keyed by reason — the
    decline taxonomy is documented in docs/API.md), ``"validate"`` the
    translation validator's confirmed/rejected counts plus
    program-level diagnostic tallies, and ``"passes_mode"`` the mode
    they ran under.
    """
    out = _COUNTS.snapshot()
    out["passes"] = {
        "fuse": {
            "applied": out.pop("fuse_applied"),
            "declined": out.pop("declined"),
            "nonadjacent": out.pop("fuse_nonadjacent"),
        },
        **{
            name: {"applied": 0, "declined": {}, "demoted": 0}
            for name in _FROZEN_PASS_ROWS
        },
    }
    out["validate"] = {
        "fuse": {
            "confirmed": out.pop("fuse_confirmed"),
            "rejected": out.pop("fuse_rejected"),
        },
        "programs": out.pop("programs"),
        "degraded": out.pop("degraded"),
        "diagnostics": out.pop("diagnostics"),
    }
    out["mode"] = graph_mode()
    out["passes_mode"] = passes_mode()
    return out


register(_COUNTS, graph_stats)


def reset_graph_stats() -> None:
    """Zero the process-wide counters (tests / bench)."""
    _COUNTS.reset()
