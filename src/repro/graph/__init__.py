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
  per-launch decisions are hoisted;
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

import threading
from typing import Optional

from ..core.exceptions import GraphError, PreferencesError
from ..core.preferences import (
    GRAPH_MODES,
    PASSES_PRESETS,
    resolve_graph_mode,
    resolve_passes_mode,
)
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


# ---------------------------------------------------------------------------
# Mode resolution (the PYACC_GRAPH opt-out), mirroring executor_mode
# ---------------------------------------------------------------------------

_mode_override: Optional[str] = None
_mode_resolved: Optional[str] = None


def graph_mode() -> str:
    """The active launch-graph mode: ``on`` or ``off``.

    Resolved once from ``PYACC_GRAPH`` / the preferences file (see
    :func:`repro.core.preferences.resolve_graph_mode`) and cached —
    every :class:`GraphRegion` run consults this, so resolution must
    not touch the filesystem per iteration.
    """
    global _mode_resolved
    if _mode_override is not None:
        return _mode_override
    if _mode_resolved is None:
        _mode_resolved = resolve_graph_mode()
    return _mode_resolved


def set_graph_mode(mode: Optional[str]) -> None:
    """Override the graph mode process-wide (tests / differential runs).

    ``None`` drops the override and the cached resolution so the next
    check re-reads ``PYACC_GRAPH``/preferences.
    """
    global _mode_override, _mode_resolved
    if mode is not None and mode not in GRAPH_MODES:
        raise PreferencesError(
            f"graph mode must be one of {GRAPH_MODES}, got {mode!r}"
        )
    _mode_override = mode
    _mode_resolved = None


def graphs_enabled() -> bool:
    """True when regions may capture and replay launch graphs."""
    return graph_mode() == "on"


# ---------------------------------------------------------------------------
# Fusion-pass mode (the PYACC_PASSES opt-out), same shape as graph_mode
# ---------------------------------------------------------------------------

_passes_override: Optional[str] = None
_passes_resolved: Optional[str] = None


def passes_mode() -> str:
    """The active instantiate-time pass mode: ``all`` (global fusion
    runs) or ``none`` (captures replay unfused — the differential
    suites' reference path).  Resolved once from ``PYACC_PASSES`` / the
    preferences ``passes`` key and cached.
    """
    global _passes_resolved
    if _passes_override is not None:
        return _passes_override
    if _passes_resolved is None:
        _passes_resolved = resolve_passes_mode()
    return _passes_resolved


def set_passes_mode(mode: Optional[str]) -> None:
    """Override the pass mode process-wide (tests / bench).

    ``None`` drops the override so the next check re-reads
    ``PYACC_PASSES``/preferences.  Takes effect at the next
    ``instantiate()`` — already-instantiated graphs keep their program.
    """
    global _passes_override, _passes_resolved
    if mode is not None and mode not in PASSES_PRESETS:
        raise PreferencesError(
            f"passes mode must be one of {PASSES_PRESETS}, got {mode!r}"
        )
    _passes_override = mode
    _passes_resolved = None


# ---------------------------------------------------------------------------
# Process-wide counters (cache_info()["graph"] / bench --json)
# ---------------------------------------------------------------------------

_STATS_LOCK = threading.Lock()
_COUNTS = {
    "captures": 0,
    "replays": 0,
    "nodes_replayed": 0,
    "fused_pairs": 0,
    "invalidations": 0,
    "uncaptureable": 0,
}


def _bump(key: str, n: int = 1) -> None:
    with _STATS_LOCK:
        _COUNTS[key] += n


#: ``graph_stats()["passes"]`` has one live row, ``fuse``.  These three
#: are constant zero rows kept because the frozen benchmark
#: (benchmarks/perf/probes.counters → per-layer metrics
#: ``graph.passes.{dse,sink,schedule}_applied``) indexes them by name.
_FROZEN_PASS_ROWS = ("dse", "sink", "schedule")


def _fresh_pass_counts() -> dict:
    # ``nonadjacent``: merges that hopped over an independent node.
    out = {"fuse": {"applied": 0, "declined": {}, "nonadjacent": 0}}
    for name in _FROZEN_PASS_ROWS:
        out[name] = {"applied": 0, "declined": {}, "demoted": 0}
    return out


_PASS_COUNTS = _fresh_pass_counts()

#: Translation-validator kinds (repro.ir.validate): the fuse rewrite
#: re-derivation; program-level hazard analyses are tallied by rule.
_VALIDATE_KINDS = ("fuse",)


def _fresh_validate_counts() -> dict:
    out = {
        kind: {"confirmed": 0, "rejected": 0} for kind in _VALIDATE_KINDS
    }
    out["programs"] = 0
    out["degraded"] = 0
    out["diagnostics"] = {}
    return out


_VALIDATE_COUNTS = _fresh_validate_counts()


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
    with _STATS_LOCK:
        entry = _PASS_COUNTS[name]
        entry["applied"] += applied
        entry["nonadjacent"] += nonadjacent
        if declined is not None:
            reasons = entry["declined"]
            reasons[declined] = reasons.get(declined, 0) + 1


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
    with _STATS_LOCK:
        if kind in _VALIDATE_COUNTS and isinstance(
            _VALIDATE_COUNTS[kind], dict
        ):
            _VALIDATE_COUNTS[kind]["confirmed"] += confirmed
            _VALIDATE_COUNTS[kind]["rejected"] += rejected
        _VALIDATE_COUNTS["programs"] += programs
        _VALIDATE_COUNTS["degraded"] += degraded
        for d in diagnostics:
            rules = _VALIDATE_COUNTS["diagnostics"]
            rules[d.rule] = rules.get(d.rule, 0) + 1


def graph_stats() -> dict:
    """Process-wide launch-graph activity since start (or last reset).

    Besides the capture/replay counters, ``"passes"`` holds the fusion
    pass's applied/declined counts (declines keyed by reason — the
    decline taxonomy is documented in docs/API.md), ``"validate"`` the
    translation validator's confirmed/rejected counts plus
    program-level diagnostic tallies, and ``"passes_mode"`` the mode
    they ran under.
    """
    with _STATS_LOCK:
        out = dict(_COUNTS)
        out["passes"] = {
            name: {
                key: (dict(value) if isinstance(value, dict) else value)
                for key, value in entry.items()
            }
            for name, entry in _PASS_COUNTS.items()
        }
        out["validate"] = {
            key: (dict(value) if isinstance(value, dict) else value)
            for key, value in _VALIDATE_COUNTS.items()
        }
    out["mode"] = graph_mode()
    out["passes_mode"] = passes_mode()
    return out


def reset_graph_stats() -> None:
    """Zero the process-wide counters (tests / bench)."""
    global _PASS_COUNTS, _VALIDATE_COUNTS
    with _STATS_LOCK:
        for key in _COUNTS:
            _COUNTS[key] = 0
        _PASS_COUNTS = _fresh_pass_counts()
        _VALIDATE_COUNTS = _fresh_validate_counts()
