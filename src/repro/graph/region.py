"""`GraphRegion`: capture-once / replay-forever wrapper for iteration bodies.

The apps' solver loops (CG, HPCCG, LBM) re-issue the same launch
sequence every iteration.  A :class:`GraphRegion` wraps one such body:
the first run under a given *(context, backend, executor, user key)*
captures it into an :class:`~repro.graph.capture.InstantiatedGraph`;
subsequent runs replay.  The user key carries the array identities the
body closes over (``id()`` of each device buffer) — cached plans pin the
arrays via their resolved arguments, so ids cannot be recycled while an
entry lives.  Rebinding a buffer (checkpoint restore), or a new region
over fresh arrays (the next solve), lands on a new key and captures
again — one eager run of the body — but the instantiation behind it is
shared: a capture whose *structure* is already known only rebinds the
stored structure to the new arrays (see
:meth:`~repro.graph.capture.LaunchGraph.instantiate`), so regions can
stay per-solve locals and pin nothing beyond the solve.

Degradation is always safe and always silent:

* graphs disabled (``PYACC_GRAPH=off`` / prefs) → direct dispatch;
* a capture already active on the context (nested region) → direct
  dispatch, letting the outer capture absorb this body's launches;
* an empty capture or an unmatchable return value → the key is marked
  uncaptureable and the body dispatches directly forever;
* an invalidated instantiation (backend demotion) → dropped; the
  demoted backend's identity changes the key, so the next run
  recaptures against the fallback.

Regions are intentionally small-stated: a bounded FIFO of instantiated
graphs per region (checkpoint restores and backend switches create new
keys; the bound keeps pinned arrays from accumulating).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from ..core.context import current_context
from ..ir.compile import executor_mode
from .capture import GraphCapture, ScalarSlot, _pkg

__all__ = ["GraphRegion"]

_UNCAPTUREABLE = object()


class GraphRegion:
    """A named, memoizing capture point for one iteration body."""

    __slots__ = ("name", "max_graphs", "_graphs")

    def __init__(self, name: str, *, max_graphs: int = 8):
        self.name = name
        self.max_graphs = max_graphs
        self._graphs: OrderedDict = OrderedDict()

    def run(self, key: tuple, body: Callable, **slots: Any):
        """Execute ``body`` — replaying its captured graph when one
        exists for ``key`` (typically the ``id()``s of the arrays the
        body closes over).

        Slot values are passed to ``body`` as keyword arguments; during
        capture they arrive wrapped as :class:`ScalarSlot` (pass them
        straight through to the constructs), afterwards they rebind on
        the replayed graph without recompilation.
        """
        graph = _pkg()
        if not graph.graphs_enabled():
            return body(**slots)
        ctx = current_context()
        if ctx.graph_capture is not None:
            return body(**slots)

        full_key = (id(ctx), id(ctx.backend()), executor_mode(), key)
        entry = self._graphs.get(full_key)
        if entry is _UNCAPTUREABLE:
            return body(**slots)
        if entry is not None:
            if entry.valid:
                return entry.replay(**slots)
            del self._graphs[full_key]

        with GraphCapture(ctx) as cap:
            wrapped = {k: ScalarSlot(k, v) for k, v in slots.items()}
            ret = body(**wrapped)
        recording = cap.graph(name=self.name)
        convention = recording.match_return(ret) if recording.nodes else None
        if convention is None:
            self._graphs[full_key] = _UNCAPTUREABLE
            graph._bump("uncaptureable")
            return ret
        inst = recording.instantiate(
            ctx,
            # With an active fault plan, fusion would change the launch
            # count and shift every injection ordinal; keep the replayed
            # sequence node-for-node identical to uncaptured dispatch.
            fuse=ctx.fault_plan is None,
            return_convention=convention,
        )
        while len(self._graphs) >= self.max_graphs:
            self._graphs.popitem(last=False)
        self._graphs[full_key] = inst
        return ret

    def stats(self) -> dict:
        """Introspection for tests/bench: cached instantiations."""
        live = [
            v for v in self._graphs.values() if v is not _UNCAPTUREABLE
        ]
        return {
            "graphs": len(live),
            "uncaptureable": len(self._graphs) - len(live),
            "replays": sum(g.replays for g in live),
            "fused_pairs": sum(g.fused_pairs for g in live),
            "nodes": sum(g.n_nodes for g in live),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GraphRegion {self.name!r} graphs={len(self._graphs)}>"
