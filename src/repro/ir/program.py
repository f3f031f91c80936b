"""The dataflow program IR over captured launch sequences.

The paper's whole thesis — and the JaCe/DaCe staged-translation
architecture ROADMAP points at — is that a JIT which can see the *whole
program* can optimize across launches.  This module is that program
view: a captured :class:`~repro.graph.capture.LaunchGraph` becomes a
:class:`Program` whose nodes are the staged plans and whose edges are
def-use dependencies over array storage (read/write sets derived from
each node's trace, the same identities :mod:`repro.ir.writes` versions).

On top of the Program runs one pass (:func:`run_passes`), invoked by
``LaunchGraph.instantiate()``: **global fusion**.  A node may merge into
*any* earlier compatible node — not just its predecessor — provided it
can legally move there: the scan hops backwards over every node it does
not conflict with (no write-read, read-write, or write-write overlap)
and merges into the first candidate the element-local safety rule
(:func:`repro.ir.fuse.fuse_decline_reason`) accepts.  A trailing
reduction then inlines into the nearest legal producer the same way.

Every decision is recorded: applied counts and declines *with reasons*
land in ``graph_stats()["passes"]["fuse"]``, and a human-readable trail
is kept for ``python -m repro.ir.inspect --program``.  A program where
nothing is provably safe declines every merge and replays the capture
as recorded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .deadstore import loaded_positions, overwritten_positions
from .effects import snapshot_effects
from .fuse import fuse_decline_reason, fuse_plans

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..graph.capture import GraphNode

__all__ = ["ProgramNode", "Program", "run_passes"]

#: Scan hop limit for the global fusion pass — a backstop, not a tuning
#: knob (captured bodies are short; the scan is quadratic worst-case).
_MAX_FUSE_HOPS = 64


# ---------------------------------------------------------------------------
# Nodes and the program graph
# ---------------------------------------------------------------------------


class ProgramNode:
    """One dataflow node: a captured launch + its array read/write sets.

    ``reads``/``writes`` are storage-id sets (``id()`` of the resolved
    ndarray buffers — the same identities the write-version table keys
    on).  Opaque (interpreter-tier) nodes conservatively read and write
    every array argument.  ``origin`` lists the recorded node indices
    this node covers (more than one after fusion), preserving the return
    convention across passes.
    """

    __slots__ = ("gnode", "reads", "writes", "opaque", "origin")

    def __init__(self, gnode: "GraphNode", origin: list[int]):
        self.gnode = gnode
        self.origin = list(origin)
        plan = gnode.plan
        kernel = plan.kernel
        trace = kernel.trace if kernel is not None else None
        rargs = plan.resolved_args
        if trace is None:
            every = frozenset(
                id(a) for a in rargs if isinstance(a, np.ndarray)
            )
            self.reads = every
            self.writes = every
            self.opaque = True
            return
        self.writes = frozenset(
            id(rargs[pos]) for pos in overwritten_positions(trace)
        )
        self.reads = frozenset(
            id(rargs[pos])
            for pos in loaded_positions(trace)
            if isinstance(rargs[pos], np.ndarray)
        )
        self.opaque = False

    @property
    def label(self) -> str:
        return self.gnode.plan.label

    def conflicts(self, other: "ProgramNode") -> bool:
        """May ``other`` NOT move past this node?  True when the two
        nodes touch common storage with at least one writer."""
        return bool(
            (self.writes & other.reads)
            or (self.reads & other.writes)
            or (self.writes & other.writes)
        )


class Program:
    """A captured launch sequence as a dataflow program.

    Built over the instantiation's :class:`GraphNode` copies; fusion
    rebuilds ``self.nodes`` (merging, reordering) and records a
    human-readable ``trail``.  ``index_map()`` maps recorded node
    indices to final positions for the return convention.
    """

    def __init__(self, name: str, gnodes: list):
        self.name = name
        self.nodes: list[ProgramNode] = [
            ProgramNode(g, [i]) for i, g in enumerate(gnodes)
        ]
        self.n_recorded = len(gnodes)
        self.trail: list[str] = []
        self.fused_pairs = 0
        self.nonadjacent_fusions = 0
        #: One record per *applied* rewrite, carrying pre-rewrite
        #: :class:`repro.ir.effects.EffectsSummary` snapshots — the
        #: evidence the translation validator (:mod:`repro.ir.validate`)
        #: re-derives legality from after the pipeline finishes.
        self.rewrites: list[dict] = []

    # -- structure ---------------------------------------------------------
    def index_map(self) -> dict[int, int]:
        """Recorded node index → current node position."""
        out: dict[int, int] = {}
        for pos, pn in enumerate(self.nodes):
            for rec in pn.origin:
                out[rec] = pos
        return out

    def edges(self) -> list[tuple[int, int, str]]:
        """Def-use dependency edges ``(producer, consumer, kind)`` with
        ``kind`` in ``"raw"``/``"war"``/``"waw"`` (read-after-write,
        write-after-read, write-after-write), using each consumer's
        *nearest* conflicting predecessor per array."""
        out = []
        for j, b in enumerate(self.nodes):
            for i in range(j - 1, -1, -1):
                a = self.nodes[i]
                if a.writes & b.reads:
                    out.append((i, j, "raw"))
                elif a.reads & b.writes:
                    out.append((i, j, "war"))
                elif a.writes & b.writes:
                    out.append((i, j, "waw"))
        return out

    def log(self, message: str) -> None:
        self.trail.append(message)

    def describe(self) -> str:
        """Multi-line dump: nodes, rw sets, edges, and the pass trail."""
        id_names: dict[int, str] = {}

        def nm(sid: int) -> str:
            if sid not in id_names:
                id_names[sid] = f"A{len(id_names)}"
            return id_names[sid]

        lines = [f"program {self.name!r}: {len(self.nodes)} node(s)"]
        for pos, pn in enumerate(self.nodes):
            plan = pn.gnode.plan
            suffix = "  [opaque]" if pn.opaque else ""
            lines.append(f"  [{pos}] {plan.label}{suffix}")
            lines.append(
                f"       reads={{{', '.join(sorted(nm(i) for i in pn.reads))}}} "
                f"writes={{{', '.join(sorted(nm(i) for i in pn.writes))}}}"
            )
        edges = self.edges()
        if edges:
            lines.append("  edges:")
            for i, j, kind in edges:
                lines.append(f"    [{i}] -> [{j}]  ({kind})")
        if self.trail:
            lines.append("  pass trail:")
            lines += [f"    {entry}" for entry in self.trail]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Global fusion
# ---------------------------------------------------------------------------


def _merge_nodes(
    a: ProgramNode, b: ProgramNode
) -> Optional[ProgramNode]:
    """Fuse plan ``b`` into plan ``a``, carrying slot bindings over."""
    from ..graph.capture import GraphNode

    merged = fuse_plans(a.gnode.plan, b.gnode.plan)
    if merged is None:
        return None
    fused_plan, pos_map = merged
    slot_map = dict(a.gnode.slot_map)
    for p, slot in b.gnode.slot_map.items():
        slot_map[pos_map[p]] = slot
    # The fused argument list is ``a``'s, then each of ``b``'s arguments
    # that did not dedupe onto one of them, in order.
    a_src, b_src = a.gnode.sources, b.gnode.sources
    sources = a_src + tuple(
        b_src[p] for p, fp in sorted(pos_map.items()) if fp >= len(a_src)
    )
    combined = GraphNode(fused_plan, slot_map, sources)
    return ProgramNode(combined, a.origin + b.origin)


def run_passes(prog: Program, record: Callable) -> Program:
    """Run global fusion over ``prog``: merge compatible launches,
    reordering where legal.  Mutates and returns ``prog``.

    Phase A rebuilds the node list, merging each incoming for-node into
    the nearest earlier candidate it can legally reach: the backward
    scan stops at the first node the mover conflicts with.  Phase B
    inlines each reduction into the nearest legal for-producer the same
    way.  ``record("fuse", applied=..., declined=reason, ...)`` accounts
    every decision into ``graph_stats()["passes"]``.
    """

    def try_merge(out: list[ProgramNode], pn: ProgramNode) -> bool:
        if pn.gnode.const_slots:
            record("fuse", declined="const-slots")
            prog.log(f"fuse: decline {pn.label}: const-slots")
            return False
        first_reason = None
        hops = 0
        j = len(out) - 1
        while j >= 0 and hops < _MAX_FUSE_HOPS:
            cand = out[j]
            if cand.gnode.const_slots:
                reason = "const-slots"
            else:
                reason = fuse_decline_reason(cand.gnode.plan, pn.gnode.plan)
            if reason is None:
                merged = _merge_nodes(cand, pn)
                if merged is not None:
                    prog.rewrites.append(
                        {
                            "kind": "fuse",
                            "label": pn.label,
                            "a": snapshot_effects(cand.gnode.plan),
                            "b": snapshot_effects(pn.gnode.plan),
                            "skipped": tuple(
                                snapshot_effects(n.gnode.plan)
                                for n in out[j + 1 :]
                            ),
                        }
                    )
                    out[j] = merged
                    prog.fused_pairs += 1
                    nonadj = j != len(out) - 1
                    if nonadj:
                        prog.nonadjacent_fusions += 1
                    record(
                        "fuse",
                        applied=1,
                        nonadjacent=1 if nonadj else 0,
                    )
                    prog.log(
                        f"fuse: merged {pn.label} into node {j}"
                        + (" (non-adjacent)" if nonadj else "")
                    )
                    return True
                reason = "lowering"
            if first_reason is None:
                first_reason = reason
            if cand.conflicts(pn):
                break  # pn cannot move above cand; stop the scan
            j -= 1
            hops += 1
        if first_reason is not None:
            record("fuse", declined=first_reason)
            prog.log(f"fuse: decline {pn.label}: {first_reason}")
        return False

    # Phase A: for-nodes merge globally (reduces pass through untouched —
    # inlining them too early would terminate fusion chains that a later
    # independent for-node could still join).
    out: list[ProgramNode] = []
    for pn in prog.nodes:
        if pn.gnode.plan.construct == "for" and out and try_merge(out, pn):
            continue
        out.append(pn)
    prog.nodes = out

    # Phase B: inline each reduction into the nearest legal producer.
    changed = True
    while changed:
        changed = False
        for k, pn in enumerate(prog.nodes):
            if pn.gnode.plan.construct != "reduce":
                continue
            prefix = prog.nodes[:k]
            if prefix and try_merge(prefix, pn):
                prog.nodes = prefix + prog.nodes[k + 1 :]
                changed = True
                break

    return prog
