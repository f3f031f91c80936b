"""Launch-graph capture, instantiation, and replay.

The CUDA-Graphs model, transplanted to the staged dispatch pipeline
(:mod:`repro.core.api`):

* **capture** — :class:`GraphCapture` (installed on the execution
  context by ``ctx.capture()``) observes ``_dispatch``: each construct
  issued inside the scope executes **eagerly and unchanged** (relaxed
  stream capture — the capture iteration is bit-identical to uncaptured
  dispatch) while its fully staged :class:`~repro.core.plan.LaunchPlan`
  is recorded.  Scalar arguments wrapped in :class:`ScalarSlot` become
  graph-level symbolic slots.
* **instantiate** — :meth:`LaunchGraph.instantiate` freezes the
  recording: compatible plans are fused (see :mod:`repro.ir.program`), arena
  pools are pre-sized for every scratch buffer replay will draw
  (:meth:`repro.ir.arena.ScratchArena.reserve`), and the
  verify/cache/executor decisions already attached to each plan are
  thereby hoisted out of the loop.
* **replay** — :meth:`InstantiatedGraph.replay` re-executes the
  sequence through the *same* execute stage as normal dispatch
  (:func:`repro.core.api._execute` per node: accounting, hooks, modeled
  time, fault seams — all identical), skipping only the per-launch
  staging (plan construction, cache lookups, verification, schedule
  building).  Only scalar slots rebind; nothing recompiles unless a
  value-specialized kernel's baked scalar actually changed.

Fault interop: a replayed node that faults retries/fails over through
the existing :class:`~repro.faults.LaunchPolicy` ladder exactly like a
staged launch.  A permanent failover demotes the context backend; the
instantiation detects the demotion, re-schedules the not-yet-run tail on
the fallback so the current replay completes, and marks itself invalid —
the next iteration recaptures against the demoted backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..core.exceptions import GraphError
from ..core.plan import LaunchHandle, LaunchPlan
from ..ir import writes

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.context import ExecutionContext

__all__ = [
    "ScalarSlot",
    "GraphCapture",
    "GraphNode",
    "LaunchGraph",
    "InstantiatedGraph",
]


def _slot_algebra_error(op: str):
    def _raise(self, *args):
        raise GraphError(
            f"cannot apply {op!r} to graph slot {self.name!r}: slots bind "
            "verbatim at replay — compute derived values in host code and "
            "pass each as its own slot"
        )

    return _raise


class ScalarSlot:
    """A named symbolic scalar: the graph-level parameter of a capture.

    Passing ``ScalarSlot("alpha", value)`` as a construct argument inside
    a capture records *position → slot name* on the captured plan; the
    concrete ``value`` is what the capture iteration executes with.
    Replays rebind the position via ``replay(alpha=...)`` without any
    recompilation.  Slots are opaque — arithmetic on one raises
    :class:`~repro.core.exceptions.GraphError` (derive values on the
    host and pass them as separate slots).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Any):
        self.name = name
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ScalarSlot {self.name}={self.value!r}>"

    __neg__ = _slot_algebra_error("neg")
    __add__ = __radd__ = _slot_algebra_error("add")
    __sub__ = __rsub__ = _slot_algebra_error("sub")
    __mul__ = __rmul__ = _slot_algebra_error("mul")
    __truediv__ = __rtruediv__ = _slot_algebra_error("truediv")
    __pow__ = __rpow__ = _slot_algebra_error("pow")
    __float__ = _slot_algebra_error("float")
    __int__ = _slot_algebra_error("int")


class GraphNode:
    """One recorded launch: the staged plan + its slot bindings.

    ``slot_map`` maps argument positions to slot names.  ``const_slots``
    (filled at instantiation) lists the positions whose value the
    compiled kernel *baked in* (value-specialized traces, interpreter
    fallbacks): rebinding one of those forces a recompile on replay.
    """

    __slots__ = ("plan", "slot_map", "const_slots", "hoist")

    def __init__(self, plan: LaunchPlan, slot_map: Optional[dict] = None):
        self.plan = plan
        self.slot_map: dict[int, str] = dict(slot_map or {})
        self.const_slots: dict[int, Any] = {}
        # _HoistState when the node's program was re-lowered with
        # const-array assumptions that need per-replay validation.
        self.hoist: Optional[_HoistState] = None

    def bake_const_slots(self) -> None:
        kernel = self.plan.kernel
        trace = kernel.trace if kernel is not None else None
        for pos in self.slot_map:
            if trace is None or pos in trace.const_args:
                self.const_slots[pos] = self.plan.resolved_args[pos]


class _HoistState:
    """Validation record for a node whose program assumed const arrays.

    ``positions``/``ids`` are the argument positions (and storage ids)
    the hoisted program treats as replay-invariant; ``snap`` is their
    write-version snapshot (:func:`repro.ir.writes.versions_of`) taken
    when the prologue values were (re)bound.  ``base_kernel`` is the
    unhoisted compiled kernel, kept so demotion can re-lower from the
    original trace.
    """

    __slots__ = ("base_kernel", "positions", "ids", "snap", "const_scalars")

    def __init__(self, base_kernel, positions, ids, snap, const_scalars):
        self.base_kernel = base_kernel
        self.positions: tuple[int, ...] = positions
        self.ids: tuple[int, ...] = ids
        self.snap: tuple = snap
        self.const_scalars: frozenset = const_scalars


class GraphCapture:
    """Context manager that records constructs dispatched in its scope.

    Install with ``with ctx.capture() as cap: ...``; constructs still
    execute eagerly (relaxed capture).  Nested captures raise
    :class:`GraphError` — :class:`~repro.graph.region.GraphRegion`
    degrades to direct execution in that case, letting the outer capture
    absorb the inner body's launches.
    """

    def __init__(self, ctx: "ExecutionContext"):
        self._ctx = ctx
        self._nodes: list[GraphNode] = []

    def __enter__(self) -> "GraphCapture":
        if self._ctx.graph_capture is not None:
            raise GraphError(
                "a graph capture is already active on this context; "
                "nested captures are not supported"
            )
        self._ctx.graph_capture = self
        return self

    def __exit__(self, *exc) -> None:
        self._ctx.graph_capture = None

    def strip_slots(self, args: tuple) -> tuple[tuple, dict[int, str]]:
        """Replace :class:`ScalarSlot` wrappers with their values,
        returning the concrete args and the position → name map."""
        slot_map: dict[int, str] = {}
        if not any(isinstance(a, ScalarSlot) for a in args):
            return args, slot_map
        out = list(args)
        for i, a in enumerate(out):
            if isinstance(a, ScalarSlot):
                slot_map[i] = a.name
                out[i] = a.value
        return tuple(out), slot_map

    def record(self, plan: LaunchPlan, slot_map: Optional[dict]) -> None:
        """Called by ``_dispatch`` after the plan executed."""
        self._nodes.append(GraphNode(plan, slot_map))

    def graph(self, name: str = "capture") -> "LaunchGraph":
        """The recording as a :class:`LaunchGraph`."""
        return LaunchGraph(name, self._nodes)


class LaunchGraph:
    """An ordered recording of staged launches, ready to instantiate."""

    def __init__(self, name: str, nodes: list[GraphNode]):
        self.name = name
        self.nodes = list(nodes)

    @property
    def signature(self) -> tuple:
        """The sequence identity the graph was captured under: kernel
        ids, constructs, dims, array storage identities, slot names."""
        sig = []
        for node in self.nodes:
            plan = node.plan
            sig.append(
                (
                    getattr(plan.fn, "__qualname__", repr(plan.fn)),
                    plan.construct,
                    plan.dims,
                    tuple(
                        id(a)
                        for a in plan.resolved_args
                        if isinstance(a, np.ndarray)
                    ),
                    tuple(sorted(node.slot_map.items())),
                )
            )
        return tuple(sig)

    def match_return(self, ret: Any) -> Optional[tuple]:
        """Infer how a captured body's return value maps onto node
        results, so replay can reproduce it.

        Supported conventions: ``None``, one reduce result, or a
        tuple/list of reduce results — each matched to a **unique** node
        by value.  Anything else (host-derived values, ambiguous
        matches) returns ``None``: the region marks the body
        uncaptureable and keeps dispatching it directly, which is always
        correct.
        """
        if ret is None:
            return ("none",)

        def match_one(value: Any) -> Optional[int]:
            if isinstance(value, ScalarSlot):
                return None
            hits = [
                i
                for i, node in enumerate(self.nodes)
                if node.plan.is_reduce and node.plan.result == value
            ]
            return hits[0] if len(hits) == 1 else None

        if isinstance(ret, (tuple, list)):
            idxs = [match_one(v) for v in ret]
            if any(i is None for i in idxs):
                return None
            kind = "tuple" if isinstance(ret, tuple) else "list"
            return (kind, tuple(idxs))
        idx = match_one(ret)
        return None if idx is None else ("single", idx)

    def _validate(self, program, ctx):
        """Run the translation validator over the optimized program.

        Re-derives every applied rewrite from effects summaries
        (:mod:`repro.ir.validate`) and runs the program-level hazard
        analyses (V602/V603).  ``error`` mode raises on any
        error-severity finding; ``warn`` (default) warns and — when a
        rewrite itself is unconfirmed or an error-severity hazard is
        present — degrades to the unoptimized program, which is always
        correct.  Degrading is a rebuild from the recording: fusion
        builds *new* plans and leaves the recorded ones intact.
        """
        import warnings

        from ..core.exceptions import TranslationValidationError
        from ..ir.diagnostics import KernelVerificationWarning
        from ..ir.program import Program
        from ..ir.validate import (
            active_validate_mode,
            program_diagnostics,
            validate_program,
        )
        from . import _record_validate

        from ..ir import compilecache

        vmode = active_validate_mode()
        if vmode == "off":
            return program
        # Persistent program tier: a clean-validation certificate stored
        # by an earlier instantiate of this exact program (same member
        # digests, alias pattern, modes — all in the entry key) lets the
        # warm path skip re-validation; the recorded counter trail is
        # replayed so graph_stats() matches a cold instantiate.
        trail = compilecache.validated_lookup()
        if trail is not None:
            for kind, kw in trail:
                _record_validate(kind, **kw)
            return program
        trail_acc: list = []

        def _rec(kind, **kw):
            trail_acc.append((kind, kw))
            _record_validate(kind, **kw)

        diags = validate_program(program, _rec)
        diags.extend(program_diagnostics(program))
        _rec("", programs=1, diagnostics=diags)
        if not diags:
            compilecache.validated_record(trail_acc)
            return program
        fatal = [d for d in diags if d.is_error]
        if vmode == "error" and fatal:
            raise TranslationValidationError(self.name, diags)
        for d in diags:
            warnings.warn(str(d), KernelVerificationWarning, stacklevel=3)
        if fatal or any(d.rule == "V610" for d in diags):
            # Undo the rewrites: rebuild the program from fresh nodes
            # over the recorded plans, with no pass run.
            nodes = [GraphNode(n.plan, n.slot_map) for n in self.nodes]
            for node in nodes:
                node.bake_const_slots()
            program = Program(self.name, nodes)
            _record_validate("", degraded=1)
        return program

    def _hoist(self, program) -> None:
        """Hoist replay-invariant work out of each node's generated
        program (the CUDA-Graphs address-pre-binding analogue).

        Replay-invariant inputs: the frozen launch domain, non-slot
        scalars (baked by capture), array shapes, and *candidate* const
        arrays — arrays no node in this graph writes.  A candidate can
        still be written by a sibling graph or an uncaptured launch
        between replays, so each one is tracked through the global
        write-version table (repro.ir.writes): replay re-validates the
        snapshot and demotes any array that moved (see _replay /
        _rehoist).  Runs inside the persistent program scope: a warm
        instantiate reuses the recorded prologue/main sources instead of
        re-lowering.
        """
        import dataclasses

        from ..ir import compilecache
        from ..ir.codegen import lower_trace_hoisted

        nodes = [pn.gnode for pn in program.nodes]
        written: set[int] = set()
        for node in nodes:
            kernel = node.plan.kernel
            trace = kernel.trace if kernel is not None else None
            rargs = node.plan.resolved_args
            if trace is None:
                # Opaque (interpreter-tier) node: assume it writes every
                # array it touches.
                written.update(
                    id(a) for a in rargs if isinstance(a, np.ndarray)
                )
            else:
                written.update(id(rargs[st.array.pos]) for st in trace.stores)
        for node in nodes:
            kernel = node.plan.kernel
            if (
                kernel is None
                or kernel.codegen is None
                or kernel.trace is None
                or kernel.native is not None  # C loop is the replay main
                or node.const_slots  # recompile path would discard it
            ):
                continue
            rargs = node.plan.resolved_args
            const_scalars = frozenset(
                pos
                for pos, a in enumerate(rargs)
                if not isinstance(a, np.ndarray)
                and pos not in node.slot_map
            )
            cand = tuple(
                pos
                for pos, a in enumerate(rargs)
                if isinstance(a, np.ndarray) and id(a) not in written
            )
            cand_ids = tuple(id(rargs[pos]) for pos in cand)
            hoisted = compilecache.hoist_lookup(kernel, cand, const_scalars)
            if hoisted is compilecache.MISSING:
                hoisted = lower_trace_hoisted(
                    kernel.trace, rargs, frozenset(cand), const_scalars
                )
                compilecache.hoist_record(
                    kernel, cand, const_scalars, hoisted
                )
            if hoisted is not None:
                node.plan.kernel = dataclasses.replace(
                    kernel,
                    codegen=hoisted,
                    mode=kernel.mode + "-hoisted",
                )
                if cand:
                    node.hoist = _HoistState(
                        kernel,
                        cand,
                        cand_ids,
                        writes.versions_of(cand_ids),
                        const_scalars,
                    )

    def instantiate(
        self,
        ctx: "ExecutionContext",
        *,
        fuse: bool = True,
        return_convention: tuple = ("none",),
    ) -> "InstantiatedGraph":
        """Freeze the recording into a replayable program.

        Builds the dataflow :class:`~repro.ir.program.Program` over the
        recorded plans and runs global fusion over it (see
        :mod:`repro.ir.program`).  ``fuse=False`` forces the pass off
        (used under an active fault plan so replayed launch
        counts — and therefore fault-injection ordinals — match
        uncaptured dispatch).  Then pre-sizes the context arena for
        every scratch buffer replay will draw and records the backend's
        schedule epoch for staleness detection.
        """
        from ..ir import compilecache
        from ..ir.program import Program, run_passes
        from . import _bump, _record_pass, passes_mode

        nodes = [GraphNode(n.plan, n.slot_map) for n in self.nodes]
        for node in nodes:
            node.bake_const_slots()

        fuse = fuse and passes_mode() == "all"
        # Persistent program tier: the member-plan key tuple identifies
        # this instantiation across processes; inside the scope the
        # derived artifacts (fused kernels, the validate certificate,
        # hoisted prologue sources) are served from the entry and
        # anything newly derived is published on exit.
        gdigest = compilecache.graph_digest(nodes, ctx.backend(), fuse)
        with compilecache.program_scope(gdigest):
            program = Program(self.name, nodes)
            if fuse:
                run_passes(program, _record_pass)
                program = self._validate(program, ctx)
            self._hoist(program)
        nodes = [pn.gnode for pn in program.nodes]
        fused_pairs = program.fused_pairs

        # index_map: recorded node index → post-pipeline node index, so
        # the return convention (matched against the recording) survives
        # fusion and reordering.  A reduce absorbed into a fused node
        # maps to that node — the fused plan's result IS the inlined
        # reduction's value.
        index_map = program.index_map()
        kind = return_convention[0]
        if kind == "single":
            return_convention = (kind, index_map[return_convention[1]])
        elif kind in ("tuple", "list"):
            return_convention = (
                kind,
                tuple(index_map[i] for i in return_convention[1]),
            )

        # Pre-size the arena: per node, each schedule chunk opens one
        # frame drawing one buffer per certified ``out=`` dtype of the
        # current tile's shape (a chunk's tiles run one after another
        # and recycle the frame's buffers); nodes run sequentially, so
        # the pool only needs the *largest* per-node requirement per
        # (shape, dtype) key.
        need: dict[tuple, int] = {}
        for node in nodes:
            kernel = node.plan.kernel
            if kernel is None or kernel.codegen is None:
                continue
            dtypes = list(kernel.codegen.out_dtypes)
            if kernel.native is not None and kernel.native.has_result:
                # The native reduce leases one float64 value buffer
                # per tile (the C loop fills it, NumPy folds it).
                dtypes.append(np.dtype(np.float64))
            per_node: dict[tuple, int] = {}
            for dom in node.plan.schedule.domains:
                for shape in {tile.shape for tile in dom.tiles}:
                    for dt in dtypes:
                        key = (shape, dt)
                        per_node[key] = per_node.get(key, 0) + 1
            for key, count in per_node.items():
                need[key] = max(need.get(key, 0), count)
        reserve_items = [
            key for key, count in need.items() for _ in range(count)
        ]
        if reserve_items:
            ctx.arena.reserve(reserve_items)

        _bump("captures")
        if fused_pairs:
            _bump("fused_pairs", fused_pairs)
        return InstantiatedGraph(
            self.name,
            ctx,
            nodes,
            return_convention,
            fused_pairs,
            program=program,
        )


def _graph_handle_fn(name: str):
    def _graph(*args):  # pragma: no cover - never executed
        raise GraphError("graph handle plans do not execute directly")

    _graph.__name__ = f"graph[{name}]"
    _graph.__qualname__ = _graph.__name__
    return _graph


class InstantiatedGraph:
    """A frozen launch graph: pre-staged plans, replayed on demand."""

    def __init__(
        self,
        name: str,
        ctx: "ExecutionContext",
        nodes: list[GraphNode],
        return_convention: tuple,
        fused_pairs: int,
        program=None,
    ):
        self.name = name
        self.ctx = ctx
        self.nodes = nodes
        self.return_convention = return_convention
        self.fused_pairs = fused_pairs
        self.backend = ctx.backend()
        self.epoch = self.backend.schedule_epoch()
        self.valid = True
        self.replays = 0
        #: The dataflow program this instantiation was optimized through
        #: (None for directly constructed instantiations in tests).
        self.program = program
        self.slot_names = frozenset(
            name for node in nodes for name in node.slot_map.values()
        )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    #: Every node executes on replay; the name is read by
    #: ``benchmarks/perf/probes.graph_lifecycle`` (graph.replay_us_per_node).
    n_active_nodes = n_nodes

    def invalidate(self) -> None:
        """Mark this instantiation dead (backend demoted, arrays
        rebound); the owning region recaptures on next use."""
        if self.valid:
            from . import _bump

            self.valid = False
            _bump("invalidations")

    def replay(self, sync: bool = True, **slots: Any):
        """Re-execute the captured sequence with fresh slot values.

        ``sync=True`` (default) runs in the calling thread and returns
        the captured body's value (per the recorded return convention).
        ``sync=False`` submits the whole replay to the context's
        in-order launch stream and returns **one**
        :class:`~repro.core.plan.LaunchHandle` for the entire graph;
        ``handle.result()`` / :func:`repro.synchronize` wait for it.
        """
        if not self.valid:
            raise GraphError(
                f"graph {self.name!r} was invalidated (backend demoted); "
                "recapture before replaying"
            )
        if set(slots) != set(self.slot_names):
            missing = self.slot_names - set(slots)
            unknown = set(slots) - self.slot_names
            raise GraphError(
                f"graph {self.name!r} slots mismatch: "
                f"missing={sorted(missing)} unknown={sorted(unknown)}"
            )
        if sync:
            if self.ctx.pending_launches:
                self.ctx.drain()
            return self._replay(slots)
        handle_plan = LaunchPlan(
            construct="graph",
            dims=(max(1, len(self.nodes)),),
            fn=_graph_handle_fn(self.name),
            args=(),
        )
        handle_plan.policy = self.ctx.launch_policy

        def _run():
            handle_plan.result = self._replay(slots)
            return handle_plan.result

        future = self.ctx.submit(_run)
        handle = LaunchHandle(handle_plan, future)
        self.ctx.enqueue(handle)
        return handle

    def _rehoist(self, node: GraphNode, current: tuple) -> None:
        """React to a write-version mismatch on a hoisted node.

        Same epoch: the arrays that moved are clearly not const for this
        workload (a sibling graph writes them every iteration) — demote
        them permanently and re-lower with the survivors, so steady
        state validates without churn.  Epoch changed (global
        ``clear_cache``): per-array history is gone; keep the const set
        and just rebind the prologues against current contents.
        """
        import dataclasses

        from ..ir.codegen import lower_trace_hoisted

        hs = node.hoist
        if current[0] == hs.snap[0]:
            keep = tuple(
                pos
                for pos, before, now in zip(
                    hs.positions, hs.snap[1], current[1]
                )
                if before == now
            )
            if keep != hs.positions:
                base = hs.base_kernel
                hoisted = lower_trace_hoisted(
                    base.trace,
                    node.plan.resolved_args,
                    frozenset(keep),
                    hs.const_scalars,
                )
                if hoisted is None:
                    node.plan.kernel = base
                    node.hoist = None
                    return
                node.plan.kernel = dataclasses.replace(
                    base, codegen=hoisted, mode=base.mode + "-hoisted"
                )
                if not keep:
                    node.hoist = None
                    return
                hs.positions = keep
                hs.ids = tuple(
                    id(node.plan.resolved_args[pos]) for pos in keep
                )
                hs.snap = writes.versions_of(hs.ids)
                return
        codegen = node.plan.kernel.codegen
        if codegen is not None and hasattr(codegen, "clear_prologues"):
            codegen.clear_prologues()
        hs.snap = writes.versions_of(hs.ids)

    # -- the hot path -------------------------------------------------------
    def _replay(self, slots: dict):
        from ..core.api import _execute
        from ..ir.compile import compile_kernel
        from . import _bump

        ctx = self.ctx
        results: list[Any] = []
        demoted = None
        for node in self.nodes:
            plan = node.plan
            epoch = self.backend.schedule_epoch()
            if epoch != self.epoch:
                # The backend's device set changed under us — possibly
                # *mid-replay* (multi-device internal rebalancing after
                # a permanent chunk failure): every recorded per-device
                # split is stale, and executing one would silently pair
                # survivors with the old chunk list.  Re-schedule all
                # nodes on the current device set.
                for n2 in self.nodes:
                    n2.plan.schedule = n2.plan.backend.schedule(n2.plan)
                self.epoch = epoch
            # Reset the single-use observability fields so each replay
            # reads like a fresh launch to hooks and fault accounting.
            plan.result = None
            plan.sim_time_before = None
            plan.sim_time_after = None
            plan.fault_events = []
            if node.slot_map:
                args = plan.resolved_args
                for pos, name in node.slot_map.items():
                    args[pos] = slots[name]
                if node.const_slots:
                    changed = any(
                        not (args[pos] == baked)
                        for pos, baked in node.const_slots.items()
                    )
                    if changed:
                        # Value-specialized kernel: the old trace baked
                        # the previous value in.  Recompile through the
                        # cache (a prior replay of the same value hits).
                        plan.kernel = compile_kernel(
                            plan.fn,
                            plan.ndim,
                            plan.resolved_args,
                            reduce=plan.is_reduce,
                            cache=ctx.kernel_cache,
                        )
                        plan.schedule = plan.backend.schedule(plan)
                        for pos in node.const_slots:
                            node.const_slots[pos] = args[pos]
            hs = node.hoist
            if hs is not None:
                current = writes.versions_of(hs.ids)
                if current != hs.snap:
                    # Something outside this graph wrote an array the
                    # hoisted program assumed const: its cached prologue
                    # values are stale.
                    self._rehoist(node, current)
            if demoted is not None:
                plan.backend = demoted
                plan.schedule = demoted.schedule(plan)
            _execute(plan, ctx)
            if plan.backend is not (demoted or self.backend):
                # The launch policy failed this node over permanently.
                # Finish the replay on the fallback, then invalidate.
                demoted = plan.backend
            results.append(plan.result)

        self.replays += 1
        _bump("replays")
        _bump("nodes_replayed", len(self.nodes))
        if demoted is not None:
            self.invalidate()

        kind = self.return_convention[0]
        if kind == "none":
            return None
        if kind == "single":
            return results[self.return_convention[1]]
        picked = [results[i] for i in self.return_convention[1]]
        return tuple(picked) if kind == "tuple" else picked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "valid" if self.valid else "invalidated"
        return (
            f"<InstantiatedGraph {self.name!r} nodes={len(self.nodes)} "
            f"fused={self.fused_pairs} replays={self.replays} {state}>"
        )
