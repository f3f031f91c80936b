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
  thereby hoisted out of the loop.  What that produces splits into a
  **structure** (:class:`_Structure`: the post-fusion node list with
  its kernels, schedules and slot maps, and no array) and a **binding**
  (which recorded argument sits in which position).  The structure is
  cached on the kernel cache under a structural key, so a later capture
  of the same launch sequence over *other* arrays of the same shapes,
  dtypes, strides and alias pattern **rebinds** — a few list writes per
  node — instead of fusing, validating and hoisting again (CUDA-graph
  "exec update").  The persistent compile cache stores the same
  structure under the disk projection of the same key
  (:meth:`LaunchGraph._key_parts`), so a fresh process loads it instead
  of building it.
* **replay** — :meth:`InstantiatedGraph.replay` re-executes the
  sequence through the *same* execute stage as normal dispatch
  (:func:`repro.core.api._execute` per node: accounting, hooks, modeled
  time, fault seams — all identical), skipping only the per-launch
  staging (plan construction, cache lookups, verification, schedule
  building).  Between replays only scalar slots change; nothing
  recompiles unless a value-specialized kernel's baked scalar actually
  changed.

Fault interop: a replayed node that faults retries/fails over through
the existing :class:`~repro.faults.LaunchPolicy` ladder exactly like a
staged launch.  A permanent failover demotes the context backend; the
instantiation detects the demotion, re-schedules the not-yet-run tail on
the fallback so the current replay completes, and marks itself invalid —
the next iteration recaptures against the demoted backend.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..core.api import _execute
from ..core.backend import normalize_dims
from ..core.exceptions import GraphError
from ..core.plan import LaunchPlan
from ..ir import compilecache, writes
from ..ir.compile import compile_kernel, executor_mode, resolve_cache
from ..ir.validate import active_validate_mode
from ..ir.verify import active_verify_mode

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.context import ExecutionContext

__all__ = [
    "ScalarSlot",
    "GraphCapture",
    "GraphNode",
    "LaunchGraph",
    "InstantiatedGraph",
]

#: The ``repro.graph`` package (counters, mode views), filled on first
#: use: the package imports this module, so a top-level import would
#: cycle, and a function-level one would execute on every replay.
_graph = None


def _pkg():
    global _graph
    if _graph is None:
        from .. import graph as _graph
    return _graph


#: Scalar arguments a structure key may hold: they hash, compare and
#: ``repr`` by value, so the in-memory and the disk projection of a key
#: agree on them.  Any other scalar takes the full path on both tiers.
_KEY_SCALARS = (bool, int, float, complex, str, bytes, type(None), np.generic)


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

    __slots__ = ("plan", "slot_map", "const_slots", "hoist", "sources")

    def __init__(
        self,
        plan: LaunchPlan,
        slot_map: Optional[dict] = None,
        sources: Optional[tuple] = None,
    ):
        self.plan = plan
        self.slot_map: dict[int, str] = dict(slot_map or {})
        self.const_slots: dict[int, Any] = {}
        # _HoistState when the node's program was re-lowered with
        # const-array assumptions that need per-replay validation.
        self.hoist: Optional[_HoistState] = None
        #: Per argument position, the ``(recorded node index, position)``
        #: it came from — carried through fusion so a structure can
        #: gather the node's arguments from a later recording (``None``
        #: on the recorded nodes themselves).
        self.sources = sources

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


def _restaged(src: LaunchPlan, args: tuple, resolved: Optional[list]) -> LaunchPlan:
    """A new plan carrying ``src``'s staged decisions (backend, kernel,
    schedule, policy, arena, diagnostics) over other arguments."""
    plan = LaunchPlan(src.construct, src.dims, src.fn, args, src.op)
    plan.resolved_args = resolved
    plan.backend = src.backend
    plan.policy = src.policy
    plan.arena = src.arena
    plan.kernel = src.kernel
    plan.diagnostics = src.diagnostics
    plan.schedule = src.schedule
    plan.record = src.record
    if resolved is not None:
        plan.written_ids = src.kernel.launches.written_ids(resolved)
    return plan


def _hoisted_kernel(base, program):
    """``base`` with its codegen rung replaced by a hoisted ``program``."""
    return dataclasses.replace(
        base, codegen=program, mode=base.mode + "-hoisted"
    )


class GraphCapture:
    """Context manager that records constructs dispatched in its scope.

    Install with ``with ctx.capture() as cap: ...``; constructs still
    execute eagerly (relaxed capture).  Nested captures raise
    :class:`GraphError` — :class:`~repro.graph.region.GraphRegion`
    degrades to direct execution in that case, letting the outer capture
    absorb the inner body's launches.
    """

    #: Whether constructs in scope run (``False``) or are only recorded
    #: (:class:`DryCapture`).
    dry = False

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
        # Every recorded schedule is valid for this backend at this
        # epoch; a structure is only reusable if neither moved since.
        self._backend = self._ctx.backend()
        self._epoch = self._backend.schedule_epoch()
        return self

    def __exit__(self, *exc) -> None:
        self._ctx.graph_capture = None

    def strip_slots(self, args: tuple) -> tuple[tuple, dict[int, str]]:
        """Replace :class:`ScalarSlot` wrappers with their values,
        returning the concrete args and the position → name map."""
        slot_map: dict[int, str] = {}
        for a in args:
            if isinstance(a, ScalarSlot):
                break
        else:
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
        return LaunchGraph(name, self._nodes, self._backend, self._epoch)


class DryEscape(Exception):
    """A dry recording met what it cannot record without running it."""


def _abandon(self, *args):
    raise DryEscape


class _Pending:
    """The value of a reduce a dry recording did not run.  A region body
    may only return it; any other use of it abandons the recording
    (arithmetic and conversions raise ``TypeError`` on their own)."""

    __slots__ = ()
    __bool__ = __eq__ = __ne__ = _abandon
    __hash__ = None


class _DryLaunch:
    """A launch a dry recording holds: what staging would start from —
    the resolved arguments, policy, arena and the cached kernel — and no
    schedule.  It stands for both a :class:`GraphNode` and its plan."""

    __slots__ = (
        "construct", "dims", "op", "slot_map", "backend", "resolved_args",
        "arena", "policy", "kernel", "is_reduce", "result",
    )

    @property
    def plan(self) -> "_DryLaunch":
        return self


class DryCapture(GraphCapture):
    """A capture that runs nothing: each construct in scope becomes a
    :class:`_DryLaunch` that holds the kernel the compile cache already
    has for it (``None``: none) and is neither staged nor executed — a
    reduce's value is a :class:`_Pending`.  The loop unit
    (:mod:`repro.graph.loop`) records an iteration this way to find a
    stored template before running anything."""

    dry = True
    _taken = 0

    def __enter__(self) -> "DryCapture":
        super().__enter__()
        ctx = self._ctx
        # Fixed while the recording runs: read once.
        self._fixed = (
            self._backend, ctx.arena, ctx.launch_policy,
            resolve_cache(ctx.kernel_cache), executor_mode(),
            (self._backend.token, self._epoch, active_verify_mode()),
        )
        return self

    def take(self, name: str) -> "LaunchGraph":
        """The launches recorded since the last take, as a graph."""
        start, self._taken = self._taken, len(self._nodes)
        return LaunchGraph(name, self._nodes[start:], self._backend, self._epoch)

    @property
    def untaken(self) -> bool:
        """Whether launches were recorded since the last take."""
        return len(self._nodes) > self._taken

    def record_dry(self, ctx, construct, dims, f, args: tuple, op, slot_map) -> _DryLaunch:
        """Called by ``_dispatch`` in place of staging and executing.  A
        launch with no cached kernel (one a ``_Pending`` argument cannot
        have either) keys nothing, and a loop whose first launch the
        backend chunks (its launch record says so) can never be driven,
        so the recording stops there."""
        launch = _DryLaunch()
        launch.construct, launch.op, launch.slot_map = construct, op, slot_map
        backend, launch.arena, launch.policy, cache, executor, staged = self._fixed
        dims = launch.dims = normalize_dims(dims)
        resolved = launch.resolved_args = backend.resolve_args(args)
        reduce = launch.is_reduce = construct == "reduce"
        launch.backend = backend
        kernel = launch.kernel = cache.find(f, len(dims), resolved, reduce, executor)
        if kernel is None:
            raise DryEscape
        if not self._nodes:
            # The record Backend.stage would bind, if a launch made it.
            launches = kernel.launches
            record = launches.records.get(
                (launches.signature(dims, resolved, op if reduce else None), *staged)
            )
            if record is not None and not record.schedule.inline:
                raise DryEscape
        launch.result = _Pending() if reduce else None
        self._nodes.append(launch)
        return launch


class LaunchGraph:
    """An ordered recording of staged launches, ready to instantiate."""

    def __init__(
        self,
        name: str,
        nodes: list[GraphNode],
        backend=None,
        epoch: Optional[int] = None,
    ):
        self.name = name
        self.nodes = list(nodes)
        #: The context's backend and its ``schedule_epoch()`` when the
        #: capture began (``None``: unknown, never reuse a structure).
        self.backend = backend
        self.epoch = epoch

    def _key_parts(self, ctx: "ExecutionContext", fuse: bool):
        """The one walk over the recording that both structure keys are
        projected from (see :meth:`instantiate`) — or ``None`` when the
        recording must take the full path, on both tiers.

        Per node: construct, fold, dims, launch policy, slot map, and per
        argument ``(storage number, shape, dtype, strides)``, the slot
        name, or ``(type, value)`` of a baked scalar.  Storages are
        numbered by first occurrence across the whole graph, so the alias
        pattern — which fusion legality and the hoist pass's
        const-candidate set depend on — is in the key.  Plus the
        effective fuse flag and the executor and validate modes.  The
        member kernels and the backend are not in the parts: the
        in-memory key adds the kernels' ``id`` (the stored structure pins
        the kernels so the ids cannot recycle) with the context, backend
        and schedule epoch every node was staged under; the disk key adds
        the kernels' content digests and the backend's kind
        (:func:`repro.ir.compilecache.graph_digest`).

        No parts for: a backend or epoch that moved since the capture
        began (a failover or device loss mid-capture leaves recorded
        schedules that are stale for the *next* capture), a node without
        a compiled kernel or staged under another context or backend, a
        scalar that is not a number, string or NumPy scalar, or two
        *distinct* storages that may share memory — the identity-based
        sharing analysis of the fusion pass did not see that overlap.
        """
        backend = self.backend
        if backend is None or backend.schedule_epoch() != self.epoch:
            return None
        numbers: dict[int, int] = {}
        storages: list[np.ndarray] = []
        parts = []
        arena = ctx.arena
        for node in self.nodes:
            plan, slot_map = node.plan, node.slot_map
            if (
                plan.kernel is None
                or plan.backend is not backend
                or plan.arena is not arena
            ):
                return None
            argsig: list = []
            for pos, a in enumerate(plan.resolved_args):
                if isinstance(a, np.ndarray):
                    number = numbers.get(id(a))
                    if number is None:
                        number = numbers[id(a)] = len(storages)
                        storages.append(a)
                    argsig.append((number, a.shape, a.dtype, a.strides))
                elif pos in slot_map:
                    argsig.append(slot_map[pos])
                elif isinstance(a, _KEY_SCALARS):
                    argsig.append((type(a), a))
                else:
                    return None
            parts.append(
                (
                    plan.construct,
                    plan.op,
                    plan.dims,
                    plan.policy,
                    tuple(sorted(slot_map.items())),
                    tuple(argsig),
                )
            )
        for i, a in enumerate(storages):
            for b in storages[i + 1 :]:
                # Two arrays that each own their memory cannot overlap.
                if (a.base is not None or b.base is not None) and np.may_share_memory(a, b):
                    return None
        return (fuse, executor_mode(), active_validate_mode(), tuple(parts))

    def _memory_key(self, ctx: "ExecutionContext", parts: tuple) -> tuple:
        """The in-memory structure key of :meth:`instantiate` over ``parts``."""
        kernels = tuple([id(node.plan.kernel) for node in self.nodes])
        return (ctx, self.backend, self.epoch, kernels, parts)

    def structure_key(self, ctx: "ExecutionContext", fuse: bool) -> Optional[tuple]:
        """The key :meth:`instantiate` stores this recording's structure
        under in memory, or ``None``: no structure is stored for it."""
        fuse = fuse and _pkg().passes_mode() == "all"
        parts = self._key_parts(ctx, fuse)
        return None if parts is None else self._memory_key(ctx, parts)

    def match_return(self, ret: Any) -> Optional[tuple]:
        """Infer how a captured body's return value maps onto node
        results, so replay can reproduce it.

        Supported conventions: ``None``, one reduce result, or a
        tuple/list of reduce results — each matched to the node whose
        result **is** that object (``parallel_reduce`` returns the
        plan's own result object).  Matching by identity, not value: a
        host-derived value that merely *equals* a reduce at capture
        time must not be replayed as that reduce, and two reduces of
        equal value (or a NaN, equal to nothing) are still two distinct
        results.  Anything unmatched returns ``None``: the region marks
        the body uncaptureable and keeps dispatching it directly, which
        is always correct.
        """
        if ret is None:
            return ("none",)

        def match_one(value: Any) -> Optional[int]:
            for i, node in enumerate(self.nodes):
                if node.plan.is_reduce and node.plan.result is value:
                    return i
            return None

        if isinstance(ret, (tuple, list)):
            idxs = [match_one(v) for v in ret]
            if any(i is None for i in idxs):
                return None
            kind = "tuple" if isinstance(ret, tuple) else "list"
            return (kind, tuple(idxs))
        idx = match_one(ret)
        return None if idx is None else ("single", idx)

    def _fresh_nodes(self) -> list[GraphNode]:
        """Instantiation-private copies of the recorded nodes (the
        pass rewrites its node list; the recording stays intact)."""
        nodes = [
            GraphNode(
                n.plan,
                n.slot_map,
                tuple((i, pos) for pos in range(len(n.plan.resolved_args))),
            )
            for i, n in enumerate(self.nodes)
        ]
        for node in nodes:
            node.bake_const_slots()
        return nodes

    def _validate(self, program, record):
        """Run the translation validator over the optimized program;
        returns ``(program, clean)``.

        Re-derives every applied rewrite from effects summaries
        (:mod:`repro.ir.validate`) and runs the program-level hazard
        analyses (V602/V603), accounting through ``record`` (the
        ``graph`` package's ``_record_validate``).  ``error`` mode raises
        on any error-severity finding; ``warn`` (default) warns and —
        when a rewrite itself is unconfirmed or an error-severity hazard
        is present — degrades to the unoptimized program, which is always
        correct.  Degrading is a rebuild from the recording: fusion
        builds *new* plans and leaves the recorded ones intact.
        ``clean`` is false when the validator said anything at all.
        """
        import warnings

        from ..core.exceptions import TranslationValidationError
        from ..ir.diagnostics import KernelVerificationWarning
        from ..ir.program import Program
        from ..ir.validate import program_diagnostics, validate_program

        vmode = active_validate_mode()
        if vmode == "off":
            return program, True
        diags = validate_program(program, record)
        diags.extend(program_diagnostics(program))
        record("", programs=1, diagnostics=diags)
        if not diags:
            return program, True
        fatal = [d for d in diags if d.is_error]
        if vmode == "error" and fatal:
            raise TranslationValidationError(self.name, diags)
        for d in diags:
            warnings.warn(str(d), KernelVerificationWarning, stacklevel=4)
        if fatal or any(d.rule == "V610" for d in diags):
            # Undo the rewrites: rebuild the program from fresh nodes
            # over the recorded plans, with no pass run.
            program = Program(self.name, self._fresh_nodes())
            record("", degraded=1)
        return program, False

    def _hoist(self, program) -> dict:
        """Hoist replay-invariant work out of each node's generated
        program (the CUDA-Graphs address-pre-binding analogue).

        Replay-invariant inputs: the frozen launch domain, non-slot
        scalars (baked by capture), array shapes, and *candidate* const
        arrays — arrays no node in this graph writes.  A candidate can
        still be written by a sibling graph or an uncaptured launch
        between replays, so each one is tracked through the global
        write-version table (repro.ir.writes): replay re-validates the
        snapshot and demotes any array that moved (see _replay /
        _rehoist).

        Returns ``{node position: (hoisted program, const-candidate
        positions, const-scalar positions)}`` for the nodes that hoist;
        binding (:meth:`_NodeTemplate.bind`) installs them.
        """
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
        out: dict = {}
        for index, node in enumerate(nodes):
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
            hoisted = lower_trace_hoisted(
                kernel.trace, rargs, frozenset(cand), const_scalars
            )
            if hoisted is not None:
                out[index] = (hoisted, cand, const_scalars)
        return out

    def _build(self, fuse: bool):
        """The full path: fuse, validate, lower the surviving fused nodes
        to C and hoist over this recording.
        Returns ``(structure, program, clean)``; the structure's trail
        holds every pass and validator counter call the build made."""
        from ..ir.fuse import lower_fused
        from ..ir.program import Program, run_passes

        pkg = _pkg()
        trail: list = []

        def recorder(kind, record):
            def rec(name, **kw):
                trail.append((kind, name, kw))
                record(name, **kw)

            return rec

        program = Program(self.name, self._fresh_nodes())
        clean = True
        if fuse:
            run_passes(program, recorder("pass", pkg._record_pass))
            program, clean = self._validate(
                program, recorder("validate", pkg._record_validate)
            )
            for pn in program.nodes:
                lower_fused(pn.gnode.plan)
        hoisted = self._hoist(program)
        templates = [
            _NodeTemplate(pn.gnode, hoisted.get(index), pn.origin[0])
            for index, pn in enumerate(program.nodes)
        ]
        # index_map: recorded node index → post-pipeline node index, so
        # the return convention (matched against the recording) survives
        # fusion and reordering.  A reduce absorbed into a fused node
        # maps to that node — the fused plan's result IS the inlined
        # reduction's value.
        structure = _Structure(
            templates,
            program.index_map(),
            program.fused_pairs,
            trail,
            pins=tuple(node.plan.kernel for node in self.nodes),
        )
        return structure, program, clean

    def instantiate(
        self,
        ctx: "ExecutionContext",
        *,
        fuse: bool = True,
        return_convention: tuple = ("none",),
    ) -> "InstantiatedGraph":
        """Freeze the recording into a replayable program.

        The first instantiation of a structure builds the dataflow
        :class:`~repro.ir.program.Program` over the recorded plans, runs
        global fusion over it (see :mod:`repro.ir.program`), validates
        and hoists; ``fuse=False`` forces the pass off (used under an
        active fault plan so replayed launch counts — and therefore
        fault-injection ordinals — match uncaptured dispatch).  Unless
        the validator said anything, the result is stored twice under
        two projections of one walk (:meth:`_key_parts`): on the
        context's kernel cache, where every later instantiation of the
        same structure only *binds* it to this recording's arguments
        (``graph_stats()["rebinds"]``), and in the persistent compile
        cache, where a fresh process loads it instead of building it
        (``cache_info()["disk"]["graph_hits"]``).  Either way the graph
        is built by :meth:`_Structure.bind`, so the paths cannot drift.

        A recording that spans two backends (``set_backend`` inside the
        capture) is refused: replay would take the switch for a failover.
        A recording with a capture-time failover is exempt; its first
        replay finishes on the fallback and invalidates the graph.
        """
        backends = {id(n.plan.backend): n.plan.backend for n in self.nodes}
        if len(backends) > 1 and not any(
            event.action == "failover" for n in self.nodes for event in n.plan.fault_events
        ):
            names = " and ".join(repr(b.name) for b in backends.values())
            raise GraphError(
                f"graph {self.name!r} spans backends {names}: capture it on one backend"
            )
        fuse = fuse and _pkg().passes_mode() == "all"
        cache = resolve_cache(ctx.kernel_cache)
        parts = self._key_parts(ctx, fuse)
        key = digest = structure = program = None
        if parts is not None:
            kernels = [node.plan.kernel for node in self.nodes]
            key = self._memory_key(ctx, parts)
            structure = cache.structure(key)
            if structure is not None:
                _pkg()._bump("rebinds")
                return structure.bind(self, ctx, return_convention, key=key)
            digest = compilecache.graph_digest(kernels, self.backend, parts)
            structure = compilecache.load_program(
                digest, lambda payload: _Structure.load(payload, self)
            )
        if structure is None:
            structure, program, clean = self._build(fuse)
            if not clean:
                key = digest = None
            if digest is not None:
                compilecache.store_program(digest, structure.payload())
        if key is not None:
            cache.store_structure(key, structure)
        return structure.bind(self, ctx, return_convention, program, key)


class _NodeTemplate:
    """One post-fusion node of a structure, with no argument bound.

    ``plan`` is an argument-less prototype carrying every staged
    decision (backend, kernel, schedule, policy, arena, diagnostics);
    ``sources[p]`` names the recorded node and position that supplies
    argument ``p``, and ``root`` the recorded node whose domain, policy
    and arena it took (the node itself, unless fusion merged others into
    it).  ``hoisted`` is the node's :meth:`LaunchGraph._hoist` decision;
    its program is never executed, so it holds no prologue values.
    """

    __slots__ = ("plan", "sources", "slot_map", "hoisted", "root")

    def __init__(self, gnode: GraphNode, hoisted: Optional[tuple], root: int):
        self.plan = _restaged(gnode.plan, (), None)
        self.sources = gnode.sources
        self.slot_map = gnode.slot_map
        self.hoisted = hoisted
        self.root = root

    def bind(self, recorded: list[LaunchPlan]) -> GraphNode:
        """A replayable node over ``recorded``'s arguments."""
        sources = self.sources
        plan = _restaged(
            self.plan,
            tuple([recorded[i].args[pos] for i, pos in sources]),
            [recorded[i].resolved_args[pos] for i, pos in sources],
        )
        node = GraphNode(plan, self.slot_map, sources)
        node.bake_const_slots()
        if self.hoisted is not None:
            program, cand, const_scalars = self.hoisted
            base = plan.kernel
            # A fresh program per binding: the prologue cache holds
            # values gathered from *this* binding's const arrays.
            plan.kernel = _hoisted_kernel(base, program.fresh())
            if cand:
                ids = tuple(id(plan.resolved_args[pos]) for pos in cand)
                node.hoist = _HoistState(
                    base, cand, ids, writes.versions_of(ids), const_scalars
                )
        return node


def _arena_reserve(templates: list[_NodeTemplate]) -> list:
    """The arena buffers replay draws, as ``(shape, dtype)`` keys with
    repeats.

    Per node, each schedule chunk opens one frame drawing, per tile
    shape, one buffer per certified ``out=`` dtype of a codegen node, or
    the float64 lane buffer of a native reduce that leases one
    (NativeKernel.leases_lanes); any other native node draws nothing — C
    has no temporaries.  A chunk's tiles run one after another and
    recycle the frame's buffers, and nodes run sequentially, so the pool
    only needs the *largest* per-node requirement per (shape, dtype)
    key.
    """
    need: dict[tuple, int] = {}
    for template in templates:
        plan = template.plan
        kernel = plan.kernel
        if kernel is None or kernel.codegen is None:
            continue
        native = kernel.native
        if native is None:
            codegen = template.hoisted[0] if template.hoisted else kernel.codegen
            dtypes = codegen.out_dtypes
        elif plan.is_reduce and native.leases_lanes(plan.op):
            dtypes = (np.dtype(np.float64),)
        else:
            continue
        per_node: dict[tuple, int] = {}
        for dom in plan.schedule.domains:
            for shape in {tile.shape for tile in dom.tiles}:
                for dt in dtypes:
                    key = (shape, dt)
                    per_node[key] = per_node.get(key, 0) + 1
        for key, count in per_node.items():
            need[key] = max(need.get(key, 0), count)
    return [key for key, count in need.items() for _ in range(count)]


class _Structure:
    """Everything :meth:`LaunchGraph.instantiate` derives from a
    recording except the arrays: node templates, the recorded → final
    index map, the fused-pair count, the counter trail of the build
    that produced it and the arena reservation (derived from the
    templates' schedules, so a structure loaded from disk sizes the
    arena for the backend it was staged on).

    Stored on the :class:`~repro.ir.compile.KernelCache` and shared by
    every graph bound from it, so it is never mutated after it is made
    and holds **no array** — a stored operator copy would pin a solve's
    memory for the life of the process.  ``pins`` keeps alive the
    recorded kernels, whose ``id()`` the store key holds (fusion
    replaces them in ``nodes``).  The persistent compile cache holds
    :meth:`payload`, read back by :meth:`load`.
    """

    __slots__ = ("nodes", "index_map", "fused_pairs", "trail", "reserve", "pins")

    def __init__(self, nodes, index_map, fused_pairs, trail, pins):
        self.nodes: list[_NodeTemplate] = nodes
        self.index_map: dict[int, int] = index_map
        self.fused_pairs: int = fused_pairs
        self.trail: list = trail
        self.reserve: list = _arena_reserve(nodes)
        self.pins: tuple = pins

    def payload(self) -> dict:
        """This structure as a program entry (see :meth:`load`): per
        template its root, the fused kernel (construct, op, name and
        kernel payload; ``None`` for a recorded node), sources, slot map
        and hoisted program (its sources; ``None`` if it does not
        hoist)."""
        nodes = []
        for template in self.nodes:
            plan = template.plan
            fused = None
            if plan.kernel is not self.pins[template.root]:
                fused = (
                    plan.construct,
                    plan.op,
                    plan.fn.__name__,
                    compilecache.kernel_payload(plan.kernel, "derived"),
                )
            hoisted = template.hoisted
            if hoisted is not None:
                program, cand, const_scalars = hoisted
                hoisted = (compilecache.hoisted_parts(program), cand, const_scalars)
            nodes.append(
                (template.root, fused, template.sources, template.slot_map, hoisted)
            )
        return {
            "nodes": nodes,
            "index_map": self.index_map,
            "fused_pairs": self.fused_pairs,
            "trail": self.trail,
        }

    @classmethod
    def load(cls, payload: dict, graph: LaunchGraph) -> "Optional[_Structure]":
        """The structure :meth:`payload` describes, staged over
        ``graph``'s recording: a recorded node is taken as captured, a
        fused one is rebuilt from its kernel payload and staged on the
        recording's backend, a hoisted program from its sources.  Then
        the build's counter trail is replayed, so ``graph_stats()`` reads
        as if the build had run here.  ``None`` if a fused kernel does
        not rebuild."""
        from ..ir.fuse import _attach, _make_fused_fn

        recorded = [node.plan for node in graph.nodes]
        templates = []
        for root, fused, sources, slot_map, hoisted in payload["nodes"]:
            plan = recorded[root]
            if fused is not None:
                construct, op, name, kernel_payload = fused
                kernel = compilecache.rebuild_kernel(
                    kernel_payload, _make_fused_fn(name)
                )
                if kernel is None:
                    return None
                plan = _attach(
                    kernel,
                    plan,
                    construct,
                    op,
                    [recorded[i].args[pos] for i, pos in sources],
                    [recorded[i].resolved_args[pos] for i, pos in sources],
                )
            if hoisted is not None:
                parts, cand, const_scalars = hoisted
                hoisted = (compilecache.rebuild_hoisted(parts), cand, const_scalars)
            templates.append(
                _NodeTemplate(GraphNode(plan, slot_map, sources), hoisted, root)
            )
        structure = cls(
            templates,
            payload["index_map"],
            payload["fused_pairs"],
            payload["trail"],
            pins=tuple(plan.kernel for plan in recorded),
        )
        structure.replay_trail()
        return structure

    def replay_trail(self) -> None:
        """Move the pass and validator counters as the build that made
        this structure moved them."""
        pkg = _pkg()
        record = {"pass": pkg._record_pass, "validate": pkg._record_validate}
        for kind, name, kw in self.trail:
            record[kind](name, **kw)

    def bind(
        self,
        graph: LaunchGraph,
        ctx: "ExecutionContext",
        return_convention: tuple,
        program=None,
        key: Optional[tuple] = None,
    ) -> "InstantiatedGraph":
        """The one constructor of instantiated graphs: this structure
        over ``graph``'s recorded arguments.  ``program`` is the
        dataflow program of the build that produced the structure
        (``None`` on a rebind or a disk load — it pins that build's
        arrays); ``key`` the in-memory key it is stored under, if any."""
        recorded = [node.plan for node in graph.nodes]
        nodes = [template.bind(recorded) for template in self.nodes]
        kind = return_convention[0]
        if kind == "single":
            return_convention = (kind, self.index_map[return_convention[1]])
        elif kind in ("tuple", "list"):
            return_convention = (
                kind,
                tuple(self.index_map[i] for i in return_convention[1]),
            )
        if self.reserve:
            ctx.arena.reserve(self.reserve)
        bump = _pkg()._bump
        bump("captures")
        if self.fused_pairs:
            bump("fused_pairs", self.fused_pairs)
        return InstantiatedGraph(
            graph.name, ctx, nodes, return_convention, self.fused_pairs, program, key
        )


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
        key: Optional[tuple] = None,
    ):
        self.name = name
        self.ctx = ctx
        self.nodes = nodes
        self.return_convention = return_convention
        self.fused_pairs = fused_pairs
        #: The backend the nodes were staged on (the fallback, after a
        #: capture-time failover), which may not be the context's.
        self.backend = nodes[-1].plan.backend if nodes else ctx.backend()
        self.epoch = self.backend.schedule_epoch()
        self.valid = True
        self.replays = 0
        #: The dataflow program this instantiation was optimized through
        #: (``None`` when it was rebound from a stored structure: the
        #: program pins the arrays of the build that produced it).
        self.program = program
        #: The in-memory key its structure is stored under (``None``: not
        #: stored) — what a loop template checks its recording against.
        self.key = key
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
            self.valid = False
            _pkg()._bump("invalidations")

    def replay(self, **slots: Any):
        """Re-execute the captured sequence with fresh slot values and
        return the captured body's value (per the recorded return
        convention)."""
        if not self.valid:
            raise GraphError(
                f"graph {self.name!r} was invalidated (backend demoted); "
                "recapture before replaying"
            )
        if slots.keys() != self.slot_names:
            missing = self.slot_names - slots.keys()
            unknown = slots.keys() - self.slot_names
            raise GraphError(
                f"graph {self.name!r} slots mismatch: "
                f"missing={sorted(missing)} unknown={sorted(unknown)}"
            )
        return self._replay(slots)

    def _rehoist(self, node: GraphNode, current: tuple) -> None:
        """React to a write-version mismatch on a hoisted node.

        Same epoch: the arrays that moved are clearly not const for this
        workload (a sibling graph writes them every iteration) — demote
        them permanently and re-lower with the survivors, so steady
        state validates without churn.  Epoch changed (global
        ``clear_cache``): per-array history is gone; keep the const set
        and just rebind the prologues against current contents.
        """
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
                node.plan.kernel = _hoisted_kernel(base, hoisted)
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
        ctx = self.ctx
        results: list[Any] = []
        demoted, stale = None, False
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
                    n2.plan.backend.stage(n2.plan)
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
                        plan.backend.stage(plan)
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
                demoted.stage(plan)
            own = plan.backend
            _execute(plan, ctx)
            if plan.backend is not own:
                # The launch policy failed this node over permanently.
                # Finish the replay on the fallback, then invalidate.
                demoted = plan.backend
            # A node staged before a capture-time failover runs on its
            # own backend; the graph is invalidated after this replay.
            stale = stale or plan.backend is not self.backend
            results.append(plan.result)

        self.replays += 1
        bump = _pkg()._bump
        bump("replays")
        bump("nodes_replayed", len(self.nodes))
        if demoted is not None or stale:
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
