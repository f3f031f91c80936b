"""Reified kernel launches: :class:`LaunchPlan` and friends.

The portable front end no longer funnels every construct through a
monolithic resolve→compile→run call chain.  Instead each construct is
reified as a :class:`LaunchPlan` — a first-class value object that moves
through four explicit stages (see :mod:`repro.core.api`):

1. **resolve** — bind the backend and map user-visible arguments to
   kernel arguments (``plan.backend``, ``plan.resolved_args``);
2. **compile** — attach the :class:`~repro.ir.compile.CompiledKernel`
   (``plan.kernel``), using the execution context's kernel cache;
3. **schedule** — record the launch-shape/chunking decision as a
   :class:`LaunchSchedule` (``plan.schedule``) so backends consume a
   decision instead of recomputing one;
4. **execute** — the backend consumes the plan through the narrowed
   :meth:`repro.core.backend.Backend.execute` entry point.

Reifying the launch is what the OpenACC-era JACC runtime does to enable
kernel-level scheduling (Matsumura et al.): once a launch is data, it can
be queued, observed, split, or fused.  :class:`LaunchHandle` is the
user-facing half — the return value of ``repro.launch(..., sync=False)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..ir.vectorizer import IndexDomain
from .launch import LaunchSchedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from concurrent.futures import Future

    from ..faults import FaultEvent, LaunchPolicy
    from ..ir.arena import ScratchArena
    from ..ir.compile import CompiledKernel
    from .backend import Backend

__all__ = [
    "LaunchPlan",
    "LaunchRecord",
    "LaunchSchedule",
    "LaunchHandle",
    "label_exception",
]


class LaunchRecord:
    """What staging derives from a launch's *signature* alone, built
    once by :meth:`repro.core.backend.Backend.stage` and shared by every
    launch of that signature on that backend (see
    :class:`repro.ir.verify.LaunchRecords` for the key): the verifier's
    ``diagnostics``, the backend's ``schedule`` and the modeled seconds
    one execution charges (``cost``, :meth:`Backend.modeled_cost`)."""

    __slots__ = ("diagnostics", "schedule", "cost")

    def __init__(self, diagnostics: tuple, schedule: LaunchSchedule, cost: float):
        self.diagnostics = diagnostics
        self.schedule = schedule
        self.cost = cost


@dataclass
class LaunchPlan:
    """One reified construct dispatch.

    Immutable inputs (``construct``/``dims``/``fn``/``args``/``op``) are
    set at creation; each pipeline stage fills in its own fields.  A plan
    is single-use: it describes exactly one launch, executed exactly once.
    """

    #: ``"for"`` or ``"reduce"``.
    construct: str
    #: Normalized launch domain, 1-D..3-D.
    dims: tuple[int, ...]
    #: The user's scalar kernel.
    fn: Callable
    #: User-visible arguments, as passed to the construct.
    args: tuple
    #: Reduction fold (reduce plans only).
    op: str = "add"

    # -- filled by the resolve stage --------------------------------------
    backend: Optional["Backend"] = None
    resolved_args: Optional[list] = None
    #: The fault-handling contract for this launch (retry/failover/
    #: watchdog); resolved from the execution context.  ``None`` means
    #: the default policy.
    policy: Optional["LaunchPolicy"] = None
    #: The execution context's scratch-buffer arena; backends hand it to
    #: ``CompiledKernel.run_for``/``run_reduce`` so generated kernels
    #: draw ``out=`` temporaries from a per-context pool.  The native
    #: rung leases its reduce value buffer from the same arena and hands
    #: the raw buffer pointer to the compiled C loop.
    arena: Optional["ScratchArena"] = None

    # -- filled by the compile stage ---------------------------------------
    kernel: Optional["CompiledKernel"] = None
    #: Verifier findings for this call signature (empty when the verify
    #: mode is ``off`` or the kernel is clean).
    diagnostics: tuple = ()

    # -- filled by the schedule stage ----------------------------------------
    schedule: Optional[LaunchSchedule] = None
    #: The signature's shared :class:`LaunchRecord` (``schedule`` and
    #: ``diagnostics`` above are its fields, bound per plan because a
    #: failover or a replay re-stages one plan without touching others).
    record: Optional[LaunchRecord] = None

    # -- filled by the execute stage (observability) ---------------------------
    #: Backend modeled time immediately before/after execution; the
    #: dispatch-event hooks read these instead of backend accounting.
    sim_time_before: Optional[float] = None
    sim_time_after: Optional[float] = None
    #: The reduce value (``None`` for for-plans).
    result: Any = None
    #: Fault-handling activity observed while executing this plan
    #: (retries, failovers, watchdog timeouts) — see
    #: :class:`repro.faults.FaultEvent`.
    fault_events: list = field(default_factory=list)
    #: Storage ids this plan's kernel stores to, for write-version
    #: tracking (repro.ir.writes): bound with the arguments when the plan
    #: is staged — graph replays reuse the plan, and array identities
    #: never change across replays (only scalar slots rebind).
    written_ids: Optional[tuple] = None
    #: Memory-effects summary (:class:`repro.ir.effects.EffectsSummary`)
    #: computed lazily by :func:`repro.ir.effects.plan_effects` — affine
    #: read/write regions per array, the foundation for the translation
    #: validator and the cross-launch hazard diagnostics (V6xx).
    effects: Any = None

    @property
    def is_reduce(self) -> bool:
        return self.construct == "reduce"

    @property
    def label(self) -> str:
        """Human-readable identity of this launch (kernel + shape)."""
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"{name}[{self.construct} dims={self.dims}]"

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def lanes(self) -> int:
        """Total iteration count of the launch domain."""
        return math.prod(self.dims)

    def full_domain(self) -> IndexDomain:
        """The whole launch domain as one :class:`IndexDomain`."""
        return IndexDomain.full(self.dims)

    def run(self, domain: IndexDomain) -> Any:
        """Run the compiled kernel over ``domain`` — the whole launch or
        one backend chunk.  Returns the reduce partial (``None`` for a
        for-plan).  The one for/reduce branch outside ``CompiledKernel``:
        every backend's chunk body is this call."""
        if self.construct == "reduce":
            return self.kernel.run_reduce(
                domain, self.resolved_args, self.op, self.arena
            )
        self.kernel.run_for(domain, self.resolved_args, self.arena)
        return None

    @property
    def sim_time_elapsed(self) -> float:
        """Modeled seconds this plan's execution spanned (0.0 until run)."""
        if self.sim_time_before is None or self.sim_time_after is None:
            return 0.0
        return self.sim_time_after - self.sim_time_before

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stage = (
            "executed"
            if self.sim_time_after is not None
            else "scheduled"
            if self.schedule is not None
            else "compiled"
            if self.kernel is not None
            else "resolved"
            if self.backend is not None
            else "new"
        )
        return (
            f"<LaunchPlan {self.construct} dims={self.dims} "
            f"fn={getattr(self.fn, '__name__', self.fn)!r} stage={stage}>"
        )


def label_exception(exc: BaseException, plan: LaunchPlan) -> BaseException:
    """Attach a plan's identity to an exception escaping its launch.

    Asynchronous failures surface at ``synchronize()``, far from the
    ``launch`` call that queued them — without a label the traceback
    points at the drain loop, not the kernel.  Sets ``plan_label`` /
    ``plan_repr`` attributes (stable, testable) and adds a traceback
    note on Python 3.11+.  Labels only once: a failover re-raise keeps
    the original attribution.
    """
    if getattr(exc, "plan_label", None) is None:
        try:
            exc.plan_label = plan.label
            exc.plan_repr = repr(plan)
        except AttributeError:  # exceptions with __slots__: skip labeling
            return exc
        add_note = getattr(exc, "add_note", None)
        if add_note is not None:  # Python 3.11+
            add_note(f"while executing {plan.label} ({plan!r})")
    return exc


class LaunchHandle:
    """Handle to a launched construct (``repro.launch``).

    Synchronous launches return an already-completed handle; asynchronous
    launches (``sync=False``) return a live one.  ``wait()`` blocks until
    the launch finishes (re-raising any kernel error); ``result()`` waits
    and returns the reduce value (``None`` for for-kernels).
    """

    __slots__ = ("plan", "_future")

    def __init__(self, plan: LaunchPlan, future: Optional["Future"] = None):
        self.plan = plan
        self._future = future

    @property
    def label(self) -> str:
        """The underlying plan's human-readable identity."""
        return self.plan.label

    @property
    def fault_events(self) -> list:
        """Fault-handling activity recorded for this launch."""
        return self.plan.fault_events

    def done(self) -> bool:
        """True once the launch has completed (always true for sync)."""
        return self._future is None or self._future.done()

    def wait(self, timeout: Optional[float] = None) -> "LaunchHandle":
        """Block until the launch completes; re-raises kernel errors.

        Errors from the queued execution carry the plan label
        (``plan_label``/``plan_repr`` attributes, see
        :func:`label_exception`).
        """
        if self._future is not None:
            try:
                self._future.result(timeout)
            except BaseException as exc:
                raise label_exception(exc, self.plan)
        return self

    def result(self, timeout: Optional[float] = None) -> Any:
        """Wait, then return the reduce value (``None`` for a for-plan)."""
        self.wait(timeout)
        return self.plan.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else "pending"
        return f"<LaunchHandle {self.plan.construct} dims={self.plan.dims} {state}>"
