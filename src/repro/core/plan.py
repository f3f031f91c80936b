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
be observed, recorded, split, or fused.  ``repro.launch`` returns the
executed plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..ir import writes
from ..ir.cgen import NativeDeclined
from ..ir.vectorizer import IndexDomain
from .launch import LaunchSchedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..faults import FaultEvent, LaunchPolicy
    from ..ir.arena import ScratchArena
    from ..ir.compile import CompiledKernel
    from .backend import Backend

__all__ = [
    "LaunchPlan",
    "LaunchRecord",
    "LaunchSchedule",
]


class LaunchRecord:
    """What staging derives from a launch's *signature* alone, built
    once by :meth:`repro.core.backend.Backend.stage` and shared by every
    launch of that signature on that backend (see
    :class:`repro.ir.verify.LaunchRecords` for the key): the verifier's
    ``diagnostics``, the backend's ``schedule``, the modeled seconds
    one execution charges (``cost``, :meth:`Backend.modeled_cost`) and
    the signature's bound native call (``call``, or ``None``)."""

    __slots__ = ("diagnostics", "schedule", "cost", "call")

    def __init__(self, diagnostics: tuple, schedule: LaunchSchedule, cost: float):
        self.diagnostics = diagnostics
        self.schedule = schedule
        self.cost = cost
        self.call: Optional[BoundCall] = None


class BoundCall:
    """A launch signature's execution as one native call, bound when its
    record is staged: kernel, inline domain, modeled-clock ``charges``
    (:meth:`Backend.loop_charges`), reduce op and written positions.  A
    call makes the pre-flight checks the signature does not fix, then
    accounts, calls the C loop and versions the written arrays as
    :func:`repro.core.api._execute` would, with no :class:`LaunchPlan`.
    A :class:`NativeDeclined` (unit not installed, a check failed) comes
    before any side effect: the caller stages the launch instead."""

    __slots__ = ("native", "domain", "charges", "op", "written")

    @classmethod
    def bind(cls, plan: "LaunchPlan", charges: Optional[tuple]) -> Optional["BoundCall"]:
        """``plan``'s bound call, or ``None``: its backend's execute does
        more (no ``charges``), it is chunked, not native, or fails
        :meth:`~repro.ir.cgen.NativeKernel.check_fixed`."""
        native, schedule = plan.kernel.native, plan.schedule
        if charges is None or native is None or not schedule.inline or (
            plan.is_reduce and not native.has_result  # staging raises for it
        ):
            return None
        try:
            native.check_fixed(schedule.domains[0], plan.resolved_args)
        except NativeDeclined:
            return None
        call = cls()
        call.native, call.domain, call.charges = native, schedule.domains[0], charges
        call.op = plan.op if plan.is_reduce else None
        call.written = plan.kernel.launches.written
        return call

    def __call__(self, accounting, args: list, arena, keyed: bool = True) -> Any:
        """Execute over ``args``, charging ``accounting``; the reduce
        value, or ``None``.  ``keyed``: the warm-launch key matched
        ``args``, so only the per-call checks run; else all of them."""
        native, domain = self.native, self.domain
        if native._fn is None:
            raise NativeDeclined("pending")
        words = native.words(domain, args) if keyed else native.preflight(domain, args)
        if self.op is None:
            accounting.n_for += 1
        else:
            accounting.n_reduce += 1
        accounting.n_kernel_launches += 1
        for charge in self.charges:
            accounting.sim_time += charge
        result = native.run_words(domain, words, self.op, arena)
        writes.note_writes(map(id, map(args.__getitem__, self.written)))
        return result


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
    #: The fault-handling contract for this launch (retry/failover);
    #: resolved from the execution context.  ``None`` means the default
    #: policy.
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
    #: (retries, failovers) — see :class:`repro.faults.FaultEvent`.
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
        every backend's chunk body is this call.  A kernel whose C unit
        still compiles settles on the whole launch's lane count first,
        so a chunk runs codegen only when the launch could."""
        native = self.kernel.native
        if native is not None and native._fn is None:
            native.settle(self.lanes)
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
