"""The backend contract: compute + memory components (paper Fig. 1).

A JACC backend supplies two things — a *memory* component (how
``JACC.array`` materializes data on the target and how results come back)
and a *compute* component (how a compiled kernel is executed over a launch
domain).  Everything else (tracing, caching, launch math, the public API)
is shared, which is precisely the "lightweight front end" claim of the
paper.

Accounting
----------
Every backend carries an :class:`Accounting` record.  Wall-clock time is
always measurable from outside; *modeled* time (``sim_time``) is advanced
by backends that own an analytic performance profile (the GPU simulators
always do; the threads backend does when one is attached) so the benchmark
harness can put all four of the paper's architectures on one consistent
time axis.  ``alloc_count`` exists because the paper attributes JACC's 2-D
AXPY overhead on the A100 to extra allocations made by the
metaprogramming layer.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Sequence

import numpy as np

from ..ir.compile import CompiledKernel
from ..ir.vectorizer import IndexDomain
from ..ir.verify import verify_launch
from .context import current_context
from .plan import LaunchPlan, LaunchRecord, LaunchSchedule

__all__ = ["Accounting", "Backend", "normalize_dims"]


@dataclass
class Accounting:
    """Operation counters + modeled time for one backend instance."""

    n_for: int = 0
    n_reduce: int = 0
    n_kernel_launches: int = 0
    n_h2d: int = 0
    n_d2h: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    alloc_count: int = 0
    alloc_bytes: int = 0
    sim_time: float = 0.0

    def snapshot(self) -> dict:
        return dict(self.__dict__)

    def reset(self) -> None:
        for k in self.__dict__:
            setattr(self, k, 0 if k != "sim_time" else 0.0)


def _as_launch_extent(d) -> int:
    """One launch extent: a genuine integer (bools and floats rejected,
    so ``parallel_for(n / 2, ...)`` fails here with a clear message
    instead of silently truncating or blowing up inside a backend)."""
    if isinstance(d, (bool, np.bool_)) or not isinstance(d, (int, np.integer)):
        raise ValueError(
            f"launch dims must be integers, got {d!r} "
            f"({type(d).__name__}); use // for integer division"
        )
    return int(d)


def normalize_dims(dims) -> tuple[int, ...]:
    """Accept the paper's ``N`` / ``(M, N)`` / ``(L, M, N)`` launch spec.

    Validates at the construct boundary: extents must be genuine
    integers (no bools, no floats) and strictly positive, in a 1-D..3-D
    tuple.  Anything else raises :class:`ValueError` here rather than
    deep inside a backend.
    """
    if isinstance(dims, (int, np.integer)) and not isinstance(
        dims, (bool, np.bool_)
    ):
        out: tuple[int, ...] = (int(dims),)
    else:
        try:
            items = tuple(dims)
        except TypeError:
            raise ValueError(
                f"launch dims must be an int or a tuple of ints, got {dims!r}"
            ) from None
        out = tuple(_as_launch_extent(d) for d in items)
    if not 1 <= len(out) <= 3:
        raise ValueError(f"launch domain must be 1-D..3-D, got {out!r}")
    if any(d <= 0 for d in out):
        raise ValueError(f"launch dims must be positive, got {out!r}")
    return out


class Backend(ABC):
    """Abstract backend.  Subclasses: serial, threads, gpusim, multidevice,
    cluster."""

    #: Registry name, e.g. ``"threads"`` or ``"cuda-sim"``.
    name: str = "?"
    #: ``"cpu"`` or ``"gpu"`` — decides coarse vs fine decomposition.
    device_kind: str = "cpu"

    _tokens = itertools.count()

    def __init__(self) -> None:
        self.accounting = Accounting()
        #: Never-reused identity of this instance in launch-record keys
        #: (an ``id()`` can be recycled by the next backend built; the
        #: instance itself would be pinned by every kernel it ran).
        self.token = next(Backend._tokens)

    # ---- memory component --------------------------------------------
    @abstractmethod
    def array(self, data: Any) -> Any:
        """``JACC.array``: materialize host data on this backend.

        Returns the backend's native array handle (a plain ndarray for
        CPU backends, a device-array wrapper for simulated GPUs).
        """

    def to_host(self, arr: Any) -> np.ndarray:
        """Copy a backend array back to a host ndarray.

        Default: the backend's arrays *are* host memory, so this is
        :meth:`unwrap`.  Backends owning a device boundary override both.
        """
        return self.unwrap(arr)

    def unwrap(self, arr: Any) -> np.ndarray:
        """Expose the raw ndarray storage a kernel executes against.

        Default (host-memory backends): the array itself.  Device-array
        handles survive a failover from a GPU backend; the simulator's
        device storage is host memory, so it is adopted directly.
        """
        raw = getattr(arr, "__pyacc_raw_storage__", None)
        return raw() if raw is not None else np.asarray(arr)

    # ---- compute component --------------------------------------------
    def schedule(self, plan: LaunchPlan) -> LaunchSchedule:
        """Decide the launch shape for a staged plan.

        Called during the pipeline's schedule stage; the decision is
        recorded on the plan so :meth:`execute` consumes it instead of
        recomputing.  Default: one full-domain chunk run inline —
        backends with chunking (threads, multi-device) or a device
        launch shape (GPU simulators) override.
        """
        return LaunchSchedule(domains=(IndexDomain.full(plan.dims),))

    def schedule_epoch(self) -> Hashable:
        """Staleness token for recorded schedules and modeled costs.

        What :meth:`schedule` and :meth:`modeled_cost` computed for a
        plan stays valid while this value compares equal.  Backends
        whose decisions can shift between launches return something
        that moves with them (the multi-device backend counts the
        devices dropped from its dispatch set, the threads backend
        returns the scheduling inputs themselves); launch records key on
        it, and captured launch graphs compare it before replaying and
        re-stage their recorded plans on a mismatch.
        """
        return 0

    def modeled_cost(self, plan: LaunchPlan) -> float:
        """Modeled seconds one execution of ``plan`` charges this
        backend's clock in :meth:`execute`, computed once per launch
        record.  Default: nothing (backends without a profile, and the
        simulators, which charge per device as chunks complete)."""
        return 0.0

    def stage(self, plan: LaunchPlan, mode: str = "off") -> LaunchRecord:
        """Bind the plan's launch record: everything about a launch of
        ``plan.kernel`` on this backend that is a function of its
        signature — verifier diagnostics under ``mode`` (enforced here:
        ``error`` raises on every offending launch, nothing is recorded
        for it), :meth:`schedule`, :meth:`modeled_cost` — built on the
        first such launch and looked up by every later one.  Also binds
        ``plan.written_ids``, the one per-argument fact execution needs.
        """
        launches = plan.kernel.launches
        args = plan.resolved_args
        op = plan.op if plan.construct == "reduce" else None
        key = (
            launches.signature(plan.dims, args, op),
            self.token,
            self.schedule_epoch(),
            mode,
        )
        record = launches.records.get(key)
        if record is None:
            diagnostics = (
                verify_launch(plan.kernel, plan.dims, args, op, mode)
                if mode != "off"
                else ()
            )
            record = launches.remember(
                launches.records,
                key,
                LaunchRecord(
                    diagnostics, self.schedule(plan), self.modeled_cost(plan)
                ),
            )
        plan.record = record
        plan.schedule = record.schedule
        plan.written_ids = launches.written_ids(args)
        return record

    @abstractmethod
    def execute(self, plan: LaunchPlan) -> Optional[float]:
        """Execute a fully staged :class:`LaunchPlan`, then synchronize
        (JACC is a synchronous API).

        The plan carries the compiled kernel, resolved args and the
        recorded :class:`LaunchSchedule`.  Returns the folded value for
        reduce plans, ``None`` for for-plans.
        """

    def run_for(
        self,
        dims: tuple[int, ...],
        kernel: CompiledKernel,
        args: Sequence[Any],
    ) -> None:
        """Execute a compiled for-kernel over the full domain.

        Thin shim over :meth:`execute` kept for native code paths (the
        paper's device-specific baselines) and direct backend use; the
        portable front end stages a :class:`LaunchPlan` instead.
        """
        self.execute(self._plan_for("for", dims, kernel, args))

    def run_reduce(
        self,
        dims: tuple[int, ...],
        kernel: CompiledKernel,
        args: Sequence[Any],
        op: str = "add",
    ) -> float:
        """Execute a compiled reduce-kernel and return the folded value.

        Thin shim over :meth:`execute`, like :meth:`run_for`.
        """
        return self.execute(self._plan_for("reduce", dims, kernel, args, op=op))

    def _plan_for(
        self,
        construct: str,
        dims: tuple[int, ...],
        kernel: CompiledKernel,
        args: Sequence[Any],
        op: str = "add",
    ) -> LaunchPlan:
        """Stage a plan directly against this backend (no context)."""
        plan = LaunchPlan(
            construct=construct,
            dims=tuple(int(d) for d in dims),
            fn=kernel.fn,
            args=tuple(args),
            op=op,
        )
        plan.backend = self
        plan.resolved_args = list(args)
        plan.kernel = kernel
        # Native paths skip the resolve stage; draw scratch buffers from
        # the calling context's arena anyway so direct backend use pools
        # temporaries exactly like staged dispatch.
        ctx = current_context()
        plan.arena = ctx.arena
        # Native launches honour the same transient-retry contract as
        # staged dispatch (the in-backend retry loop reads plan.policy).
        plan.policy = ctx.launch_policy
        self.stage(plan)
        return plan

    def synchronize(self) -> None:
        """Block until outstanding work completes.  CPU backends are
        synchronous already; simulated devices override."""

    # ---- dispatch-overhead hook -----------------------------------------
    def account_portable_dispatch(self, construct: str, dims: tuple[int, ...]) -> None:
        """Charge the modeled cost of going through the portable front end
        (vs calling the backend natively).  Default: free — overridden by
        backends with a calibrated overhead profile."""

    # ---- convenience ---------------------------------------------------
    def resolve_args(self, args: Sequence[Any]) -> list[Any]:
        """Map user-visible args (backend arrays, scalars) to kernel args
        (raw ndarrays, scalars)."""
        out = []
        for a in args:
            if isinstance(a, np.ndarray):
                out.append(a)
            elif hasattr(a, "__pyacc_array__"):
                out.append(self.unwrap(a))
            else:
                out.append(a)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} kind={self.device_kind!r}>"
