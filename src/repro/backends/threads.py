"""The Base.Threads-analogue CPU backend.

JACC's default backend decorates the loop with ``Threads.@sync
Threads.@threads`` (paper Fig. 5): a static, coarse-grained split of the
iteration space across OS threads, synchronized before returning.  This
backend reproduces that shape:

* the *leading* axis of the launch domain is split into one contiguous
  chunk per worker (Julia splits the trailing axis because its arrays are
  column-major; NumPy is row-major, so the leading axis gives the same
  "each thread owns contiguous memory" property — see
  :mod:`repro.core.launch`);
* each worker executes the compiled kernel over its chunk through a
  shared :class:`~concurrent.futures.ThreadPoolExecutor` — NumPy
  releases the GIL for large array operations, so chunks genuinely
  overlap.  On the native executor rung the whole chunk is one ctypes
  call into the compiled C loop, which releases the GIL for its entire
  duration — the closest this model gets to ``Threads.@threads`` over
  an LLVM-compiled loop body;
* the construct joins all chunks before returning (synchronous API).

Reductions fold per-chunk partials with the requested operation; addition
of float64 partials is associative-enough for the paper's tolerance and is
exactly what ``Threads.@threads`` + per-thread accumulators does.

Worker count comes from ``PYACC_NUM_THREADS`` (default: the CPUs this
process may run on), mirroring ``JULIA_NUM_THREADS``.  Domains smaller than
``min_parallel_size`` run inline — forking threads for a 1000-element
AXPY only measures pool overhead, on this machine and in the paper alike.

Modeled time: the backend carries the Rome CPU profile by default so the
benchmark harness can place CPU results on the same simulated-time axis
as the (simulated) GPUs; wall-clock time is still the real execution.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Optional

import numpy as np

from .. import faults as _faults
from ..core.backend import Backend, host_array
from ..core.exceptions import PermanentDeviceError
from ..core.launch import LaunchSchedule, cpu_schedule, usable_cpus
from ..core.plan import LaunchPlan
from ..ir.vectorizer import fold_partials
from ..perfmodel import PerfModel, get_overhead, get_profile

__all__ = ["ThreadsBackend", "default_num_threads"]

_ENV_THREADS = "PYACC_NUM_THREADS"


def default_num_threads() -> int:
    """Worker count: ``PYACC_NUM_THREADS`` or the CPUs this process may
    use (:func:`repro.core.launch.usable_cpus`)."""
    env = os.environ.get(_ENV_THREADS)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"{_ENV_THREADS} must be an integer, got {env!r}"
            ) from None
        if n <= 0:
            raise ValueError(f"{_ENV_THREADS} must be positive, got {n}")
        return n
    return usable_cpus()


class ThreadsBackend(Backend):
    """Coarse-grained multi-threaded CPU backend (Base.Threads analogue)."""

    name = "threads"
    device_kind = "cpu"

    def __init__(
        self,
        n_threads: Optional[int] = None,
        *,
        profile_name: str = "rome",
        min_parallel_size: int = 1 << 14,
    ):
        super().__init__()
        self.n_threads = n_threads if n_threads is not None else default_num_threads()
        if self.n_threads <= 0:
            raise ValueError(f"n_threads must be positive, got {self.n_threads}")
        self.min_parallel_size = min_parallel_size
        self.model = PerfModel(get_profile(profile_name))
        self._overhead = get_overhead(self.name)
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- memory ----------------------------------------------------------
    def array(self, data: Any) -> np.ndarray:
        return host_array(data)

    # -- pool -------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_threads, thread_name_prefix="pyacc"
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (tests; normally process-lifetime)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- compute -----------------------------------------------------------
    def schedule(self, plan: LaunchPlan) -> LaunchSchedule:
        """Coarse decomposition over the pool (:func:`cpu_schedule`)."""
        return cpu_schedule(plan, self.n_threads, self.min_parallel_size)

    def schedule_epoch(self) -> tuple:
        """The inputs :meth:`schedule` and :meth:`modeled_cost` read:
        what they recorded is stale exactly when one of these moves."""
        return (self.n_threads, self.min_parallel_size, self.model)

    def modeled_cost(self, plan: LaunchPlan) -> float:
        cost = self.model.reduce_cost if plan.is_reduce else self.model.for_cost
        return cost(plan.kernel.stats, plan.lanes, plan.ndim).total

    def loop_charges(self, plan: LaunchPlan) -> Optional[tuple]:
        oh = self._overhead
        latency = oh.for_latency if plan.construct == "for" else oh.reduce_latency
        return (latency, plan.record.cost)

    def execute(self, plan: LaunchPlan) -> Optional[float]:
        accounting = self.accounting
        accounting.n_kernel_launches += 1
        accounting.sim_time += plan.record.cost
        fplan = _faults.active_plan()
        domains = plan.schedule.domains
        if plan.schedule.inline:
            return _faults.guarded(
                fplan, "threads.chunk", plan, plan.run, domains[0]
            )
        # Fault decisions for pool chunks use ordinals reserved here in
        # the submitting thread: worker scheduling order is
        # nondeterministic, the schedule must not be.
        base = fplan.next_ordinal("threads.chunk", len(domains)) if fplan else 0
        # Each chunk opens its own arena *frame*: workers draw from the
        # shared per-context pool under its lock, but an in-flight buffer
        # belongs to exactly one frame, so chunks never alias scratch
        # memory (the verifier's V101/V102 facts already guarantee the
        # kernel effects themselves are chunk-independent).
        submit = self._ensure_pool().submit
        futures = [
            submit(
                _faults.guarded, fplan, "threads.chunk", plan, plan.run, dom,
                ordinal=base + i,
            )
            for i, dom in enumerate(domains)
        ]
        partials = []
        try:
            for i, fut in enumerate(futures):
                try:
                    partials.append(fut.result())
                except PermanentDeviceError as exc:
                    # One worker's lane is gone for good: run its chunk in
                    # the calling thread (the serial rung of the ladder,
                    # scoped to this chunk) so the launch still completes
                    # synchronously.
                    _faults.record_failover(
                        "threads.chunk", plan, exc.device_id,
                        f"chunk {i} re-run inline after permanent fault",
                    )
                    partials.append(plan.run(domains[i]))
        except BaseException:
            # Threads.@sync: the first error (in chunk order) surfaces
            # only after every chunk has stopped writing the caller's
            # arrays and released its arena frame.
            wait(futures)
            raise
        if not plan.is_reduce:
            return None
        return fold_partials(plan.op, partials)

    # -- portable-dispatch accounting ---------------------------------------
    def account_portable_dispatch(
        self, construct: str, dims: tuple[int, ...]
    ) -> None:
        oh = self._overhead
        self.accounting.sim_time += (
            oh.for_latency if construct == "for" else oh.reduce_latency
        )
