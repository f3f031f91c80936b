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
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

import numpy as np

from .. import faults as _faults
from ..core.backend import Backend
from ..core.exceptions import PermanentDeviceError
from ..core.launch import cpu_chunks, usable_cpus
from ..core.plan import LaunchPlan, LaunchSchedule
from ..ir.vectorizer import IndexDomain, fold_partials
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
        return np.array(data, copy=True)

    def to_host(self, arr: Any) -> np.ndarray:
        # Device-array handles survive a failover from a GPU backend; the
        # simulator's device storage is host memory, so adopt it directly.
        raw = getattr(arr, "__pyacc_raw_storage__", None)
        return raw() if raw is not None else np.asarray(arr)

    def unwrap(self, arr: Any) -> np.ndarray:
        raw = getattr(arr, "__pyacc_raw_storage__", None)
        return raw() if raw is not None else np.asarray(arr)

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
    def _domains(self, dims: tuple[int, ...]) -> list[IndexDomain]:
        chunks = cpu_chunks(dims, self.n_threads)
        tail = [(0, d) for d in dims[1:]]
        return [IndexDomain.of([(lo, hi)] + tail) for lo, hi in chunks]

    def schedule(self, plan: LaunchPlan) -> LaunchSchedule:
        """Coarse decomposition decision, recorded on the plan.

        Inline (calling thread, full domain) when the pool cannot help:
        one worker, a domain below ``min_parallel_size``, or an
        interpreter-fallback kernel.  Otherwise one contiguous chunk of
        the leading axis per worker (``Threads.@threads``' static
        schedule).
        """
        dims = plan.dims
        if (
            self.n_threads == 1
            or plan.lanes < self.min_parallel_size
            or plan.kernel.trace is None  # interpreter fallback stays inline
        ):
            return LaunchSchedule(domains=(IndexDomain.full(dims),), inline=True)
        return LaunchSchedule(domains=tuple(self._domains(dims)), inline=False)

    def execute(self, plan: LaunchPlan) -> Optional[float]:
        self.accounting.n_kernel_launches += 1
        kernel, args, op = plan.kernel, plan.resolved_args, plan.op
        lanes = plan.lanes
        cost = (
            self.model.reduce_cost(kernel.stats, lanes, plan.ndim)
            if plan.is_reduce
            else self.model.for_cost(kernel.stats, lanes, plan.ndim)
        )
        self.accounting.sim_time += cost.total
        arena = plan.arena
        fplan = _faults.active_plan()
        if plan.schedule.inline:
            (domain,) = plan.schedule.domains
            if fplan is None:  # fast path: injection off, no retry wrapper
                if plan.is_reduce:
                    return kernel.run_reduce(domain, args, op, arena)
                kernel.run_for(domain, args, arena)
                return None
            policy = plan.policy or _faults.DEFAULT_POLICY

            def body():
                # Probe *before* the kernel runs: a retried chunk never
                # double-applies stores.
                fplan.check("threads.chunk")
                if plan.is_reduce:
                    return kernel.run_reduce(domain, args, op, arena)
                kernel.run_for(domain, args, arena)
                return None

            return _faults.retry_transients(
                body, policy=policy, site="threads.chunk", plan=plan
            )
        pool = self._ensure_pool()
        domains = plan.schedule.domains
        policy = plan.policy or _faults.DEFAULT_POLICY
        # Fault decisions for pool chunks use ordinals reserved here in
        # the submitting thread: worker scheduling order is
        # nondeterministic, the schedule must not be.  (The plan is also
        # passed in explicitly — contextvars do not cross pool threads.)
        base = fplan.next_ordinal("threads.chunk", len(domains)) if fplan else 0

        def run_chunk(i: int, dom: IndexDomain):
            def body():
                if fplan is not None:
                    fplan.check("threads.chunk", ordinal=base + i)
                if plan.is_reduce:
                    return kernel.run_reduce(dom, args, op, arena)
                kernel.run_for(dom, args, arena)
                return None

            if fplan is None:
                return body()
            return _faults.retry_transients(
                body, policy=policy, site="threads.chunk", plan=plan
            )

        # Each chunk opens its own arena *frame*: workers draw from the
        # shared per-context pool under its lock, but an in-flight buffer
        # belongs to exactly one frame, so chunks never alias scratch
        # memory (the verifier's V101/V102 facts already guarantee the
        # kernel effects themselves are chunk-independent).
        futures = [
            pool.submit(run_chunk, i, dom) for i, dom in enumerate(domains)
        ]
        partials = []
        for i, fut in enumerate(futures):
            try:
                partials.append(fut.result())  # join + re-raise (Threads.@sync)
            except PermanentDeviceError as exc:
                # One worker's lane is gone for good: run its chunk in the
                # calling thread (the serial rung of the ladder, scoped to
                # this chunk) so the launch still completes synchronously.
                _faults.record_event(
                    _faults.FaultEvent(
                        site="threads.chunk",
                        kind="permanent",
                        action="failover",
                        device_id=exc.device_id,
                        kernel=getattr(plan.fn, "__name__", None),
                        detail=f"chunk {i} re-run inline after permanent fault",
                    ),
                    plan,
                )
                if plan.is_reduce:
                    partials.append(kernel.run_reduce(domains[i], args, op, arena))
                else:
                    kernel.run_for(domains[i], args, arena)
                    partials.append(None)
        if not plan.is_reduce:
            return None
        return fold_partials(op, partials)

    # -- portable-dispatch accounting ---------------------------------------
    def account_portable_dispatch(
        self, construct: str, dims: tuple[int, ...]
    ) -> None:
        oh = self._overhead
        self.accounting.sim_time += (
            oh.for_latency if construct == "for" else oh.reduce_latency
        )
