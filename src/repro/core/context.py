"""Context-local execution state: backend, kernel cache, hooks, arena.

The reproduction originally kept the active backend in a module-global —
faithful to the paper's single-tenant workflow, but hostile to concurrent
use: two threads (or asyncio tasks) could not hold different backends.
This module replaces the global with an :class:`ExecutionContext` held in
a :mod:`contextvars` variable:

* the **process-default context** backs ``set_backend``/``active_backend``
  exactly as before (one shared backend, resolved lazily from the
  Preferences mechanism), so single-tenant code is unchanged;
* :func:`use_backend` installs a *scoped* context visible only to the
  current thread/task — concurrent scopes are fully isolated, which is
  what multi-tenant serving and the multi-device work need.

Each context also owns:

* an optional **kernel cache** (``kernel_cache``) so compiles can be
  scoped per-context instead of process-global;
* **dispatch-event hooks** (:meth:`ExecutionContext.on_launch` /
  :meth:`ExecutionContext.on_complete`) that fire around every construct
  with the :class:`~repro.core.plan.LaunchPlan`, so observers (the bench
  harness, future tracing layers) subscribe instead of reaching into
  backend accounting fields;
* a **scratch-buffer arena** (:class:`repro.ir.arena.ScratchArena`) that
  the codegen executor draws ``out=`` temporaries from — per-context, so
  concurrent tenants never exchange buffers.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Union

from ..faults import DEFAULT_POLICY, injection_possible
from ..ir.arena import ScratchArena
from .exceptions import BackendError

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..faults import FaultEvent, FaultPlan, LaunchPolicy
    from ..ir.compile import KernelCache
    from .backend import Backend
    from .plan import LaunchPlan

__all__ = [
    "ExecutionContext",
    "current_context",
    "use_backend",
]


def _instantiate(name: str) -> "Backend":
    # Imported here (not at module top) so the registry's lazy loading —
    # the weak-dependency analogue — actually stays lazy.
    from ..backends.registry import create_backend

    return create_backend(name)


class ExecutionContext:
    """One tenant's execution state: backend + cache + hooks + arena."""

    def __init__(
        self,
        backend: Optional["Backend"] = None,
        *,
        kernel_cache: Optional["KernelCache"] = None,
    ):
        self._backend = backend
        #: Per-context compiled-kernel cache; ``None`` uses the
        #: process-global cache in :mod:`repro.ir.compile`.
        self.kernel_cache = kernel_cache
        #: Per-context scratch-buffer pool for generated kernels (see
        #: :mod:`repro.ir.arena`); scoped like the kernel cache so
        #: concurrent tenants never share buffers.
        self.arena = ScratchArena()
        self._on_launch: list[Callable[["LaunchPlan"], None]] = []
        self._on_complete: list[Callable[["LaunchPlan"], None]] = []
        #: Fault-injection plan (see :mod:`repro.faults`).  ``None`` until
        #: first resolution; the sentinel distinguishes "not yet resolved
        #: from env/prefs" from "resolved to no injection".
        self._fault_plan: Optional["FaultPlan"] = None
        self._fault_plan_resolved = False
        self._fault_lock = threading.Lock()
        #: Fault-handling contract applied to launches in this context.
        self._launch_policy: Optional["LaunchPolicy"] = None
        #: Fault-handling activity observed in this context (retries,
        #: failovers, checkpoint restores).
        self.fault_events: list["FaultEvent"] = []
        #: The active :class:`repro.graph.capture.GraphCapture`, or
        #: ``None``.  When set, ``_dispatch`` records every staged plan
        #: it executes (relaxed stream capture — see :mod:`repro.graph`).
        self.graph_capture = None

    # -- backend resolution -------------------------------------------------
    def backend(self) -> "Backend":
        """This context's backend, resolving preferences on first use."""
        if self._backend is None:
            from .preferences import resolve_backend_name

            self._backend = _instantiate(resolve_backend_name())
        return self._backend

    def set_backend(self, backend: Union[str, "Backend"]) -> "Backend":
        """Install a backend (by registry name or instance) in this
        context only."""
        from ..backends.registry import resolve_backend

        self._backend = resolve_backend(backend)
        return self._backend

    def reset(self) -> None:
        """Drop this context's backend; the next use re-resolves
        preferences.  Other contexts are unaffected."""
        self._backend = None

    # -- fault injection + launch policy --------------------------------------
    @property
    def fault_plan(self) -> Optional["FaultPlan"]:
        """This context's fault-injection plan (``None`` = no injection).

        Resolved lazily on first access from ``PYACC_FAULTS`` / the
        ``faults`` preferences key; :meth:`set_fault_plan` overrides.
        """
        with self._fault_lock:
            if not self._fault_plan_resolved:
                from ..faults import resolve_fault_plan

                self._fault_plan = resolve_fault_plan()
                self._fault_plan_resolved = True
                self.arena._fault_plan = self._fault_plan
            return self._fault_plan

    def set_fault_plan(self, plan) -> None:
        """Install (or clear, with ``None``) this context's fault plan."""
        with self._fault_lock:
            self._fault_plan = plan
            self._fault_plan_resolved = True
            # The arena keeps its own reference: frame opens happen on
            # worker threads where contextvars don't resolve this context.
            self.arena._fault_plan = plan

    @property
    def launch_policy(self) -> "LaunchPolicy":
        """The fault-handling contract applied to this context's launches."""
        policy = self._launch_policy
        return DEFAULT_POLICY if policy is None else policy

    @launch_policy.setter
    def launch_policy(self, policy: Optional["LaunchPolicy"]) -> None:
        self._launch_policy = policy

    def fault_stats(self) -> dict:
        """Summary of fault-handling activity seen by this context."""
        events = list(self.fault_events)
        by_action: dict = {}
        for ev in events:
            by_action[ev.action] = by_action.get(ev.action, 0) + 1
        plan = self._fault_plan
        return {
            "events": len(events),
            "by_action": by_action,
            "plan": plan.stats() if plan is not None else None,
        }

    # -- launch-graph capture -------------------------------------------------
    def capture(self) -> "Any":
        """A :class:`repro.graph.capture.GraphCapture` scoped to this
        context: ``with ctx.capture() as cap:`` records every construct
        dispatched in the block (which still executes eagerly) for
        instantiation and replay — see :mod:`repro.graph`."""
        from ..graph.capture import GraphCapture

        return GraphCapture(self)

    # -- dispatch-event hooks ------------------------------------------------
    def on_launch(
        self, callback: Callable[["LaunchPlan"], None]
    ) -> Callable[[], None]:
        """Subscribe to plan executions starting in this context.

        ``callback(plan)`` fires after the plan is fully staged (backend,
        kernel and schedule attached, ``sim_time_before`` recorded) and
        before the backend executes it.  Returns an unsubscribe callable.
        """
        self._on_launch.append(callback)
        return lambda: self._discard(self._on_launch, callback)

    def on_complete(
        self, callback: Callable[["LaunchPlan"], None]
    ) -> Callable[[], None]:
        """Subscribe to plan completions in this context.

        ``callback(plan)`` fires after the backend finished the plan, with
        ``plan.result`` and ``plan.sim_time_after`` populated.  Returns an
        unsubscribe callable.
        """
        self._on_complete.append(callback)
        return lambda: self._discard(self._on_complete, callback)

    @staticmethod
    def _discard(hooks: list, callback: Callable) -> None:
        try:
            hooks.remove(callback)
        except ValueError:
            pass

    def fence(self) -> Optional[str]:
        """Why a launch in this context must take the staged execute path
        — faults armed or a hook attached — or ``None``: then the inline
        kernel call alone may stand in for it (the loop driver,
        :mod:`repro.graph.loop`, and a bound call,
        :class:`repro.core.plan.BoundCall`)."""
        return (
            "faults" if injection_possible()
            else "hooks" if self._on_launch or self._on_complete
            else None
        )

    def fire_launch(self, plan: "LaunchPlan") -> None:
        for cb in list(self._on_launch):
            cb(plan)

    def fire_complete(self, plan: "LaunchPlan") -> None:
        for cb in list(self._on_complete):
            cb(plan)


#: The process-default context: what ``set_backend``/``active_backend``
#: operate on outside any ``use_backend`` scope.  Shared across threads,
#: matching the old module-global behaviour.
_GLOBAL_CONTEXT = ExecutionContext()

_CURRENT: ContextVar[Optional[ExecutionContext]] = ContextVar(
    "pyacc_execution_context", default=None
)


def current_context() -> ExecutionContext:
    """The context governing dispatch for the calling thread/task."""
    return _CURRENT.get() or _GLOBAL_CONTEXT


@contextmanager
def use_backend(
    backend: Union[str, "Backend"],
    *,
    kernel_cache: Optional["KernelCache"] = None,
) -> Iterator[ExecutionContext]:
    """Run the enclosed block under a private :class:`ExecutionContext`.

    ``backend`` is a registry name or a :class:`Backend` instance.  The
    scope is context-local (:mod:`contextvars`): concurrent threads and
    asyncio tasks each see only their own scope, never each other's.
    Pass ``kernel_cache=KernelCache()`` to also scope compiles to this
    context instead of the process-global trace cache.

    On exit the previous context is restored.
    """
    if backend is None:
        raise BackendError("use_backend requires a backend name or instance")
    ctx = ExecutionContext(kernel_cache=kernel_cache)
    ctx.set_backend(backend)
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)
