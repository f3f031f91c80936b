"""The portable front end: ``parallel_for``, ``parallel_reduce``, ``launch``.

The paper's two constructs (§III) remain the whole user-facing compute
surface, and both remain **synchronous** — when they return, the
computation has completed on the backend (paper §IV, last paragraph).
Underneath, every construct is now a staged pipeline over a reified
:class:`~repro.core.plan.LaunchPlan`:

``resolve`` (bind backend + args from the current
:class:`~repro.core.context.ExecutionContext`) → ``compile`` (the
specialization ladder, against the context's kernel cache) → ``schedule``
(record the launch-shape/chunking decision on the plan) → ``execute``
(the backend consumes the plan through ``Backend.execute``).  A warm
launch stops at resolve: its one look-up finds its signature's record,
whose bound native call (:class:`~repro.core.plan.BoundCall`) stands in
for the plan when nothing observes one (see :func:`_dispatch`).

:func:`launch` exposes the plan machinery directly: it runs one
construct, synchronously like the other two, and returns the executed
:class:`~repro.core.plan.LaunchPlan`.

Backend selection follows the paper's Preferences mechanism (see
:mod:`repro.core.preferences`) on the process-default context;
:func:`~repro.core.context.use_backend` scopes a different backend to the
current thread/task only.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

import numpy as np

from .. import faults
from ..ir import nativecache, writes
from ..ir.cgen import NativeDeclined
from ..ir.compile import _fn_key, compile_kernel, executor_mode, resolve_cache
from ..ir.vectorizer import _REDUCE
from ..ir.verify import active_verify_mode
from .backend import Backend, normalize_dims
from .context import ExecutionContext, current_context, use_backend
from .exceptions import BackendError, InvalidReduceOpError
from .plan import LaunchPlan
from .preferences import write_preference

__all__ = [
    "parallel_for",
    "parallel_reduce",
    "launch",
    "active_backend",
    "set_backend",
    "reset_backend",
    "synchronize",
    "use_backend",
    "REDUCE_OPS",
]

#: The reductions the portable front end accepts: the rows of the one
#: reduce table (paper: ``add`` only; ``min``/``max`` are the
#: repository's documented extension).
REDUCE_OPS = tuple(_REDUCE)


def active_backend() -> Backend:
    """The backend of the current execution context, resolving
    preferences on first call."""
    return current_context().backend()


def set_backend(
    backend: Union[str, Backend], *, persist: bool = False
) -> Backend:
    """Select the active backend by registry name or instance.

    Operates on the *current* execution context — the process-default
    one unless called inside a :func:`use_backend` scope.  With
    ``persist=True`` the name is also written to
    ``LocalPreferences.toml`` so future processes pick it up, mirroring
    Preferences.jl.  Persisting an ad-hoc instance is rejected because it
    cannot be reconstructed from a name.
    """
    if isinstance(backend, Backend):
        if persist:
            raise BackendError(
                "cannot persist a backend instance; pass its registry name"
            )
        return current_context().set_backend(backend)
    if persist:
        write_preference("backend", backend)
    return current_context().set_backend(backend)


def reset_backend() -> None:
    """Drop the current context's backend so the next use re-resolves
    preferences.  Only the calling context is affected."""
    current_context().reset()


def synchronize() -> None:
    """Synchronization point: synchronize the backend device and wait
    for native compiles in flight (a cold process's first small launches
    may run codegen while ``cc`` runs, see ``repro.ir.nativecache``).

    The constructs are already synchronous; this is kept for symmetry
    with the vendor models, and for a caller that needs the C path warm.
    """
    current_context().backend().synchronize()
    nativecache.wait_compiles()


# ---------------------------------------------------------------------------
# The staged dispatch pipeline
# ---------------------------------------------------------------------------


def _execute(plan: LaunchPlan, ctx: ExecutionContext) -> LaunchPlan:
    """Stage 4: account the dispatch, fire hooks, and hand the plan to
    the backend's narrowed ``execute`` entry point (with the launch
    policy's permanent-failure failover ladder around it)."""
    accounting = plan.backend.accounting
    if plan.construct == "reduce":
        accounting.n_reduce += 1
    else:
        accounting.n_for += 1
    plan.sim_time_before = accounting.sim_time
    ctx.fire_launch(plan)
    plan.backend.account_portable_dispatch(plan.construct, plan.dims)
    plan.result = faults.execute_plan(plan, ctx)
    # Failover may have demoted plan.backend; read the clock that ran.
    plan.sim_time_after = plan.backend.accounting.sim_time
    # Version the arrays this launch stored to, so instantiated graphs
    # that hoisted loads from "const" arrays can detect writers they
    # could not see at instantiation (see repro.ir.writes).
    writes.note_writes(plan.written_ids)
    ctx.fire_complete(plan)
    return plan


def _run(plan: LaunchPlan, ctx: ExecutionContext) -> None:
    """Replay a staged ``plan``: its record's bound call, with the whole
    pre-flight, when the fences are clear, else :func:`_execute`."""
    call = plan.record.call
    if call is not None and ctx.fence() is None:
        accounting = plan.backend.accounting
        plan.sim_time_before = accounting.sim_time
        try:
            plan.result = call(accounting, plan.resolved_args, plan.arena, keyed=False)
            plan.sim_time_after = accounting.sim_time
            return
        except NativeDeclined:
            pass  # side-effect free: the staged path declines and records it
    _execute(plan, ctx)


def _stage(
    ctx: ExecutionContext, plan: LaunchPlan, key: tuple, warm: Optional[tuple]
) -> LaunchPlan:
    """**Compile** a resolved plan (the ladder, against the context's
    kernel cache), then **verify** (mode ``key[5]``) and **schedule** it
    in one :meth:`Backend.stage` look-up; ``warm``, the table's
    ``(kernel, record)`` for ``key``, stands in for all three."""
    resolved = plan.resolved_args
    if warm is not None:
        kernel, record = plan.kernel, plan.record = warm
        plan.schedule = record.schedule
        plan.diagnostics = record.diagnostics
        plan.written_ids = kernel.launches.written_ids(resolved)
        return plan
    cache = resolve_cache(ctx.kernel_cache)
    kernel = plan.kernel = compile_kernel(
        plan.fn, len(plan.dims), resolved, reduce=plan.is_reduce, cache=cache
    )
    record = plan.backend.stage(plan, key[5])
    plan.diagnostics = record.diagnostics
    cache.store_launch(key, kernel, record, resolved)
    return plan


def _dispatch(
    construct: str, dims, f: Callable, args: tuple, op: str, want_plan: bool = False
) -> Any:
    """Run a construct, synchronously; return its result (the reduce
    value, ``None`` for a ``for``) or, ``want_plan``, the executed plan.
    **Resolve** maps the args to raw storage and keys the launch for the
    warm-launch table's one look-up (:meth:`KernelCache.find_launch`).
    A hit whose record holds a bound call is that call when nothing needs
    a plan: no capture, no :func:`launch`, no :meth:`ExecutionContext.fence`.
    Any other launch is staged (:func:`_stage`) and executed."""
    ctx = current_context()
    cap = ctx.graph_capture
    slot_map = None
    if cap is not None:
        # Relaxed stream capture (see repro.graph): the construct still
        # executes eagerly through the full pipeline; its staged plan is
        # recorded afterwards, with ScalarSlot wrappers stripped to
        # their concrete values first (slots are a graph-level concept —
        # the tracer and cache keys only ever see real scalars).
        args, slot_map = cap.strip_slots(args)
        if cap.dry:  # record only (repro.graph.loop's dry iteration)
            dry = cap.record_dry(ctx, construct, dims, f, args, op, slot_map)
            return dry if want_plan else dry.result
    dims = normalize_dims(dims)
    backend = ctx.backend()
    resolved = backend.resolve_args(args)
    key = (
        _fn_key(f) if getattr(f, "__closure__", None) else f,
        dims, construct, op, executor_mode(), active_verify_mode(),
        backend.token, backend.schedule_epoch(),
        *[(a.dtype, a.shape) if isinstance(a, np.ndarray) else type(a) for a in resolved],
    )
    warm = resolve_cache(ctx.kernel_cache).find_launch(key, resolved)
    if warm is not None and cap is None and not want_plan:
        call = warm[1].call
        if call is not None and ctx.fence() is None:
            try:
                return call(backend.accounting, resolved, ctx.arena)
            except NativeDeclined:
                pass  # side-effect free: the staged path declines and records it
    plan = LaunchPlan(
        construct, dims, f, args, op, backend, resolved, ctx.launch_policy, ctx.arena
    )
    _execute(_stage(ctx, plan, key, warm), ctx)
    if cap is not None:
        cap.record(plan, slot_map)
    return plan if want_plan else plan.result


def _validate_op(op: str) -> None:
    if op not in REDUCE_OPS:
        raise InvalidReduceOpError(
            f"unknown reduction op {op!r}; expected one of "
            "{" + ", ".join(map(repr, REDUCE_OPS)) + "}"
        )


# ---------------------------------------------------------------------------
# The paper's constructs (synchronous, unchanged semantics)
# ---------------------------------------------------------------------------


def parallel_for(dims, f: Callable, *args: Any) -> None:
    """Apply the scalar kernel ``f`` at every index of the launch domain.

    Parameters
    ----------
    dims:
        ``N`` (1-D), ``(M, N)`` (2-D) or ``(L, M, N)`` (3-D) — the number
        of iterations per axis, typically the array sizes (paper Fig. 2).
    f:
        The kernel: ``f(i, *args)``, ``f(i, j, *args)`` or
        ``f(i, j, k, *args)``.  Indices are 0-based.
    *args:
        The kernel's parameters — backend arrays (from
        :func:`repro.array`), plain ndarrays (CPU backends), and scalars.

    The call returns only after the computation has completed.
    """
    _dispatch("for", dims, f, args, "add")


def parallel_reduce(dims, f: Callable, *args: Any, op: str = "add") -> float:
    """Reduce the values returned by ``f`` over the launch domain.

    Same shape/kernel conventions as :func:`parallel_for`; ``f`` must
    return a value on every path.  ``op`` selects the fold: ``"add"``
    (default, the paper's only reduction), ``"min"`` or ``"max"`` —
    anything else raises :class:`ValueError` here, at the API boundary.

    Returns the reduced value as a Python float.  (JACC returns a
    one-element device array; we return the host scalar directly and
    charge the device→host copy to the model, which is what the paper's
    DOT timing includes.)
    """
    _validate_op(op)
    return _dispatch("reduce", dims, f, args, op)


# ---------------------------------------------------------------------------
# The reified-launch surface
# ---------------------------------------------------------------------------


def launch(
    dims,
    f: Callable,
    *args: Any,
    reduce: bool = False,
    op: str = "add",
) -> LaunchPlan:
    """Dispatch a construct as an explicit :class:`LaunchPlan`.

    This is :func:`parallel_for` (or, with ``reduce=True``,
    :func:`parallel_reduce`) returning the executed plan instead of
    ``None`` or the value: ``.result`` holds the reduce value, and
    ``.kernel``, ``.record``, ``.diagnostics``, ``.fault_events`` and
    ``.label`` what staging and execution made of the launch.  Same
    synchronous guarantee as the paper's constructs.
    """
    if reduce:
        _validate_op(op)
    return _dispatch("reduce" if reduce else "for", dims, f, args, op, want_plan=True)
