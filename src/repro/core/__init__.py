"""Core of the portable programming model: API, array, backends contract,
execution contexts, launch plans, preferences and launch-configuration
math."""

from .api import (
    active_backend,
    launch,
    parallel_for,
    parallel_reduce,
    reset_backend,
    set_backend,
    synchronize,
    use_backend,
)
from .array import array, is_backend_array, ones, to_host, zeros
from .backend import Accounting, Backend, normalize_dims
from .context import ExecutionContext, current_context
from .launch import LaunchConfig, cpu_chunks, gpu_launch_config
from .plan import LaunchPlan, LaunchSchedule

__all__ = [
    "Accounting",
    "Backend",
    "ExecutionContext",
    "LaunchConfig",
    "LaunchPlan",
    "LaunchSchedule",
    "active_backend",
    "array",
    "cpu_chunks",
    "current_context",
    "gpu_launch_config",
    "is_backend_array",
    "launch",
    "normalize_dims",
    "ones",
    "parallel_for",
    "parallel_reduce",
    "reset_backend",
    "set_backend",
    "synchronize",
    "to_host",
    "use_backend",
    "zeros",
]
