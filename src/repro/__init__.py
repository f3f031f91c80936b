"""PyACC — a Python reproduction of JACC (Valero-Lara et al., SC 2024).

The public surface mirrors the paper's front end:

>>> import repro
>>> import numpy as np
>>> def axpy(i, alpha, x, y):
...     x[i] += alpha * y[i]
>>> def dot(i, x, y):
...     return x[i] * y[i]
>>> x = repro.array(np.ones(1000)); y = repro.array(np.ones(1000))
>>> repro.parallel_for(1000, axpy, 2.5, x, y)
>>> repro.parallel_reduce(1000, dot, x, y)
3500.0

Backend selection follows the paper's Preferences mechanism
(``LocalPreferences.toml`` / ``PYACC_BACKEND``) and defaults to the
threads (Base.Threads-analogue) backend; ``repro.set_backend("cuda-sim")``
switches to a simulated GPU, and ``repro.use_backend(...)`` scopes a
backend to the current thread/task only.  ``repro.launch(dims, f, *args,
sync=False)`` dispatches a reified ``LaunchPlan`` asynchronously;
``repro.synchronize()`` drains the queue.  See README.md and DESIGN.md.
"""

from .core import (
    ExecutionContext,
    LaunchHandle,
    LaunchPlan,
    active_backend,
    array,
    current_context,
    is_backend_array,
    launch,
    ones,
    parallel_for,
    parallel_reduce,
    reset_backend,
    set_backend,
    synchronize,
    to_host,
    use_backend,
    zeros,
)
from .backends import available_backends, register_backend
from .backends.registry import cluster_stats, reset_cluster_stats
from .core.exceptions import (
    CheckpointError,
    DeviceError,
    KernelVerificationError,
    LaunchTimeoutError,
    PermanentDeviceError,
    TransientDeviceError,
    TranslationValidationError,
    WorkerLostError,
)
from .faults import (
    FaultPlan,
    InjectedFault,
    LaunchPolicy,
    global_fault_stats,
    set_fault_plan,
    set_launch_policy,
)
from .checkpoint import SolverCheckpoint
from .graph import (
    GraphCapture,
    GraphError,
    GraphRegion,
    InstantiatedGraph,
    LaunchGraph,
    ScalarSlot,
    graph_mode,
    graph_stats,
    graphs_enabled,
    passes_mode,
    reset_graph_stats,
    set_graph_mode,
    set_passes_mode,
)
from .ir import (
    Diagnostic,
    KernelCache,
    KernelVerificationWarning,
    cache_info,
    clear_cache,
    executor_mode,
    inspect_kernel,
    set_executor_mode,
    set_validate_mode,
    set_verify_mode,
    suppress,
    validate_mode,
    verify_kernel,
    verify_mode,
    verify_reduce_op,
)
from . import math


__version__ = "1.1.0"

__all__ = [
    "__version__",
    "CheckpointError",
    "DeviceError",
    "Diagnostic",
    "ExecutionContext",
    "FaultPlan",
    "GraphCapture",
    "GraphError",
    "GraphRegion",
    "InjectedFault",
    "InstantiatedGraph",
    "LaunchGraph",
    "KernelCache",
    "KernelVerificationError",
    "KernelVerificationWarning",
    "LaunchHandle",
    "LaunchPlan",
    "LaunchPolicy",
    "LaunchTimeoutError",
    "PermanentDeviceError",
    "ScalarSlot",
    "SolverCheckpoint",
    "TransientDeviceError",
    "TranslationValidationError",
    "WorkerLostError",
    "active_backend",
    "array",
    "available_backends",
    "cache_info",
    "clear_cache",
    "cluster_stats",
    "current_context",
    "executor_mode",
    "global_fault_stats",
    "graph_mode",
    "graph_stats",
    "graphs_enabled",
    "inspect_kernel",
    "passes_mode",
    "reset_graph_stats",
    "set_graph_mode",
    "set_executor_mode",
    "set_passes_mode",
    "set_fault_plan",
    "set_launch_policy",
    "set_validate_mode",
    "is_backend_array",
    "launch",
    "math",
    "ones",
    "parallel_for",
    "parallel_reduce",
    "register_backend",
    "reset_backend",
    "reset_cluster_stats",
    "set_backend",
    "set_verify_mode",
    "suppress",
    "synchronize",
    "to_host",
    "use_backend",
    "validate_mode",
    "verify_kernel",
    "verify_mode",
    "verify_reduce_op",
    "zeros",
]
