"""Backend registry with lazy loading — the weak-dependency analogue.

JACC keeps its vendor back ends as Julia *weak dependencies*: they are
only loaded when the Preferences file selects them, so installing JACC
never drags in CUDA.jl and friends.  We reproduce the mechanism with a
name → factory registry whose factories import the backend module only
when called; importing :mod:`repro` never imports the threads pool or the
GPU simulator.

Built-in names
--------------
========== =====================================================
``threads``    Base.Threads analogue (the default)
``serial``     single-threaded vectorized reference
``interp``     pure scalar interpreter (semantics oracle)
``cuda-sim``   portable backend on the simulated NVIDIA A100
``rocm-sim``   portable backend on the simulated AMD MI100
``oneapi-sim`` portable backend on the simulated Intel Max 1550
``multi-sim``  future-work extension: 2 simulated A100s (paper §VII)
``hetero-sim`` future-work extension: mixed A100 + MI100 node with
               bandwidth-weighted work partitioning (paper §VII)
``cluster``    sharded multi-process backend: worker processes over
               shared-memory segments (nothing is exchanged), worker
               supervision and elastic recovery
========== =====================================================

Third-party backends register with :func:`register_backend`.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..core.backend import Backend
from ..core.exceptions import BackendError, UnknownBackendError
from ..obs import Counters, register

__all__ = [
    "available_backends",
    "cluster_stats",
    "create_backend",
    "register_backend",
    "reset_cluster_stats",
    "resolve_backend",
    "unregister_backend",
]

_FACTORIES: Dict[str, Callable[[], Backend]] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    if not name or not isinstance(name, str):
        raise BackendError(f"backend name must be a non-empty string, got {name!r}")
    _FACTORIES[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (built-ins may be re-registered by
    re-importing this module's factories)."""
    _FACTORIES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_FACTORIES))


def create_backend(name: str) -> Backend:
    """Instantiate a backend by name (loads its module on first use)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownBackendError(name, available_backends()) from None
    backend = factory()
    if not isinstance(backend, Backend):
        raise BackendError(
            f"factory for {name!r} returned {type(backend).__name__}, "
            "expected a Backend"
        )
    return backend


def resolve_backend(backend) -> Backend:
    """Accept a registry name or a ready :class:`Backend` instance.

    The single normalization point used by the execution-context layer
    (``set_backend`` / ``use_backend``): instances pass through, names go
    through the lazy factory registry.
    """
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str):
        return create_backend(backend)
    raise BackendError(
        f"expected a backend name or Backend instance, got {type(backend).__name__}"
    )


# -- built-in factories (lazy imports inside each) ---------------------------


def _make_threads() -> Backend:
    from .threads import ThreadsBackend

    return ThreadsBackend()


def _make_serial() -> Backend:
    from .serial import SerialBackend

    return SerialBackend()


def _make_interp() -> Backend:
    from .serial import InterpreterBackend

    return InterpreterBackend()


def _make_gpusim(profile_name: str, backend_name: str) -> Callable[[], Backend]:
    def factory() -> Backend:
        from .gpusim import Device, GpuSimBackend

        return GpuSimBackend(Device(profile_name), name=backend_name)

    return factory


def _make_multi() -> Backend:
    from .multidevice import MultiDeviceBackend

    return MultiDeviceBackend.with_devices("a100", 2, name="multi-sim")


def _make_hetero() -> Backend:
    from .multidevice import MultiDeviceBackend

    return MultiDeviceBackend.heterogeneous(["a100", "mi100"], name="hetero-sim")


def _make_cluster() -> Backend:
    from .cluster import ClusterBackend

    return ClusterBackend()


register_backend("threads", _make_threads)
register_backend("serial", _make_serial)
register_backend("interp", _make_interp)
register_backend("cuda-sim", _make_gpusim("a100", "cuda-sim"))
register_backend("rocm-sim", _make_gpusim("mi100", "rocm-sim"))
register_backend("oneapi-sim", _make_gpusim("max1550", "oneapi-sim"))
register_backend("multi-sim", _make_multi)
register_backend("hetero-sim", _make_hetero)
register_backend("cluster", _make_cluster)


# ---------------------------------------------------------------------------
# Cluster-backend counters (cache_info()["cluster"], bench --json)
# ---------------------------------------------------------------------------

#: Declared here, beside the backend's lazy factory, so the block reads
#: (all zeros) without loading :mod:`repro.backends.cluster`; that module
#: does all the bumping.  ``halo_exchanges`` and ``halo_bytes`` are never
#: bumped — shards share memory, nothing is exchanged — and stay as
#: constant zeros because the frozen benchmark
#: (benchmarks/perf/probes.counters → per-layer metrics
#: ``backends.cluster.halo_{bytes,exchanges}_per_op``) indexes them by name.
CLUSTER_COUNTERS = Counters(
    "cluster",
    (
        "spawns",
        "respawns",
        "kills",
        "worker_losses",
        "shards",
        "inline_launches",
        "unshippable",
        "halo_exchanges",
        "halo_bytes",
        "staged_in_bytes",
        "staged_out_bytes",
        "reduce_folds",
        "rebalances",
        "degradations",
        "shm_segments",
        "shm_bytes",
    ),
)
register(CLUSTER_COUNTERS)


def cluster_stats() -> dict:
    """Process-wide cluster-backend activity (shards, staged bytes,
    respawns, rebalances, degradations, ...)."""
    return CLUSTER_COUNTERS.snapshot()


def reset_cluster_stats() -> None:
    """Zero the counters (tests / bench isolation)."""
    CLUSTER_COUNTERS.reset()
