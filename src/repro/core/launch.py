"""Launch-configuration math, transcribed from the paper's Figures 5-7.

JACC computes GPU launch shapes the same way on every vendor backend:

* 1-D: ``threads = min(N, max_block_dim_x)``, ``blocks = cld(N, threads)``
  (paper Fig. 6, CUDA; Fig. 7, oneAPI uses ``maxTotalGroupSize``).
* 2-D: a fixed 16x16 tile — ``numThreads = 16`` per axis, ``Mthreads =
  min(M, 16)`` etc. (Figs. 6-7).
* 3-D (JACC.jl upstream): an 8x8x8 tile by the same construction.

The CPU backend uses *coarse* decomposition instead: the leading axis is
split into one contiguous chunk per worker thread.  In Julia, arrays are
column-major so Base.Threads splits the trailing (column) axis; NumPy is
row-major, so we split the leading axis — same "contiguous chunks per
thread" property, mirrored layout (documented deviation).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..ir.vectorizer import IndexDomain
from .exceptions import LaunchConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .plan import LaunchPlan

__all__ = [
    "LaunchConfig",
    "LaunchSchedule",
    "gpu_launch_config",
    "cpu_chunks",
    "cpu_schedule",
    "weighted_chunks",
    "chunk_domains",
    "DEFAULT_TILE_2D",
    "DEFAULT_TILE_3D",
]

#: Per-axis 2-D block edge used by every JACC GPU backend (paper Fig. 6).
DEFAULT_TILE_2D = 16
#: Per-axis 3-D block edge (JACC.jl upstream).
DEFAULT_TILE_3D = 8


def usable_cpus() -> int:
    """CPUs this process may actually run on: the affinity mask / cpuset
    where the platform exposes one (a container limited to 2 of 64 cores
    should start 2 workers, not 64), else the machine's CPU count."""
    if hasattr(os, "process_cpu_count"):  # Python >= 3.13
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@dataclass(frozen=True)
class LaunchConfig:
    """A GPU launch shape: threads-per-block and blocks, per axis."""

    threads: tuple[int, ...]
    blocks: tuple[int, ...]

    @property
    def ndim(self) -> int:
        return len(self.threads)

    @property
    def threads_per_block(self) -> int:
        return math.prod(self.threads)

    @property
    def n_blocks(self) -> int:
        return math.prod(self.blocks)

    @property
    def total_threads(self) -> int:
        return self.threads_per_block * self.n_blocks


@dataclass(frozen=True)
class LaunchSchedule:
    """The recorded launch-shape decision for one plan.

    Produced by :meth:`repro.core.backend.Backend.schedule` during the
    schedule stage and consumed by ``execute``:

    * ``domains`` — the :class:`IndexDomain` chunks the kernel runs over
      (one full-domain entry for serial/GPU backends; one chunk per
      worker/device for the threads, cluster and multi-device backends);
    * ``inline`` — run in the calling thread instead of a worker pool
      (the CPU backends' small-domain / interpreter-fallback path);
    * ``launch_config`` — the GPU thread/block shape derived from the
      paper's Figs. 6-7 formulas, when the backend owns a device.
    """

    domains: tuple[IndexDomain, ...]
    inline: bool = True
    launch_config: Optional[LaunchConfig] = None

    @property
    def n_chunks(self) -> int:
        return len(self.domains)


def _cld(a: int, b: int) -> int:
    """Ceiling division — Julia's ``cld`` used throughout the paper."""
    return -(-a // b)


def gpu_launch_config(
    dims: Sequence[int],
    max_block_dim_x: int,
    *,
    tile_2d: int = DEFAULT_TILE_2D,
    tile_3d: int = DEFAULT_TILE_3D,
) -> LaunchConfig:
    """Compute the JACC launch shape for a 1-D/2-D/3-D domain.

    ``max_block_dim_x`` is the device's maximum block size along x
    (``CUDA.DEVICE_ATTRIBUTE_MAX_BLOCK_DIM_X`` / oneAPI
    ``maxTotalGroupSize`` in the paper's pseudocode).
    """
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise LaunchConfigError(f"launch dims must be positive, got {dims}")
    if max_block_dim_x <= 0:
        raise LaunchConfigError(
            f"max_block_dim_x must be positive, got {max_block_dim_x}"
        )
    if len(dims) == 1:
        (n,) = dims
        threads = min(n, max_block_dim_x)
        return LaunchConfig(threads=(threads,), blocks=(_cld(n, threads),))
    if len(dims) == 2:
        m, n = dims
        mt = min(m, tile_2d)
        nt = min(n, tile_2d)
        return LaunchConfig(
            threads=(mt, nt), blocks=(_cld(m, mt), _cld(n, nt))
        )
    if len(dims) == 3:
        l, m, n = dims
        lt = min(l, tile_3d)
        mt = min(m, tile_3d)
        nt = min(n, tile_3d)
        return LaunchConfig(
            threads=(lt, mt, nt),
            blocks=(_cld(l, lt), _cld(m, mt), _cld(n, nt)),
        )
    raise LaunchConfigError(
        f"launch domain must be 1-D..3-D, got {len(dims)} dims"
    )


def cpu_chunks(dims: Sequence[int], n_workers: int) -> list[tuple[int, int]]:
    """Split the leading axis into ≤ ``n_workers`` contiguous chunks.

    Returns half-open ``(lo, hi)`` ranges covering ``0..dims[0]``.  The
    chunking is balanced (sizes differ by at most one), mirroring
    ``Threads.@threads``' static schedule.
    """
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise LaunchConfigError(f"launch dims must be positive, got {dims}")
    if n_workers <= 0:
        raise LaunchConfigError(f"n_workers must be positive, got {n_workers}")
    n = dims[0]
    k = min(n_workers, n)
    base, extra = divmod(n, k)
    chunks = []
    lo = 0
    for w in range(k):
        hi = lo + base + (1 if w < extra else 0)
        chunks.append((lo, hi))
        lo = hi
    return chunks


def cpu_schedule(
    plan: "LaunchPlan", width: int, min_parallel_size: int
) -> LaunchSchedule:
    """The CPU backends' one decomposition rule (threads and cluster).

    Inline (calling thread, full domain) when ``width`` workers cannot
    help: one worker, a domain below ``min_parallel_size`` lanes, or an
    interpreter-tier kernel (no trace to run per chunk, and closures
    over Python state do not cross processes).  Otherwise one
    contiguous chunk of the leading axis per worker
    (``Threads.@threads``' static schedule, :func:`cpu_chunks`).
    """
    dims = plan.dims
    if (
        width <= 1
        or plan.lanes < min_parallel_size
        or plan.kernel is None
        or plan.kernel.trace is None
    ):
        return LaunchSchedule(domains=(IndexDomain.full(dims),), inline=True)
    return LaunchSchedule(
        domains=tuple(chunk_domains(dims, cpu_chunks(dims, width))),
        inline=False,
    )


def weighted_chunks(
    dims: Sequence[int], weights: Sequence[float]
) -> list[tuple[int, int]]:
    """Split the leading axis proportionally to ``weights``.

    The heterogeneous-node decomposition (paper §VII): each device
    receives a share of the iteration space proportional to its
    throughput, so all devices finish together under the bandwidth-bound
    model.  Returns one half-open ``(lo, hi)`` range per weight, in
    order, covering ``0..dims[0]``; a weight may receive an empty range
    when the axis is shorter than the device count.
    """
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise LaunchConfigError(f"launch dims must be positive, got {dims}")
    weights = [float(w) for w in weights]
    if not weights:
        raise LaunchConfigError("weighted_chunks needs at least one weight")
    if any(w <= 0 for w in weights):
        raise LaunchConfigError(f"weights must be positive, got {weights}")
    n = dims[0]
    total = sum(weights)
    # Largest-remainder apportionment: exact cover, minimal rounding skew.
    raw = [n * w / total for w in weights]
    sizes = [int(r) for r in raw]
    remainder = n - sum(sizes)
    order = sorted(
        range(len(weights)), key=lambda k: raw[k] - sizes[k], reverse=True
    )
    for k in order[:remainder]:
        sizes[k] += 1
    chunks = []
    lo = 0
    for s in sizes:
        chunks.append((lo, lo + s))
        lo += s
    return chunks


def chunk_domains(
    dims: Sequence[int], chunks: Sequence[tuple[int, int]], lo: int = 0
) -> list[IndexDomain]:
    """One :class:`IndexDomain` per leading-axis ``(lo, hi)`` chunk.

    Each chunk (offset by ``lo`` — a rebalance splits a remainder of the
    axis) keeps the whole extent of the trailing axes, so a worker owns
    contiguous memory.  Domains come from the shared
    :meth:`IndexDomain.of` table: no per-launch construction.
    """
    tail = [(0, int(d)) for d in dims[1:]]
    return [
        IndexDomain.of([(lo + c_lo, lo + c_hi)] + tail) for c_lo, c_hi in chunks
    ]
