"""Multi-device extension — the paper's §VII future work.

The paper closes with "heterogeneous multi-device nodes" as future work;
JACC.jl later grew a ``JACC.multi`` module.  This backend models that
direction on the simulator: the launch domain's leading axis is split
into one contiguous chunk per simulated device, each device's clock is
charged for its chunk, and the construct completes at
``max(device times) + coordination latency`` — the textbook strong-scaling
model with explicit launch/fork overheads.

Functional semantics: chunks execute against shared host storage (the
simulated analogue of unified/managed memory), so every kernel that is
correct on a single device — including ones with cross-chunk *reads*,
e.g. stencils — is correct here without halo exchange.  ``array`` charges
each device an H2D transfer of its shard, which is what a sharded
multi-GPU allocation pays.

Reductions fold per-device partials on the host after a per-device scalar
readback, matching how a real multi-GPU reduction finishes.

Each device's chunk runs through ``kernel.run_for``/``run_reduce`` with
per-chunk bounds, so the executor ladder — including the native C rung,
which receives the chunk's ``[lo, hi)`` ranges as its ``bounds`` array —
applies unchanged per simulated device.

**Heterogeneous nodes** (the §VII phrase is "heterogeneous multi-device
nodes"): when the devices differ, equal chunks would leave the fast
device idle, so the domain is split proportionally to each device's
achieved streaming bandwidth (largest-remainder apportionment, see
:func:`repro.core.launch.weighted_chunks`).  Under the bandwidth-bound
model this makes all devices finish together, which is the optimal
static schedule.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from .. import faults as _faults
from ..core.backend import Backend
from ..core.exceptions import PermanentDeviceError
from ..core.launch import chunk_domains, cpu_chunks, weighted_chunks
from ..core.plan import LaunchPlan, LaunchSchedule
from ..ir.vectorizer import IndexDomain, fold_partials
from .gpusim.device import Device

__all__ = ["MultiDeviceBackend"]

#: Per-construct host-side coordination cost (one dispatch across devices).
_COORDINATION_LATENCY = 10e-6


class MultiDeviceBackend(Backend):
    """Portable backend spreading constructs over several simulated GPUs."""

    device_kind = "gpu"

    def __init__(self, devices: Sequence[Device], name: str = "multi-sim"):
        super().__init__()
        if not devices:
            raise ValueError("MultiDeviceBackend needs at least one device")
        self.devices = list(devices)
        self.name = name
        #: Names of devices that failed permanently; they are excluded
        #: from every subsequent schedule (sticky across launches, like a
        #: GPU that fell off the bus stays off the bus).
        self._failed: set = set()

    @classmethod
    def with_devices(
        cls, profile_name: str, count: int, name: str = "multi-sim"
    ) -> "MultiDeviceBackend":
        if count <= 0:
            raise ValueError(f"device count must be positive, got {count}")
        return cls(
            [Device(profile_name, name=f"{profile_name}[{k}]") for k in range(count)],
            name=name,
        )

    @classmethod
    def heterogeneous(
        cls, profile_names: Sequence[str], name: str = "hetero-sim"
    ) -> "MultiDeviceBackend":
        """A mixed node, e.g. ``["a100", "mi100"]`` (paper §VII)."""
        if not profile_names:
            raise ValueError("heterogeneous node needs at least one device")
        return cls(
            [
                Device(p, name=f"{p}[{k}]")
                for k, p in enumerate(profile_names)
            ],
            name=name,
        )

    @property
    def is_heterogeneous(self) -> bool:
        return len({d.profile.name for d in self.devices}) > 1

    def alive_devices(self) -> list[Device]:
        """The devices still in the dispatch set (permanent failures are
        excluded, stickily)."""
        return [d for d in self.devices if d.name not in self._failed]

    @property
    def failed_devices(self) -> tuple[str, ...]:
        return tuple(sorted(self._failed))

    def _weights(self, devices: Sequence[Device]) -> list[float]:
        """Per-device throughput weights: achieved streaming bandwidth."""
        return [d.profile.eff_bw["stream"] for d in devices]

    # -- memory ----------------------------------------------------------
    def array(self, data: Any) -> np.ndarray:
        host = np.array(data, copy=True)
        # Each (surviving) device pays the H2D transfer of its shard.
        devices = self.alive_devices() or self.devices
        chunks = cpu_chunks(host.shape or (1,), len(devices))
        lead = host.shape[0] if host.ndim else 1
        row_bytes = host.nbytes / max(1, lead)
        for dev, (lo, hi) in zip(devices, chunks):
            dev.accounting.n_h2d += 1
            nbytes = int((hi - lo) * row_bytes)
            dev.accounting.bytes_h2d += nbytes
            dev.clock.advance(
                dev.model.transfer_cost(nbytes), kind="h2d", label="shard"
            )
        return host

    # -- compute -----------------------------------------------------------
    def _split(
        self, dims: tuple[int, ...], devices: Sequence[Device], lo: int = 0
    ) -> list[IndexDomain]:
        """Split rows ``[lo, dims[0])`` into one chunk per device.

        Bandwidth-weighted on a heterogeneous set, balanced otherwise;
        padded with empty ranges so chunks align with ``devices``.
        """
        span = (dims[0] - lo,) + tuple(dims[1:])
        hetero = len({d.profile.name for d in devices}) > 1
        if hetero:
            chunks = weighted_chunks(span, self._weights(devices))
        else:
            chunks = cpu_chunks(span, len(devices))
        while len(chunks) < len(devices):
            end = chunks[-1][1] if chunks else 0
            chunks.append((end, end))
        return chunk_domains(dims, chunks, lo=lo)

    def schedule_epoch(self) -> int:
        """Bumps whenever a device drops from the dispatch set, so
        recorded schedules (captured launch graphs) detect that their
        per-device split no longer matches the surviving devices."""
        return len(self._failed)

    def schedule(self, plan: LaunchPlan) -> LaunchSchedule:
        """Record the per-device split over the *surviving* devices:
        bandwidth-weighted chunks on a heterogeneous node, balanced
        chunks otherwise."""
        devices = self.alive_devices()
        if not devices:
            # Every device is gone; record a full-domain schedule so the
            # dispatch-level failover ladder can re-plan on a fallback.
            return LaunchSchedule(domains=(plan.full_domain(),), inline=True)
        return LaunchSchedule(
            domains=tuple(self._split(plan.dims, devices)), inline=True
        )

    def execute(self, plan: LaunchPlan) -> Optional[float]:
        devices = self.alive_devices()
        if not devices:
            raise PermanentDeviceError(
                f"all devices of backend {self.name!r} have failed "
                f"({', '.join(sorted(self._failed))})",
                operation="multidevice.chunk",
            )
        stats = plan.kernel.stats
        fplan = _faults.active_plan()
        launches_per_chunk = 2 if plan.is_reduce else 1
        label = "multi_reduce" if plan.is_reduce else "multi_chunk"
        # The work list pairs each surviving device with its scheduled
        # chunk (contiguous, ascending on the leading axis).  A permanent
        # chunk failure rebalances the unprocessed rows over the
        # survivors and the loop continues — mid-plan failover.
        work = list(zip(devices, plan.schedule.domains))
        elapsed: dict = {}  # device name -> summed chunk cost this launch
        partials = []
        idx = 0
        while idx < len(work):
            dev, dom = work[idx]
            try:
                partial = _faults.guarded(
                    fplan, "multidevice.chunk", plan, plan.run, dom,
                    device_id=dev.name, probe=dom.size > 0,
                )
            except PermanentDeviceError as exc:
                self._failed.add(dev.name)
                survivors = [
                    d for d in devices if d.name not in self._failed
                ]
                # Unprocessed work = this chunk onward (chunks ascend).
                lo = dom.ranges[0][0]
                _faults.record_failover(
                    "multidevice.chunk", plan, dev.name,
                    f"device {dev.name!r} lost; rows [{lo}, {plan.dims[0]}) "
                    f"rebalanced over {len(survivors)} survivor(s)",
                )
                if not survivors:
                    raise PermanentDeviceError(
                        f"all devices of backend {self.name!r} have failed "
                        f"({', '.join(sorted(self._failed))})",
                        device_id=exc.device_id,
                        operation="multidevice.chunk",
                    ) from exc
                new_domains = self._split(plan.dims, survivors, lo=lo)
                work = work[:idx] + list(zip(survivors, new_domains))
                continue  # re-enter at idx with the rebalanced work list
            # Charge the device only after its chunk succeeded, so the
            # modeled clock matches the fault-free run under retries.
            if plan.is_reduce:
                partials.append(partial)
                cost = dev.model.reduce_cost(stats, dom.size, plan.ndim).total
            else:
                cost = dev.model.for_cost(stats, dom.size, plan.ndim).total
            dev.clock.advance(cost, kind="kernel", label=label)
            dev.accounting.n_kernel_launches += launches_per_chunk
            elapsed[dev.name] = elapsed.get(dev.name, 0.0) + cost
            self.accounting.n_kernel_launches += launches_per_chunk
            idx += 1
        # The construct completes when the slowest device finishes its
        # chunks, plus one host-side coordination latency.
        self.accounting.sim_time += (
            max(elapsed.values()) if elapsed else 0.0
        ) + _COORDINATION_LATENCY
        if not plan.is_reduce:
            return None
        return fold_partials(plan.op, partials)
