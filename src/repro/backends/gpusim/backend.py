"""JACC backend adapter over a simulated GPU device.

This is the portable compute/memory component for GPUs (paper Fig. 1's
per-backend implementations).  It reproduces what JACC.jl's CUDA/AMDGPU/
oneAPI extensions do:

* ``array`` → vendor device array (H2D copy, charged),
* ``parallel_for`` → derive the launch configuration from the paper's
  formulas and launch the compiled kernel,
* ``parallel_reduce`` → the two-kernel block-partial scheme plus a scalar
  readback,
* every construct synchronizes (``CUDA.@sync`` in Fig. 6).

Kernel bodies execute on whatever executor rung they compiled to —
native kernels fill the per-block value buffers with their compiled C
loop (see :meth:`Device.map_block_partials`), codegen/vector kernels
through the NumPy paths.

On top of the native device costs it charges the calibrated *portable
dispatch overhead* (:mod:`repro.perfmodel.overheads`) — the measurable
difference between JACC code and hand-written device code in the paper's
figures.  Native code built directly on :class:`Device` does not pay it.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ... import faults as _faults
from ...core.backend import Backend
from ...core.plan import LaunchPlan, LaunchSchedule
from ...perfmodel import get_overhead
from .device import DEFAULT_REDUCE_BLOCK, Device
from .memory import DeviceArray

__all__ = ["GpuSimBackend"]


class GpuSimBackend(Backend):
    """Portable backend running on one simulated GPU."""

    device_kind = "gpu"

    def __init__(self, device: Device, name: Optional[str] = None):
        super().__init__()
        self.device = device
        if name is not None:
            self.name = name
        self._overhead = get_overhead(self.name)

    # -- memory -----------------------------------------------------------
    def array(self, data: Any) -> DeviceArray:
        # to_device probes before any allocation/charge, so a retried
        # transfer never double-counts.
        out = _faults.guarded(
            _faults.active_plan(), "gpusim.to_device", None,
            self.device.to_device, np.asarray(data),
            device_id=self.device.name, probe=False,
        )
        self._sync_counters()
        return out

    def to_host(self, arr: Any) -> np.ndarray:
        if isinstance(arr, DeviceArray):
            out = self.device.to_host(arr)
            self._sync_counters()
            return out
        return np.asarray(arr)

    def unwrap(self, arr: Any) -> np.ndarray:
        if isinstance(arr, DeviceArray):
            return arr.storage(self.device)
        return np.asarray(arr)

    def synchronize(self) -> None:
        self.device.synchronize()

    # -- compute ------------------------------------------------------------
    def schedule(self, plan: LaunchPlan) -> LaunchSchedule:
        """Derive (and validate) the paper's launch shape for the plan.

        The thread/block configuration from the Figs. 6-7 formulas is
        recorded on the plan; execution consumes it instead of re-deriving.
        """
        config = self.device.launch_config(plan.dims)
        return LaunchSchedule(
            domains=(plan.full_domain(),), inline=True, launch_config=config
        )

    def execute(self, plan: LaunchPlan) -> Optional[float]:
        kernel = plan.kernel
        (domain,) = plan.schedule.domains
        lanes = plan.lanes
        dev = self.device
        # The probe fires before the kernel runs and before any clock
        # charge: a retried launch is side-effect clean and the
        # accounting matches the fault-free run exactly.
        result = _faults.guarded(
            _faults.active_plan(), "gpusim.launch", plan, plan.run, domain,
            device_id=dev.name,
        )
        if not plan.is_reduce:
            dev._charge_kernel(
                kernel, lanes, plan.ndim, getattr(kernel.fn, "__name__", "kernel")
            )
            self.accounting.n_kernel_launches += 1
            self._sync_counters()
            return None
        cost = dev.model.reduce_cost(kernel.stats, lanes, plan.ndim)
        mult = self._overhead.reduce_bw_mult
        # The Intel ≈35% DOT overhead is a bandwidth-efficiency loss of the
        # portable reduction kernel, so it scales the bandwidth term.
        adjusted = (
            cost.latency
            + max(cost.bandwidth / mult, cost.compute)
            + cost.transfer
        )
        dev.accounting.n_kernel_launches += 2
        dev.clock.advance(adjusted, kind="kernel", label="jacc_reduce")
        # JACC's reduction allocates the partials buffer and the
        # one-element result, exactly like the native two-kernel code.
        n_partials = max(1, -(-lanes // DEFAULT_REDUCE_BLOCK))
        dev._charge_alloc(8 * n_partials, "jacc_partials")
        dev._charge_alloc(8, "jacc_reduce_result")
        self.accounting.n_kernel_launches += 2
        self._sync_counters()
        return result

    # -- portable-dispatch overhead -----------------------------------------
    def account_portable_dispatch(
        self, construct: str, dims: tuple[int, ...]
    ) -> None:
        oh = self._overhead
        dev = self.device
        if construct == "for":
            dev.clock.advance(oh.for_latency, kind="dispatch", label="jacc_for")
            if len(dims) >= 2 and oh.for_allocs_2d:
                # Paper §V-A.2: extra allocations of the metaprogramming
                # layer, visible for 2-D AXPY on the A100.
                for _ in range(oh.for_allocs_2d):
                    dev._charge_alloc(64, "jacc_dispatch_alloc")
        else:
            dev.clock.advance(oh.reduce_latency, kind="dispatch", label="jacc_reduce")
        self._sync_counters()

    def _sync_counters(self) -> None:
        """Mirror the device's modeled time into this backend's accounting
        so callers can treat CPU and GPU backends uniformly."""
        self.accounting.sim_time = self.device.clock.now
        self.accounting.alloc_count = self.device.accounting.alloc_count
        self.accounting.n_h2d = self.device.accounting.n_h2d
        self.accounting.n_d2h = self.device.accounting.n_d2h
