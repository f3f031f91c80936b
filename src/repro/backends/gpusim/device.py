"""The simulated GPU runtime.

A :class:`Device` bundles a hardware profile (→ analytic cost model), a
simulated clock, a memory space and the kernel-execution machinery.  It
exposes the *native* programming surface the paper's device-specific
codes use — explicit arrays, explicit launches with a grid/block shape,
explicit two-kernel reductions, explicit synchronize — while the portable
backend adapter (:mod:`repro.backends.gpusim.backend`) builds JACC's
constructs on top of it.

Execution is functionally exact (kernels run through the shared tracing
JIT over the full index domain); *time* is simulated (clock charges from
:class:`~repro.perfmodel.model.PerfModel`).  Launches are eager — there is
no asynchronous queue to drain — so ``synchronize`` only exists to keep
the native code shape identical to the vendor APIs (``CUDA.@sync`` etc.).
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

from ... import faults as _faults
from ...core.backend import Accounting
from ...core.exceptions import DeviceError, LaunchConfigError
from ...core.launch import LaunchConfig, gpu_launch_config
from ...ir.compile import CompiledKernel, compile_kernel
from ...ir.vectorizer import IndexDomain, evaluate_values
from ...perfmodel import PerfModel, get_profile
from .clock import SimClock
from .memory import DeviceArray, MemorySpace

__all__ = ["Device", "DEFAULT_REDUCE_BLOCK"]

#: Threads per block in the paper's hand-written reduction kernels (Fig. 3).
DEFAULT_REDUCE_BLOCK = 512


class Device:
    """One simulated accelerator."""

    def __init__(
        self,
        profile_name: str,
        *,
        name: Optional[str] = None,
        capacity_bytes: Optional[int] = None,
        record_events: bool = False,
    ):
        self.profile = get_profile(profile_name)
        if not self.profile.is_gpu:
            raise DeviceError(
                f"profile {profile_name!r} is a CPU profile; Device simulates GPUs",
                device_id=name,
                operation="init",
            )
        self.name = name or self.profile.name
        self.model = PerfModel(self.profile)
        self.clock = SimClock(record_events=record_events)
        self.memory = MemorySpace(capacity_bytes)
        self.accounting = Accounting()

    # ------------------------------------------------------------------
    # memory component
    # ------------------------------------------------------------------
    def _charge_alloc(self, nbytes: int, label: str) -> None:
        self.memory.allocate(nbytes)
        self.accounting.alloc_count += 1
        self.accounting.alloc_bytes += nbytes
        self.clock.advance(self.model.alloc_cost(1), kind="alloc", label=label)

    def _release(self, nbytes: int) -> None:
        self.memory.release(nbytes)

    def to_device(self, host: np.ndarray) -> DeviceArray:
        """Allocate + H2D copy (``CuArray(x)`` and friends)."""
        # Native operations probe at entry — before any allocation, copy
        # or clock charge — so an injected fault leaves the device state
        # untouched and the operation can be retried verbatim.
        _faults.probe("gpusim.to_device", device_id=self.name)
        host = np.asarray(host)
        data = np.array(host, copy=True)
        self._charge_alloc(data.nbytes, "to_device")
        self.accounting.n_h2d += 1
        self.accounting.bytes_h2d += data.nbytes
        self.clock.advance(
            self.model.transfer_cost(data.nbytes), kind="h2d", label="to_device"
        )
        return DeviceArray(self, data)

    def managed(self, host: np.ndarray) -> "ManagedArray":
        """Allocate a unified/managed array (paper §VII exploration).

        The data is immediately usable from host and device; migrations
        are charged lazily on residency changes (see
        :class:`~repro.backends.gpusim.memory.ManagedArray`).
        """
        from .memory import ManagedArray

        data = np.array(np.asarray(host), copy=True)
        self._charge_alloc(data.nbytes, "managed")
        return ManagedArray(self, data)

    def _charge_migration(self, nbytes: int, direction: str) -> None:
        """Unified-memory page migration (transfer-priced)."""
        if direction == "h2d":
            self.accounting.n_h2d += 1
            self.accounting.bytes_h2d += nbytes
        else:
            self.accounting.n_d2h += 1
            self.accounting.bytes_d2h += nbytes
        self.clock.advance(
            self.model.transfer_cost(nbytes), kind=direction, label="migration"
        )

    def to_host(self, arr: DeviceArray) -> np.ndarray:
        """D2H copy of a whole device array."""
        data = arr.storage(self)
        self.accounting.n_d2h += 1
        self.accounting.bytes_d2h += data.nbytes
        self.clock.advance(
            self.model.transfer_cost(data.nbytes), kind="d2h", label="to_host"
        )
        return np.array(data, copy=True)

    def zeros(self, shape, dtype=np.float64) -> DeviceArray:
        """Device-side zero-filled allocation (``CUDA.zeros``)."""
        data = np.zeros(shape, dtype=dtype)
        self._charge_alloc(data.nbytes, "zeros")
        # The memset is a stream-class write of the buffer.
        self.clock.advance(
            data.nbytes / self.profile.eff_bw["stream"], kind="kernel", label="memset"
        )
        return DeviceArray(self, data)

    def empty_like(self, arr: DeviceArray) -> DeviceArray:
        data = np.empty_like(arr.storage(self))
        self._charge_alloc(data.nbytes, "empty_like")
        return DeviceArray(self, data)

    def copy(self, arr: DeviceArray) -> DeviceArray:
        """Device-to-device copy (``copy(::CuArray)`` in the CG code)."""
        src = arr.storage(self)
        data = np.array(src, copy=True)
        self._charge_alloc(data.nbytes, "copy")
        # Read + write the buffer at stream bandwidth.
        self.clock.advance(
            2 * data.nbytes / self.profile.eff_bw["stream"],
            kind="kernel",
            label="d2d_copy",
        )
        return DeviceArray(self, data)

    def copyto(self, dst: DeviceArray, src: DeviceArray) -> None:
        """In-place device-to-device copy into an existing buffer."""
        d = dst.storage(self)
        s = src.storage(self)
        if d.shape != s.shape:
            raise DeviceError(
                f"copyto shape mismatch: {d.shape} vs {s.shape}",
                device_id=self.name,
                operation="copyto",
            )
        np.copyto(d, s)
        self.clock.advance(
            2 * d.nbytes / self.profile.eff_bw["stream"],
            kind="kernel",
            label="d2d_copyto",
        )

    # ------------------------------------------------------------------
    # compute component
    # ------------------------------------------------------------------
    def resolve_args(self, args: Sequence[Any]) -> list[Any]:
        out = []
        for a in args:
            if isinstance(a, DeviceArray):
                out.append(a.storage(self))
            elif isinstance(a, np.ndarray):
                raise DeviceError(
                    "host ndarray passed to a device kernel; wrap it with "
                    "to_device()/JACC array first",
                    device_id=self.name,
                    operation="resolve_args",
                )
            else:
                out.append(a)
        return out

    def launch_config(self, dims: tuple[int, ...]) -> LaunchConfig:
        return gpu_launch_config(dims, self.profile.max_block_dim_x)

    def _charge_kernel(
        self, kernel: CompiledKernel, lanes: int, ndim: int, label: str
    ) -> None:
        self.accounting.n_kernel_launches += 1
        self.clock.advance(
            self.model.for_cost(kernel.stats, lanes, ndim).total,
            kind="kernel",
            label=label,
        )

    def launch(
        self,
        fn,
        dims,
        *args: Any,
        config: Optional[LaunchConfig] = None,
    ) -> None:
        """Native kernel launch: ``fn(i..., *args)`` over ``dims``.

        ``config`` overrides the derived grid/block shape; it must cover
        the domain (a too-small grid is the classic off-by-one launch bug
        and is rejected, where real hardware would silently skip lanes).
        """
        _faults.probe("gpusim.device_launch", device_id=self.name)
        if isinstance(dims, (int, np.integer)):
            dims = (int(dims),)
        dims = tuple(int(d) for d in dims)
        cfg = config or self.launch_config(dims)
        covered = tuple(t * b for t, b in zip(cfg.threads, cfg.blocks))
        if len(covered) != len(dims) or any(c < d for c, d in zip(covered, dims)):
            raise LaunchConfigError(
                f"launch config {cfg} covers {covered}, smaller than domain {dims}"
            )
        kargs = self.resolve_args(args)
        kernel = compile_kernel(fn, len(dims), kargs, reduce=False)
        kernel.run_for(IndexDomain.full(dims), kargs)
        self._charge_kernel(
            kernel, math.prod(dims), len(dims), getattr(fn, "__name__", "kernel")
        )

    # -- the Fig. 3 two-kernel reduction, as native primitives -------------
    def map_block_partials(
        self,
        fn,
        dims,
        *args: Any,
        block: int = DEFAULT_REDUCE_BLOCK,
        op: str = "add",
    ) -> DeviceArray:
        """First reduction kernel: one partial per block of ``block`` lanes.

        Functionally equivalent to the paper's shared-memory tree kernel:
        lane values are computed by ``fn`` and folded within each block;
        the result is a device array of ``cld(lanes, block)`` partials.
        """
        if isinstance(dims, (int, np.integer)):
            dims = (int(dims),)
        dims = tuple(int(d) for d in dims)
        kargs = self.resolve_args(args)
        kernel = compile_kernel(fn, len(dims), kargs, reduce=True)
        lanes = math.prod(dims)
        n_blocks = max(1, -(-lanes // block))
        if kernel.native is not None:
            # Native rung: the compiled C loop fills the per-lane value
            # buffer directly (bit-identical to the vectorizer's values;
            # the per-block fold below is shared).  A run-time decline
            # falls through to the IR walk.
            from ...ir.cgen import NativeDeclined

            try:
                values = kernel.native.evaluate_values(
                    IndexDomain.full(dims), kargs
                ).reshape(-1)
            except NativeDeclined as exc:
                from ...ir.nativecache import record_decline

                record_decline(exc.reason)
                values = evaluate_values(
                    kernel.trace, IndexDomain.full(dims), kargs
                ).reshape(-1)
        elif kernel.trace is not None:
            values = evaluate_values(
                kernel.trace, IndexDomain.full(dims), kargs
            ).reshape(-1)
        else:  # interpreter fallback: materialize lane values scalar-ly
            values = np.empty(lanes, dtype=np.float64)
            flat = 0
            import itertools

            for idx in itertools.product(*(range(d) for d in dims)):
                values[flat] = kernel.fn(*idx, *kargs)
                flat += 1
        boundaries = np.arange(0, lanes, block)
        if op == "add":
            partials = np.add.reduceat(values, boundaries)
        elif op == "min":
            partials = np.minimum.reduceat(values, boundaries)
        elif op == "max":
            partials = np.maximum.reduceat(values, boundaries)
        else:
            raise DeviceError(
                f"unsupported reduction op {op!r}",
                device_id=self.name,
                operation="map_block_partials",
            )
        self._charge_kernel(
            kernel, lanes, len(dims), getattr(fn, "__name__", "reduce") + "_partials"
        )
        out = np.zeros(n_blocks, dtype=np.float64)
        out[: len(partials)] = partials
        self._charge_alloc(out.nbytes, "partials")
        return DeviceArray(self, out)

    def fold_partials(self, partials: DeviceArray, op: str = "add") -> DeviceArray:
        """Second reduction kernel: fold the partials to one element."""
        _faults.probe("gpusim.fold", device_id=self.name)
        data = partials.storage(self)
        if op == "add":
            value = float(np.sum(data))
        elif op == "min":
            value = float(np.min(data))
        elif op == "max":
            value = float(np.max(data))
        else:
            raise DeviceError(
                f"unsupported reduction op {op!r}",
                device_id=self.name,
                operation="fold_partials",
            )
        self.accounting.n_kernel_launches += 1
        self.clock.advance(
            self.profile.launch_latency
            + data.nbytes / self.profile.eff_bw["reduce"],
            kind="kernel",
            label="reduce_fold",
        )
        out = np.array([value], dtype=np.float64)
        self._charge_alloc(out.nbytes, "reduce_result")
        return DeviceArray(self, out)

    def scalar_to_host(self, one: DeviceArray) -> float:
        """Read back a one-element result (the DOT timing includes this)."""
        data = one.storage(self)
        if data.size != 1:
            raise DeviceError(
                f"scalar_to_host expects a 1-element array, got shape {data.shape}",
                device_id=self.name,
                operation="scalar_to_host",
            )
        self.accounting.n_d2h += 1
        self.accounting.bytes_d2h += data.nbytes
        self.clock.advance(
            self.model.transfer_cost(data.nbytes), kind="d2h", label="scalar"
        )
        return float(data.reshape(-1)[0])

    def synchronize(self) -> None:
        """No-op: launches are eager; kept for native-code shape parity."""

    def reset_clock(self) -> None:
        self.clock.reset()
        self.accounting.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Device {self.name} ({self.profile.display_name}) "
            f"t={self.clock.now:.3e}s allocs={self.accounting.alloc_count}>"
        )
