"""Error taxonomy for the PyACC runtime.

The hierarchy mirrors the places a kernel can fail on its way from Python
source to execution:

* :class:`PyACCError` — root of everything raised by this package.
* :class:`BackendError` — backend registry / selection problems.
* :class:`TraceError` — the tracing JIT could not build an IR for a kernel.
  Its subclasses signal *recoverable* conditions that the compile driver
  uses to fall down the specialization ladder (symbolic trace →
  value-specialized trace → interpreter):

  - :class:`ConcretizationRequired` — a scalar argument was used in a way
    that needs a concrete Python value (e.g. as a loop bound or via
    ``__index__``/``__int__``).  Retraced with scalars baked in as
    constants.
  - :class:`TraceFallback` — the kernel is outside what the vectorizer can
    express (e.g. too many control-flow paths); executed by the scalar
    interpreter instead.

* :class:`KernelExecutionError` — the kernel IR was built but executing it
  failed (e.g. an out-of-bounds store on a taken path).
"""

from __future__ import annotations


class PyACCError(Exception):
    """Base class for all errors raised by the repro/PyACC package."""


class BackendError(PyACCError):
    """A backend could not be found, loaded, or used."""


class UnknownBackendError(BackendError):
    """The requested backend name is not registered."""

    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown backend {name!r}; available backends: {', '.join(available)}"
        )


class PreferencesError(PyACCError, ValueError):
    """The preferences file is malformed or unwritable, or a mode knob
    was given a value outside its valid set."""


class TraceError(PyACCError):
    """The tracing JIT failed to build an IR for a kernel."""


class ConcretizationRequired(TraceError):
    """A symbolic scalar needs a concrete value to continue tracing.

    Raised when kernel code calls ``int()``, ``__index__``, ``float()``,
    ``len()`` or iterates over a symbolic scalar.  The compile driver
    catches this and retraces with scalar arguments bound to their
    concrete runtime values (specializing the trace on them).
    """

    def __init__(self, what: str = "a symbolic scalar"):
        self.what = what
        super().__init__(
            f"tracing requires a concrete value for {what}; "
            "the kernel will be re-specialized on concrete scalar arguments"
        )


class TraceFallback(TraceError):
    """The kernel cannot be vectorized; fall back to the interpreter."""


class TooManyPathsError(TraceFallback):
    """Branch forking exceeded the configured path budget."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(
            f"kernel control flow produced more than {limit} distinct paths"
        )


class KernelVerificationError(PyACCError):
    """The kernel verifier found contract violations under ``error`` mode.

    Carries the full diagnostics tuple (see
    :class:`repro.ir.diagnostics.Diagnostic`) so callers can inspect the
    individual rule findings programmatically.
    """

    def __init__(self, kernel: str, diagnostics=()):
        self.kernel = kernel
        self.diagnostics = tuple(diagnostics)
        n_errors = sum(
            1 for d in self.diagnostics if getattr(d, "severity", "") == "error"
        )
        lines = [
            f"kernel {kernel!r} failed verification "
            f"({n_errors} error(s), {len(self.diagnostics)} finding(s) total)"
        ]
        lines.extend(f"  {d}" for d in self.diagnostics)
        super().__init__("\n".join(lines))


class TranslationValidationError(PyACCError):
    """The translation validator rejected an applied program rewrite.

    Raised under ``validate=error`` when a fusion rewrite the graph
    pass applied cannot be independently re-derived from
    the memory-effects summaries, or when a program-level analysis
    finds an error-severity hazard (V603).  Carries the structured
    diagnostics (see :class:`repro.ir.diagnostics.Diagnostic`).
    """

    def __init__(self, program: str, diagnostics=()):
        self.program = program
        self.diagnostics = tuple(diagnostics)
        lines = [
            f"program {program!r} failed translation validation "
            f"({len(self.diagnostics)} finding(s))"
        ]
        lines.extend(f"  {d}" for d in self.diagnostics)
        super().__init__("\n".join(lines))


class KernelExecutionError(PyACCError):
    """Executing a compiled kernel failed."""


class InvalidReduceOpError(KernelExecutionError, ValueError):
    """An unknown reduction op reached the API boundary.

    Subclasses :class:`ValueError` (the natural contract for a bad
    argument value) *and* :class:`KernelExecutionError` (what the
    backends historically raised for the same mistake), so both
    ``except`` styles keep working.
    """


class LaunchConfigError(PyACCError):
    """An invalid launch configuration (dims, block shape) was requested."""


class DeviceError(PyACCError):
    """A simulated-device operation failed (bad handle, wrong device...).

    Carries structured fields so runtime policy (retry, failover) and
    observability can act on *what* failed instead of parsing messages:

    - ``device_id`` — the device the operation ran on (``None`` when the
      failure is not device-specific);
    - ``operation`` — the seam that failed (``"to_device"``,
      ``"launch"``, ``"multidevice.chunk"``, ...);
    - ``transient`` — whether retrying the same operation can succeed
      (the retry policy only ever retries transient failures).
    """

    def __init__(
        self,
        message: str = "",
        *,
        device_id=None,
        operation=None,
        transient: bool = False,
    ):
        self.device_id = device_id
        self.operation = operation
        self.transient = transient
        if not message:
            where = operation or "device operation"
            dev = f" on device {device_id!r}" if device_id else ""
            message = f"{where} failed{dev}"
        super().__init__(message)


class TransientDeviceError(DeviceError):
    """A device failure that may succeed on retry (ECC blip, transfer
    timeout, allocator pressure).  The launch policy retries these with
    capped exponential backoff."""

    def __init__(self, message: str = "", *, device_id=None, operation=None):
        super().__init__(
            message, device_id=device_id, operation=operation, transient=True
        )


class PermanentDeviceError(DeviceError):
    """A device failure that will not go away (device fell off the bus).

    The launch policy responds by *failover*: the failed device is
    removed from the dispatch set and the plan re-executes on the next
    rung of the ladder (surviving devices → single device → threads →
    serial)."""

    def __init__(self, message: str = "", *, device_id=None, operation=None):
        super().__init__(
            message, device_id=device_id, operation=operation, transient=False
        )


class WorkerLostError(PermanentDeviceError):
    """A cluster worker process died or stopped responding.

    Losing a process is the cluster backend's permanent-failure shape:
    the supervisor removes the worker from the dispatch set, attempts a
    budgeted respawn, and rebalances the unprocessed shard rows over the
    survivors — the same failover motion
    :class:`~repro.backends.multidevice.MultiDeviceBackend` performs for
    a lost device.  Subclasses :class:`PermanentDeviceError` so the
    dispatch ladder and retry policy classify it without new plumbing.
    """


class CheckpointError(PyACCError):
    """Checkpoint/restore misuse (restore with no snapshot, budget
    exhausted)."""


class GraphError(PyACCError):
    """Launch-graph misuse: nested captures, replaying an invalidated
    instantiation, or binding unknown scalar slots (see
    :mod:`repro.graph`)."""


class MemoryError_(DeviceError):
    """A simulated device ran out of its configured memory capacity."""
