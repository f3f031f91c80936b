"""Serial reference backends.

Two registry entries share this module:

* ``serial`` — single-threaded execution of the compiled kernel
  (whatever rung it landed on: native C loop, codegen program, or the
  vectorized IR walk).  The semantics oracle for the threads backend
  (same executor, no chunking, no pool) and a convenient default for
  small problems.
* ``interp`` — pure scalar interpretation of the original kernel
  function.  The slowest and most literal executor; differential tests
  run it against every other backend.

Neither owns a device boundary: ``array`` copies (value semantics match
the GPU backends, where ``JACC.array`` always materializes a new buffer)
and the inherited ``to_host`` returns the same storage.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .. import faults as _faults
from ..core.backend import Backend
from ..core.plan import LaunchPlan
from ..ir.interpreter import interpret_for, interpret_reduce

__all__ = ["SerialBackend", "InterpreterBackend"]


class SerialBackend(Backend):
    """Single-threaded vectorized execution (no worker pool)."""

    name = "serial"
    device_kind = "cpu"

    def array(self, data: Any) -> np.ndarray:
        return np.array(data, copy=True)

    def execute(self, plan: LaunchPlan) -> Optional[float]:
        self.accounting.n_kernel_launches += 1
        (domain,) = plan.schedule.domains
        # No site of its own: the serial rung only retries transients
        # injected below it (arena-frame allocation faults fire before
        # any kernel store).
        return _faults.guarded(
            _faults.active_plan(), "arena.frame", plan, plan.run, domain,
            probe=False,
        )


class InterpreterBackend(SerialBackend):
    """Scalar interpretation of the original kernel (reference oracle)."""

    name = "interp"

    def execute(self, plan: LaunchPlan) -> Optional[float]:
        self.accounting.n_kernel_launches += 1
        (domain,) = plan.schedule.domains
        if plan.is_reduce:
            return interpret_reduce(plan.fn, domain, plan.resolved_args, plan.op)
        interpret_for(plan.fn, domain, plan.resolved_args)
        return None
