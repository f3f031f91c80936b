"""The unified array constructor — ``JACC.Array`` in the paper.

``repro.array(x)`` materializes ``x`` on whatever backend is active:

* CPU backends (serial, threads): a host ndarray — the paper notes that
  "when using Base.Threads as the back end, using JACC.Array is not
  necessary", and indeed plain NumPy arrays are accepted everywhere.
* Simulated GPU backends: a :class:`~repro.backends.gpusim.memory.DeviceArray`
  living in the device's (simulated) memory space; the H2D transfer is
  charged to the device clock.

``to_host`` is the inverse.  Both are thin dispatchers; the behaviour
lives in each backend's memory component.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from . import api

__all__ = ["array", "zeros", "ones", "to_host", "is_backend_array"]


def array(data: Any, dtype=None) -> Any:
    """Materialize ``data`` on the active backend (``JACC.Array``).

    ``data`` is anything :func:`numpy.asarray` accepts.  The result is
    the backend's native array handle and is what kernels should receive.
    """
    host = np.asarray(data, dtype=dtype)
    return api.active_backend().array(host)


def zeros(shape, dtype=np.float64) -> Any:
    """``JACC.zeros``: a zero-filled backend array."""
    return api.active_backend().array(np.zeros(shape, dtype=dtype))


def ones(shape, dtype=np.float64) -> Any:
    """``JACC.ones``: a one-filled backend array."""
    return api.active_backend().array(np.ones(shape, dtype=dtype))


def to_host(arr: Any) -> np.ndarray:
    """Copy a backend array back to host memory (device→host transfer on
    GPU backends, cheap pass-through on CPU backends)."""
    return api.active_backend().to_host(arr)


def is_backend_array(obj: Any) -> bool:
    """True for device-array handles produced by :func:`array` on
    non-CPU backends."""
    return hasattr(obj, "__pyacc_array__")
