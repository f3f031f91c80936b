"""Reference scalar executor for kernels.

Runs the *original Python kernel function* in a plain loop over the index
domain — no tracing, no vectorization.  It defines the semantics every
other executor must match and serves two roles:

1. **Fallback**: kernels the tracer cannot express (data-dependent loop
   bounds even after value specialization, too many control-flow paths,
   unsupported Python constructs) still run correctly, just slowly — the
   same way Julia falls back to unspecialized dynamic dispatch.
2. **Differential oracle**: property-based tests execute random kernels
   through both the interpreter and the vectorizer and require bit-for-bit
   equal results (see ``tests/test_differential.py``).  A reduce folds
   like every rung: each tile's lane values land in a float64 buffer,
   folded by the shared lane fold, and the tiles' partials are folded in
   domain order by :func:`~repro.ir.vectorizer.fold_partials` — so equal
   lane values give equal bits.

The interpreter is also what the ``serial`` backend uses, giving a
dependency-light reference backend.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

import numpy as np

from ..core.exceptions import KernelExecutionError
from .vectorizer import IndexDomain, _check_reduce, _fold_lanes, fold_partials

__all__ = ["interpret_for", "interpret_reduce"]


def _index_iter(domain: IndexDomain):
    """Iterate index tuples of ``domain`` in row-major order."""
    return itertools.product(*(range(lo, hi) for lo, hi in domain.ranges))


def interpret_for(
    fn: Callable, domain: IndexDomain, args: Sequence[Any]
) -> None:
    """Apply ``fn(*idx, *args)`` at every index of ``domain``."""
    for idx in _index_iter(domain):
        fn(*idx, *args)


def interpret_values(
    fn: Callable, domain: IndexDomain, args: Sequence[Any]
) -> np.ndarray:
    """The values of ``fn(*idx, *args)`` over ``domain``, as a float64
    array of its shape (no fold applied)."""
    values = np.empty(domain.size, dtype=np.float64)
    for flat, idx in enumerate(_index_iter(domain)):
        v = fn(*idx, *args)
        if v is None:
            raise KernelExecutionError(
                "parallel_reduce kernel returned None at index "
                f"{idx}; reduction kernels must return a value"
            )
        values[flat] = float(v)
    return values.reshape(domain.shape)


def interpret_reduce(
    fn: Callable,
    domain: IndexDomain,
    args: Sequence[Any],
    op: str = "add",
) -> float:
    """Reduce ``fn(*idx, *args)`` over ``domain`` with ``op``, tile by
    tile, as :meth:`repro.ir.compile.CompiledKernel.run_reduce` does."""
    identity = _check_reduce(True, op)[1]
    if domain.size == 0:
        return identity
    return fold_partials(
        op,
        [
            _fold_lanes(interpret_values(fn, tile, args), tile.shape, op)
            for tile in domain.tiles
        ],
    )
