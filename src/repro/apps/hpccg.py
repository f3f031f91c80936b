"""HPCCG-style 27-point sparse CG benchmark problem.

The paper's CG study "simplifies" HPCCG down to a tridiagonal system; the
benchmark it stands in for builds a 27-point finite-difference operator on
an ``nx × ny × nz`` grid (each node couples to its 3×3×3 neighbourhood:
diagonal 27, off-diagonals −1) and runs unpreconditioned CG on it.  We
implement that original problem too, so the repository covers both the
paper's reduced workload and the benchmark it cites.

Storage is **ELLPACK** (fixed 27 slots per row, padded with zero-value
self-references): unlike CSR, the inner loop bound is a compile-time
constant, so the row loop unrolls into 27 vectorized gathers under the
tracing JIT — the same reason GPU SpMV kernels favour ELL for
quasi-structured matrices.

The right-hand side is chosen so the exact solution is the all-ones
vector (HPCCG's convention), making convergence checks trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import array, parallel_for
from ..lint import lint_probe
from .cg import CGResult, cg_solve_operator

__all__ = [
    "matvec_ell_kernel",
    "matvec_csr_kernel",
    "ELLMatrix",
    "CSRMatrix",
    "ell_to_csr",
    "build_27pt_problem",
    "hpccg_solve",
]

_STENCIL_WIDTH = 27


def _index_dtype(n: int):
    """Column-index width of an ``n``-row ELL operator."""
    return np.int32 if n < 2**31 else np.int64


def _lint_args_ell(n: int = 6, slots: int = 4):
    # The trace is shape-dependent (inner bound = vals.shape[1]) and the
    # column array must index into x, so declare a consistent probe.
    cols = np.zeros((n, slots), dtype=np.int32)
    vals = np.zeros((n, slots))
    return [cols, vals, np.zeros(n), np.zeros(n)]


@lint_probe(dims=6, args=_lint_args_ell)
def matvec_ell_kernel(i, cols, vals, x, y):
    """``y[i] = Σ_k vals[i,k] · x[cols[i,k]]`` — one padded ELL row.

    The inner bound comes from the (trace-time constant) slot count, so
    the loop unrolls; padded slots carry value 0 and a self-reference
    column, contributing nothing.
    """
    s = 0.0
    for k in range(vals.shape[1]):
        s += vals[i, k] * x[cols[i, k]]
    y[i] = s


def matvec_csr_kernel(i, indptr, indices, data, x, y):
    """``y[i] = Σ data[jj] · x[indices[jj]]`` over row ``i``'s CSR slice.

    The inner loop bound is an *array element* (``indptr[i]``), which no
    trace can express — this kernel deliberately exercises the bottom of
    the specialization ladder: the compile driver detects the
    data-dependent bound and runs the kernel through the scalar
    interpreter (correct, slow).  HPCCG's actual storage is CSR; the ELL
    kernel above is the vectorizable equivalent and the one the
    benchmarks use.  Keeping both documents the real performance cliff a
    tracing JIT has, exactly where Julia's LLVM JIT does not.
    """
    s = 0.0
    for jj in range(int(indptr[i]), int(indptr[i + 1])):
        s += data[jj] * x[indices[jj]]
    y[i] = s


@dataclass
class CSRMatrix:
    """A square sparse matrix in compressed-sparse-row layout."""

    indptr: np.ndarray  # (n+1,) int64
    indices: np.ndarray  # (nnz,) int64
    data: np.ndarray  # (nnz,) float64

    def __post_init__(self):
        if self.indptr.ndim != 1 or len(self.indptr) < 2:
            raise ValueError("indptr must be 1-D with at least two entries")
        if len(self.indices) != len(self.data):
            raise ValueError(
                f"indices/data length mismatch: {len(self.indices)} vs {len(self.data)}"
            )
        if int(self.indptr[-1]) != len(self.data):
            raise ValueError("indptr[-1] must equal nnz")

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.data)

    def matvec_host(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n)
        for i in range(self.n):
            lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
            out[i] = float(self.data[lo:hi] @ x[self.indices[lo:hi]])
        return out


def ell_to_csr(a: "ELLMatrix") -> CSRMatrix:
    """Convert padded ELL to CSR, dropping zero-padding slots."""
    keep = a.vals != 0.0
    counts = keep.sum(axis=1)
    indptr = np.zeros(a.n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = a.cols[keep].astype(np.int64)
    data = a.vals[keep]
    return CSRMatrix(indptr=indptr, indices=indices, data=data)


@dataclass
class ELLMatrix:
    """A square sparse matrix in padded ELLPACK layout.

    ``cols[i, k]`` / ``vals[i, k]`` give the k-th stored entry of row
    ``i``; padding slots have ``vals == 0`` and ``cols == i``.  The
    matvec streams ``cols`` once per call, so its width is bandwidth:
    columns are held as int32 while ``n`` fits (every builder then
    shares one compiled matvec), int64 beyond.
    """

    cols: np.ndarray  # (n, width) int32 (int64 from n = 2^31)
    vals: np.ndarray  # (n, width) float64

    def __post_init__(self):
        if self.cols.dtype.kind == "i":
            self.cols = self.cols.astype(_index_dtype(len(self.cols)), copy=False)
        if self.cols.shape != self.vals.shape:
            raise ValueError(
                f"cols/vals shape mismatch: {self.cols.shape} vs {self.vals.shape}"
            )
        if self.cols.ndim != 2:
            raise ValueError("ELL storage must be 2-D (n rows × width slots)")

    @property
    def n(self) -> int:
        return self.cols.shape[0]

    @property
    def width(self) -> int:
        return self.cols.shape[1]

    def matvec_host(self, x: np.ndarray) -> np.ndarray:
        """NumPy oracle for the ELL matvec."""
        return np.einsum("ik,ik->i", self.vals, x[self.cols])

    def to_dense(self) -> np.ndarray:
        """Dense form (small problems / tests only)."""
        a = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), self.width)
        np.add.at(a, (rows, self.cols.reshape(-1)), self.vals.reshape(-1))
        return a


def build_27pt_problem(
    nx: int, ny: int, nz: int
) -> tuple[ELLMatrix, np.ndarray, np.ndarray]:
    """Build HPCCG's 27-point operator and its all-ones-solution RHS.

    Interior nodes couple to all 26 neighbours with −1 and themselves
    with 27; boundary nodes simply have fewer off-diagonal entries
    (HPCCG's generate_matrix does the same).  Returns
    ``(A, b, x_exact)`` with ``x_exact = ones``.
    """
    if min(nx, ny, nz) < 1:
        raise ValueError(f"grid dims must be positive, got {(nx, ny, nz)}")
    n = nx * ny * nz
    cols = np.tile(
        np.arange(n, dtype=_index_dtype(n))[:, None], (1, _STENCIL_WIDTH)
    )
    vals = np.zeros((n, _STENCIL_WIDTH), dtype=np.float64)

    idx = np.arange(n)
    iz, iy, ix = np.unravel_index(idx, (nz, ny, nx))
    slot = 0
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                jz, jy, jx = iz + dz, iy + dy, ix + dx
                ok = (
                    (0 <= jz) & (jz < nz)
                    & (0 <= jy) & (jy < ny)
                    & (0 <= jx) & (jx < nx)
                )
                j = (jz * ny + jy) * nx + jx
                value = 27.0 if (dz == 0 and dy == 0 and dx == 0) else -1.0
                cols[ok, slot] = j[ok]
                vals[ok, slot] = value
                slot += 1

    a = ELLMatrix(cols=cols, vals=vals)
    x_exact = np.ones(n)
    b = a.matvec_host(x_exact)
    return a, b, x_exact


def hpccg_solve(
    a: ELLMatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    checkpoint=None,
) -> CGResult:
    """Unpreconditioned CG on an ELL operator via the portable constructs.

    ``checkpoint`` (a :class:`repro.checkpoint.SolverCheckpoint`) enables
    periodic snapshot/restart of the CG state — see
    :func:`repro.apps.cg.cg_solve_operator`.  The operator data
    (``cols``/``vals``) is read-only during the solve, so only the
    recurrence vectors are snapshotted.
    """
    dcols = array(a.cols)
    dvals = array(a.vals)
    n = a.n

    def apply_matvec(dp, ds):
        parallel_for(n, matvec_ell_kernel, dcols, dvals, dp, ds)

    return cg_solve_operator(
        apply_matvec, b, tol=tol, max_iter=max_iter, checkpoint=checkpoint
    )
