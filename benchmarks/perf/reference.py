"""Hand-written NumPy/SciPy references for every benchmarked operation.

Nothing here imports ``repro``: these are the architecture-native
baselines (the denominator of ``overhead_vs_ref``) and the oracles the
result checks compare against, so they must not come from the system
under test.  Each mirrors the *algorithm* the portable app runs (same
stopping rule, same boundary handling), written the way a NumPy user
would write it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# D2Q9 lattice (rest, 4 axis-aligned, 4 diagonal), the standard ordering.
_W = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4)
_CX = np.array([0, 1, 0, -1, 0, 1, -1, -1, 1])
_CY = np.array([0, 0, 1, 0, -1, 1, 1, -1, -1])


def rel_err(got, want) -> float:
    """Max abs difference scaled by the reference's largest magnitude."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return float("inf")
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / (scale or 1.0)


# -- BLAS-1 -------------------------------------------------------------------


def axpy_dot(alpha: float, x: np.ndarray, y: np.ndarray, tmp: np.ndarray) -> float:
    """``x += alpha*y`` in place, then ``x·y`` — allocation-free."""
    np.multiply(y, alpha, out=tmp)
    np.add(x, tmp, out=x)
    return float(np.dot(x.reshape(-1), y.reshape(-1)))


# -- CG -----------------------------------------------------------------------


def stencil27(nx: int) -> sp.csr_matrix:
    """HPCCG's 27-point operator on an ``nx^3`` grid (27 on the diagonal,
    -1 to every neighbour in the 3x3x3 box), assembled as a Kronecker
    product: ones on a tridiagonal band per axis give the 27 ones of the
    box, and the operator is 28*I minus that."""
    band = sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(nx, nx))
    box = sp.kron(sp.kron(band, band), band)
    return (28.0 * sp.identity(nx**3) - box).tocsr()


def tridiag_csr(lower, diag, upper) -> sp.csr_matrix:
    return sp.diags([lower[1:], diag, upper[:-1]], [-1, 0, 1], format="csr")


def cg(a, b: np.ndarray, tol: float, max_iter: int | None = None):
    """Unpreconditioned CG from ``x0 = 0``; stops at ``‖r‖ ≤ tol·‖b‖``.

    Returns ``(x, iterations)``; the iteration that meets the tolerance
    counts, exactly as in ``repro.apps.cg.cg_solve_operator``.
    """
    n = len(b)
    max_iter = 10 * n if max_iter is None else max_iter
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    threshold = tol * float(np.sqrt(b @ b))
    it = 0
    if np.sqrt(rr) <= threshold:
        return x, it
    while it < max_iter:
        s = a @ p
        alpha = rr / float(p @ s)
        x += alpha * p
        r -= alpha * s
        rr_new = float(r @ r)
        it += 1
        if np.sqrt(rr_new) <= threshold:
            break
        p *= rr_new / rr
        p += r
        rr = rr_new
    return x, it


# -- LBM D2Q9 -------------------------------------------------------------------


def _equilibrium(rho, ux, uy):
    usq = ux * ux + uy * uy
    cu = _CX[:, None, None] * ux + _CY[:, None, None] * uy
    return _W[:, None, None] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq)


class LbmRef:
    """Roll-based D2Q9 pull step on an ``n×n`` lid-driven cavity.

    Same physics as ``repro.apps.lbm.LBM``: boundary sites keep their
    initial equilibrium (row 0 carries the lid velocity along +y),
    interior sites pull, take moments, and BGK-collide.
    """

    def __init__(self, n: int, tau: float, lid_velocity: float, rho0: float = 1.0):
        self.n, self.tau = n, tau
        rho = np.full((n, n), rho0)
        ux = np.zeros((n, n))
        uy = np.zeros((n, n))
        uy[0, :] = lid_velocity
        self.f = _equilibrium(rho, ux, uy)
        self._pulled = np.empty_like(self.f)
        self.steps = 0

    def step(self) -> None:
        f, g = self.f, self._pulled
        for k in range(9):
            g[k] = np.roll(f[k], (_CX[k], _CY[k]), axis=(0, 1))
        gi = g[:, 1:-1, 1:-1]
        rho = gi.sum(axis=0)
        ux = np.tensordot(_CX, gi, axes=1) / rho
        uy = np.tensordot(_CY, gi, axes=1) / rho
        omega = 1.0 / self.tau
        f[:, 1:-1, 1:-1] = gi * (1.0 - omega) + _equilibrium(rho, ux, uy) * omega
        self.steps += 1


# -- Heat3D / STREAM (cold-start sweep only) -----------------------------------------


def heat3d_step(u: np.ndarray, coef: float) -> np.ndarray:
    out = u.copy()
    c = u[1:-1, 1:-1, 1:-1]
    out[1:-1, 1:-1, 1:-1] = c + coef * (
        u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]
        - 6.0 * c
    )
    return out


def stream(a: np.ndarray, b: np.ndarray, c: np.ndarray, scalar: float):
    """COPY, SCALE, ADD, TRIAD in STREAM order; returns final ``(a, b, c)``."""
    c = a.copy()
    b = scalar * c
    c = a + b
    a = b + scalar * c
    return a, b, c


def triad_copy_gbps(n: int = 1 << 24, repeats: int = 10) -> tuple[float, float]:
    """This host's sustainable bandwidth: NumPy TRIAD and COPY at ``n``
    doubles, median of ``repeats``, in GB/s of *computed* bytes (3 and 2
    arrays × 8 B × n; write-allocate traffic is not counted)."""
    a = np.full(n, 1.0)
    b = np.full(n, 2.0)
    c = np.full(n, 0.5)
    triad, copy = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        t1 = time.perf_counter()
        np.copyto(c, b)
        t2 = time.perf_counter()
        # TRIAD as two ufuncs touches a twice more than fused C would;
        # count what NumPy actually computes: 2 + 3 array passes.
        triad.append(5 * 8 * n / (t1 - t0))
        copy.append(2 * 8 * n / (t2 - t1))
    return float(np.median(triad)) / 1e9, float(np.median(copy)) / 1e9
