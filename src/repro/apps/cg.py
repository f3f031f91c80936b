"""Conjugate gradient from portable constructs (paper §V-C, Fig. 12).

The paper times one iteration of an unpreconditioned CG on a
diagonally-dominant tridiagonal system of 100M unknowns — the kernel mix
of MiniFE / the HPCCG benchmark: a sparse matvec, five DOT reductions,
three AXPY-class updates and three vector copies per iteration, each its
own ``parallel_for`` / ``parallel_reduce``.

Two entry points:

* :func:`cg_solve` — a *correct* CG (the paper's Fig. 12 listing has two
  transcription bugs: the convergence test reads ``while cond <= 1e-12``
  and the interior matvec row drops ``a3``/uses ``+ x[i]`` twice; both
  are obvious typos against Shewchuk's algorithm the paper cites).  Used
  by the examples and convergence tests.
* :func:`cg_iteration_paper` — one iteration with **exactly** the paper's
  construct sequence (counts and order of parallel_for / parallel_reduce
  / copies), which is what Fig. 13 times.  Numerical state is carried the
  same way the listing carries it.

All kernels are module-level, defined in advance, per the JACC model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import array, parallel_for, parallel_reduce, to_host
from ..core.exceptions import DeviceError
from ..graph import GraphLoop, GraphRegion
from .blas import axpy_kernel_1d, dot_kernel_1d

__all__ = [
    "matvec_tridiag_kernel",
    "copy_kernel",
    "xpby_kernel",
    "tridiagonal_system",
    "tridiag_matvec_host",
    "CGResult",
    "cg_solve",
    "cg_solve_operator",
    "pcg_solve_operator",
    "jacobi_apply_kernel",
    "cg_iteration_paper",
]


def matvec_tridiag_kernel(i, lower, diag, upper, x, y, n):
    """``y = A x`` for a tridiagonal ``A`` (paper Fig. 12's matvecmul,
    0-based and with the boundary rows as the algorithm intends)."""
    if i == 0:
        y[i] = diag[i] * x[i] + upper[i] * x[i + 1]
    elif i == n - 1:
        y[i] = lower[i] * x[i - 1] + diag[i] * x[i]
    else:
        y[i] = lower[i] * x[i - 1] + diag[i] * x[i] + upper[i] * x[i + 1]


def copy_kernel(i, src, dst):
    """``dst[i] = src[i]`` — the device-side ``copy(r)`` of Fig. 12."""
    dst[i] = src[i]


def xpby_kernel(i, beta, x, y):
    """``y[i] = x[i] + beta * y[i]`` — the CG direction update."""
    y[i] = x[i] + beta * y[i]


def jacobi_apply_kernel(i, inv_diag, r, z):
    """``z[i] = r[i] / diag[i]`` — the Jacobi (diagonal) preconditioner.

    The paper implements "the plain CG algorithm without a
    precondition(er)" to simplify the study; this kernel supplies the
    preconditioning step it deferred, enabling PCG
    (:func:`pcg_solve_operator`)."""
    z[i] = r[i] * inv_diag[i]


def tridiagonal_system(
    n: int,
    diag_value: float = 4.0,
    off_value: float = 1.0,
    rhs_value: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The paper's diagonally-dominant tridiagonal test system.

    Returns ``(lower, diag, upper, b)`` host arrays; ``lower[0]`` and
    ``upper[n-1]`` are unused by the matvec (kept for uniform length).
    """
    if n < 2:
        raise ValueError(f"system size must be >= 2, got {n}")
    if abs(diag_value) < 2 * abs(off_value):
        raise ValueError(
            "matrix must be diagonally dominant (|diag| >= 2|off|) for the "
            f"unpreconditioned CG study, got diag={diag_value}, off={off_value}"
        )
    lower = np.full(n, off_value, dtype=np.float64)
    diag = np.full(n, diag_value, dtype=np.float64)
    upper = np.full(n, off_value, dtype=np.float64)
    b = np.full(n, rhs_value, dtype=np.float64)
    return lower, diag, upper, b


def tridiag_matvec_host(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Host oracle for the tridiagonal matvec."""
    y = diag * x
    y[:-1] += upper[:-1] * x[1:]
    y[1:] += lower[1:] * x[:-1]
    return y


@dataclass
class CGResult:
    """Outcome of :func:`cg_solve`."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("inf")


def cg_solve_operator(
    apply_matvec,
    b: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
    checkpoint=None,
) -> CGResult:
    """CG on an abstract SPD operator, built from the portable constructs.

    ``apply_matvec(dp, ds)`` must compute ``s = A p`` on the active
    backend (``dp``/``ds`` are backend arrays) using portable constructs —
    this is how the HPCCG 27-point and MiniFE FE operators plug in while
    the vector algebra stays shared.  Convergence: ``‖r‖₂ ≤ tol·‖b‖₂``.
    It may be called more than once per solve — with launch graphs on,
    the first iteration is also recorded without running (docs/API.md
    "The loop unit") — so its only effects may be its constructs: no
    host-side counters, logging, or host reads of ``dp``/``ds``.

    ``checkpoint`` (a :class:`repro.checkpoint.SolverCheckpoint`) enables
    periodic snapshots of the CG recurrence state; if a device fault
    escapes the launch policy's retry/failover mid-iteration, the solver
    rolls back to the last snapshot and resumes instead of losing the
    whole run.  CG's recurrence is self-contained in ``(x, r, p, rr)``,
    so a restored solve converges to the same answer.
    """
    n = len(b)
    max_iter = max_iter if max_iter is not None else 10 * n

    dx = array(x0 if x0 is not None else np.zeros(n))
    ds = array(np.zeros(n))
    # r = b - A x0
    apply_matvec(dx, ds)
    db = array(b)
    dr = array(np.zeros(n))
    parallel_for(n, copy_kernel, db, dr)
    parallel_for(n, axpy_kernel_1d, -1.0, dr, ds)
    dp = array(np.zeros(n))
    parallel_for(n, copy_kernel, dr, dp)

    b_norm = np.sqrt(parallel_reduce(n, dot_kernel_1d, db, db))
    if b_norm == 0.0:
        return CGResult(x=to_host(dx), iterations=0, converged=True, residual_norms=[0.0])
    threshold = tol * b_norm

    rr = parallel_reduce(n, dot_kernel_1d, dr, dr)
    norms = [float(np.sqrt(rr))]
    if norms[0] <= threshold:
        return CGResult(x=to_host(dx), iterations=0, converged=True, residual_norms=norms)

    # Launch-graph regions for the three launch runs of the iteration
    # body (host scalar recurrences — alpha, beta, the convergence test —
    # split the body into segments; see docs/API.md "Launch graphs &
    # fusion").  First iteration captures, the rest replay; a checkpoint
    # restore rebinds the device arrays, landing on a fresh region key
    # and recapturing.  The loop unit records the first iteration dry
    # and, where its fences allow, runs every iteration in one native
    # call when an earlier solve of the same shapes stored the program,
    # or the ones after the first otherwise — so ``iteration`` may run
    # twice and has no effect but its constructs.  PYACC_GRAPH=off turns
    # all of it into plain calls.
    region_matvec_dot = GraphRegion("cg.matvec_dot")
    region_update = GraphRegion("cg.update")
    region_direction = GraphRegion("cg.direction")
    loop = GraphLoop()

    def _matvec_dot():
        apply_matvec(dp, ds)  # s = A p
        return parallel_reduce(n, dot_kernel_1d, dp, ds)

    def _update(alpha, neg_alpha):
        # The r-update must precede the r·r dot, but the x-update is
        # independent of both.  Issuing it *after* the dot exercises the
        # graph pipeline's global (non-adjacent) fusion: the x-axpy hops
        # back over the reduce to merge with the r-axpy.
        parallel_for(n, axpy_kernel_1d, neg_alpha, dr, ds)
        rr_new = parallel_reduce(n, dot_kernel_1d, dr, dr)
        parallel_for(n, axpy_kernel_1d, alpha, dx, dp)
        return rr_new

    def _direction(beta):
        parallel_for(n, xpby_kernel, beta, dr, dp)  # p = r + beta p

    def iteration(rr):
        """One CG iteration from ``rr = r·r``: ``(r·r, ‖r‖, converged)``."""
        ps = loop.run(region_matvec_dot, (id(dp), id(ds)), _matvec_dot)
        alpha = rr / ps
        # x += alpha p ; r -= alpha s ; rr_new = r.r
        rr_new = loop.run(
            region_update,
            (id(dx), id(dp), id(dr), id(ds)),
            _update,
            alpha=alpha,
            neg_alpha=-alpha,
        )
        norm = np.sqrt(rr_new)
        done = norm <= threshold
        if not done:
            beta = rr_new / rr
            loop.run(region_direction, (id(dr), id(dp)), _direction, beta=beta)
        return rr_new, norm, done

    converged = False
    it = 0
    i = 1
    while i <= max_iter:
        try:
            for rr, norm, done in loop.steps(
                iteration, rr, max_iter - i + 1, checkpoint=checkpoint
            ):
                it = i
                norms.append(float(norm))
                if done:
                    converged = True
                    break
                if checkpoint is not None and checkpoint.due(i):
                    checkpoint.save(i, x=dx, r=dr, p=dp, rr=rr, norms=list(norms))
                i += 1
            break
        except DeviceError:
            # A fault escaped the launch policy (retry exhausted, or no
            # failover rung left).  Roll back to the last snapshot: the
            # iteration state may be half-updated, the snapshot is not.
            if checkpoint is None or not checkpoint.has_snapshot:
                raise
            snap = checkpoint.restore()
            dx, dr, dp = array(snap["x"]), array(snap["r"]), array(snap["p"])
            ds = array(np.zeros(n))
            rr = float(snap["rr"])
            norms = list(snap["norms"])
            i = checkpoint.iteration + 1

    return CGResult(
        x=to_host(dx), iterations=it, converged=converged, residual_norms=norms
    )


def pcg_solve_operator(
    apply_matvec,
    diag: np.ndarray,
    b: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
) -> CGResult:
    """Jacobi-preconditioned CG from portable constructs.

    The extension the paper defers ("this simplifies the study ... thanks
    to the elimination of the preconditioning step").  ``diag`` is the
    operator's diagonal; each iteration adds one elementwise solve
    (``z = D⁻¹ r``) and swaps the ``r·r`` recurrences for ``r·z``.
    Convergence: ``‖r‖₂ ≤ tol·‖b‖₂`` (same criterion as the plain CG so
    iteration counts are comparable).
    """
    n = len(b)
    max_iter = max_iter if max_iter is not None else 10 * n
    if np.any(diag == 0):
        raise ValueError("Jacobi preconditioning requires a nonzero diagonal")
    dinv = array(1.0 / np.asarray(diag, dtype=np.float64))

    dx = array(x0 if x0 is not None else np.zeros(n))
    ds = array(np.zeros(n))
    apply_matvec(dx, ds)  # s = A x0
    db = array(b)
    dr = array(np.zeros(n))
    parallel_for(n, copy_kernel, db, dr)
    parallel_for(n, axpy_kernel_1d, -1.0, dr, ds)  # r = b - A x0
    dz = array(np.zeros(n))
    parallel_for(n, jacobi_apply_kernel, dinv, dr, dz)  # z = D^-1 r
    dp = array(np.zeros(n))
    parallel_for(n, copy_kernel, dz, dp)

    b_norm = np.sqrt(parallel_reduce(n, dot_kernel_1d, db, db))
    if b_norm == 0.0:
        return CGResult(x=to_host(dx), iterations=0, converged=True, residual_norms=[0.0])
    threshold = tol * b_norm

    rz = parallel_reduce(n, dot_kernel_1d, dr, dz)
    rr = parallel_reduce(n, dot_kernel_1d, dr, dr)
    norms = [float(np.sqrt(rr))]
    if norms[0] <= threshold:
        return CGResult(x=to_host(dx), iterations=0, converged=True, residual_norms=norms)

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        apply_matvec(dp, ds)  # s = A p
        ps = parallel_reduce(n, dot_kernel_1d, dp, ds)
        alpha = rz / ps
        parallel_for(n, axpy_kernel_1d, alpha, dx, dp)   # x += alpha p
        parallel_for(n, axpy_kernel_1d, -alpha, dr, ds)  # r -= alpha s
        rr = parallel_reduce(n, dot_kernel_1d, dr, dr)
        norms.append(float(np.sqrt(rr)))
        if norms[-1] <= threshold:
            converged = True
            break
        parallel_for(n, jacobi_apply_kernel, dinv, dr, dz)  # z = D^-1 r
        rz_new = parallel_reduce(n, dot_kernel_1d, dr, dz)
        beta = rz_new / rz
        parallel_for(n, xpby_kernel, beta, dz, dp)  # p = z + beta p
        rz = rz_new

    return CGResult(
        x=to_host(dx), iterations=it, converged=converged, residual_norms=norms
    )


def cg_solve(
    lower: np.ndarray,
    diag: np.ndarray,
    upper: np.ndarray,
    b: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
) -> CGResult:
    """Solve the paper's tridiagonal SPD system (Fig. 12/13 workload) with
    the portable CG — a :func:`cg_solve_operator` instance whose matvec is
    :func:`matvec_tridiag_kernel`."""
    n = len(b)
    dl, dd, du = array(lower), array(diag), array(upper)

    def apply_matvec(dp, ds):
        parallel_for(n, matvec_tridiag_kernel, dl, dd, du, dp, ds, n)

    return cg_solve_operator(
        apply_matvec, b, tol=tol, max_iter=max_iter, x0=x0
    )


def cg_iteration_paper(state: dict) -> dict:
    """One CG iteration with the paper's exact construct mix (Fig. 12).

    ``state`` holds the device arrays (keys ``a0``..``r_aux``, sizes as in
    the listing) plus ``n``; the function performs, in order:

    1 × parallel_for (matvec) · 2 × parallel_reduce (alpha) ·
    2 × parallel_for (axpy) · 2 × parallel_reduce (beta) ·
    1 × parallel_for (axpy) · 1 × parallel_reduce (cond) ·
    3 × device copies —

    the per-iteration operation inventory Fig. 13 times.  Returns the
    updated state (copies rebind handles the way Julia's ``copy`` does).
    """
    n = state["n"]
    # r_old = copy(r)
    parallel_for(n, copy_kernel, state["r"], state["r_old"])
    # s = A p
    parallel_for(
        n, matvec_tridiag_kernel,
        state["a0"], state["a1"], state["a2"], state["p"], state["s"], n,
    )
    alpha0 = parallel_reduce(n, dot_kernel_1d, state["r"], state["r"])
    alpha1 = parallel_reduce(n, dot_kernel_1d, state["p"], state["s"])
    alpha = alpha0 / alpha1
    # r -= alpha s ; x += alpha p
    parallel_for(n, axpy_kernel_1d, -alpha, state["r"], state["s"])
    parallel_for(n, axpy_kernel_1d, alpha, state["x"], state["p"])
    beta0 = parallel_reduce(n, dot_kernel_1d, state["r"], state["r"])
    beta1 = parallel_reduce(n, dot_kernel_1d, state["r_old"], state["r_old"])
    beta = beta0 / beta1
    # r_aux = copy(r); p = r_aux + beta p  (listing: axpy onto r_aux copy)
    parallel_for(n, copy_kernel, state["r"], state["r_aux"])
    parallel_for(n, xpby_kernel, beta, state["r_aux"], state["p"])
    cond = parallel_reduce(n, dot_kernel_1d, state["r"], state["r"])
    state["cond"] = cond
    state["alpha"] = alpha
    state["beta"] = beta
    return state


def make_paper_cg_state(n: int) -> dict:
    """Device state initialized exactly as the paper's Fig. 12 main body
    (a0=a2=1, a1=4, r=p=0.5, s=x=0)."""
    lower, diagv, upper, _ = tridiagonal_system(n)
    state = {
        "n": n,
        "a0": array(lower),
        "a1": array(diagv),
        "a2": array(upper),
        "r": array(np.full(n, 0.5)),
        "p": array(np.full(n, 0.5)),
        "s": array(np.zeros(n)),
        "x": array(np.zeros(n)),
        "r_old": array(np.zeros(n)),
        "r_aux": array(np.zeros(n)),
    }
    return state


__all__.append("make_paper_cg_state")
