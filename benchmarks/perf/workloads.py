"""The in-process workloads: what one *operation* is, its hand-written
twin, and its result check.

Every workload generates its inputs from the seed and hands the library
only arrays and scalars.  ``op`` and ``ref`` advance in lockstep (the
runner always calls one of each per round), so stateful workloads can be
verified against the reference at any point.  Sizes are fixed here; the
seed changes values, never the amount of work.
"""

from __future__ import annotations

import os

import numpy as np

import repro
from repro.apps import blas, cg, hpccg, lbm

from . import reference


class CheckFailed(Exception):
    """A result differs from its independent reference."""


class Workload:
    executor: str | None = None  # None = the shipped default, no setter call
    backend: str | None = None
    #: Ops per round before the reference takes its turn: a user's loop
    #: runs ops back to back, so most timed ops should too.
    block = 1
    #: References per round when fewer than ``block`` (0 = as many).  Op
    #: and reference then leave lockstep after the warm-up, so ``verify``
    #: must do without the reference afterwards.
    ref_block = 0
    #: Lockstep (op, ref) pairs before the first ``verify``.
    warmup_rounds = 1
    iters = 0  # CG iterations of the last solve (solver workloads)

    def configure(self) -> None:
        """Process-wide mode selection, before the first setup.  The
        default workloads call nothing, so a change of the shipped
        defaults shows up as a gain or loss."""
        if self.executor:
            repro.set_executor_mode(self.executor)
        if self.backend == "cluster":
            os.environ["PYACC_CLUSTER_WORKERS"] = "2"
            repro.set_backend("cluster")

    def probe_op(self) -> None:
        """The op the on/off and serial ratio probes time (a cheaper
        variant where a full op would not fit the trace pass)."""
        self.op()

    def graph_body(self):
        """The fixed launch sequence the capture/instantiate/replay
        probe records."""
        return self.op


class AxpyDot(Workload):
    alpha = 1e-3

    def __init__(self, n: int, block: int):
        self.n, self.block = n, block

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.xr, self.yr = rng.random(self.n), rng.random(self.n)
        self.x, self.y = repro.array(self.xr), repro.array(self.yr)
        self.tmp = np.zeros(self.n)

    def teardown(self) -> None:
        for k in ("xr", "yr", "x", "y", "tmp"):
            self.__dict__.pop(k, None)

    def op(self) -> None:
        blas.axpy(self.n, self.alpha, self.x, self.y)
        self.dot = blas.dot(self.n, self.x, self.y)

    def ref(self) -> None:
        self.dot_ref = reference.axpy_dot(self.alpha, self.xr, self.yr, self.tmp)

    def verify(self) -> float:
        err = max(
            reference.rel_err(repro.to_host(self.x), self.xr),
            reference.rel_err(self.dot, self.dot_ref),
        )
        if not err <= 1e-10:
            raise CheckFailed(f"AXPY/DOT differs from NumPy by rel {err:.3e}")
        return err


class Hpccg(Workload):
    tol = 1e-8

    def __init__(self, nx: int, executor: str | None, block: int, probe_iters=None):
        self.nx, self.executor, self.block, self.probe_iters = nx, executor, block, probe_iters

    def setup(self, seed: int) -> None:
        # CG is scale-invariant, so a seeded scale of the right-hand side
        # changes the values but neither the iteration count nor the work.
        self.scale = float(np.random.default_rng(seed).uniform(0.5, 2.0))
        self.a, b, _ = hpccg.build_27pt_problem(self.nx, self.nx, self.nx)
        self.b = b * self.scale
        self.csr = None

    def teardown(self) -> None:
        for k in ("a", "b", "csr", "result", "x_ref"):
            self.__dict__.pop(k, None)

    def op(self) -> None:
        self.result = hpccg.hpccg_solve(self.a, self.b, tol=self.tol)
        self.iters = self.result.iterations

    def probe_op(self) -> None:
        hpccg.hpccg_solve(self.a, self.b, tol=self.tol, max_iter=self.probe_iters)

    def ref(self) -> None:
        if self.csr is None:  # reference prep is not the library's set-up
            self.csr = reference.stencil27(self.nx)
        self.x_ref, self.iters_ref = reference.cg(self.csr, self.b, self.tol)

    def verify(self) -> float:
        err = max(
            float(np.max(np.abs(self.result.x / self.scale - 1.0))),
            reference.rel_err(self.result.x, self.x_ref),
        )
        if not (self.result.converged and err <= 1e-6):
            raise CheckFailed(f"HPCCG max|x-1| = {err:.3e} (converged={self.result.converged})")
        if abs(self.iters - self.iters_ref) > 1:
            raise CheckFailed(f"HPCCG took {self.iters} iterations, SciPy CG {self.iters_ref}")
        return err

    def graph_body(self):
        state = cg.make_paper_cg_state(self.a.n)
        return lambda: cg.cg_iteration_paper(state)


class Lbm(Workload):
    tau = 0.8
    executor = "native"
    # The roll-based NumPy step costs 3x the native one: one reference
    # per four ops keeps the run's time on the system under test, and the
    # strict comparison happens after 20 lockstep steps of warm-up.
    block = 4
    ref_block = 1
    warmup_rounds = 20

    def __init__(self, n: int, backend: str | None):
        self.n, self.backend = n, backend

    def setup(self, seed: int) -> None:
        self.lid = 0.05 * (1.0 + 0.1 * float(np.random.default_rng(seed).uniform(-1, 1)))
        if self.backend == "cluster":
            # Worker start is set-up, not part of the first step.
            repro.active_backend().supervisor.ensure_started(None, None, None)
        self.sim = lbm.LBM(self.n, tau=self.tau, lid_velocity=self.lid)
        self.ref_sim = None

    def teardown(self) -> None:
        self.__dict__.pop("sim", None)
        self.__dict__.pop("ref_sim", None)
        if self.backend == "cluster":
            repro.active_backend().close()

    def op(self) -> None:
        self.sim.step(1)

    def ref(self) -> None:
        if self.ref_sim is None:
            self.ref_sim = reference.LbmRef(self.n, self.tau, self.lid)
        self.ref_sim.step()

    def verify(self) -> float:
        f = self.sim.distribution()
        if not (np.all(np.isfinite(f)) and self.sim.is_stable()):
            raise CheckFailed(f"LBM unstable: max speed {self.sim.max_speed():.3f}")
        if self.sim.steps_taken != self.ref_sim.steps:
            return 0.0  # out of lockstep: the strict check ran after warm-up
        err = reference.rel_err(f, self.ref_sim.f)
        if not err <= 1e-10:
            raise CheckFailed(f"LBM differs from the roll-based reference by rel {err:.3e}")
        return err


def make(name: str, smoke: bool) -> Workload:
    """The workload table.  ``smoke`` shrinks every size so the
    self-tests exercise the same code in seconds."""
    if name == "axpy_dot_small":
        return AxpyDot(1 << 8 if smoke else 1 << 10, block=256)
    if name == "axpy_dot_large":
        return AxpyDot(1 << 16 if smoke else 1 << 24, block=4)
    if name == "hpccg_small_native":
        return Hpccg(4 if smoke else 8, "native", block=16)
    if name == "hpccg_large":
        return Hpccg(8 if smoke else 64, None, block=1, probe_iters=8)
    if name == "lbm_native":
        return Lbm(64 if smoke else 512, None)
    if name == "lbm_cluster":
        # 256^2 lanes is the smallest domain the cluster backend shards.
        return Lbm(256 if smoke else 512, "cluster")
    raise KeyError(name)
