"""Cluster backend: sharded multi-process execution with elastic recovery.

The contract under test: sharding across worker processes is invisible
to correctness (bit-identical for-plans, 1e-12 reduces, fault-free *and*
under seeded injection), a SIGKILLed worker mid-plan rebalances onto the
survivors with the full event trail, and when every worker is gone the
dispatch ladder degrades cluster → threads → serial.
"""

import os
import signal
import time

import numpy as np
import pytest

import repro
from repro.apps.cg import cg_solve
from repro.apps.heat3d import Heat3D
from repro.apps.hpccg import build_27pt_problem, hpccg_solve
from repro.apps.lbm import LBM
from repro.apps.lbm3d import LBM3D
from repro.backends.cluster import (
    ClusterBackend,
    cluster_stats,
    default_num_workers,
)
from repro.backends.threads import ThreadsBackend
from repro.checkpoint import SolverCheckpoint
from repro.core.exceptions import (
    CheckpointError,
    PermanentDeviceError,
    TransientDeviceError,
    WorkerLostError,
)
from repro.faults import (
    FAULT_SITES,
    FaultPlan,
    InjectedFault,
    LaunchPolicy,
    parse_fault_spec,
)
from repro.graph import GraphRegion

#: No wall-clock backoff sleeps in tests.
FAST = LaunchPolicy(max_retries=3, backoff_base=0.0)


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


def val(i, x):
    return x[i]


def stencil3(i, n, dst, src):
    if 0 < i < n - 1:
        dst[i] = src[i - 1] + src[i] + src[i + 1]


def fill(i, x, value):
    x[i] = value


def scale2d(i, j, a, alpha):
    a[i, j] = alpha * (i + 2 * j)


def _cluster(n_workers=2, **kw):
    kw.setdefault("min_parallel_size", 1)
    kw.setdefault("shm_threshold", 1)
    return ClusterBackend(n_workers, **kw)


@pytest.fixture(autouse=True)
def restore():
    yield
    repro.set_fault_plan(None)
    repro.set_launch_policy(None)
    repro.set_backend("serial")


@pytest.fixture
def cluster2():
    backend = _cluster(2)
    yield backend
    backend.close()


# ---------------------------------------------------------------------------
# Registry / construction
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_registry_name(self):
        assert "cluster" in repro.available_backends()
        backend = repro.set_backend("cluster")
        assert isinstance(backend, ClusterBackend)
        backend.close()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ClusterBackend(0)

    def test_default_worker_count_env_override(self, monkeypatch):
        monkeypatch.setenv("PYACC_CLUSTER_WORKERS", "3")
        assert default_num_workers() == 3
        monkeypatch.delenv("PYACC_CLUSTER_WORKERS")
        assert default_num_workers() >= 2

    def test_cluster_sites_registered(self):
        assert {
            "cluster.spawn",
            "cluster.shard",
            "cluster.reduce",
        } <= set(FAULT_SITES)

    def test_workers_spawn_lazily(self, cluster2):
        repro.set_backend(cluster2)
        assert cluster2.alive_workers() == ()
        x = repro.array(np.zeros(64))
        repro.parallel_for(64, fill, x, 1.0)
        assert len(cluster2.alive_workers()) == 2
        assert cluster2.healthcheck() == []


# ---------------------------------------------------------------------------
# Differential correctness vs the serial oracle
# ---------------------------------------------------------------------------


class TestCorrectness:
    def test_for_plan_bit_identical(self, cluster2):
        n = 10_001  # odd: uneven shards
        rng = np.random.default_rng(0)
        xh, yh = rng.standard_normal(n), rng.standard_normal(n)

        with repro.use_backend("serial"):
            xs, ys = repro.array(xh), repro.array(yh)
            repro.parallel_for(n, axpy, 2.5, xs, ys)
            ref = repro.to_host(xs).copy()

        repro.set_backend(cluster2)
        x, y = repro.array(xh), repro.array(yh)
        repro.parallel_for(n, axpy, 2.5, x, y)
        assert np.array_equal(repro.to_host(x), ref)

    def test_stencil_bit_identical_with_halo(self, cluster2):
        n = 4096
        src_h = np.random.default_rng(1).standard_normal(n)

        with repro.use_backend("serial"):
            dst, src = repro.zeros(n), repro.array(src_h)
            repro.parallel_for(n, stencil3, np.int64(n), dst, src)
            ref = repro.to_host(dst).copy()

        repro.set_backend(cluster2)
        dst, src = repro.zeros(n), repro.array(src_h)
        repro.parallel_for(n, stencil3, np.int64(n), dst, src)
        assert np.array_equal(repro.to_host(dst), ref)

    def test_reduce_matches_serial(self, cluster2):
        n = 9_999
        rng = np.random.default_rng(2)
        xh, yh = rng.standard_normal(n), rng.standard_normal(n)

        with repro.use_backend("serial"):
            ref = repro.parallel_reduce(n, dot, repro.array(xh), repro.array(yh))

        repro.set_backend(cluster2)
        got = repro.parallel_reduce(n, dot, repro.array(xh), repro.array(yh))
        assert got == pytest.approx(ref, rel=1e-12)

    def test_minmax_across_shards(self, cluster2):
        repro.set_backend(cluster2)
        data = np.array([5.0, -9.0, 3.0, 8.0, 0.0, 2.0])
        x = repro.array(data)
        assert repro.parallel_reduce(6, val, x, op="min") == -9.0
        assert repro.parallel_reduce(6, val, x, op="max") == 8.0

    def test_2d_domain_shards_on_leading_axis(self, cluster2):
        with repro.use_backend("serial"):
            a = repro.zeros((33, 17))
            repro.parallel_for((33, 17), scale2d, a, 1.5)
            ref = repro.to_host(a).copy()
        repro.set_backend(cluster2)
        a = repro.zeros((33, 17))
        repro.parallel_for((33, 17), scale2d, a, 1.5)
        assert np.array_equal(repro.to_host(a), ref)

    def test_more_workers_than_rows(self):
        backend = _cluster(4)
        try:
            repro.set_backend(backend)
            x = repro.array(np.zeros(2))
            repro.parallel_for(2, fill, x, 7.0)
            np.testing.assert_array_equal(repro.to_host(x), 7.0)
        finally:
            backend.close()


class TestAppDifferential:
    """The acceptance matrix: every app, cluster vs serial."""

    def _run(self, make_state):
        with repro.use_backend("serial"):
            ref = make_state()
        backend = _cluster(2)
        try:
            repro.set_backend(backend)
            got = make_state()
        finally:
            backend.close()
        return ref, got

    def test_lbm_fields_bit_identical(self):
        def run():
            sim = LBM(n=16, lid_velocity=0.05)
            sim.step(6)
            return repro.to_host(sim.df1).copy()

        ref, got = self._run(run)
        assert np.array_equal(ref, got)

    def test_lbm3d_fields_bit_identical(self):
        def run():
            sim = LBM3D(n=6, lid_velocity=0.03)
            sim.step(3)
            return repro.to_host(sim.df1).copy()

        ref, got = self._run(run)
        assert np.array_equal(ref, got)

    def test_heat3d_bit_identical(self):
        def run():
            sim = Heat3D(n=10)
            sim.step(5)
            return repro.to_host(sim.du).copy()

        ref, got = self._run(run)
        assert np.array_equal(ref, got)

    def test_cg_converges_to_serial_residual(self):
        n = 96
        lower = np.full(n, -1.0)
        diag = np.full(n, 4.0)
        upper = np.full(n, -1.0)
        b = np.ones(n)

        def run():
            res = cg_solve(lower, diag, upper, b)
            assert res.converged
            return res

        ref, got = self._run(run)
        assert got.final_residual == pytest.approx(ref.final_residual, rel=1e-12)
        np.testing.assert_allclose(got.x, ref.x, rtol=0, atol=1e-12)

    def test_hpccg_converges_to_serial_residual(self):
        a, b, x_exact = build_27pt_problem(4, 4, 4)

        def run():
            res = hpccg_solve(a, b)
            assert res.converged
            return res

        ref, got = self._run(run)
        assert got.final_residual == pytest.approx(ref.final_residual, rel=1e-12)
        assert np.max(np.abs(got.x - x_exact)) < 1e-8


# ---------------------------------------------------------------------------
# Inline fallbacks & staging
# ---------------------------------------------------------------------------


class TestFallbacks:
    def test_small_domain_runs_inline(self):
        backend = ClusterBackend(2, min_parallel_size=1 << 16)
        try:
            repro.set_backend(backend)
            before = cluster_stats()
            x = repro.array(np.zeros(128))
            repro.parallel_for(128, fill, x, 3.0)
            after = cluster_stats()
            np.testing.assert_array_equal(repro.to_host(x), 3.0)
            assert after["inline_launches"] > before["inline_launches"]
            assert backend.alive_workers() == ()  # never had to spawn
        finally:
            backend.close()

    def test_unpicklable_kernel_falls_back_inline(self, cluster2):
        repro.set_backend(cluster2)
        bound = 2.0

        def closure_kernel(i, x):
            x[i] = bound  # closes over host state: cannot ship

        before = cluster_stats()
        x = repro.array(np.zeros(4096))
        repro.parallel_for(4096, closure_kernel, x)
        after = cluster_stats()
        np.testing.assert_array_equal(repro.to_host(x), 2.0)
        assert after["unshippable"] > before["unshippable"]

    def test_plain_ndarray_args_staged_and_written_back(self, cluster2):
        repro.set_backend(cluster2)
        x = np.zeros(4096)  # never passed through backend.array
        y = np.ones(4096)
        before = cluster_stats()
        repro.parallel_for(4096, axpy, 2.0, x, y)
        after = cluster_stats()
        np.testing.assert_array_equal(x, 2.0)
        assert after["staged_in_bytes"] > before["staged_in_bytes"]
        assert after["staged_out_bytes"] > before["staged_out_bytes"]

    def test_resident_arrays_report_shm_segments(self, cluster2):
        repro.set_backend(cluster2)
        before = cluster_stats()
        repro.array(np.zeros(8192))
        after = cluster_stats()
        assert after["shm_segments"] > before["shm_segments"]
        assert after["shm_bytes"] >= before["shm_bytes"] + 8192 * 8


# ---------------------------------------------------------------------------
# Fault injection: transients, kills, rebalance, degradation
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_seeded_transients_do_not_change_results(self, cluster2):
        n = 8192
        xh = np.random.default_rng(5).standard_normal(n)

        with repro.use_backend("serial"):
            xs = repro.array(xh)
            repro.parallel_for(n, axpy, 2.0, xs, xs)
            ref = repro.to_host(xs).copy()
            ref_dot = repro.parallel_reduce(n, dot, repro.array(ref), repro.array(ref))

        repro.set_backend(cluster2)
        repro.set_launch_policy(FAST)
        repro.set_fault_plan(
            FaultPlan(
                7,
                transient_rate=0.2,
                sites=["cluster.shard", "cluster.reduce"],
            )
        )
        x = repro.array(xh)
        repro.parallel_for(n, axpy, 2.0, x, x)
        got_dot = repro.parallel_reduce(
            n, dot, repro.array(repro.to_host(x)), repro.array(repro.to_host(x))
        )
        assert np.array_equal(repro.to_host(x), ref)
        assert got_dot == pytest.approx(ref_dot, rel=1e-12)
        stats = repro.global_fault_stats()
        assert stats["transients_injected"] > 0
        assert stats["retries"] > 0

    def test_kill_spec_grammar(self):
        plan = parse_fault_spec("kill=cluster.shard:3|cluster.shard:7")
        kills = [f for f in plan.scheduled if f.kind == "kill"]
        assert [(f.site, f.index) for f in kills] == [
            ("cluster.shard", 3),
            ("cluster.shard", 7),
        ]

    def test_kill_spec_composes_with_other_keys(self):
        plan = parse_fault_spec(
            "seed=5,transient=0.01,sites=cluster.shard,kill=cluster.shard:0"
        )
        assert plan.transient_rate == 0.01
        assert any(f.kind == "kill" for f in plan.scheduled)

    def test_take_kill_consumed_once(self):
        plan = FaultPlan(scheduled=[InjectedFault("cluster.shard", 2, "kill")])
        assert not plan.take_kill("cluster.shard", 0)
        assert plan.take_kill("cluster.shard", 2)
        assert not plan.take_kill("cluster.shard", 2)  # consumed
        assert ("cluster.shard", 2, "kill", None) in plan.injected

    def test_kill_entries_do_not_raise_at_check(self):
        plan = FaultPlan(scheduled=[InjectedFault("cluster.shard", 0, "kill")])
        plan.check("cluster.shard")  # must not raise: kills are taken, not thrown

    def test_sigkilled_worker_rebalances_onto_survivor(self, cluster2):
        n = 16384
        yh = np.random.default_rng(6).standard_normal(n)

        with repro.use_backend("serial"):
            xs, ys = repro.zeros(n), repro.array(yh)
            repro.parallel_for(n, axpy, 3.0, xs, ys)
            ref = repro.to_host(xs).copy()

        repro.set_backend(cluster2)
        repro.set_launch_policy(FAST)
        # Warm the worker set on a fault-free launch first, then kill a
        # worker at its very next shard dispatch.
        warm = repro.array(np.zeros(n))
        repro.parallel_for(n, fill, warm, 0.0)
        names_before = set(cluster2.alive_workers())
        repro.set_fault_plan(
            FaultPlan(scheduled=[InjectedFault("cluster.shard", 0, "kill")])
        )
        before = cluster_stats()
        x, y = repro.zeros(n), repro.array(yh)
        repro.parallel_for(n, axpy, 3.0, x, y)
        after = cluster_stats()

        assert np.array_equal(repro.to_host(x), ref)
        assert after["kills"] == before["kills"] + 1
        assert after["worker_losses"] == before["worker_losses"] + 1
        assert after["respawns"] == before["respawns"] + 1  # elastic rejoin
        assert set(cluster2.alive_workers()) != names_before
        assert len(cluster2.alive_workers()) == 2
        events = repro.current_context().fault_events
        actions = [(e.site, e.kind, e.action) for e in events]
        assert ("cluster.shard", "kill", "kill") in actions
        assert ("cluster.shard", "permanent", "failover") in actions
        gstats = repro.global_fault_stats()
        assert gstats["kills"] >= 1
        assert gstats["failovers"] >= 1

    def test_all_workers_lost_degrades_to_threads(self):
        backend = _cluster(2, max_respawns=0)
        try:
            n = 8192
            repro.set_backend(backend)
            repro.set_launch_policy(FAST)
            warm = repro.array(np.zeros(n))
            repro.parallel_for(n, fill, warm, 0.0)
            # Kill both workers at their next dispatches; with no respawn
            # budget the shard round runs dry and the ladder demotes.
            repro.set_fault_plan(
                FaultPlan(
                    scheduled=[
                        InjectedFault("cluster.shard", 0, "kill"),
                        InjectedFault("cluster.shard", 1, "kill"),
                    ]
                )
            )
            before = cluster_stats()
            x = repro.array(np.zeros(n))
            handle = repro.parallel_for(n, fill, x, 9.0)
            after = cluster_stats()
            np.testing.assert_array_equal(repro.to_host(x), 9.0)
            assert after["degradations"] > before["degradations"]
            assert backend.alive_workers() == ()
            # Sticky demotion: the context now dispatches to threads.
            assert isinstance(repro.active_backend(), ThreadsBackend)
            del handle
        finally:
            backend.close()

    def test_spawn_failure_is_probed_and_retried(self):
        backend = _cluster(2)
        try:
            repro.set_backend(backend)
            repro.set_launch_policy(FAST)
            repro.set_fault_plan(
                FaultPlan(scheduled=[InjectedFault("cluster.spawn", 0, "transient")])
            )
            x = repro.array(np.zeros(4096))
            repro.parallel_for(4096, fill, x, 1.0)
            np.testing.assert_array_equal(repro.to_host(x), 1.0)
            assert len(backend.alive_workers()) == 2
            assert repro.global_fault_stats()["retries"] >= 1
        finally:
            backend.close()

    def test_healthcheck_reaps_externally_killed_worker(self, cluster2):
        repro.set_backend(cluster2)
        x = repro.array(np.zeros(4096))
        repro.parallel_for(4096, fill, x, 1.0)
        victim = cluster2.supervisor.alive()[0]
        os.kill(victim.proc.pid, signal.SIGKILL)
        victim.proc.join(timeout=5.0)
        epoch = cluster2.schedule_epoch()
        failed = cluster2.healthcheck(timeout=5.0)
        # alive() may reap the corpse before the ping does; either way
        # the worker leaves the set and the epoch moves.
        assert len(cluster2.alive_workers()) == 1
        assert cluster2.schedule_epoch() > epoch or failed == [victim.name]
        # The next sharded launch still completes on the survivor.
        y = repro.array(np.zeros(4096))
        repro.parallel_for(4096, fill, y, 2.0)
        np.testing.assert_array_equal(repro.to_host(y), 2.0)


# ---------------------------------------------------------------------------
# Graph replay + write-version soundness (satellite: process-local state)
# ---------------------------------------------------------------------------


class TestWriteVersionSoundness:
    def test_replay_sees_cluster_write_to_const_array(self, cluster2):
        """A graph that treated ``y`` as replay-invariant must notice a
        *cluster* launch writing it: the shard writeback commits in the
        parent before the dispatch stage versions the write, so the
        snapshot check catches it exactly like an in-process writer."""
        from repro.ir import writes

        n = 8192
        repro.set_backend("threads")
        repro.set_graph_mode("on")
        try:
            x = repro.array(np.zeros(n))
            y = repro.array(np.ones(n))
            region = GraphRegion("t.cluster_const_write")

            def body(alpha):
                repro.parallel_for(n, axpy, alpha, x, y)

            key = (id(x), id(y))
            region.run(key, body, alpha=1.0)  # capture: x += y  (y const)
            region.run(key, body, alpha=1.0)  # replay: x == 2
            snap = writes.versions_of((id(y),))

            with repro.use_backend(cluster2):
                repro.parallel_for(n, fill, y, 3.0)  # cluster writes y

            assert writes.versions_of((id(y),)) != snap
            region.run(key, body, alpha=1.0)  # must read the NEW y
            assert region.stats()["replays"] == 2
            np.testing.assert_array_equal(repro.to_host(x), 5.0)
            np.testing.assert_array_equal(repro.to_host(y), 3.0)
        finally:
            repro.set_graph_mode(None)


# ---------------------------------------------------------------------------
# Checkpoint under process loss (satellite: solver resilience)
# ---------------------------------------------------------------------------


class TestCheckpointUnderProcessLoss:
    def test_restore_budget_exhaustion_mid_hpccg(self):
        backend = _cluster(2)
        try:
            repro.set_backend(backend)
            # No retries and no failover: every injected transient
            # escapes straight to the solver's checkpoint logic.
            repro.set_launch_policy(
                LaunchPolicy(max_retries=0, backoff_base=0.0, failover=False)
            )
            a, b, _ = build_27pt_problem(3, 3, 3)
            repro.set_fault_plan(
                FaultPlan(
                    scheduled=[
                        InjectedFault("cluster.shard", k, "transient")
                        for k in range(40, 60)
                    ]
                )
            )
            ck = SolverCheckpoint(interval=1, max_restores=1)
            with pytest.raises(CheckpointError):
                hpccg_solve(a, b, checkpoint=ck)
            assert ck.restores == 1  # budget spent, then the brake fired
            assert ck.saves >= 1
        finally:
            backend.close()

    def test_checkpoint_between_halo_exchange_and_commit(self):
        """Kill a worker mid-step, after its shard dispatch was probed
        but before the shard commits: the snapshot (taken at the end of
        the previous step) is untouched by the half-dispatched step, the
        rebalance finishes the rows, and no rollback is needed."""
        backend = _cluster(2)
        try:
            repro.set_backend(backend)
            repro.set_launch_policy(FAST)

            sim_clean = LBM(n=16, lid_velocity=0.05)
            sim_clean.step(8)
            rho_clean, _, _ = sim_clean.macroscopic()

            repro.set_fault_plan(None)
            sim = LBM(n=16, lid_velocity=0.05)
            ck = SolverCheckpoint(interval=2)
            sim.step(4, checkpoint=ck)
            saves_before = ck.saves
            assert saves_before >= 1
            # Steps 5-8 under a scheduled mid-plan worker kill.
            repro.set_fault_plan(
                FaultPlan(scheduled=[InjectedFault("cluster.shard", 2, "kill")])
            )
            before = cluster_stats()
            sim.step(4, checkpoint=ck)
            after = cluster_stats()

            assert sim.steps_taken == 8
            assert after["kills"] == before["kills"] + 1
            assert ck.restores == 0  # rebalance absorbed the loss
            rho, _, _ = sim.macroscopic()
            np.testing.assert_allclose(rho, rho_clean, rtol=0, atol=1e-12)
        finally:
            backend.close()

    def test_soak_recovered_run_matches_clean_within_1e12(self):
        """One injected worker loss per ~50 steps over a 100-step LBM
        run: the recovered trajectory must match the clean one."""
        backend = _cluster(2)
        try:
            repro.set_backend(backend)
            repro.set_launch_policy(FAST)

            sim_clean = LBM(n=16, lid_velocity=0.05)
            sim_clean.step(100)
            rho_clean, ux_clean, uy_clean = sim_clean.macroscopic()

            repro.set_fault_plan(
                FaultPlan(
                    scheduled=[
                        InjectedFault("cluster.shard", 60, "kill"),
                        InjectedFault("cluster.shard", 160, "kill"),
                    ]
                )
            )
            before = cluster_stats()
            sim = LBM(n=16, lid_velocity=0.05)
            sim.step(100)
            after = cluster_stats()

            # Every scheduled kill landed: each one is a worker loss, a
            # respawn (the budget covers both) and a rebalance round.
            delta = {k: after[k] - before[k] for k in after}
            assert delta["kills"] == 2
            for key in ("worker_losses", "respawns", "rebalances"):
                assert delta[key] >= delta["kills"], delta
            rho, ux, uy = sim.macroscopic()
            np.testing.assert_allclose(rho, rho_clean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ux, ux_clean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(uy, uy_clean, rtol=0, atol=1e-12)
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Counters / introspection
# ---------------------------------------------------------------------------


class TestCounters:
    def test_cache_info_embeds_cluster_block(self, cluster2):
        repro.set_backend(cluster2)
        x = repro.array(np.zeros(4096))
        repro.parallel_for(4096, fill, x, 1.0)
        info = repro.cache_info()
        assert "cluster" in info
        assert info["cluster"]["shards"] >= 2
        for key in (
            "spawns",
            "respawns",
            "kills",
            "worker_losses",
            "halo_exchanges",
            "halo_bytes",
            "rebalances",
            "degradations",
            "reduce_folds",
        ):
            assert key in info["cluster"]
        # Shards share memory: nothing is exchanged, ever.
        assert info["cluster"]["halo_exchanges"] == 0
        assert info["cluster"]["halo_bytes"] == 0

    def test_reset_cluster_stats(self):
        repro.reset_cluster_stats()
        assert all(v == 0 for v in repro.cluster_stats().values())

    def test_worker_lost_error_is_permanent(self):
        err = WorkerLostError("gone", device_id="w0")
        assert isinstance(err, PermanentDeviceError)


class TestTimeouts:
    def test_collection_deadline_reaps_hung_worker(self):
        backend = _cluster(2, shard_timeout=0.5)
        try:
            repro.set_backend(backend)
            repro.set_launch_policy(FAST)
            x = repro.array(np.zeros(4096))
            repro.parallel_for(4096, fill, x, 1.0)  # spawn + warm
            # Freeze one worker: SIGSTOP stops it mid-protocol, so its
            # next shard misses the launch deadline and the span
            # rebalances onto the survivor (the frozen corpse is killed).
            victim = backend.supervisor.alive()[0]
            os.kill(victim.proc.pid, signal.SIGSTOP)
            t0 = time.monotonic()
            y = repro.array(np.zeros(4096))
            repro.parallel_for(4096, fill, y, 2.0)
            elapsed = time.monotonic() - t0
            np.testing.assert_array_equal(repro.to_host(y), 2.0)
            assert elapsed < 30.0  # bounded by the deadline, not forever
        finally:
            backend.close()


class TestReducePartialFold:
    """The shard fold is the fold every other backend uses: NaN
    propagates through min/max exactly like the serial lane fold, at
    whatever worker count this leg runs (``PYACC_CLUSTER_WORKERS``)."""

    N = 1 << 18

    @pytest.fixture
    def cluster(self):
        backend = ClusterBackend()  # default_num_workers(): CI runs 1/2/3
        yield backend
        backend.close()

    @pytest.mark.parametrize("op", ["min", "max"])
    @pytest.mark.parametrize("pos", [0, N - 1], ids=["first", "last"])
    def test_nan_lane_matches_serial_bitwise(self, cluster, op, pos):
        host = np.ones(self.N)
        host[pos] = np.nan
        with repro.use_backend("serial"):
            want = repro.parallel_reduce(self.N, val, repro.array(host), op=op)
        assert np.isnan(want)
        repro.set_backend(cluster)
        before = cluster_stats()["shards"]
        got = repro.parallel_reduce(self.N, val, repro.array(host), op=op)
        if cluster.n_workers > 1:  # one worker has nothing to shard
            assert cluster_stats()["shards"] > before
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_add_is_the_left_fold_over_shard_partials(self, cluster):
        host = np.random.default_rng(21).standard_normal(self.N)
        repro.set_backend(cluster)
        got = repro.parallel_reduce(self.N, val, repro.array(host))
        with repro.use_backend("serial"):
            want = repro.parallel_reduce(self.N, val, repro.array(host))
        assert got == pytest.approx(want, rel=1e-12)
        # Deterministic: the fold is a pure function of the shard split.
        again = repro.parallel_reduce(self.N, val, repro.array(host))
        assert np.float64(again).tobytes() == np.float64(got).tobytes()

    def test_four_workers_fold_bitwise_like_four_threads(self):
        """Same split, same partials, same left-to-right fold: a 4-wide
        cluster reduce is bitwise the 4-wide threads one, for every op
        and seed (a pairwise tree over the shard partials is not)."""
        cluster = ClusterBackend(4, min_parallel_size=1, shm_threshold=1)
        threads = ThreadsBackend(4, min_parallel_size=1)

        def reduce_on(backend, host, op):
            with repro.use_backend(backend):
                x = repro.array(host)
                return repro.parallel_reduce(self.N, val, x, op=op)

        try:
            before = cluster_stats()["shards"]
            for seed in range(20):
                host = np.random.default_rng(seed).standard_normal(self.N)
                for op in ("add", "min", "max"):
                    got = reduce_on(cluster, host, op)
                    want = reduce_on(threads, host, op)
                    assert np.float64(got).tobytes() == np.float64(
                        want
                    ).tobytes(), (seed, op, got, want)
            assert cluster_stats()["shards"] >= before + 4 * 60
        finally:
            cluster.close()
            threads.close()

    def test_unknown_op_raises_before_any_shard_runs(self, cluster):
        repro.set_backend(cluster)
        before = cluster_stats()["shards"]
        with pytest.raises(ValueError):
            repro.parallel_reduce(
                self.N, val, repro.array(np.ones(self.N)), op="prod"
            )
        assert cluster_stats()["shards"] == before
