"""Fault injection + resilient launch runtime.

The harness must be deterministic (same seed, same schedule — CI can
bisect a chaos failure), the policy must preserve the constructs'
synchronous semantics (retry/failover are invisible except in the event
log), and the checkpoint layer must bring an iterative solver through a
mid-run device loss to the same answer.
"""

import numpy as np
import pytest

import repro
from repro.apps.hpccg import build_27pt_problem, hpccg_solve
from repro.backends.gpusim import Device
from repro.backends.multidevice import MultiDeviceBackend
from repro.backends.serial import InterpreterBackend, SerialBackend
from repro.backends.threads import ThreadsBackend
from repro.checkpoint import SolverCheckpoint
from repro.core.exceptions import (
    CheckpointError,
    DeviceError,
    MemoryError_,
    PermanentDeviceError,
    PreferencesError,
    TransientDeviceError,
)
from repro.faults import (
    FAULT_SITES,
    FaultPlan,
    InjectedFault,
    LaunchPolicy,
    demote_backend,
    global_fault_stats,
    parse_fault_spec,
    resolve_fault_plan,
)

#: Tests never want wall-clock backoff sleeps.
FAST = LaunchPolicy(max_retries=3, backoff_base=0.0)


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


@pytest.fixture(autouse=True)
def restore():
    yield
    repro.set_fault_plan(None)
    repro.set_launch_policy(None)
    repro.set_backend("serial")


def drive(plan, n, site="threads.chunk", device_id=None):
    """Probe ``n`` times, collecting the injected fault kinds in order."""
    seen = []
    for _ in range(n):
        try:
            plan.check(site, device_id=device_id)
        except TransientDeviceError:
            seen.append("transient")
        except PermanentDeviceError:
            seen.append("permanent")
        else:
            seen.append(None)
    return seen


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(42, transient_rate=0.1, permanent_rate=0.02)
        b = FaultPlan(42, transient_rate=0.1, permanent_rate=0.02)
        assert drive(a, 300) == drive(b, 300)
        assert a.injected == b.injected
        assert a.stats()["injected"] > 0  # the schedule is not vacuous

    def test_different_seed_different_schedule(self):
        a = FaultPlan(1, transient_rate=0.1)
        b = FaultPlan(2, transient_rate=0.1)
        assert drive(a, 300) != drive(b, 300)

    def test_schedule_independent_of_hash_randomization(self):
        # blake2b, not hash(): the per-process salt must not leak in.
        plan = FaultPlan(7, transient_rate=0.5)
        first = drive(plan, 50)
        again = drive(FaultPlan(7, transient_rate=0.5), 50)
        assert first == again

    def test_scheduled_fault_fires_at_exact_index(self):
        plan = FaultPlan(scheduled=[InjectedFault("threads.chunk", 2, "transient")])
        assert drive(plan, 5) == [None, None, "transient", None, None]

    def test_scheduled_fault_per_device_index(self):
        plan = FaultPlan(
            scheduled=[
                InjectedFault("multidevice.chunk", 1, "transient", device_id="d1")
            ]
        )
        # d0's probes interleave but d1's *second* probe is the one hit.
        assert drive(plan, 2, "multidevice.chunk", "d0") == [None, None]
        assert drive(plan, 2, "multidevice.chunk", "d1") == [None, "transient"]

    def test_permanent_fault_sticks_to_device(self):
        plan = FaultPlan(
            scheduled=[
                InjectedFault("gpusim.launch", 0, "permanent", device_id="gpu0")
            ]
        )
        assert drive(plan, 3, "gpusim.launch", "gpu0") == ["permanent"] * 3
        # Other devices are unaffected.
        assert drive(plan, 2, "gpusim.launch", "gpu1") == [None, None]
        assert plan.is_dead("gpu0") and not plan.is_dead("gpu1")

    def test_kill_device(self):
        plan = FaultPlan()
        plan.kill_device("d9")
        with pytest.raises(PermanentDeviceError) as ei:
            plan.check("multidevice.chunk", device_id="d9")
        assert ei.value.device_id == "d9"

    def test_max_faults_budget(self):
        plan = FaultPlan(transient_rate=1.0, max_faults=3)
        assert drive(plan, 6) == ["transient"] * 3 + [None] * 3

    def test_sites_filter(self):
        plan = FaultPlan(transient_rate=1.0, sites=["gpusim.launch"])
        assert drive(plan, 3, "threads.chunk") == [None] * 3
        assert drive(plan, 1, "gpusim.launch") == ["transient"]

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(sites=["not.a.site"])
        with pytest.raises(ValueError):
            FaultPlan(scheduled=[InjectedFault("threads.chunk", 0, "fatal")])

    def test_ordinal_reservation_is_contiguous(self):
        plan = FaultPlan()
        assert plan.next_ordinal("threads.chunk", 4) == 0
        assert plan.next_ordinal("threads.chunk", 2) == 4


class TestFaultSpecParsing:
    def test_full_spec(self):
        plan = parse_fault_spec(
            "seed=7,transient=0.25,permanent=0.125,"
            "sites=threads.chunk|gpusim.launch,max=9"
        )
        assert plan.seed == 7
        assert plan.transient_rate == 0.25
        assert plan.permanent_rate == 0.125
        assert plan.sites == ("threads.chunk", "gpusim.launch")
        assert plan.max_faults == 9

    def test_off_and_empty_disable(self):
        assert parse_fault_spec("off") is None
        assert parse_fault_spec("") is None

    @pytest.mark.parametrize(
        "spec",
        ["transient=notanumber", "bogus=1", "sites=not.a.site", "seed"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(PreferencesError):
            parse_fault_spec(spec)

    def test_env_precedence(self, monkeypatch):
        monkeypatch.setenv("PYACC_FAULTS", "seed=5,transient=0.1")
        plan = resolve_fault_plan()
        assert plan.seed == 5 and plan.transient_rate == 0.1
        monkeypatch.setenv("PYACC_FAULTS", "off")
        assert resolve_fault_plan() is None

    def test_all_sites_documented(self):
        # Every probe site used by the backends is in the public tuple.
        assert set(FAULT_SITES) == {
            "gpusim.launch",
            "gpusim.device_launch",
            "gpusim.to_device",
            "gpusim.fold",
            "threads.chunk",
            "multidevice.chunk",
            "arena.frame",
            "cluster.spawn",
            "cluster.shard",
            "cluster.reduce",
        }

    def test_removed_halo_site_is_unknown(self):
        # Cluster shards share memory: there is no exchange to guard.
        with pytest.raises(ValueError, match="unknown fault sites"):
            FaultPlan(sites=["cluster.halo"])


class TestRetryPolicy:
    def test_transient_retried_to_success(self):
        repro.set_backend("threads")
        repro.set_launch_policy(FAST)
        repro.set_fault_plan(
            FaultPlan(scheduled=[InjectedFault("threads.chunk", 0, "transient")])
        )
        x = np.zeros(64)
        repro.parallel_for(64, axpy, 2.0, x, np.ones(64))
        np.testing.assert_array_equal(x, 2.0)
        events = repro.current_context().fault_events
        assert any(e.action == "retry" for e in events)

    def test_retry_exhaustion_reraises_original_error(self):
        repro.set_backend("threads")
        repro.set_launch_policy(LaunchPolicy(max_retries=2, backoff_base=0.0))
        # Initial attempt + 2 retries = probes 0..2 all transient.
        repro.set_fault_plan(
            FaultPlan(
                scheduled=[
                    InjectedFault("threads.chunk", k, "transient")
                    for k in range(3)
                ]
            )
        )
        with pytest.raises(TransientDeviceError) as ei:
            repro.parallel_for(64, axpy, 1.0, np.zeros(64), np.ones(64))
        assert ei.value.transient is True
        events = repro.current_context().fault_events
        assert any(e.action == "exhausted" for e in events)

    def test_retry_does_not_double_apply_stores(self):
        # The probe fires before the kernel body: x += y must apply once.
        repro.set_backend("threads")
        repro.set_launch_policy(FAST)
        repro.set_fault_plan(
            FaultPlan(
                scheduled=[
                    InjectedFault("threads.chunk", 0, "transient"),
                    InjectedFault("threads.chunk", 1, "transient"),
                ]
            )
        )
        x = np.zeros(32)
        repro.parallel_for(32, axpy, 1.0, x, np.ones(32))
        np.testing.assert_array_equal(x, 1.0)

    def test_reduce_value_survives_retry(self):
        repro.set_backend("threads")
        repro.set_launch_policy(FAST)
        repro.set_fault_plan(
            FaultPlan(scheduled=[InjectedFault("threads.chunk", 0, "transient")])
        )
        assert repro.parallel_reduce(100, dot, np.ones(100), np.ones(100)) == 100.0

    def test_scheduled_transient_on_pool_chunk_fires_once(self):
        # Pool chunks probe with a fixed per-chunk ordinal, so a retry
        # re-probes the *same* index: the scheduled fault must be
        # consumed by its first hit, not re-raised until exhaustion.
        n = 1 << 15
        y = np.random.default_rng(3).standard_normal(n)

        def run(fault_plan):
            backend = ThreadsBackend(n_threads=2)  # ≥2 chunks on any host
            repro.set_backend(backend)
            repro.set_launch_policy(FAST)
            repro.set_fault_plan(fault_plan)
            ctx = repro.current_context()
            n0 = len(ctx.fault_events)
            x = np.zeros(n)
            repro.parallel_for(n, axpy, 1.5, x, y)
            backend.close()
            return x, ctx.fault_events[n0:]

        clean, no_events = run(None)
        plan = FaultPlan(
            scheduled=[InjectedFault("threads.chunk", 1, "transient")]
        )
        faulted, events = run(plan)
        assert no_events == []
        assert [(e.site, e.kind, e.action) for e in events] == [
            ("threads.chunk", "transient", "retry")
        ]
        assert plan.injected == [("threads.chunk", 1, "transient", None)]
        assert np.array_equal(faulted, clean)

    def test_backoff_schedule(self):
        policy = LaunchPolicy(backoff_base=0.001, backoff_cap=0.003)
        assert policy.backoff(1) == 0.001
        assert policy.backoff(2) == 0.002
        assert policy.backoff(5) == 0.003  # capped
        assert LaunchPolicy(backoff_base=0.0).backoff(3) == 0.0


class TestFailoverLadder:
    def test_ladder_shape(self):
        from repro.backends.registry import create_backend

        gpu = create_backend("cuda-sim")
        multi = MultiDeviceBackend.with_devices("a100", 2)
        threads = demote_backend(gpu)
        assert isinstance(threads, ThreadsBackend)
        assert isinstance(demote_backend(multi), ThreadsBackend)
        serial = demote_backend(threads)
        assert isinstance(serial, SerialBackend)
        assert demote_backend(serial) is None
        assert demote_backend(InterpreterBackend()) is None  # nothing below

    def test_gpusim_permanent_demotes_to_threads(self):
        repro.set_backend("cuda-sim")
        repro.set_launch_policy(FAST)
        repro.set_fault_plan(
            FaultPlan(scheduled=[InjectedFault("gpusim.launch", 0, "permanent")])
        )
        x = repro.array(np.zeros(64))
        y = repro.array(np.ones(64))
        repro.parallel_for(64, axpy, 3.0, x, y)  # completes despite the fault
        np.testing.assert_array_equal(repro.to_host(x), 3.0)
        # Sticky: the context now routes launches to the fallback.
        assert isinstance(repro.active_backend(), ThreadsBackend)
        events = repro.current_context().fault_events
        assert any(e.action == "failover" for e in events)

    def test_threads_permanent_demotes_to_serial(self):
        repro.set_backend("threads")
        repro.set_launch_policy(FAST)
        # No device_id: the fault is not sticky, it just kills this chunk.
        repro.set_fault_plan(
            FaultPlan(scheduled=[InjectedFault("threads.chunk", 0, "permanent")])
        )
        x = np.zeros(64)
        repro.parallel_for(64, axpy, 1.0, x, np.ones(64))
        np.testing.assert_array_equal(x, 1.0)
        assert isinstance(repro.active_backend(), SerialBackend)

    def test_failover_disabled_raises(self):
        repro.set_backend("threads")
        repro.set_launch_policy(LaunchPolicy(failover=False, backoff_base=0.0))
        repro.set_fault_plan(
            FaultPlan(scheduled=[InjectedFault("threads.chunk", 0, "permanent")])
        )
        with pytest.raises(PermanentDeviceError):
            repro.parallel_for(64, axpy, 1.0, np.zeros(64), np.ones(64))

    def test_device_arrays_survive_failover(self):
        # Buffers allocated on the failed GPU remain usable: the demoted
        # CPU backend adopts the simulated device storage directly.
        repro.set_backend("cuda-sim")
        repro.set_launch_policy(FAST)
        x = repro.array(np.arange(16.0))
        repro.set_fault_plan(
            FaultPlan(scheduled=[InjectedFault("gpusim.launch", 0, "permanent")])
        )
        repro.parallel_for(16, axpy, 1.0, x, repro.array(np.ones(16)))
        np.testing.assert_array_equal(repro.to_host(x), np.arange(16.0) + 1.0)


class TestMultiDeviceFailover:
    def test_dead_device_chunks_rebalanced_mid_plan(self):
        backend = MultiDeviceBackend.with_devices("a100", 2)
        repro.set_backend(backend)
        repro.set_launch_policy(FAST)
        plan = FaultPlan(
            scheduled=[
                InjectedFault(
                    "multidevice.chunk", 0, "permanent", device_id="a100[1]"
                )
            ]
        )
        repro.set_fault_plan(plan)
        x = repro.array(np.zeros(1 << 10))
        y = repro.array(np.ones(1 << 10))
        repro.parallel_for(1 << 10, axpy, 2.0, x, y)
        # Every row completed even though device 1 died mid-launch.
        np.testing.assert_array_equal(repro.to_host(x), 2.0)
        assert backend.failed_devices == ("a100[1]",)
        # Subsequent launches schedule only the survivor.
        assert [d.name for d in backend.alive_devices()] == ["a100[0]"]
        repro.parallel_for(1 << 10, axpy, 1.0, x, y)
        np.testing.assert_array_equal(repro.to_host(x), 3.0)

    def test_all_devices_dead_demotes_backend(self):
        backend = MultiDeviceBackend.with_devices("a100", 2)
        repro.set_backend(backend)
        repro.set_launch_policy(FAST)
        plan = FaultPlan()
        plan.kill_device("a100[0]")
        plan.kill_device("a100[1]")
        repro.set_fault_plan(plan)
        x = repro.array(np.zeros(256))
        repro.parallel_for(256, axpy, 1.0, x, repro.array(np.ones(256)))
        np.testing.assert_array_equal(repro.to_host(x), 1.0)
        assert isinstance(repro.active_backend(), ThreadsBackend)

    def test_reduce_correct_after_device_loss(self):
        backend = MultiDeviceBackend.with_devices("a100", 2)
        repro.set_backend(backend)
        repro.set_launch_policy(FAST)
        repro.set_fault_plan(
            FaultPlan(
                scheduled=[
                    InjectedFault(
                        "multidevice.chunk", 0, "permanent", device_id="a100[0]"
                    )
                ]
            )
        )
        n = 1 << 10
        total = repro.parallel_reduce(
            n, dot, repro.array(np.ones(n)), repro.array(np.ones(n))
        )
        assert total == float(n)


class TestStructuredDeviceErrors:
    def test_transient_and_permanent_flags(self):
        assert TransientDeviceError(device_id="d0", operation="launch").transient
        assert not PermanentDeviceError(device_id="d0").transient
        assert not DeviceError().transient

    def test_auto_message_from_fields(self):
        err = DeviceError(device_id="a100[0]", operation="to_device")
        assert "to_device" in str(err) and "a100[0]" in str(err)

    def test_freed_array_error_identifies_device_and_operation(self):
        dev = Device("a100")
        handle = dev.to_device(np.zeros(4))
        handle.free()
        with pytest.raises(DeviceError) as ei:
            handle.storage(dev)
        assert ei.value.device_id == dev.name
        assert ei.value.operation == "storage"

    def test_oom_error_identifies_operation(self):
        dev = Device("a100", capacity_bytes=1000)
        with pytest.raises(MemoryError_) as ei:
            dev.to_device(np.zeros(1000))
        assert ei.value.operation == "allocate"


class TestNoPlanIsNoop:
    def test_results_and_cache_unaffected_by_zero_rate_plan(self):
        repro.set_backend("threads")
        x1 = np.arange(64.0)
        repro.parallel_for(64, axpy, 2.0, x1, np.ones(64))  # warm the cache
        before = repro.cache_info()
        # A zero-rate plan may probe but must change nothing observable.
        repro.set_fault_plan(FaultPlan(seed=9))
        x2 = np.arange(64.0)
        repro.parallel_for(64, axpy, 2.0, x2, np.ones(64))
        after = repro.cache_info()
        np.testing.assert_array_equal(x1, x2)
        assert after["misses"] == before["misses"]  # no recompilation
        repro.set_fault_plan(None)
        x3 = np.arange(64.0)
        repro.parallel_for(64, axpy, 2.0, x3, np.ones(64))
        np.testing.assert_array_equal(x1, x3)

    def test_no_events_recorded_without_faults(self):
        repro.set_backend("serial")
        ctx = repro.current_context()
        n_before = len(ctx.fault_events)
        repro.parallel_for(32, axpy, 1.0, np.zeros(32), np.ones(32))
        assert len(ctx.fault_events) == n_before


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(128)
        original = x.copy()
        ck = SolverCheckpoint(interval=5)
        ck.save(5, x=x, rr=3.25, norms=[1.0, 0.5])
        x[:] = -1.0  # corrupt the live state
        snap = ck.restore()
        assert np.array_equal(snap["x"], original)
        assert snap["x"].dtype == original.dtype
        assert snap["rr"] == 3.25 and snap["norms"] == [1.0, 0.5]

    def test_restore_hands_out_fresh_copies(self):
        ck = SolverCheckpoint()
        ck.save(1, v=np.ones(4))
        first = ck.restore()
        first["v"][:] = 99.0  # must not corrupt the snapshot
        second = ck.restore()
        assert np.array_equal(second["v"], np.ones(4))
        assert first["v"] is not second["v"]

    def test_due_schedule(self):
        ck = SolverCheckpoint(interval=3)
        assert [i for i in range(10) if ck.due(i)] == [3, 6, 9]

    def test_restore_without_snapshot_raises(self):
        with pytest.raises(CheckpointError):
            SolverCheckpoint().restore()

    def test_restore_budget_enforced(self):
        ck = SolverCheckpoint(max_restores=1)
        ck.save(1, v=1.0)
        ck.restore()
        with pytest.raises(CheckpointError):
            ck.restore()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SolverCheckpoint(interval=0)
        with pytest.raises(ValueError):
            SolverCheckpoint(max_restores=-1)


class TestSolverResilience:
    """The acceptance scenario: HPCCG through retry + failover + restart."""

    def _solve_clean(self, a, b):
        repro.set_backend(MultiDeviceBackend.with_devices("a100", 2))
        return hpccg_solve(a, b)

    def test_hpccg_survives_device_loss_and_retry_exhaustion(self):
        a, b, x_exact = build_27pt_problem(6, 6, 6)
        res_clean = self._solve_clean(a, b)
        assert res_clean.converged

        backend = MultiDeviceBackend.with_devices("a100", 2)
        repro.set_backend(backend)
        repro.set_launch_policy(FAST)
        # Iteration 2: device 1 falls off the bus (its 15th chunk probe);
        # the backend rebalances onto device 0.  Iteration ~4: a burst of
        # four consecutive transients on the survivor exhausts the retry
        # budget (max_retries=3), so the error escapes to the solver and
        # the checkpoint rolls the CG recurrence back one iteration.
        repro.set_fault_plan(
            FaultPlan(
                scheduled=[
                    InjectedFault(
                        "multidevice.chunk", 14, "permanent", device_id="a100[1]"
                    )
                ]
                + [
                    InjectedFault(
                        "multidevice.chunk", k, "transient", device_id="a100[0]"
                    )
                    for k in range(30, 34)
                ]
            )
        )
        ck = SolverCheckpoint(interval=1)
        res = hpccg_solve(a, b, checkpoint=ck)

        assert res.converged
        assert backend.failed_devices == ("a100[1]",)
        assert ck.restores == 1
        # Same residual as the fault-free run, and the right answer.
        assert abs(res.final_residual - res_clean.final_residual) < 1e-12
        assert np.max(np.abs(res.x - x_exact)) < 1e-8
        events = repro.current_context().fault_events
        actions = {e.action for e in events}
        assert {"retry", "failover", "exhausted", "restore"} <= actions

    def test_cg_without_snapshot_reraises(self):
        backend = MultiDeviceBackend.with_devices("a100", 2)
        repro.set_backend(backend)
        repro.set_launch_policy(LaunchPolicy(max_retries=0, backoff_base=0.0))
        repro.set_fault_plan(
            FaultPlan(
                scheduled=[
                    InjectedFault("multidevice.chunk", 0, "transient"),
                ]
            )
        )
        a, b, _ = build_27pt_problem(3, 3, 3)
        with pytest.raises(TransientDeviceError):
            hpccg_solve(a, b)  # no checkpoint= → the fault surfaces

    def test_lbm_checkpoint_restart(self):
        from repro.apps.lbm import LBM

        repro.set_backend("threads")
        repro.set_launch_policy(FAST)
        sim_clean = LBM(n=16, lid_velocity=0.05)
        sim_clean.step(8)
        rho_clean, _, _ = sim_clean.macroscopic()

        repro.set_fault_plan(None)
        sim = LBM(n=16, lid_velocity=0.05)
        ck = SolverCheckpoint(interval=2)
        sim.step(4, checkpoint=ck)
        # Steps 5+: exhaust the retry budget once; LBM must roll back to
        # the step-4 snapshot and replay to the same state.
        repro.set_launch_policy(LaunchPolicy(max_retries=1, backoff_base=0.0))
        plan = FaultPlan(
            scheduled=[
                InjectedFault("threads.chunk", k, "transient") for k in range(2)
            ]
        )
        repro.set_fault_plan(plan)
        sim.step(4, checkpoint=ck)
        assert sim.steps_taken == 8
        rho, _, _ = sim.macroscopic()
        np.testing.assert_allclose(rho, rho_clean, rtol=0, atol=1e-13)


class TestBenchIntegration:
    def test_global_stats_shape(self):
        stats = global_fault_stats()
        for key in (
            "probes",
            "transients_injected",
            "permanents_injected",
            "retries",
            "retry_exhausted",
            "failovers",
            "checkpoint_saves",
            "checkpoint_restores",
        ):
            assert key in stats and isinstance(stats[key], int)

    def test_bench_json_embeds_fault_counters(self, tmp_path):
        import json

        from repro.bench.__main__ import main

        path = tmp_path / "out.json"
        assert main(["fig13", "--n", "4096", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert "faults" in doc
        assert set(doc["faults"]) == set(global_fault_stats())
