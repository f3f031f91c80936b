"""Launch-graph capture, fusion, and replay (repro.graph).

Three layers of guarantees:

* mechanism — capture records staged plans, slots rebind without
  recompiling, fusion merges adjacent elementwise launches, regions
  memoize and degrade safely;
* differential — for CG, HPCCG, and LBM, a graphs-on run is
  **bit-identical** to a graphs-off run on every backend family,
  including fault accounting under a seeded FaultPlan;
* resource — replays draw every scratch buffer from the pre-sized
  arena (zero pool growth) and never churn the kernel cache.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.cg import cg_solve, tridiagonal_system
from repro.apps.hpccg import build_27pt_problem, hpccg_solve
from repro.apps.lbm import LBM
from repro.backends.multidevice import MultiDeviceBackend
from repro.core import current_context, parallel_for, parallel_reduce
from repro.core.exceptions import GraphError
from repro.faults import FaultPlan, InjectedFault, LaunchPolicy
from repro.graph import GraphRegion, ScalarSlot, graph_stats, reset_graph_stats
from repro.ir.compile import (
    cache_info,
    clear_cache,
    set_executor_mode,
)
from repro.ir.nativecache import resolve_cc

FAST = LaunchPolicy(max_retries=3, backoff_base=0.0)

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Backend families the differential suite sweeps (ISSUE 5 acceptance).
BACKENDS = ["serial", "threads", "cuda-sim", "multi-sim"]


@pytest.fixture(autouse=True)
def fresh():
    clear_cache()
    repro.set_graph_mode("on")
    reset_graph_stats()
    yield
    repro.set_fault_plan(None)
    repro.set_launch_policy(None)
    repro.set_graph_mode(None)
    repro.set_backend("serial")
    set_executor_mode(None)
    clear_cache()


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


def scale(i, alpha, x):
    x[i] *= alpha


# ---------------------------------------------------------------------------
# Capture mechanism
# ---------------------------------------------------------------------------


class TestCapture:
    def test_capture_records_plans_and_executes_eagerly(self):
        repro.set_backend("threads")
        ctx = current_context()
        x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))
        with ctx.capture() as cap:
            parallel_for(64, axpy, 2.0, x, y)
            s = parallel_reduce(64, dot, x, y)
        # relaxed capture: the capture iteration already executed
        assert s == pytest.approx(128.0)
        graph = cap.graph("t")
        assert len(graph.nodes) == 2
        assert graph.nodes[0].plan.construct == "for"
        assert graph.nodes[1].plan.is_reduce

    def test_nested_capture_raises(self):
        repro.set_backend("serial")
        ctx = current_context()
        with ctx.capture():
            with pytest.raises(GraphError, match="nested"):
                with ctx.capture():
                    pass  # pragma: no cover

    def test_scalar_slot_algebra_raises(self):
        slot = ScalarSlot("alpha", 2.0)
        with pytest.raises(GraphError, match="alpha"):
            _ = slot * 2.0
        with pytest.raises(GraphError):
            _ = -slot
        with pytest.raises(GraphError):
            float(slot)

    def test_slots_recorded_and_rebind_on_replay(self):
        repro.set_backend("threads")
        ctx = current_context()
        x, y = repro.array(np.zeros(32)), repro.array(np.ones(32))
        with ctx.capture() as cap:
            parallel_for(32, axpy, ScalarSlot("alpha", 1.0), x, y)
        inst = cap.graph("t").instantiate(ctx)
        assert inst.slot_names == {"alpha"}
        inst.replay(alpha=10.0)
        host = repro.to_host(x)
        assert np.allclose(host, 11.0)  # 1.0 (capture) + 10.0 (replay)

    def test_replay_slot_mismatch_raises(self):
        repro.set_backend("serial")
        ctx = current_context()
        x = repro.array(np.ones(8))
        with ctx.capture() as cap:
            parallel_for(8, scale, ScalarSlot("alpha", 1.0), x)
        inst = cap.graph("t").instantiate(ctx)
        with pytest.raises(GraphError, match="missing"):
            inst.replay()
        with pytest.raises(GraphError, match="unknown"):
            inst.replay(alpha=1.0, beta=2.0)

    def test_invalidated_graph_refuses_replay(self):
        repro.set_backend("serial")
        ctx = current_context()
        x = repro.array(np.ones(8))
        with ctx.capture() as cap:
            parallel_for(8, scale, 2.0, x)
        inst = cap.graph("t").instantiate(ctx)
        inst.invalidate()
        with pytest.raises(GraphError, match="invalidated"):
            inst.replay()

    def test_capture_across_backends_is_refused(self):
        # A set_backend inside the capture is not a failover: replay would
        # take it for one, run once, then refuse "(backend demoted)".  A
        # graph replays on the backend it was recorded on.
        repro.set_backend("serial")
        ctx = current_context()
        x = repro.array(np.ones(8))
        with ctx.capture() as cap:
            for _ in range(3):
                parallel_for(8, scale, 2.0, x)
            repro.set_backend("threads")
            parallel_for(8, scale, 2.0, x)
        with pytest.raises(GraphError, match="'serial' and 'threads'"):
            cap.graph("t").instantiate(ctx)
        with ctx.capture() as cap:
            parallel_for(8, scale, 2.0, x)
        repro.set_backend("serial")  # between the capture and instantiate
        inst = cap.graph("t").instantiate(ctx)
        inst.replay()
        inst.replay()
        assert inst.valid and np.all(repro.to_host(x) == 2.0**7)

    def test_capture_time_failover_replays_once_then_invalidates(self):
        repro.set_backend("threads")
        repro.set_launch_policy(FAST)
        repro.set_fault_plan(
            FaultPlan(scheduled=[InjectedFault("threads.chunk", 1, "permanent")])
        )
        ctx = current_context()
        x, y = np.zeros(64), np.ones(64)
        with ctx.capture() as cap:
            parallel_for(64, axpy, 1.0, x, y)
            parallel_for(64, axpy, 1.0, x, y)  # fails over to serial
        graph = cap.graph("t")
        assert graph.nodes[0].plan.backend is not graph.nodes[1].plan.backend
        inst = graph.instantiate(ctx, fuse=False)
        inst.replay()
        np.testing.assert_array_equal(x, 4.0)
        assert not inst.valid

    def test_capture_time_failover_replays_each_node_on_its_own_backend(self):
        # The replay after a capture-time failover runs node 0 on the
        # backend it was staged on and node 1 on the fallback — never
        # node 1 back on the backend that failed it.
        repro.set_backend("threads")
        repro.set_launch_policy(FAST)
        repro.set_fault_plan(
            FaultPlan(scheduled=[InjectedFault("threads.chunk", 1, "permanent")])
        )
        ctx = current_context()
        x, y = np.zeros(64), np.ones(64)
        with ctx.capture() as cap:
            parallel_for(64, axpy, 1.0, x, y)
            parallel_for(64, axpy, 1.0, x, y)  # fails over to serial
        graph = cap.graph("t")
        inst = graph.instantiate(ctx, fuse=False)
        backends = [node.plan.backend for node in inst.nodes]
        launches = [b.accounting.n_kernel_launches for b in backends]
        inst.replay()
        assert [node.plan.backend.name for node in inst.nodes] == ["threads", "serial"]
        assert [b.accounting.n_kernel_launches - n for b, n in zip(backends, launches)] == [1, 1]
        np.testing.assert_array_equal(x, 4.0)
        assert not inst.valid

    def test_value_specialized_slot_recompiles_on_change(self):
        # loop bound baked into the trace: rebinding it must recompile,
        # not silently reuse the stale specialization.
        def powsum(i, x, m):
            s = 0.0
            for _ in range(m):
                s += x[i]
            x[i] = s

        repro.set_backend("serial")
        ctx = current_context()
        x = repro.array(np.ones(16))
        with ctx.capture() as cap:
            parallel_for(16, powsum, x, ScalarSlot("m", 2))
        inst = cap.graph("t").instantiate(ctx)
        inst.replay(m=3)  # 2.0 * 3
        assert np.allclose(repro.to_host(x), 6.0)
        inst.replay(m=2)  # 6.0 * 2 — back to the captured value
        assert np.allclose(repro.to_host(x), 12.0)


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------


class TestFusion:
    def test_adjacent_elementwise_launches_fuse(self):
        repro.set_backend("threads")
        ctx = current_context()
        x, y = repro.array(np.zeros(128)), repro.array(np.ones(128))
        with ctx.capture() as cap:
            parallel_for(128, axpy, 2.0, x, y)
            parallel_for(128, scale, 0.5, x)
        inst = cap.graph("t").instantiate(ctx)
        assert inst.fused_pairs == 1
        assert inst.n_nodes == 1
        inst.replay()
        # capture: x = (0 + 2)*0.5 = 1; replay: (1 + 2)*0.5 = 1.5
        assert np.allclose(repro.to_host(x), 1.5)

    def test_trailing_reduce_inlines_into_fused_program(self):
        repro.set_backend("threads")
        ctx = current_context()
        x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))
        with ctx.capture() as cap:
            parallel_for(64, axpy, 1.0, x, y)
            r = parallel_reduce(64, dot, x, x)
        inst = cap.graph("t").instantiate(
            ctx, return_convention=("single", 1)
        )
        assert inst.n_nodes == 1
        assert inst.nodes[0].plan.is_reduce
        assert r == pytest.approx(64.0)
        assert inst.replay() == pytest.approx(64.0 * 4)  # x now all 2.0

    def test_fused_result_matches_unfused(self):
        rng = np.random.default_rng(7)
        xs0, ys0 = rng.normal(size=256), rng.normal(size=256)
        repro.set_backend("threads")
        ctx = current_context()

        def run(fuse):
            x, y = repro.array(xs0.copy()), repro.array(ys0.copy())
            with ctx.capture() as cap:
                parallel_for(256, axpy, 1.5, x, y)
                r = parallel_reduce(256, dot, x, y)
            inst = cap.graph("t").instantiate(
                ctx, fuse=fuse, return_convention=("single", 1)
            )
            return inst.replay(), repro.to_host(x).copy()

        r_fused, x_fused = run(True)
        r_plain, x_plain = run(False)
        assert r_fused == r_plain  # bit-identical, not approx
        assert np.array_equal(x_fused, x_plain)

    def test_independent_domains_do_not_fuse(self):
        repro.set_backend("threads")
        ctx = current_context()
        x = repro.array(np.ones(64))
        z = repro.array(np.ones(32))
        with ctx.capture() as cap:
            parallel_for(64, scale, 2.0, x)
            parallel_for(32, scale, 2.0, z)  # different domain
        inst = cap.graph("t").instantiate(ctx)
        assert inst.fused_pairs == 0
        assert inst.n_nodes == 2

    def test_gather_over_written_array_blocks_fusion(self):
        # b reads a[i+1] after a[i] was written: chunk interleaving
        # would see half-updated neighbours, so fusion must decline.
        def shift_read(i, a, out, n):
            if i < n - 1:
                out[i] = a[i + 1]

        repro.set_backend("threads")
        ctx = current_context()
        a = repro.array(np.zeros(64))
        out = repro.array(np.zeros(64))
        with ctx.capture() as cap:
            parallel_for(64, scale, 2.0, a)
            parallel_for(64, shift_read, a, out, 64)
        inst = cap.graph("t").instantiate(ctx)
        assert inst.fused_pairs == 0


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


class TestGraphRegion:
    def test_region_captures_once_then_replays(self):
        repro.set_backend("threads")
        region = GraphRegion("t.region")
        x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))

        def body(alpha):
            parallel_for(64, axpy, alpha, x, y)
            return parallel_reduce(64, dot, x, y)

        r1 = region.run((id(x), id(y)), body, alpha=1.0)
        r2 = region.run((id(x), id(y)), body, alpha=1.0)
        assert r1 == pytest.approx(64.0)
        assert r2 == pytest.approx(128.0)
        st = region.stats()
        assert st["graphs"] == 1
        assert st["replays"] == 1

    def test_region_off_mode_dispatches_directly(self):
        repro.set_graph_mode("off")
        assert not repro.graphs_enabled()
        repro.set_backend("serial")
        region = GraphRegion("t.off")
        x = repro.array(np.ones(16))
        for _ in range(3):
            region.run((id(x),), lambda: parallel_for(16, scale, 2.0, x))
        assert np.allclose(repro.to_host(x), 8.0)
        assert region.stats()["graphs"] == 0

    def test_region_body_switching_backends_is_uncaptureable(self):
        repro.set_backend("serial")
        region = GraphRegion("t.switch")
        x = repro.array(np.ones(16))

        def body():
            repro.set_backend("serial")
            parallel_for(16, scale, 2.0, x)
            repro.set_backend("threads")
            parallel_for(16, scale, 2.0, x)

        for _ in range(3):
            region.run((id(x),), body)
        assert np.allclose(repro.to_host(x), 64.0)
        assert region.stats()["graphs"] == 0

    def test_region_inside_capture_degrades_to_direct(self):
        repro.set_backend("serial")
        ctx = current_context()
        region = GraphRegion("t.nested")
        x = repro.array(np.ones(16))
        with ctx.capture() as cap:
            region.run((id(x),), lambda: parallel_for(16, scale, 2.0, x))
        # the outer capture absorbed the launch; the region stayed empty
        assert len(cap.graph("outer").nodes) == 1
        assert region.stats()["graphs"] == 0

    def test_host_derived_return_marks_uncaptureable(self):
        repro.set_backend("serial")
        region = GraphRegion("t.unc")
        x, y = repro.array(np.ones(16)), repro.array(np.ones(16))

        def body():
            r = parallel_reduce(16, dot, x, y)
            return r * 2.0  # host arithmetic: not a node result

        before = graph_stats()["uncaptureable"]
        assert region.run((id(x), id(y)), body) == pytest.approx(32.0)
        assert region.run((id(x), id(y)), body) == pytest.approx(32.0)
        assert graph_stats()["uncaptureable"] == before + 1
        assert region.stats()["graphs"] == 0

    def test_host_value_equal_to_a_reduce_is_not_replayed_as_it(self):
        # abs(dot) == dot while y > 0: matching by value captured the
        # body as "return the reduce", and the replay after y flipped
        # sign returned -1024.0 where PYACC_GRAPH=off returns 1024.0.
        repro.set_backend("serial")
        n = 1024
        region = GraphRegion("t.abs")
        x, y = repro.array(np.ones(n)), repro.array(np.ones(n))

        def body():
            return abs(parallel_reduce(n, dot, x, y))

        assert region.run((id(x), id(y)), body) == 1024.0
        parallel_for(n, scale, -1.0, y)
        assert region.run((id(x), id(y)), body) == 1024.0
        assert graph_stats()["uncaptureable"] == 1
        assert region.stats()["graphs"] == 0

    def test_equal_valued_reduces_still_capture(self):
        repro.set_backend("serial")
        n = 64
        region = GraphRegion("t.twins")
        x, y, z = (repro.array(np.ones(n)) for _ in range(3))

        def body():
            return (
                parallel_reduce(n, dot, x, y),
                parallel_reduce(n, dot, x, z),
            )

        assert region.run((id(x), id(y), id(z)), body) == (64.0, 64.0)
        parallel_for(n, scale, 2.0, z)
        assert region.run((id(x), id(y), id(z)), body) == (64.0, 128.0)
        assert graph_stats()["uncaptureable"] == 0
        assert region.stats()["replays"] == 1

    def test_nan_reduce_still_captures(self):
        repro.set_backend("serial")
        n = 16
        region = GraphRegion("t.nan")
        x, y = repro.array(np.full(n, np.nan)), repro.array(np.ones(n))

        def body():
            return parallel_reduce(n, dot, x, y)

        assert np.isnan(region.run((id(x), id(y)), body))
        assert np.isnan(region.run((id(x), id(y)), body))
        assert graph_stats()["uncaptureable"] == 0
        assert region.stats()["replays"] == 1

    def test_new_array_identity_recaptures(self):
        repro.set_backend("serial")
        region = GraphRegion("t.rebind")
        y = repro.array(np.ones(16))
        for _ in range(2):
            x = repro.array(np.zeros(16))
            region.run(
                (id(x), id(y)),
                lambda x=x: parallel_for(16, axpy, 1.0, x, y),
            )
            assert np.allclose(repro.to_host(x), 1.0)
        assert region.stats()["graphs"] == 2

    def test_region_fifo_bound(self):
        repro.set_backend("serial")
        region = GraphRegion("t.bound", max_graphs=2)
        for _ in range(5):
            x = repro.array(np.zeros(8))
            region.run((id(x),), lambda x=x: parallel_for(8, scale, 2.0, x))
        assert region.stats()["graphs"] <= 2


# ---------------------------------------------------------------------------
# Differential: graphs off vs on, all backend families (ISSUE 5 acceptance)
# ---------------------------------------------------------------------------


def _run_cg(n=96):
    lower, diag, upper, b = tridiagonal_system(n)
    res = cg_solve(lower, diag, upper, b, tol=1e-12)
    return res.x, res.final_residual, res.iterations


def _run_hpccg():
    a, b, _ = build_27pt_problem(4, 4, 4)
    res = hpccg_solve(a, b)
    return res.x, res.final_residual, res.iterations


def _run_lbm():
    sim = LBM(10, tau=0.7, lid_velocity=0.08)
    sim.step(6)
    return (sim.distribution(),)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "runner", [_run_cg, _run_hpccg, _run_lbm], ids=["cg", "hpccg", "lbm"]
)
class TestDifferential:
    def test_graphs_on_bit_identical_to_off(self, backend, runner):
        repro.set_backend(backend)
        repro.set_graph_mode("off")
        off = runner()
        repro.set_graph_mode("on")
        base = graph_stats()
        on = runner()
        stats = graph_stats()
        assert stats["captures"] > base["captures"]
        assert stats["replays"] > base["replays"]
        for a, b in zip(off, on):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)  # bitwise, not allclose
            else:
                assert a == b


class TestFaultParity:
    def _fault_plan(self):
        return FaultPlan(
            scheduled=[
                InjectedFault(
                    "multidevice.chunk", 9, "transient", device_id="a100[0]"
                ),
                InjectedFault(
                    "multidevice.chunk", 23, "transient", device_id="a100[1]"
                ),
            ]
        )

    def _solve(self):
        repro.set_backend(MultiDeviceBackend.with_devices("a100", 2))
        repro.set_launch_policy(FAST)
        repro.set_fault_plan(self._fault_plan())
        ctx = current_context()
        n_before = len(ctx.fault_events)
        a, b, _ = build_27pt_problem(4, 4, 4)
        res = hpccg_solve(a, b)
        events = [
            (e.site, e.kind, e.action)
            for e in ctx.fault_events[n_before:]
        ]
        repro.set_fault_plan(None)
        return res, events

    def test_seeded_faults_identical_accounting_on_and_off(self):
        repro.set_graph_mode("off")
        res_off, ev_off = self._solve()
        repro.set_graph_mode("on")
        res_on, ev_on = self._solve()
        assert ev_off == ev_on  # same injection ordinals → same ledger
        assert "retry" in {a for _, _, a in ev_on}
        assert res_off.final_residual == res_on.final_residual
        assert np.array_equal(res_off.x, res_on.x)


class TestNativeExecutorParity:
    """Graph capture/replay under ``PYACC_EXECUTOR=native``-equivalent
    selection: replays run the compiled C loops, bits stay identical to
    the codegen executor, and the capture machinery still counts."""

    @pytest.mark.skipif(
        resolve_cc() is None, reason="no C compiler on host"
    )
    @pytest.mark.parametrize(
        "runner", [_run_cg, _run_lbm], ids=["cg", "lbm"]
    )
    def test_native_replay_bit_identical_to_codegen(self, runner):
        repro.set_backend("serial")
        repro.set_graph_mode("on")
        set_executor_mode("codegen")
        ref = runner()
        set_executor_mode("native")
        clear_cache()
        base = graph_stats()
        out = runner()
        stats = graph_stats()
        set_executor_mode(None)
        assert stats["captures"] > base["captures"]
        assert stats["replays"] > base["replays"]
        for a, b in zip(ref, out):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b

    @pytest.mark.skipif(
        resolve_cc() is None, reason="no C compiler on host"
    )
    def test_native_kernels_are_not_hoisted(self):
        # the hoist pass exists to amortize Python dispatch; a native
        # kernel's replay main IS the C loop, so it must stay un-hoisted
        set_executor_mode("native")
        try:
            repro.set_backend("serial")
            region = GraphRegion("t.native")
            x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))

            def body(alpha):
                parallel_for(64, axpy, alpha, x, y)

            key = (id(x), id(y))
            region.run(key, body, alpha=1.0)
            region.run(key, body, alpha=2.0)
            assert region.stats()["replays"] == 1
            np.testing.assert_array_equal(repro.to_host(x), np.full(64, 3.0))
        finally:
            set_executor_mode(None)


# ---------------------------------------------------------------------------
# Resource invariants (satellites 1 + 2)
# ---------------------------------------------------------------------------


class TestResourceInvariants:
    def test_replay_causes_zero_arena_growth(self):
        repro.set_backend("threads")
        ctx = current_context()
        region = GraphRegion("t.arena")
        x, y = repro.array(np.zeros(512)), repro.array(np.ones(512))

        def body(alpha):
            parallel_for(512, axpy, alpha, x, y)
            return parallel_reduce(512, dot, x, y)

        key = (id(x), id(y))
        region.run(key, body, alpha=1.0)  # capture + instantiate(reserve)
        created = ctx.arena.stats()["buffers_created"]
        for k in range(8):
            region.run(key, body, alpha=float(k))
        after = ctx.arena.stats()
        assert after["buffers_created"] == created  # zero growth
        assert region.stats()["replays"] == 8

    @pytest.mark.skipif(resolve_cc() is None, reason="no C compiler on host")
    @pytest.mark.parametrize("solver", ["cg", "hpccg"])
    def test_native_solver_graphs_reserve_no_arena_bytes(self, solver):
        """Native nodes are C loops with no temporaries and their DOTs
        add-fold in C: a solve's instantiations reserve nothing (the
        arena allocates nothing at all) and replay draws nothing."""
        from repro.ir.cgen import fold_in_c

        set_executor_mode("native")
        if not fold_in_c():
            pytest.skip("this host's add-reduces lease lanes (fold decline)")
        repro.set_backend("threads")
        arena = current_context().arena
        before = arena.stats()["bytes_allocated"]
        if solver == "cg":
            assert cg_solve(*tridiagonal_system(512)).converged
        else:
            a, b, _ = build_27pt_problem(6, 6, 6)
            assert hpccg_solve(a, b).converged
        stats = graph_stats()
        assert stats["captures"] > 0 and stats["replays"] > 0
        assert arena.stats()["bytes_allocated"] == before

    @pytest.mark.parametrize(
        "executor, op", [("native", "min"), ("codegen", "add")]
    )
    def test_leasing_graphs_still_replay_with_zero_arena_growth(
        self, executor, op
    ):
        """What does draw from the arena — a native ``min`` reduce's
        lane buffer, the codegen rung's ``out=`` temporaries — is still
        reserved at instantiation, so replays allocate nothing."""
        set_executor_mode(executor)
        repro.set_backend("threads")
        arena = current_context().arena
        region = GraphRegion(f"t.lease.{executor}.{op}")
        n = 1 << 15  # above the pool cutoff: one frame per chunk
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))

        def body(alpha):
            parallel_for(n, axpy, alpha, x, y)
            return parallel_reduce(n, dot, x, y, op=op)

        key = (id(x), id(y))
        region.run(key, body, alpha=1.0)  # capture + instantiate(reserve)
        # Every replay runs the units the build reserved for: none is
        # still compiling (a cold fused unit would install mid-loop).
        repro.synchronize()
        created = arena.stats()["buffers_created"]
        for k in range(4):
            got = region.run(key, body, alpha=float(k))
        assert region.stats()["replays"] == 4
        assert arena.stats()["buffers_created"] == created
        assert got == (n * 7.0 if op == "add" else 7.0)

    #: The ``[native-min]`` case of the test above, in a child on an
    #: empty native cache: two eager warm-ups, and no
    #: ``repro.synchronize()`` after the capture.
    PENDING_CHILD = """
import json
import numpy as np
import repro
from repro import parallel_for, parallel_reduce
from repro.core import current_context
from repro.graph import GraphRegion
from repro.ir.compile import set_executor_mode

def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]

def dot(i, x, y):
    return x[i] * y[i]

set_executor_mode("native")
repro.set_backend("threads")
repro.set_graph_mode("on")
arena = current_context().arena
region = GraphRegion("t.lease.pending")
n = 1 << 15
x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))

def body(alpha):
    parallel_for(n, axpy, alpha, x, y)
    return parallel_reduce(n, dot, x, y, op="min")

for _ in range(2):
    body(1.0)
key = (id(x), id(y))
region.run(key, body, alpha=1.0)
created = arena.stats()["buffers_created"]
for k in range(4):
    got = region.run(key, body, alpha=float(k))
print(json.dumps([created, arena.stats()["buffers_created"], region.stats()["replays"], got]))
"""

    @pytest.mark.skipif(resolve_cc() is None, reason="no C compiler on host")
    def test_a_graph_built_while_its_fused_unit_compiles_replays_with_zero_arena_growth(
        self, tmp_path
    ):
        """The region's fused unit is still compiling when the graph is
        built: replays run its codegen program until it installs, then
        the C loop, and the build reserved what either rung draws."""
        env = dict(
            os.environ,
            PYTHONPATH=SRC,
            PYACC_EXECUTOR="codegen",
            PYACC_NATIVE_CACHE=str(tmp_path / "native"),
            PYACC_COMPILE_CACHE=str(tmp_path / "compile"),
        )
        env.pop("PYACC_FAULTS", None)  # an armed plan turns fusion off
        proc = subprocess.run(
            [sys.executable, "-c", self.PENDING_CHILD],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        created, after, replays, got = json.loads(proc.stdout.splitlines()[-1])
        assert replays == 4 and got == 9.0
        assert after == created

    def test_replay_causes_zero_cache_misses(self):
        repro.set_backend("threads")
        region = GraphRegion("t.cache")
        x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))

        def body(alpha):
            parallel_for(64, axpy, alpha, x, y)

        key = (id(x), id(y))
        region.run(key, body, alpha=1.0)
        misses = cache_info()["misses"]
        for k in range(6):
            region.run(key, body, alpha=float(k))
        assert cache_info()["misses"] == misses

    def test_closure_scalar_does_not_churn_cache_signature(self):
        # satellite 1 regression: re-entering a helper that defines its
        # kernel as a closure must hit the cache when the captured
        # scalars are equal — and miss (correctly) when they change.
        repro.set_backend("serial")

        def run(coef):
            def kern(i, x):
                x[i] += coef

            x = repro.array(np.zeros(16))
            parallel_for(16, kern, x)
            return repro.to_host(x)

        run(2.0)
        m1 = cache_info()["misses"]
        out = run(2.0)  # same closure value — same signature
        assert cache_info()["misses"] == m1
        assert np.allclose(out, 2.0)
        out = run(5.0)  # changed baked value — must recompile
        assert cache_info()["misses"] == m1 + 1
        assert np.allclose(out, 5.0)

    def test_graph_counters_surface_in_cache_info(self):
        info = cache_info()
        assert info["graph"]["mode"] in ("on", "off")
        assert {"captures", "replays", "fused_pairs"} <= set(info["graph"])
