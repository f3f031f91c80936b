"""Structural reuse of instantiated launch graphs (ISSUE 18).

``LaunchGraph.instantiate`` splits its product into a *structure* (the
post-fusion node list, no array) stored on the kernel cache and a
*binding* of one recording's arguments.  Guarantees under test:

* a second capture of a known structure rebinds — no fusion, no
  validation — and replays bit-identically to ``PYACC_GRAPH=off`` on
  the new arrays' contents;
* every component of the structural key forces a miss, and every
  fall-back (overlapping views, a validator warning, an unhashable
  scalar, a foreign context) takes the full path and stores nothing;
* the store holds no array, is bounded, and is emptied by
  ``clear_cache()``;
* the persistent compile cache keys the same walk: whatever the memory
  tier misses or refuses, the disk tier misses or refuses too, and a
  structure loaded from disk replays bitwise like the full build;
* hoisted (codegen-rung) nodes get prologue state per binding;
* the apps' per-solve regions ride on it: exact counter deltas per warm
  HPCCG solve, bitwise equal to graphs-off on serial/threads/cluster.
"""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.apps.hpccg import (
    ELLMatrix,
    build_27pt_problem,
    hpccg_solve,
    matvec_ell_kernel,
)
from repro.apps.lbm import LBM
from repro.backends.cluster import ClusterBackend, default_num_workers
from repro.backends.serial import SerialBackend
from repro.core import current_context, parallel_for, parallel_reduce
from repro.faults import FaultPlan, InjectedFault, LaunchPolicy
from repro.graph import GraphRegion, ScalarSlot, graph_stats, reset_graph_stats
from repro.ir import compilecache
from repro.ir.compile import (
    KernelCache,
    clear_cache,
    resolve_cache,
    set_executor_mode,
)
from repro.ir.diagnostics import KernelVerificationWarning
from repro.ir.validate import _CHECKERS, set_validate_mode

FAST = LaunchPolicy(max_retries=3, backoff_base=0.0)


@pytest.fixture(autouse=True)
def fresh():
    # Pin every mode the counts below depend on, whatever the CI leg's
    # environment says (PYACC_GRAPH=off, PYACC_PASSES=none, an ambient
    # PYACC_FAULTS plan, ...).
    repro.set_fault_plan(None)
    repro.set_launch_policy(None)
    repro.set_graph_mode("on")
    repro.set_passes_mode("all")
    set_validate_mode("warn")
    repro.set_backend("serial")
    clear_cache()
    reset_graph_stats()
    yield
    repro.set_fault_plan(None)
    repro.set_launch_policy(None)
    repro.set_graph_mode(None)
    repro.set_passes_mode(None)
    set_validate_mode(None)
    set_executor_mode(None)
    repro.set_backend("serial")
    clear_cache()


@pytest.fixture(params=["serial", "threads", "cluster"])
def backend(request):
    """The three CPU families, each as the registry builds it."""
    instance = repro.set_backend(request.param)
    yield instance
    repro.set_backend("serial")
    if request.param == "cluster":
        instance.close()


@pytest.fixture
def sharded_cluster():
    """A cluster that shards even these small domains across its
    worker processes (``PYACC_CLUSTER_WORKERS`` wide on CI's cluster
    legs).  A sharded fused reduce folds in a different order than the
    unfused pair, so graphs-off is not the bitwise reference here — a
    graph built in full is."""
    cluster = ClusterBackend(min_parallel_size=1, shm_threshold=1)
    repro.set_backend(cluster)
    yield cluster
    repro.set_backend("serial")
    cluster.close()


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


def pick(i, x, table):
    x[i] = table[0]


def _pair(n=64, *, alpha=2.0, dims=None, x=None, y=None, dtype=np.float64):
    """Record ``x += alpha*y; x.y`` over fresh arrays (unless given)."""
    ctx = current_context()
    x = repro.array(np.zeros(n, dtype=dtype)) if x is None else x
    y = repro.array(np.ones(n, dtype=dtype)) if y is None else y
    with ctx.capture() as cap:
        parallel_for(dims or n, axpy, alpha, x, y)
        parallel_reduce(dims or n, dot, x, y)
    return cap.graph("pair")


def _rebinds(recording, **kw) -> int:
    """Instantiate; how many rebinds that was (0 = the full path)."""
    before = graph_stats()["rebinds"]
    recording.instantiate(current_context(), **kw)
    return graph_stats()["rebinds"] - before


def _stored() -> int:
    return len(resolve_cache().structures)


# ---------------------------------------------------------------------------
# The mechanism
# ---------------------------------------------------------------------------


class TestRebind:
    def test_second_capture_rebinds_and_matches_graphs_off(self, backend):
        n = 96

        def run(seed):
            rng = np.random.default_rng(seed)
            x, y = repro.array(rng.random(n)), repro.array(rng.random(n))
            region = GraphRegion("t.reuse")

            def body(alpha):
                parallel_for(n, axpy, alpha, x, y)
                return parallel_reduce(n, dot, x, y)

            dots = [
                region.run((id(x), id(y)), body, alpha=a)
                for a in (0.5, -1.5, 2.0)
            ]
            return dots, repro.to_host(x).copy()

        repro.set_graph_mode("off")
        reference = [run(1), run(2)]
        repro.set_graph_mode("on")
        first = run(1)
        s1 = graph_stats()
        second = run(2)
        s2 = graph_stats()

        assert (s1["captures"], s1["rebinds"]) == (1, 0)
        assert (s2["captures"], s2["rebinds"]) == (2, 1)
        assert s1["validate"]["programs"] == s2["validate"]["programs"] == 1
        assert s1["passes"]["fuse"] == s2["passes"]["fuse"]
        assert s1["passes"]["fuse"]["applied"] == 1
        assert (s1["fused_pairs"], s2["fused_pairs"]) == (1, 2)
        assert s2["replays"] == 4 and s2["uncaptureable"] == 0
        for got, want in zip((first, second), reference):
            assert got[0] == want[0]
            np.testing.assert_array_equal(got[1], want[1])

    def test_rebound_equals_built_in_full_on_a_sharded_cluster(self, sharded_cluster):
        a, b, _ = build_27pt_problem(4, 4, 4)
        built = hpccg_solve(a, b, tol=1e-8)
        assert graph_stats()["rebinds"] == 0
        if default_num_workers() > 1:  # one worker runs inline
            assert repro.cluster_stats()["shards"] > 0
        for _ in range(2):
            rebound = hpccg_solve(a, b, tol=1e-8)
            assert rebound.residual_norms == built.residual_norms
            np.testing.assert_array_equal(rebound.x, built.x)
        assert graph_stats()["rebinds"] == 6

    def test_cold_and_rebound_graphs_have_the_same_shape(self, monkeypatch):
        # Only a full build keeps its dataflow program: no disk load.
        monkeypatch.setenv("PYACC_COMPILE_CACHE", "off")
        ctx = current_context()
        cold = _pair().instantiate(ctx)
        warm = _pair().instantiate(ctx)
        assert graph_stats()["rebinds"] == 1
        assert cold.program is not None and warm.program is None
        assert warm.n_nodes == cold.n_nodes == 1
        assert warm.fused_pairs == cold.fused_pairs == 1
        for a, b in zip(cold.nodes, warm.nodes):
            assert a.plan is not b.plan
            # (the kernel objects differ on the codegen rung: each
            # binding gets its own hoisted program)
            assert a.plan.kernel.trace is b.plan.kernel.trace
            assert a.plan.kernel.mode == b.plan.kernel.mode
            assert a.plan.schedule is b.plan.schedule
            assert a.slot_map == b.slot_map

    def test_recording_is_left_intact(self):
        # Binding builds new plans: instantiating one recording twice
        # hits the store the second time.
        recording = _pair()
        kernels = [id(node.plan.kernel) for node in recording.nodes]
        assert _rebinds(recording) == 0
        assert [id(node.plan.kernel) for node in recording.nodes] == kernels
        assert _rebinds(recording) == 1

    def test_slot_values_come_from_the_new_recording(self):
        ctx = current_context()

        def capture(alpha):
            x, y = repro.array(np.zeros(16)), repro.array(np.ones(16))
            with ctx.capture() as cap:
                parallel_for(16, axpy, ScalarSlot("alpha", alpha), x, y)
            return cap.graph("slot").instantiate(ctx), x

        capture(1.0)
        inst, x = capture(3.0)
        assert graph_stats()["rebinds"] == 1
        assert inst.nodes[0].plan.resolved_args[0] == 3.0
        inst.replay(alpha=0.5)
        np.testing.assert_array_equal(repro.to_host(x), 3.5)

    def test_return_convention_is_per_capture(self):
        # One structure, two conventions: the index map is stored, the
        # convention is not.
        ctx = current_context()
        _pair().instantiate(ctx, return_convention=("none",))
        inst = _pair().instantiate(ctx, return_convention=("single", 1))
        assert graph_stats()["rebinds"] == 1
        assert inst.replay() == 64.0 * 4.0  # x = 2 (capture) + 2 (replay)


# ---------------------------------------------------------------------------
# The key: every component forces a miss
# ---------------------------------------------------------------------------


class TestKeyComponents:
    @pytest.fixture(autouse=True)
    def base_structure(self, fresh):
        assert _rebinds(_pair()) == 0
        assert _rebinds(_pair()) == 1  # the baseline does hit
        assert _stored() == 1

    def test_shape(self):
        x, y = repro.array(np.zeros(80)), repro.array(np.ones(80))
        assert _rebinds(_pair(dims=64, x=x, y=y)) == 0

    def test_dtype(self):
        assert _rebinds(_pair(dtype=np.float32)) == 0

    def test_strided_view(self):
        x = np.zeros(128)[::2]
        assert x.shape == (64,) and not x.flags.c_contiguous
        assert _rebinds(_pair(x=x)) == 0
        assert _rebinds(_pair(x=np.zeros(128)[::2])) == 1

    def test_alias_pattern(self):
        x = repro.array(np.ones(64))
        assert _rebinds(_pair(x=x, y=x)) == 0  # f(x, x) is not f(x, y)
        z = repro.array(np.ones(64))
        assert _rebinds(_pair(x=z, y=z)) == 1

    def test_baked_scalar_value(self):
        assert _rebinds(_pair(alpha=3.0)) == 0
        assert _rebinds(_pair(alpha=2)) == 0  # int 2 is not float 2.0

    def test_dims(self):
        assert _rebinds(_pair(dims=32)) == 0

    def test_backend_instance(self):
        repro.set_backend(SerialBackend())
        assert _rebinds(_pair()) == 0

    def test_launch_policy(self):
        repro.set_launch_policy(LaunchPolicy(max_retries=1))
        assert _rebinds(_pair()) == 0

    def test_context(self):
        with repro.use_backend(current_context().backend()):
            assert _rebinds(_pair()) == 0

    def test_executor_mode(self):
        set_executor_mode("vector")
        assert _rebinds(_pair()) == 0

    def test_passes_mode(self):
        repro.set_passes_mode("none")
        assert _rebinds(_pair()) == 0

    def test_validate_mode(self):
        set_validate_mode("off")
        assert _rebinds(_pair()) == 0

    def test_fault_plan_structures_are_unfused_node_for_node(self):
        # GraphRegion passes fuse=(no fault plan): under a plan the
        # fused structure must not be reused, and the unfused one —
        # itself a structure — rebinds node for node.
        ctx = current_context()
        repro.set_fault_plan(FaultPlan(seed=3))
        x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))
        region = GraphRegion("t.plan")

        def body(x=x):
            parallel_for(64, axpy, 2.0, x, y)
            return parallel_reduce(64, dot, x, y)

        region.run((id(x), id(y)), body)
        assert graph_stats()["rebinds"] == 1  # the baseline's only
        assert region.stats()["nodes"] == 2 and region.stats()["fused_pairs"] == 0
        assert ctx.fault_plan is not None
        inst = _pair().instantiate(ctx, fuse=False)
        assert graph_stats()["rebinds"] == 2
        assert inst.n_nodes == 2 and inst.fused_pairs == 0


# ---------------------------------------------------------------------------
# Fall-backs: the full path, nothing stored
# ---------------------------------------------------------------------------


class TestFallbacks:
    def test_overlapping_distinct_views(self):
        for _ in range(2):
            base = np.zeros(65)
            recording = _pair(x=base[1:], y=base[:-1])
            assert _rebinds(recording) == 0
        assert _stored() == 0
        assert graph_stats()["captures"] == 2

    def test_validator_warning_is_not_stored(self, monkeypatch):
        monkeypatch.setitem(_CHECKERS, "fuse", lambda rec: "forced failure (test)")
        for _ in range(2):  # warns — and degrades — both times
            with pytest.warns(KernelVerificationWarning, match="V610"):
                assert _rebinds(_pair(n=48, alpha=0.75)) == 0
        assert _stored() == 0
        assert graph_stats()["validate"]["degraded"] == 2

    def test_unhashable_scalar(self):
        ctx = current_context()
        for _ in range(2):
            x = repro.array(np.zeros(8))
            with ctx.capture() as cap:
                parallel_for(8, pick, x, [7.0])
            assert _rebinds(cap.graph("list")) == 0
            np.testing.assert_array_equal(repro.to_host(x), 7.0)
        assert _stored() == 0

    def test_epoch_that_moved_during_the_capture(self):
        # A device lost mid-capture leaves recorded schedules that are
        # stale for whoever captures next: not a reusable structure.
        class Epochal(SerialBackend):
            epoch = 0

            def schedule_epoch(self):
                return self.epoch

        backend = repro.set_backend(Epochal())
        ctx = current_context()
        x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))
        with ctx.capture() as cap:
            parallel_for(64, axpy, 2.0, x, y)
            backend.epoch = 1
            parallel_reduce(64, dot, x, y)
        assert _rebinds(cap.graph("moved")) == 0 and _stored() == 0
        assert _rebinds(_pair()) == 0 and _stored() == 1  # epoch 1, built
        assert _rebinds(_pair()) == 1
        backend.epoch = 2
        assert _rebinds(_pair()) == 0 and _stored() == 2

    def test_foreign_context(self):
        recording = _pair()
        with repro.use_backend("serial") as other:
            recording.instantiate(other)
            recording.instantiate(other)
        assert graph_stats()["rebinds"] == 0 and _stored() == 0


# ---------------------------------------------------------------------------
# The disk tier: the same structure under a projection of the same walk
# ---------------------------------------------------------------------------


@pytest.fixture
def disk(tmp_path, monkeypatch):
    """A private, empty persistent compile cache, counters zeroed."""
    monkeypatch.setenv("PYACC_COMPILE_CACHE", str(tmp_path / "compile"))
    clear_cache()
    compilecache.reset_state()
    yield
    compilecache.reset_state()


def _disk_lookups() -> tuple:
    st = compilecache.disk_stats()
    return st["graph_hits"], st["graph_misses"]


def _after(setup):
    """``_pair()``, captured after ``setup()`` changed a mode."""

    def variant():
        setup()
        return _pair()

    return variant


def _aliased():
    x = repro.array(np.ones(64))
    return _pair(x=x, y=x)


def _overlapping():
    base = np.zeros(65)
    return _pair(x=base[1:], y=base[:-1])


#: Per key component: a recording that differs from ``_pair()``'s in
#: that component alone, and the ``instantiate`` keywords to use.
VARIANTS = {
    "shape": (
        lambda: _pair(
            dims=64, x=repro.array(np.zeros(80)), y=repro.array(np.ones(80))
        ),
        {},
    ),
    "dtype": (lambda: _pair(dtype=np.float32), {}),
    "strided view": (lambda: _pair(x=np.zeros(128)[::2]), {}),
    "alias pattern": (_aliased, {}),
    "baked scalar value": (lambda: _pair(alpha=3.0), {}),
    "baked scalar type": (lambda: _pair(alpha=2), {}),
    "dims": (lambda: _pair(dims=32), {}),
    "backend kind": (_after(lambda: repro.set_backend("threads")), {}),
    "launch policy": (
        _after(lambda: repro.set_launch_policy(LaunchPolicy(max_retries=1))),
        {},
    ),
    "executor mode": (_after(lambda: set_executor_mode("vector")), {}),
    "passes mode": (_after(lambda: repro.set_passes_mode("none")), {}),
    "validate mode": (_after(lambda: set_validate_mode("off")), {}),
    "fault plan (fuse off)": (_pair, {"fuse": False}),
    "overlapping views": (_overlapping, {}),
}

#: Components whose recordings neither tier keys at all.
REFUSED = {"overlapping views"}


class TestDiskTier:
    @pytest.fixture(autouse=True)
    def base_structure(self, fresh, disk):
        assert _rebinds(_pair()) == 0  # built: stored in memory and on disk
        assert compilecache.disk_stats()["graph_stores"] == 1

    def test_a_fresh_process_loads_the_base(self):
        clear_cache()
        compilecache.reset_state()
        inst = _pair().instantiate(current_context())
        assert _disk_lookups() == (1, 0)
        assert compilecache.disk_stats()["graph_stores"] == 0
        assert _stored() == 1 and graph_stats()["rebinds"] == 0
        assert inst.program is None and inst.fused_pairs == 1

    @pytest.mark.parametrize("component", sorted(VARIANTS))
    def test_a_memory_miss_is_a_disk_miss(self, component):
        make, kw = VARIANTS[component]
        recording = make()
        stored = _stored()
        hits, misses = _disk_lookups()
        assert _rebinds(recording, **kw) == 0  # the memory tier misses
        if component in REFUSED:
            # ... or refuses: nothing stored, nothing looked up on disk.
            assert _stored() == stored
            assert _disk_lookups() == (hits, misses)
        else:
            assert _disk_lookups() == (hits, misses + 1)

    @pytest.mark.parametrize("component", ["backend instance", "context"])
    def test_process_local_identities_project_out(self, component):
        # Both exist only in this process: the disk key holds the
        # backend's kind instead, and a load is staged on the current
        # backend — so a memory miss on either alone is a disk hit.
        hits, misses = _disk_lookups()
        if component == "backend instance":
            repro.set_backend(SerialBackend())
            assert _rebinds(_pair()) == 0
        else:
            with repro.use_backend(current_context().backend()):
                assert _rebinds(_pair()) == 0
        assert _disk_lookups() == (hits + 1, misses)


class TestDiskLoad:
    @pytest.mark.parametrize("kind", ["serial", "threads", "cluster"])
    def test_a_disk_load_replays_bitwise_like_the_full_build(self, disk, kind):
        if kind == "cluster":
            backend = ClusterBackend(2, min_parallel_size=1, shm_threshold=1)
            repro.set_backend(backend)
        else:
            backend = repro.set_backend(kind)
        try:
            a, b, _ = build_27pt_problem(4, 4, 4)
            built = hpccg_solve(a, b, tol=1e-8)
            assert _disk_lookups() == (0, 3)
            stats = graph_stats()
            clear_cache()
            compilecache.reset_state()
            reset_graph_stats()
            loaded = hpccg_solve(a, b, tol=1e-8)
            assert _disk_lookups() == (3, 0)
            # The loads replayed the builds' pass and validator counters.
            after = graph_stats()
            assert after["passes"] == stats["passes"]
            assert after["validate"] == stats["validate"]
            assert after["fused_pairs"] == stats["fused_pairs"]
        finally:
            repro.set_backend("serial")
            if kind == "cluster":
                backend.close()
        assert loaded.residual_norms == built.residual_norms
        np.testing.assert_array_equal(loaded.x, built.x)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class TestStore:
    def test_clear_cache_empties_it(self):
        _rebinds(_pair())
        assert _stored() == 1
        repro.clear_cache()
        assert _stored() == 0
        assert _rebinds(_pair()) == 0

    def test_lives_on_the_context_scoped_cache(self):
        private = KernelCache()
        with repro.use_backend("serial", kernel_cache=private):
            assert _rebinds(_pair()) == 0
            assert _rebinds(_pair()) == 1
        assert len(private.structures) == 1 and _stored() == 0
        private.clear()
        assert len(private.structures) == 0

    def test_bounded_oldest_first(self, monkeypatch):
        monkeypatch.setattr(KernelCache, "MAX_STRUCTURES", 4)
        for k in range(6):
            assert _rebinds(_pair(alpha=float(k))) == 0
        assert _stored() == 4
        assert _rebinds(_pair(alpha=5.0)) == 1  # newest kept
        assert _rebinds(_pair(alpha=0.0)) == 0  # oldest evicted
        assert _stored() == 4

    def test_holds_no_array(self):
        seen = []
        unsubscribe = current_context().on_launch(
            lambda plan: seen.extend(
                weakref.ref(a)
                for a in plan.resolved_args
                if isinstance(a, np.ndarray)
            )
        )
        try:
            a, b, _ = build_27pt_problem(4, 4, 4)
            for _ in range(2):  # a full build, then a rebind
                result = hpccg_solve(a, b)
                assert result.converged
                del result
        finally:
            unsubscribe()
        assert graph_stats()["rebinds"] == 3 and _stored() == 3
        del a  # a read-only operator is shared by the solves, not copied
        gc.collect()
        assert len(seen) > 40
        # dcols, dvals and every CG vector of both solves are gone; the
        # store, the regions and the hoisted prologues pinned none.
        assert [ref for ref in seen if ref() is not None] == []


# ---------------------------------------------------------------------------
# Hoisted nodes (the codegen rung, and the compiler-less default)
# ---------------------------------------------------------------------------


class TestHoistedNodes:
    def test_two_matrices_of_one_shape_each_get_their_own_prologue(self):
        # The hoisted prologue gathers vals/cols once per binding: a
        # program object shared between bindings would replay the
        # second matrix against the first one's values.
        set_executor_mode("codegen")
        a1, _, _ = build_27pt_problem(3, 3, 3)
        rng = np.random.default_rng(7)
        a2 = ELLMatrix(cols=a1.cols[::-1].copy(), vals=a1.vals * rng.random(a1.vals.shape))
        p = rng.random(a1.n)
        region_graphs = []
        for a in (a1, a2):
            dcols, dvals = repro.array(a.cols), repro.array(a.vals)
            dp, ds = repro.array(p), repro.array(np.zeros(a.n))
            region = GraphRegion("t.matvec")

            def body():
                parallel_for(a.n, matvec_ell_kernel, dcols, dvals, dp, ds)

            for _ in range(3):  # capture, then two replays
                region.run((id(dp), id(ds)), body)
            np.testing.assert_allclose(
                repro.to_host(ds), a.matvec_host(p), rtol=1e-13
            )
            region_graphs += list(region._graphs.values())
        assert graph_stats()["rebinds"] == 1
        first, second = (g.nodes[0] for g in region_graphs)
        assert first.plan.kernel.mode.endswith("-hoisted")
        assert second.plan.kernel.mode.endswith("-hoisted")
        assert first.plan.kernel.codegen is not second.plan.kernel.codegen
        assert first.hoist.ids != second.hoist.ids

    def test_two_solves_each_match_their_own_operator(self):
        set_executor_mode("codegen")
        a1, b, _ = build_27pt_problem(4, 4, 4)
        a2 = ELLMatrix(cols=a1.cols, vals=a1.vals * np.linspace(1.0, 2.0, a1.n)[:, None])
        for a in (a1, a2):
            result = hpccg_solve(a, b)
            assert result.converged
            np.testing.assert_allclose(a.matvec_host(result.x), b, rtol=1e-8)
        assert graph_stats()["rebinds"] == 3


# ---------------------------------------------------------------------------
# Demotion
# ---------------------------------------------------------------------------


class TestDemotion:
    def test_rebound_graph_invalidates_and_the_fallback_builds_in_full(self):
        repro.set_backend("threads")
        repro.set_launch_policy(FAST)
        # threads.chunk probes: 0-1 first capture, 2-3 second capture,
        # 4 = first node of the rebound graph's first replay.
        repro.set_fault_plan(
            FaultPlan(scheduled=[InjectedFault("threads.chunk", 4, "permanent")])
        )
        threads = current_context().backend()

        def run(region, x, y):
            def body():
                parallel_for(64, axpy, 1.0, x, y)
                return parallel_reduce(64, dot, x, y)

            return region.run((id(x), id(y)), body)

        x0, y0 = np.zeros(64), np.ones(64)
        assert run(GraphRegion("t.first"), x0, y0) == 64.0
        region, x, y = GraphRegion("t.second"), np.zeros(64), np.ones(64)
        assert run(region, x, y) == 64.0
        assert graph_stats()["rebinds"] == 1
        assert run(region, x, y) == 128.0  # replay: faults, fails over
        stats = graph_stats()
        assert stats["invalidations"] == 1
        assert current_context().backend() is not threads
        assert run(region, x, y) == 192.0  # new backend in the key
        after = graph_stats()
        assert after["captures"] == stats["captures"] + 1
        assert after["rebinds"] == 1
        assert run(region, x, y) == 256.0
        assert graph_stats()["replays"] == stats["replays"] + 1


# ---------------------------------------------------------------------------
# The apps
# ---------------------------------------------------------------------------


class TestApps:
    @pytest.mark.parametrize("executor", ["native", "codegen"])
    def test_exact_counts_per_warm_hpccg_solve(self, executor):
        set_executor_mode(executor)
        repro.set_backend("threads")
        a, b, _ = build_27pt_problem(8, 8, 8)

        def delta():
            before = graph_stats()
            assert hpccg_solve(a, b, tol=1e-8).converged
            after = graph_stats()
            return {
                "captures": after["captures"] - before["captures"],
                "rebinds": after["rebinds"] - before["rebinds"],
                "programs": after["validate"]["programs"]
                - before["validate"]["programs"],
                "fuse_applied": after["passes"]["fuse"]["applied"]
                - before["passes"]["fuse"]["applied"],
                "fused_pairs": after["fused_pairs"] - before["fused_pairs"],
                "uncaptureable": after["uncaptureable"] - before["uncaptureable"],
            }

        first = delta()
        assert (first["captures"], first["rebinds"]) == (3, 0)
        assert (first["programs"], first["fuse_applied"]) == (3, 3)
        delta()
        assert delta() == {
            "captures": 3,
            "rebinds": 3,
            "programs": 0,
            "fuse_applied": 0,
            "fused_pairs": 3,
            "uncaptureable": 0,
        }

    @pytest.mark.parametrize("nx", [4, 8])
    def test_three_solves_in_a_row_equal_graphs_off(self, backend, nx):
        a, b, _ = build_27pt_problem(nx, nx, nx)
        repro.set_graph_mode("off")
        reference = hpccg_solve(a, b, tol=1e-8)
        repro.set_graph_mode("on")
        for _ in range(3):
            result = hpccg_solve(a, b, tol=1e-8)
            assert result.iterations == reference.iterations
            assert result.residual_norms == reference.residual_norms
            np.testing.assert_array_equal(result.x, reference.x)
        assert graph_stats()["rebinds"] == 6

    def test_lbm_second_swap_parity_rebinds(self):
        repro.set_graph_mode("off")
        reference = LBM(12, tau=0.7, lid_velocity=0.08)
        reference.step(6)
        repro.set_graph_mode("on")
        sim = LBM(12, tau=0.7, lid_velocity=0.08)
        sim.step(6)
        stats = graph_stats()
        assert (stats["captures"], stats["rebinds"], stats["replays"]) == (2, 1, 4)
        np.testing.assert_array_equal(sim.distribution(), reference.distribution())
