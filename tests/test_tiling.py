"""The lazy-domain / tiled-execution contract.

An :class:`~repro.ir.vectorizer.IndexDomain` is a box of ranges: its
index ``grids`` are built on first read (identity-indexed kernels never
read them) and its ``tiles`` — contiguous sub-boxes of at most
``TILE_LANES`` lanes — are what every trace-based executor rung runs.
Tiling must be invisible to ``parallel_for`` (bitwise), keep the rungs
and graph replay in bitwise agreement for ``parallel_reduce``, keep one
arena frame and one fault probe per chunk, and make scratch memory
independent of the launch size.
"""

import functools
import math

import numpy as np
import pytest

import repro
from repro.apps import blas, cg, heat3d, hpccg, lbm, lbm3d, stream
from repro.backends.cluster import ClusterBackend
from repro.backends.multidevice import MultiDeviceBackend
from repro.backends.threads import ThreadsBackend
from repro.faults import FaultPlan, InjectedFault, LaunchPolicy
from repro.graph import graph_stats, set_graph_mode
from repro.ir import vectorizer
from repro.ir.compile import clear_cache, compile_kernel, set_executor_mode
from repro.ir.vectorizer import TILE_LANES, IndexDomain, evaluate_values

FAST = LaunchPolicy(max_retries=3, backoff_base=0.0)


@pytest.fixture(autouse=True)
def restore():
    clear_cache()
    yield
    clear_cache()
    set_executor_mode(None)
    set_graph_mode(None)
    repro.set_fault_plan(None)
    repro.set_launch_policy(None)
    repro.set_backend("serial")


def _rng():
    return np.random.default_rng(7)


def _one_box(dims, monkeypatch):
    """A fresh domain over ``dims`` that executes as a single tile."""
    with monkeypatch.context() as m:
        m.setattr(vectorizer, "TILE_LANES", 1 << 62)
        dom = IndexDomain([(0, d) for d in dims])
        assert dom.tiles == (dom,)
    return dom


def _count_arange(monkeypatch):
    calls = []
    real = np.arange

    def counting(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(np, "arange", counting)
    return calls


# ---------------------------------------------------------------------------
# (a) staging builds no index arrays unless the kernel reads an index
# ---------------------------------------------------------------------------


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


def shift(i, x, y, n):
    if i > 0:
        y[i] = x[i - 1]


class TestLazyGrids:
    N = 1 << 20

    def _backend(self, name):
        if name == "threads":
            return ThreadsBackend(n_threads=2)
        if name == "cluster":
            return ClusterBackend(2)
        return name

    @pytest.mark.parametrize("name", ["serial", "threads", "cluster"])
    def test_identity_launch_builds_no_index_arrays(self, name, monkeypatch):
        n = self.N
        # Shared domains keep grids an earlier gather launch of this size
        # built; start from domains nothing has touched.
        vectorizer._domain.cache_clear()
        with repro.use_backend(self._backend(name)) as ctx:
            x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
            repro.parallel_for(n, axpy, 1.0, x, y)  # compile + warm up
            calls = _count_arange(monkeypatch)
            seen = []
            ctx.on_launch(lambda plan: seen.append(plan.schedule))
            repro.parallel_for(n, axpy, 2.0, x, y)
            assert repro.parallel_reduce(n, dot, x, y) == 3.0 * n
            monkeypatch.undo()
        assert calls == []
        assert len(seen) == 2
        for schedule in seen:
            for dom in schedule.domains:
                assert dom._grids is None
                assert all(t._grids is None for t in dom.tiles)

    def test_schedule_reuses_domains_across_launches(self):
        backend = ThreadsBackend(n_threads=2)
        with repro.use_backend(backend) as ctx:
            seen = []
            ctx.on_launch(lambda plan: seen.append(plan.schedule.domains))
            x, y = repro.array(np.zeros(self.N)), repro.array(np.ones(self.N))
            repro.parallel_for(self.N, axpy, 1.0, x, y)
            repro.parallel_for(self.N, axpy, 1.0, x, y)
        assert len(seen[0]) == 2
        assert all(a is b for a, b in zip(seen[0], seen[1]))
        assert all(a.tiles is b.tiles for a, b in zip(seen[0], seen[1]))

    def test_offset_kernel_still_gets_frozen_grids(self):
        n = 3 * TILE_LANES + 5
        x = _rng().standard_normal(n)
        y = np.zeros(n)
        ck = compile_kernel(shift, 1, [x, y, n], executor="codegen")
        dom = IndexDomain([(0, n)])
        ck.run_for(dom, [x, y, n])
        np.testing.assert_array_equal(y[1:], x[:-1])
        assert dom._grids is None  # only the tiles were executed
        for tile in dom.tiles:
            (grid,) = tile.grids
            assert grid.shape == tile.shape
            assert not grid.flags.writeable
            assert grid[0] == tile.ranges[0][0]

    def test_ell_matvec_grids_have_tile_shape(self):
        n, slots = 2 * TILE_LANES + 3, 3
        r = _rng()
        cols = r.integers(0, n, size=(n, slots)).astype(np.int64)
        vals = r.standard_normal((n, slots))
        x, y = r.standard_normal(n), np.zeros(n)
        args = [cols, vals, x, y]
        ck = compile_kernel(hpccg.matvec_ell_kernel, 1, args, executor="codegen")
        dom = IndexDomain([(0, n)])
        ck.run_for(dom, args)
        np.testing.assert_allclose(
            y, (vals * x[cols]).sum(axis=1), rtol=1e-13, atol=1e-13
        )
        assert [t.grids[0].shape for t in dom.tiles] == [t.shape for t in dom.tiles]


# ---------------------------------------------------------------------------
# (b) tiles cover the box exactly, in order, within the lane budget
# ---------------------------------------------------------------------------


def _lane_ids(dom, outer):
    """Row-major lane ids of ``dom`` inside the box ``outer`` spans."""
    extent = [hi for _, hi in outer.ranges]
    ids = np.arange(math.prod(extent)).reshape(extent)
    return ids[tuple(slice(lo, hi) for lo, hi in dom.ranges)].reshape(-1)


class TestTiles:
    @pytest.mark.parametrize(
        "ranges",
        [
            [(0, 5 * TILE_LANES)],
            [(0, 3 * TILE_LANES + 17)],
            [(11, 2 * TILE_LANES + 40)],
            [(0, 700), (0, 300)],
            [(5, 401), (3, 1000)],
            [(0, 70), (0, 60), (0, 50)],
            [(1, 60), (2, 64), (3, 67)],
        ],
    )
    def test_cover_exactly_in_order(self, ranges):
        dom = IndexDomain(ranges)
        tiles = dom.tiles
        assert len(tiles) > 1
        assert all(0 < t.size <= TILE_LANES for t in tiles)
        assert all(t.tiles == (t,) for t in tiles)
        # Every lane exactly once, in row-major order: equal blocks of
        # whole leading-axis rows, then one ragged tail.
        seen = np.concatenate([_lane_ids(t, dom) for t in tiles])
        np.testing.assert_array_equal(seen, _lane_ids(dom, dom))
        assert len({t.shape for t in tiles[:-1]}) == 1
        assert tiles[-1].size <= tiles[0].size
        assert all(t.ranges[1:] == dom.ranges[1:] for t in tiles)

    @pytest.mark.parametrize(
        "ranges, shapes",
        [
            # one row wider than a tile: cut along the next axis instead
            (
                [(0, 3), (0, 2 * TILE_LANES + 9)],
                [(1, TILE_LANES), (1, TILE_LANES), (1, 9)] * 3,
            ),
            ([(2, 4), (7, TILE_LANES + 8)], [(1, TILE_LANES), (1, 1)] * 2),
            (
                [(0, 2), (5, 6), (0, TILE_LANES + 1)],
                [(1, 1, TILE_LANES), (1, 1, 1)] * 2,
            ),
            (
                [(0, 2), (0, 3), (0, TILE_LANES // 2 + 1)],
                [(1, 1, TILE_LANES // 2 + 1)] * 6,
            ),
        ],
    )
    def test_wide_rows_stay_row_major(self, ranges, shapes):
        dom = IndexDomain(ranges)
        assert [t.shape for t in dom.tiles] == shapes
        seen = np.concatenate([_lane_ids(t, dom) for t in dom.tiles])
        np.testing.assert_array_equal(seen, _lane_ids(dom, dom))

    @pytest.mark.parametrize(
        "ranges", [[(0, TILE_LANES)], [(4, 4)], [(0, 256), (0, 256)], [(0, 0), (0, 9)]]
    )
    def test_small_box_is_its_own_tile(self, ranges):
        dom = IndexDomain(ranges)
        assert dom.tiles == (dom,)

    def test_tiles_and_domains_are_cached(self):
        dims = (5 * TILE_LANES,)
        assert IndexDomain.full(dims) is IndexDomain.full(dims)
        assert IndexDomain.full(dims).tiles is IndexDomain.full(dims).tiles
        box = [(3, 4 * TILE_LANES), (0, 2)]
        assert IndexDomain.of(box) is IndexDomain.of(box)
        assert IndexDomain.of(box).tiles is IndexDomain.of(box).tiles
        assert IndexDomain.of([(0, 9)]) is IndexDomain.full((9,))


# ---------------------------------------------------------------------------
# (c) every app kernel, ≥ 3 tiles: tiled ≡ one box, rung ≡ rung
# ---------------------------------------------------------------------------

N1 = 2 * TILE_LANES + 4097  # 3 tiles, ragged tail
N2 = (300, 500)  # 131 rows per tile → 3 tiles
N3 = (56, 56, 56)  # 20 planes per tile → 3 tiles
LB2 = 400  # 163 rows per tile → 3 tiles
LB3 = 52  # 24 planes per tile → 3 tiles


def _vecs(k, shape=N1):
    return _rng().standard_normal((k,) + (shape if isinstance(shape, tuple) else (shape,)))


@functools.lru_cache(maxsize=None)
def _for_cases():
    v = _vecs(4)
    m = _vecs(2, N2)
    u = _vecs(1, N3)[0]
    f2 = 1.0 + 0.01 * _rng().standard_normal(9 * LB2 * LB2)
    f3 = 1.0 + 0.01 * _rng().standard_normal(19 * LB3**3)
    cols = _rng().integers(0, N1, size=(N1, 5)).astype(np.int64)
    vals = _vecs(5).T.copy()
    z = lambda shape=N1: np.zeros(shape)  # noqa: E731
    return {
        "blas.axpy_1d": (blas.axpy_kernel_1d, (N1,), lambda: [1.7, v[0].copy(), v[1]]),
        "blas.axpy_2d": (blas.axpy_kernel_2d, N2, lambda: [0.3, m[0].copy(), m[1]]),
        "cg.matvec_tridiag": (
            cg.matvec_tridiag_kernel,
            (N1,),
            lambda: [v[0], v[1] + 4.0, v[2], v[3], z(), N1],
        ),
        "cg.copy": (cg.copy_kernel, (N1,), lambda: [v[0], z()]),
        "cg.xpby": (cg.xpby_kernel, (N1,), lambda: [0.9, v[0], v[1].copy()]),
        "cg.jacobi_apply": (
            cg.jacobi_apply_kernel,
            (N1,),
            lambda: [1.0 / (v[1] + 4.0), v[0], z()],
        ),
        "stream.copy": (stream.copy_kernel, (N1,), lambda: [v[0], z()]),
        "stream.scale": (stream.scale_kernel, (N1,), lambda: [3.0, v[1], z()]),
        "stream.add": (stream.add_kernel, (N1,), lambda: [v[0], v[1], z()]),
        "stream.triad": (stream.triad_kernel, (N1,), lambda: [3.0, v[0], v[1], z()]),
        "heat3d.heat": (
            heat3d.heat_kernel,
            N3,
            lambda: [u.copy(), u.copy(), 0.1, N3[0]],
        ),
        "lbm.d2q9": (
            lbm.lbm_kernel,
            (LB2, LB2),
            lambda: [f2.copy(), f2.copy(), f2.copy(), 0.8, lbm.WEIGHTS, lbm.CX, lbm.CY, LB2],
        ),
        "lbm3d.d3q19": (
            lbm3d.lbm3d_kernel,
            (LB3,) * 3,
            lambda: [
                f3.copy(), f3.copy(), f3.copy(), 0.8,
                lbm3d.WEIGHTS3D, lbm3d.CX3D, lbm3d.CY3D, lbm3d.CZ3D, LB3,
            ],
        ),
        "hpccg.matvec_ell": (
            hpccg.matvec_ell_kernel,
            (N1,),
            lambda: [cols, vals, v[0], z()],
        ),
    }


@functools.lru_cache(maxsize=None)
def _reduce_cases():
    v = _vecs(2)
    m = _vecs(2, N2)
    u = _vecs(1, N3)[0]
    cases = {
        f"blas.dot_1d[{op}]": (blas.dot_kernel_1d, (N1,), lambda: [v[0], v[1]], op)
        for op in ("add", "min", "max")
    }
    cases["blas.dot_2d"] = (blas.dot_kernel_2d, N2, lambda: [m[0], m[1]], "add")
    cases["heat3d.residual"] = (
        heat3d.residual_kernel, N3, lambda: [u, N3[0]], "add",
    )
    return cases


# Case tables are built on first use (tens of MB of inputs), not at
# collection; the names are spelled out so parametrize needs no data.
FOR_NAMES = (
    "blas.axpy_1d blas.axpy_2d cg.matvec_tridiag cg.copy cg.xpby "
    "cg.jacobi_apply stream.copy stream.scale stream.add stream.triad "
    "heat3d.heat lbm.d2q9 lbm3d.d3q19 hpccg.matvec_ell"
).split()
REDUCE_NAMES = (
    "blas.dot_1d[add] blas.dot_1d[min] blas.dot_1d[max] blas.dot_2d "
    "heat3d.residual"
).split()
TRACE_RUNGS = ("native", "codegen", "vector")


def test_case_tables_match_their_names():
    assert sorted(_for_cases()) == sorted(FOR_NAMES)
    assert sorted(_reduce_cases()) == sorted(REDUCE_NAMES)


def _arrays_equal(a, b, msg):
    for p, q in zip(a, b):
        if isinstance(p, np.ndarray):
            np.testing.assert_array_equal(p, q, err_msg=msg)


class TestAppKernelsTiled:
    @pytest.mark.parametrize("name", FOR_NAMES)
    def test_parallel_for_tiled_equals_one_box(self, name, monkeypatch):
        fn, dims, make = _for_cases()[name]
        assert len(IndexDomain.full(dims).tiles) >= 3
        ref = make()
        compile_kernel(fn, len(dims), ref, executor="vector").run_for(
            _one_box(dims, monkeypatch), ref
        )
        for ex in TRACE_RUNGS:
            args = make()
            ck = compile_kernel(fn, len(dims), args, executor=ex)
            ck.run_for(IndexDomain.full(dims), args)
            _arrays_equal(args, ref, f"{name} on {ex}")

    @pytest.mark.parametrize("name", REDUCE_NAMES)
    def test_parallel_reduce_rungs_agree_bitwise(self, name, monkeypatch):
        fn, dims, make, op = _reduce_cases()[name]
        dom = IndexDomain.full(dims)
        assert len(dom.tiles) >= 3
        got = {}
        for ex in TRACE_RUNGS:
            args = make()
            ck = compile_kernel(fn, len(dims), args, reduce=True, executor=ex)
            got[ex] = ck.run_reduce(dom, args, op)
        assert got["native"] == got["codegen"] == got["vector"], got
        args = make()
        ck = compile_kernel(fn, len(dims), args, reduce=True, executor="vector")
        lanes = evaluate_values(ck.trace, _one_box(dims, monkeypatch), args)
        expect = float({"add": np.sum, "min": np.min, "max": np.max}[op](lanes))
        assert got["vector"] == pytest.approx(expect, rel=1e-12, abs=1e-300)

    def test_fold_is_tile_order(self):
        # The documented fold: per-tile NumPy reduce, then left to right.
        x = _vecs(1)[0]
        ck = compile_kernel(dot, 1, [x, x], reduce=True, executor="codegen")
        dom = IndexDomain.full((N1,))
        acc = None
        for tile in dom.tiles:
            (lo, hi), = tile.ranges
            part = float((x[lo:hi] * x[lo:hi]).sum())
            acc = part if acc is None else acc + part
        assert ck.run_reduce(dom, [x, x], "add") == acc

    def test_min_fold_propagates_nan_like_one_box(self):
        x = np.ones(N1)
        x[TILE_LANES + 3] = np.nan  # second tile
        ck = compile_kernel(dot, 1, [x, x], reduce=True, executor="codegen")
        assert math.isnan(ck.run_reduce(IndexDomain.full((N1,)), [x, x], "min"))


# ---------------------------------------------------------------------------
# (d) graph replay tiles exactly like direct dispatch
# ---------------------------------------------------------------------------


class TestGraphReplayTiled:
    N = 200_000

    def _solve(self, backend, executor, graph):
        set_executor_mode(executor)
        set_graph_mode(graph)
        clear_cache()
        n = self.N
        lower, diag, upper, _ = cg.tridiagonal_system(n)
        b = _rng().standard_normal(n)
        with repro.use_backend(backend):
            # 4 iterations: the first captures, the rest replay.
            res = cg.cg_solve(lower, diag, upper, b, tol=0.0, max_iter=4)
        return res.x, res.residual_norms

    @pytest.mark.parametrize("executor", ["codegen", "native"])
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_cg_iteration_replay_equals_direct(self, backend, executor):
        def make():
            return ThreadsBackend(n_threads=2) if backend == "threads" else backend

        replays = graph_stats()["replays"]
        x_on, norms_on = self._solve(make(), executor, None)
        assert graph_stats()["replays"] >= replays + 3 * 3  # 3 regions
        replays = graph_stats()["replays"]
        x_off, norms_off = self._solve(make(), executor, "off")
        assert graph_stats()["replays"] == replays
        assert norms_on == norms_off
        np.testing.assert_array_equal(x_on, x_off)

    def test_rungs_agree_through_replay(self):
        x_c, norms_c = self._solve(ThreadsBackend(n_threads=2), "codegen", None)
        x_n, norms_n = self._solve(ThreadsBackend(n_threads=2), "native", None)
        assert norms_c == norms_n
        np.testing.assert_array_equal(x_c, x_n)


# ---------------------------------------------------------------------------
# (e) scratch memory is independent of the launch size;
#     one frame and one fault probe per chunk
# ---------------------------------------------------------------------------


class TestChunkScratch:
    def test_arena_bytes_independent_of_lanes(self):
        n = 1 << 22
        backend = ThreadsBackend(n_threads=2)
        # The rung that leases scratch: a native AXPY has no temporaries
        # and a native add-reduce folds in C.
        set_executor_mode("codegen")
        with repro.use_backend(backend) as ctx:
            x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
            axpy_ck = compile_kernel(axpy, 1, [1.0, x, y])
            dot_ck = compile_kernel(dot, 1, [x, y], reduce=True)
            for _ in range(3):
                repro.parallel_for(n, axpy, 1.0, x, y)
                repro.parallel_reduce(n, dot, x, y)
            stats = ctx.arena.stats()
        n_out = max(axpy_ck.codegen.n_out_buffers, dot_ck.codegen.n_out_buffers)
        assert n_out >= 1
        assert 0 < stats["bytes_allocated"] <= 2 * n_out * TILE_LANES * 8
        assert stats["buffers_reused"] > stats["buffers_created"]

    def test_one_frame_per_multi_tile_chunk(self):
        n = 4 * TILE_LANES
        x, y = np.zeros(n), np.ones(n)
        ck = compile_kernel(axpy, 1, [1.0, x, y], executor="codegen")
        arena = repro.ir.arena.ScratchArena()
        opened = []
        real = arena.frame
        arena.frame = lambda: opened.append(1) or real()
        ck.run_for(IndexDomain.full((n,)), [1.0, x, y], arena)
        assert len(opened) == 1
        assert arena.stats()["buffers_created"] == ck.codegen.n_out_buffers

    def test_native_decline_recorded_once_per_chunk(self):
        from repro.ir.nativecache import native_stats

        n = 4 * TILE_LANES
        x = np.ones(2 * n)[::2]  # non-contiguous → per-call decline
        ck = compile_kernel(dot, 1, [np.ones(n), np.ones(n)], reduce=True, executor="native")
        if ck.native is None:
            pytest.skip("no C compiler")
        before = native_stats()["declined"].get("non-contiguous", 0)
        assert ck.run_reduce(IndexDomain.full((n,)), [x, x], "add") == float(n)
        assert native_stats()["declined"]["non-contiguous"] == before + 1

    def test_transient_on_tiled_pool_chunk_retries_once(self):
        n = 2 * 4 * TILE_LANES  # 2 chunks × 4 tiles
        y = _rng().standard_normal(n)

        def run(fault_plan):
            backend = ThreadsBackend(n_threads=2)
            repro.set_backend(backend)
            repro.set_launch_policy(FAST)
            repro.set_fault_plan(fault_plan)
            ctx = repro.current_context()
            n0 = len(ctx.fault_events)
            x = np.zeros(n)
            repro.parallel_for(n, axpy, 1.5, x, y)
            d = repro.parallel_reduce(n, dot, x, y)
            backend.close()
            return x, d, ctx.fault_events[n0:]

        clean_x, clean_d, no_events = run(None)
        plan = FaultPlan(scheduled=[InjectedFault("threads.chunk", 1, "transient")])
        x, d, events = run(plan)
        assert no_events == []
        assert [(e.site, e.kind, e.action) for e in events] == [
            ("threads.chunk", "transient", "retry")
        ]
        assert plan.injected == [("threads.chunk", 1, "transient", None)]
        # Ordinals are per chunk, not per tile: AXPY took 0-1, DOT 2-3.
        assert plan.next_ordinal("threads.chunk", 0) == 4
        np.testing.assert_array_equal(x, clean_x)
        assert d == clean_d


# ---------------------------------------------------------------------------
# (f) cluster shards and multidevice chunks above one tile ≡ serial
# ---------------------------------------------------------------------------


def saxpy2d(i, j, alpha, a, b):
    a[i, j] = alpha * b[i, j] + a[i, j] * (i + 2 * j)


class TestShardedBackendsTiled:
    # > TILE_LANES lanes per shard for up to 3 shards, ragged everywhere.
    N = 3 * (TILE_LANES + 1000) + 7

    def _serial(self, fn, dims, make):
        args = make()
        with repro.use_backend("serial"):
            repro.parallel_for(dims, fn, *args)
        return args

    def _check(self, backend):
        v = _vecs(2, self.N)
        m = _rng().standard_normal((2, 450, 500))
        cases = [
            (axpy, self.N, lambda: [1.5, v[0].copy(), v[1]]),
            (shift, self.N, lambda: [v[0], np.zeros(self.N), self.N]),
            (saxpy2d, (450, 500), lambda: [0.5, m[0].copy(), m[1]]),
        ]
        with repro.use_backend(backend):
            for fn, dims, make in cases:
                args = make()
                repro.parallel_for(dims, fn, *args)
                _arrays_equal(args, self._serial(fn, dims, make), fn.__name__)
            x = v[0].copy()
            got = repro.parallel_reduce(self.N, dot, x, v[1])
        assert got == pytest.approx(float(v[0] @ v[1]), rel=1e-12)

    def test_cluster_shards(self):
        backend = ClusterBackend(min_parallel_size=1, shm_threshold=1)
        try:
            self._check(backend)
        finally:
            backend.close()

    def test_multidevice_chunks(self):
        self._check(MultiDeviceBackend.with_devices("a100", 2))
