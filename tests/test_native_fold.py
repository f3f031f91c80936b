"""The native rung's add-fold in C (``repro.ir.cgen``).

A native ``op="add"`` reduce is one C call per chunk that leaves one
pairwise-summed float64 partial per tile; the sum is a transcription of
NumPy's, so everything here is a *bit* comparison:

* the fold against ``ndarray.sum()`` on vectors nobody hand-picked;
* native against the codegen, vector and interpreter rungs on boxes that
  straddle tile edges, on every CPU backend family;
* a fused store+reduce node against unfused eager dispatch;
* the lane-buffer path that remains (``min``/``max``, a failed
  self-check) against the same references.

Nothing here needs a compiler: without one every kernel degrades to
codegen and the comparisons still hold; the assertions that only make
sense for a C kernel are marked ``needs_cc``.
"""

import struct

import numpy as np
import pytest

import repro
from repro.backends.cluster import ClusterBackend
from repro.backends.threads import ThreadsBackend
from repro.graph import GraphRegion, graph_stats
from repro.ir import cgen, vectorizer
from repro.ir.arena import ScratchArena
from repro.ir.compile import clear_cache, compile_kernel, set_executor_mode
from repro.ir.nativecache import native_stats, resolve_cc
from repro.ir.vectorizer import TILE_LANES as T
from repro.ir.vectorizer import IndexDomain, fold_partials

needs_cc = pytest.mark.skipif(resolve_cc() is None, reason="no C compiler on host")

RUNGS = ("native", "codegen", "vector")


def ident(i, x):
    return x[i]


def dot(i, x, y):
    return x[i] * y[i]


def dot2(i, j, x, y):
    return x[i, j] * y[i, j]


def dot3(i, j, k, x, y):
    return x[i, j, k] * y[i, j, k]


def accumulate(i, a, x, y):
    y[i] += a * x[i]


def scaled(i, a, x, c, y):
    return a * x[i] + c * y[i]


def scaled2(i, j, a, x, c, y):
    return a * x[i, j] + c * y[i, j]


def scaled3(i, j, k, a, x, c, y):
    return a * x[i, j, k] + c * y[i, j, k]


KERNELS = {1: dot, 2: dot2, 3: dot3}


@pytest.fixture(autouse=True)
def restore():
    yield
    repro.set_backend("serial")
    set_executor_mode(None)
    repro.set_graph_mode(None)


def _bits(value) -> bytes:
    return struct.pack("d", value)


def _same(a, b) -> bool:
    """Bit-identical, or both NaN (payloads are the hardware's)."""
    return _bits(a) == _bits(b) or (a != a and b != b)


def _vector(rng, n, plant):
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
    for value in plant if n else ():
        v[rng.integers(0, n)] = value
    return v


# ---------------------------------------------------------------------------
# The fold itself
# ---------------------------------------------------------------------------


class TestFoldMatchesNumpy:
    SIZES = list(range(301)) + [2**16 - 1, 2**16 + 1, 2**17 + 5, 2**20]
    PLANTS = ((), (np.inf, -0.0), (np.nan, -np.inf, -0.0))

    def test_one_tile_equals_ndarray_sum(self, monkeypatch):
        # One tile however long: the fold is NumPy's whole-vector sum.
        monkeypatch.setattr(vectorizer, "TILE_LANES", 1 << 62)
        rng = np.random.default_rng(23)
        ck = compile_kernel(ident, 1, [np.ones(8)], reduce=True)
        for n in self.SIZES:
            for plant in self.PLANTS:
                v = _vector(rng, n, plant)
                dom = IndexDomain([(0, n)])  # unshared: tiled under the patch
                assert len(dom.tiles) == 1
                got = ck.run_reduce(dom, [v])
                assert _same(got, float(v.sum())), (n, plant)

    def test_all_negative_zeros_sum_to_positive_zero_like_numpy(self):
        v = np.full(300, -0.0)
        ck = compile_kernel(ident, 1, [v], reduce=True)
        for n in (1, 7, 8, 9, 129, 300):
            got = ck.run_reduce(IndexDomain([(0, n)]), [v])
            assert _bits(got) == _bits(float(v[:n].sum()))

    def test_tiles_fold_left_to_right(self):
        rng = np.random.default_rng(5)
        n = 3 * T + 17
        v = _vector(rng, n, ())
        ck = compile_kernel(ident, 1, [v], reduce=True)
        dom = IndexDomain([(11, n)])
        want = fold_partials(
            "add", [float(v[lo:hi].sum()) for ((lo, hi),) in (t.ranges for t in dom.tiles)]
        )
        assert len(dom.tiles) == 4
        assert _bits(ck.run_reduce(dom, [v])) == _bits(want)

    @needs_cc
    def test_add_leases_nothing_and_counts_a_c_fold_kernel(self):
        clear_cache()
        before = native_stats()["c_fold"]
        v = np.arange(1000.0)
        ck = compile_kernel(dot, 1, [v, v], reduce=True, executor="native")
        assert ck.native is not None and ck.native._c_fold
        assert native_stats()["c_fold"] == before + 1
        arena = ScratchArena()
        dom = IndexDomain.full((1000,))
        assert ck.run_reduce(dom, [v, v], "add", arena) == float((v * v).sum())
        assert arena.stats()["buffers_created"] == 0
        # One recycled slot however often the kernel runs.
        for _ in range(5):
            ck.run_reduce(dom, [v, v], "add", arena)
        assert len(ck.native._slots) == 1

    @needs_cc
    def test_min_max_still_fold_the_lane_buffer(self):
        v = np.arange(1000.0)
        v[17] = np.nan
        ck = compile_kernel(ident, 1, [v], reduce=True, executor="native")
        ref = compile_kernel(ident, 1, [v], reduce=True, executor="codegen")
        dom = IndexDomain.full((1000,))
        for op in ("min", "max"):
            arena = ScratchArena()
            assert _same(ck.run_reduce(dom, [v], op, arena), ref.run_reduce(dom, [v], op))
            assert arena.stats()["buffers_created"] == 1


# ---------------------------------------------------------------------------
# Rung against rung
# ---------------------------------------------------------------------------

#: Boxes whose tiles straddle every edge ``IndexDomain._cut`` has: whole
#: rows per tile, a single row wider than a tile, a unit leading axis,
#: non-zero ``lo`` on every axis.
BOXES = [
    [(0, 3 * T + 17)],
    [(11, 2 * T + 40)],
    [(5, 300)],
    [(0, 3), (0, 2 * T + 9)],
    [(2, 4), (7, T + 8)],
    [(0, 700), (3, 130)],
    [(0, 2), (5, 6), (0, T + 1)],
    [(0, 2), (0, 3), (0, T // 2 + 1)],
    [(1, 40), (2, 50), (3, 60)],
]


def _box_args(rng, box, dtype=np.float64, integral=False):
    shape = tuple(hi for _, hi in box)
    draw = (
        (lambda: rng.integers(-9, 10, size=shape))
        if integral
        else (lambda: rng.standard_normal(shape))
    )
    return [draw().astype(dtype), draw().astype(dtype)]


class TestRungsAgree:
    @pytest.mark.parametrize("box", BOXES, ids=str)
    @pytest.mark.parametrize("op", ["add", "min", "max"])
    def test_native_codegen_vector(self, box, op):
        args = _box_args(np.random.default_rng(len(box) + box[0][1]), box)
        dom = IndexDomain(box)
        fn = KERNELS[len(box)]
        got = [
            compile_kernel(fn, len(box), args, reduce=True, executor=rung).run_reduce(
                dom, args, op
            )
            for rung in RUNGS
        ]
        assert _bits(got[0]) == _bits(got[1]) == _bits(got[2])

    @pytest.mark.parametrize("box", BOXES[1:6:2] + BOXES[-1:], ids=str)
    def test_interpreter_on_integer_valued_data(self, box):
        # Exactly representable partial sums: any order gives these bits.
        args = _box_args(np.random.default_rng(9), box, integral=True)
        dom = IndexDomain(box)
        fn = KERNELS[len(box)]
        got = {
            rung: compile_kernel(
                fn, len(box), args, reduce=True, executor=rung
            ).run_reduce(dom, args)
            for rung in RUNGS + ("interpreter",)
        }
        assert len({_bits(v) for v in got.values()}) == 1, got

    @pytest.mark.parametrize("box", BOXES[::4], ids=str)
    def test_scalar_arguments_and_no_silent_decline(self, box):
        # Float and integer scalars sit in the packed words behind the
        # reduce head; a kernel that failed to compile would still agree
        # (it degrades to codegen), so the decline counters are checked.
        x, y = _box_args(np.random.default_rng(1), box)
        args = [0.25, x, 3, y]
        fn = {1: scaled, 2: scaled2, 3: scaled3}[len(box)]
        dom = IndexDomain(box)
        before = native_stats()["declined"]
        kernels = [
            compile_kernel(fn, len(box), args, reduce=True, executor=rung)
            for rung in RUNGS
        ]
        got = [ck.run_reduce(dom, args) for ck in kernels]
        assert _bits(got[0]) == _bits(got[1]) == _bits(got[2])
        if resolve_cc() is not None:
            assert kernels[0].native is not None, kernels[0].fallback_reason
            assert native_stats()["declined"] == before

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.int32])
    def test_float32_and_integer_arrays(self, dtype):
        box = [(3, 2 * T + 5)]
        args = _box_args(np.random.default_rng(2), box, dtype, integral=dtype != np.float32)
        dom = IndexDomain(box)
        got = [
            compile_kernel(dot, 1, args, reduce=True, executor=rung).run_reduce(dom, args)
            for rung in RUNGS
        ]
        assert _bits(got[0]) == _bits(got[1]) == _bits(got[2])


# ---------------------------------------------------------------------------
# Backend against backend
# ---------------------------------------------------------------------------


def _backend(name):
    if name == "cluster":
        return ClusterBackend(2, min_parallel_size=1, shm_threshold=1)
    if name.startswith("threads"):
        return ThreadsBackend(n_threads=int(name[-1]), min_parallel_size=1)
    return name


class TestBackendsAgree:
    DIMS = [(3 * T + 17,), (3, 2 * T + 9), (5, 40, 700)]

    @pytest.mark.parametrize(
        "name", ["serial", "threads1", "threads2", "threads4", "cluster"]
    )
    def test_native_equals_codegen_on_every_chunking(self, name):
        rng = np.random.default_rng(77)
        results = {}
        for rung in ("native", "codegen"):
            set_executor_mode(rung)
            backend = _backend(name)
            try:
                with repro.use_backend(backend):
                    for dims in self.DIMS:
                        x = repro.array(rng.standard_normal(dims))
                        y = repro.array(rng.standard_normal(dims))
                        d = dims if len(dims) > 1 else dims[0]
                        results.setdefault(dims, []).append(
                            repro.parallel_reduce(d, KERNELS[len(dims)], x, y)
                        )
            finally:
                getattr(backend, "close", lambda: None)()
            rng = np.random.default_rng(77)
        for dims, (native, codegen) in results.items():
            assert _bits(native) == _bits(codegen), dims


# ---------------------------------------------------------------------------
# A fused node with stores and a result
# ---------------------------------------------------------------------------


class TestFusedStoreAndReduce:
    def _run(self, graph_mode, n, steps):
        repro.set_graph_mode(graph_mode)
        rng = np.random.default_rng(4)
        x = repro.array(rng.standard_normal(n))
        y = repro.array(np.zeros(n))
        region = GraphRegion("t.fold_fused")

        def body():
            repro.parallel_for(n, accumulate, 0.5, x, y)  # not idempotent
            return repro.parallel_reduce(n, dot, x, y)

        totals = [region.run((id(x), id(y)), body) for _ in range(steps)]
        return totals, repro.to_host(y).copy(), repro.to_host(x)

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_replay_is_bit_identical_and_stores_once_per_lane(self, backend):
        repro.set_backend(
            ThreadsBackend(n_threads=2) if backend == "threads" else backend
        )
        n, steps = 2 * T + 33, 4
        fused = graph_stats()["fused_pairs"]
        on, y_on, x = self._run("on", n, steps)
        assert graph_stats()["fused_pairs"] > fused  # one node: store + result
        off, y_off, _ = self._run("off", n, steps)
        assert [_bits(v) for v in on] == [_bits(v) for v in off]
        np.testing.assert_array_equal(y_on, y_off)
        # ``steps`` accumulations per lane, no more: each tile's stores
        # ran exactly once per replay, before that tile's fold.
        want = np.zeros(n)
        for _ in range(steps):
            want += 0.5 * x
        np.testing.assert_array_equal(y_on, want)


# ---------------------------------------------------------------------------
# The self-check and its fallback
# ---------------------------------------------------------------------------


@needs_cc
class TestSelfCheck:
    def test_passes_on_this_host(self):
        assert cgen.fold_in_c() != 0
        assert "fold" not in native_stats()["declined"]

    def test_inspector_names_the_fold(self):
        from repro.ir.inspect import _demo_native_describe

        report = _demo_native_describe()
        assert "reduce fold: add = C pairwise sum, one partial per tile" in report
        assert "min/max = NumPy over a tile-sized lane buffer" in report

    def test_failed_check_declines_once_and_keeps_the_buffer_path(
        self, monkeypatch, tmp_path
    ):
        rng = np.random.default_rng(8)
        n = 2 * T  # two tiles of one shape: one recycled lane buffer
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        dom = IndexDomain.full((n,))
        want = compile_kernel(dot, 1, [x, y], reduce=True, executor="codegen").run_reduce(
            dom, [x, y]
        )
        # A reference the transcription cannot match: NumPy summing in
        # some other order.
        monkeypatch.setattr(cgen, "_fold_reference", lambda v: float(v.sum()) + 1.0)
        monkeypatch.setattr(cgen, "_FOLD", None)
        monkeypatch.setenv("PYACC_COMPILE_CACHE", str(tmp_path))
        clear_cache()
        before = native_stats()
        ck = compile_kernel(dot, 1, [x, y], reduce=True, executor="native")
        compile_kernel(ident, 1, [x], reduce=True, executor="native")
        after = native_stats()
        assert after["declined"].get("fold", 0) == before["declined"].get("fold", 0) + 1
        assert after["c_fold"] == before["c_fold"]
        assert ck.native is not None and not ck.native._c_fold
        arena = ScratchArena()
        assert _bits(ck.run_reduce(dom, [x, y], "add", arena)) == _bits(want)
        assert arena.stats()["buffers_created"] == 1
        clear_cache()  # kernels built under the failed check must not outlive it
