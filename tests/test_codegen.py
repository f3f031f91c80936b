"""Differential tests for the codegen executor (repro.ir.codegen).

The generated straight-line NumPy program must be *bit-identical* to the
IR-walking vector executor on every kernel in the repository — same
ufuncs in the same order, just without the per-launch interpretive walk.
The scalar interpreter is the third leg: identical for elementwise
effects; reductions agree to float64 fold tolerance (the interpreter
folds sequentially, NumPy pairwise).

Also covered here: the scratch-buffer arena (reuse, per-context
isolation, thread safety) and the executor-selection surface
(``executor=`` / ``set_executor_mode`` / ``PYACC_EXECUTOR``).
"""

import os
import threading

import numpy as np
import pytest

import repro
from repro.core.exceptions import KernelExecutionError, PreferencesError
from repro.core.preferences import DEFAULT_EXECUTOR
from repro.ir.arena import ArenaFrame, ScratchArena, default_arena
from repro.ir.codegen import CodegenProgram, lower_trace
from repro.ir.compile import (
    clear_cache,
    compile_kernel,
    executor_mode,
    set_executor_mode,
)
from repro.ir.vectorizer import IndexDomain

EXECUTORS = ("native", "codegen", "vector", "interpreter")

#: Executors whose results must match the vector reference bit-for-bit
#: (the interpreter folds reductions sequentially, so it gets tolerance).
_EXACT = ("native", "codegen")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()
    set_executor_mode(None)


def _run_all(fn, dims, make_args, *, reduce=False, op="add"):
    """Run ``fn`` under every executor on fresh copies of the same args.

    Returns ``{executor: (mutated_args, reduce_value)}``.
    """
    dims = dims if isinstance(dims, tuple) else (dims,)
    out = {}
    for ex in EXECUTORS:
        args = make_args()
        ck = compile_kernel(fn, len(dims), args, reduce=reduce, executor=ex)
        dom = IndexDomain.full(dims)
        value = ck.run_reduce(dom, args, op) if reduce else ck.run_for(dom, args)
        out[ex] = (args, value)
    return out


def _assert_identical(results, *, reduce=False):
    """native == codegen == vector bit-for-bit; interpreter identical
    for effects, fold-tolerance for reduce values (sequential vs
    pairwise sum)."""
    ref_args, ref_val = results["vector"]
    for ex in (*_EXACT, "interpreter"):
        args, val = results[ex]
        for a, b in zip(args, ref_args):
            if isinstance(a, np.ndarray):
                np.testing.assert_array_equal(a, b, err_msg=f"executor {ex}")
        if reduce:
            if ex in _EXACT:
                assert val == ref_val, f"{ex} fold differs: {val} != {ref_val}"
            else:
                assert val == pytest.approx(ref_val, rel=1e-12, abs=1e-300)


def _rng():
    return np.random.default_rng(42)


# ---------------------------------------------------------------------------
# Every app kernel, all three executors
# ---------------------------------------------------------------------------


class TestAppKernelsDifferential:
    def test_blas_axpy_1d(self):
        from repro.apps.blas import axpy_kernel_1d

        base = _rng().standard_normal((2, 256))
        results = _run_all(
            axpy_kernel_1d, 256, lambda: [1.7, base[0].copy(), base[1].copy()]
        )
        _assert_identical(results)

    def test_blas_axpy_2d(self):
        from repro.apps.blas import axpy_kernel_2d

        base = _rng().standard_normal((2, 16, 24))
        results = _run_all(
            axpy_kernel_2d,
            (16, 24),
            lambda: [0.3, base[0].copy(), base[1].copy()],
        )
        _assert_identical(results)

    @pytest.mark.parametrize("op", ["add", "min", "max"])
    def test_blas_dot_1d_all_ops(self, op):
        from repro.apps.blas import dot_kernel_1d

        base = _rng().standard_normal((2, 333))
        results = _run_all(
            dot_kernel_1d,
            333,
            lambda: [base[0].copy(), base[1].copy()],
            reduce=True,
            op=op,
        )
        _assert_identical(results, reduce=True)

    def test_blas_dot_2d(self):
        from repro.apps.blas import dot_kernel_2d

        base = _rng().standard_normal((2, 12, 17))
        results = _run_all(
            dot_kernel_2d,
            (12, 17),
            lambda: [base[0].copy(), base[1].copy()],
            reduce=True,
        )
        _assert_identical(results, reduce=True)

    def test_cg_kernels(self):
        from repro.apps.cg import (
            copy_kernel,
            jacobi_apply_kernel,
            matvec_tridiag_kernel,
            xpby_kernel,
        )

        n = 64
        r = _rng()
        lower, diag, upper, x = (r.standard_normal(n) for _ in range(4))
        diag = diag + 4.0

        results = _run_all(
            matvec_tridiag_kernel,
            n,
            lambda: [
                lower.copy(), diag.copy(), upper.copy(), x.copy(),
                np.zeros(n), n,
            ],
        )
        _assert_identical(results)

        results = _run_all(
            copy_kernel, n, lambda: [x.copy(), np.zeros(n)]
        )
        _assert_identical(results)

        results = _run_all(
            xpby_kernel, n, lambda: [0.9, x.copy(), diag.copy()]
        )
        _assert_identical(results)

        results = _run_all(
            jacobi_apply_kernel,
            n,
            lambda: [1.0 / diag, x.copy(), np.zeros(n)],
        )
        _assert_identical(results)

    def test_stream_kernels(self):
        from repro.apps.stream import (
            add_kernel,
            copy_kernel,
            scale_kernel,
            triad_kernel,
        )

        n = 512
        r = _rng()
        a, b = r.standard_normal(n), r.standard_normal(n)

        for fn, make in [
            (copy_kernel, lambda: [a.copy(), np.zeros(n)]),
            (scale_kernel, lambda: [3.0, b.copy(), np.zeros(n)]),
            (add_kernel, lambda: [a.copy(), b.copy(), np.zeros(n)]),
            (triad_kernel, lambda: [3.0, a.copy(), b.copy(), np.zeros(n)]),
        ]:
            _assert_identical(_run_all(fn, n, make))

    def test_heat3d_kernels(self):
        from repro.apps.heat3d import heat_kernel, residual_kernel

        n = 8
        u = _rng().standard_normal((n, n, n))
        results = _run_all(
            heat_kernel,
            (n, n, n),
            lambda: [u.copy(), u.copy(), 0.1, n],
        )
        _assert_identical(results)

        results = _run_all(
            residual_kernel, (n, n, n), lambda: [u.copy(), n], reduce=True
        )
        _assert_identical(results, reduce=True)

    def test_lbm_d2q9(self):
        from repro.apps.lbm import CX, CY, WEIGHTS, lbm_kernel

        n = 8
        f = 1.0 + 0.01 * _rng().standard_normal(9 * n * n)
        results = _run_all(
            lbm_kernel,
            (n, n),
            lambda: [f.copy(), f.copy(), f.copy(), 0.8, WEIGHTS, CX, CY, n],
        )
        _assert_identical(results)

    def test_lbm3d_d3q19(self):
        from repro.apps.lbm3d import CX3D, CY3D, CZ3D, WEIGHTS3D, lbm3d_kernel

        n = 5
        f = 1.0 + 0.01 * _rng().standard_normal(19 * n**3)
        results = _run_all(
            lbm3d_kernel,
            (n, n, n),
            lambda: [
                f.copy(), f.copy(), f.copy(), 0.8,
                WEIGHTS3D, CX3D, CY3D, CZ3D, n,
            ],
        )
        _assert_identical(results)

    def test_hpccg_matvec_ell_gather(self):
        from repro.apps.hpccg import matvec_ell_kernel

        n, slots = 48, 5
        r = _rng()
        cols = r.integers(0, n, size=(n, slots)).astype(np.int64)
        vals = r.standard_normal((n, slots))
        x = r.standard_normal(n)
        results = _run_all(
            matvec_ell_kernel,
            n,
            lambda: [cols.copy(), vals.copy(), x.copy(), np.zeros(n)],
        )
        _assert_identical(results)


# ---------------------------------------------------------------------------
# Guarded / gather / edge-case kernels
# ---------------------------------------------------------------------------


class TestEdgeKernelsDifferential:
    def test_guarded_store(self):
        def k(i, x, n):
            if i > 2 and i < n - 3:
                x[i] = 2.0 * x[i]

        base = _rng().standard_normal(40)
        _assert_identical(_run_all(k, 40, lambda: [base.copy(), 40]))

    def test_branch_both_sides(self):
        def k(i, x):
            if x[i] > 0.0:
                x[i] = x[i] * 2.0
            else:
                x[i] = x[i] - 1.0

        base = _rng().standard_normal(64)
        _assert_identical(_run_all(k, 64, lambda: [base.copy()]))

    def test_shifted_gather(self):
        def k(i, x, y, n):
            if i > 0 and i < n - 1:
                y[i] = x[i - 1] + x[i + 1]

        base = _rng().standard_normal(32)
        _assert_identical(
            _run_all(k, 32, lambda: [base.copy(), np.zeros(32), 32])
        )

    def test_indirect_gather_and_scatter(self):
        def k(i, idx, x, y):
            y[idx[i]] = x[i]

        n = 16
        # a permutation: no write conflicts, so all executors agree
        perm = np.arange(n, dtype=np.int64)[::-1].copy()
        base = _rng().standard_normal(n)
        _assert_identical(
            _run_all(k, n, lambda: [perm.copy(), base.copy(), np.zeros(n)])
        )

    def test_store_then_load(self):
        # load-after-store within a lane: the invalidation path
        def k(i, x, y):
            x[i] = y[i] * 2.0
            y[i] = x[i] + 1.0

        base = _rng().standard_normal((2, 48))
        _assert_identical(
            _run_all(k, 48, lambda: [base[0].copy(), base[1].copy()])
        )

    def test_intrinsics(self):
        from repro import math as pmath

        def k(i, x, y):
            y[i] = pmath.sqrt(x[i] * x[i]) + pmath.exp(-(x[i] * x[i]))

        base = _rng().standard_normal(50)
        results = _run_all(k, 50, lambda: [base.copy(), np.zeros(50)])
        # codegen and vector share the ufunc implementations → bitwise
        np.testing.assert_array_equal(
            results["codegen"][0][1], results["vector"][0][1]
        )
        # the scalar interpreter goes through math.exp, which may differ
        # from np.exp by 1 ulp — a pre-existing executor property
        np.testing.assert_allclose(
            results["interpreter"][0][1], results["vector"][0][1], rtol=1e-15
        )

    def test_float32_arrays(self):
        def k(i, x, y):
            y[i] = x[i] * 2.0 + 1.0

        base = _rng().standard_normal(32).astype(np.float32)
        results = _run_all(
            k, 32, lambda: [base.copy(), np.zeros(32, dtype=np.float32)]
        )
        _assert_identical(results)

    def test_float32_axpy_certified_out_fusion(self):
        # The NEP-50 shape/dtype lattice certifies float32 temporaries
        # for out=-fusion (PR 7); before, only f8 qualified and codegen
        # fell back to fresh allocations.
        def axpy(i, a, x, y):
            x[i] += a * y[i]

        base = _rng().standard_normal((2, 64)).astype(np.float32)
        args = [np.float32(2.5), base[0].copy(), base[1].copy()]
        ck = compile_kernel(axpy, 1, args, executor="codegen")
        assert ck.codegen.n_out_buffers >= 1
        assert all(
            dt == np.dtype(np.float32) for dt in ck.codegen.out_dtypes
        )
        results = _run_all(
            axpy,
            64,
            lambda: [np.float32(2.5), base[0].copy(), base[1].copy()],
        )
        _assert_identical(results)
        assert results["codegen"][0][1].dtype == np.float32

    def test_float32_stream_triad_certified(self):
        # STREAM triad in float32: the full chain a[i] = b[i] + s*c[i]
        # must certify every temp at float32 and stay bit-identical.
        def triad(i, a, b, c, s):
            a[i] = b[i] + s * c[i]

        base = _rng().standard_normal((3, 96)).astype(np.float32)

        def make():
            return [
                np.zeros(96, dtype=np.float32),
                base[1].copy(),
                base[2].copy(),
                np.float32(0.5),
            ]

        ck = compile_kernel(triad, 1, make(), executor="codegen")
        assert ck.codegen.n_out_buffers >= 1
        assert all(
            dt == np.dtype(np.float32) for dt in ck.codegen.out_dtypes
        )
        _assert_identical(_run_all(triad, 96, make))

    def test_integer_arrays(self):
        def k(i, x, y):
            y[i] = x[i] * 3 + 1

        base = _rng().integers(-50, 50, size=24)
        results = _run_all(
            k, 24, lambda: [base.copy(), np.zeros(24, dtype=base.dtype)]
        )
        _assert_identical(results)

    def test_int32_kernel_certified_out_fusion(self):
        # int32 arrays with weak Python-int scalars promote to int32
        # under NEP 50 — the lattice certifies the temps exactly.
        def k(i, x, y):
            y[i] = x[i] * 3 + 1

        base = _rng().integers(-50, 50, size=40).astype(np.int32)

        def make():
            return [base.copy(), np.zeros(40, dtype=np.int32)]

        ck = compile_kernel(k, 1, make(), executor="codegen")
        assert ck.codegen.n_out_buffers >= 1
        assert all(
            dt == np.dtype(np.int32) for dt in ck.codegen.out_dtypes
        )
        results = _run_all(k, 40, make)
        _assert_identical(results)
        assert results["codegen"][0][1].dtype == np.int32

    @pytest.mark.parametrize("op", ["add", "min", "max"])
    def test_empty_domain_reduce_identities(self, op):
        def dot(i, x, y):
            return x[i] * y[i]

        ck = compile_kernel(
            dot, 1, [np.ones(4), np.ones(4)], reduce=True, executor="codegen"
        )
        dom = IndexDomain([(2, 2)])
        expected = {"add": 0.0, "min": np.inf, "max": -np.inf}[op]
        assert ck.run_reduce(dom, [np.ones(4), np.ones(4)], op) == expected

    def test_sub_domain_chunks_match(self):
        # the threads backend's chunked path: two half-domains == full
        def k(i, a, x, y):
            x[i] += a * y[i]

        r = _rng()
        x0, y0 = r.standard_normal(100), r.standard_normal(100)
        full, halves = x0.copy(), x0.copy()
        args = [2.0, full, y0]
        ck = compile_kernel(k, 1, args, executor="codegen")
        ck.run_for(IndexDomain.full((100,)), [2.0, full, y0])
        ck.run_for(IndexDomain([(0, 50)]), [2.0, halves, y0])
        ck.run_for(IndexDomain([(50, 100)]), [2.0, halves, y0])
        np.testing.assert_array_equal(full, halves)

    def test_oob_store_raises_same_error(self):
        def k(i, x, s):
            x[i + s] = 1.0

        x = np.zeros(8)
        for ex in ("codegen", "vector"):
            ck = compile_kernel(k, 1, [x, 4], executor=ex)
            with pytest.raises(KernelExecutionError):
                ck.run_for(IndexDomain.full((8,)), [x, 4])


# ---------------------------------------------------------------------------
# Generated-program surface
# ---------------------------------------------------------------------------


class TestCodegenProgram:
    def test_lower_trace_produces_source(self):
        def axpy(i, a, x, y):
            x[i] += a * y[i]

        args = [2.0, np.ones(8), np.ones(8)]
        ck = compile_kernel(axpy, 1, args, executor="codegen")
        prog = ck.codegen
        assert isinstance(prog, CodegenProgram)
        assert "def _kernel" in prog.source
        assert prog.ndim == 1
        assert not prog.has_result
        # the multiply temp is arena-allocated, with a certified dtype
        assert prog.n_out_buffers >= 1
        assert "_take(_shape, _od0)" in prog.source
        assert prog.out_dtypes == (np.dtype(np.float64),) * len(
            prog.out_dtypes
        )

    def test_wrong_rank_rejected_at_run(self):
        def k(i, x):
            x[i] = 1.0

        ck = compile_kernel(k, 1, [np.ones(4)], executor="codegen")
        with pytest.raises(KernelExecutionError, match="1-D domain"):
            ck.codegen.run_for(IndexDomain.full((2, 2)), [np.ones((2, 2))])

    def test_reduce_program_has_result(self):
        def dot(i, x, y):
            return x[i] * y[i]

        ck = compile_kernel(
            dot, 1, [np.ones(4), np.ones(4)], reduce=True, executor="codegen"
        )
        assert ck.codegen.has_result

    def test_run_reduce_on_for_program_rejected(self):
        def k(i, x):
            x[i] = 1.0

        ck = compile_kernel(k, 1, [np.ones(4)], executor="codegen")
        assert not ck.codegen.has_result
        with pytest.raises(KernelExecutionError):
            ck.codegen.run_reduce(IndexDomain.full((4,)), [np.ones(4)])

    def test_lower_trace_direct(self):
        from repro.ir.tracer import trace_kernel

        def k(i, x, y):
            y[i] = x[i] + 1.0

        args = [np.ones(6), np.zeros(6)]
        trace = trace_kernel(k, 1, args)
        prog = lower_trace(trace, args)
        y = np.zeros(6)
        prog.run_for(IndexDomain.full((6,)), [np.ones(6), y])
        np.testing.assert_array_equal(y, np.full(6, 2.0))


# ---------------------------------------------------------------------------
# Executor selection
# ---------------------------------------------------------------------------


class TestExecutorSelection:
    # The resolved default is "codegen" unless the suite itself runs
    # under a PYACC_EXECUTOR override (the native CI legs do exactly
    # that), in which case the env value *is* the expected default.
    _ENV_DEFAULT = os.environ.get("PYACC_EXECUTOR", DEFAULT_EXECUTOR)

    def test_default_is_codegen(self):
        assert executor_mode() == self._ENV_DEFAULT

    def test_set_executor_mode_overrides(self):
        set_executor_mode("vector")
        assert executor_mode() == "vector"

        def k(i, x):
            x[i] = 1.0

        ck = compile_kernel(k, 1, [np.ones(4)])
        assert ck.mode == "vector"
        set_executor_mode(None)
        assert executor_mode() == self._ENV_DEFAULT

    def test_set_executor_mode_rejects_unknown(self):
        with pytest.raises(PreferencesError):
            set_executor_mode("llvm")

    def test_env_variable_selects_executor(self, monkeypatch):
        monkeypatch.setenv("PYACC_EXECUTOR", "interpreter")
        set_executor_mode(None)  # drop the cached resolution
        assert executor_mode() == "interpreter"
        monkeypatch.setenv("PYACC_EXECUTOR", "nope")
        set_executor_mode(None)
        with pytest.raises(PreferencesError):
            executor_mode()

    def test_executor_modes_via_constructs(self):
        # end-to-end: the public constructs honour the selected executor
        def axpy(i, a, x, y):
            x[i] += a * y[i]

        base = _rng().standard_normal((2, 128))
        outs = {}
        for ex in EXECUTORS:
            set_executor_mode(ex)
            with repro.use_backend("serial"):
                x = repro.array(base[0])
                y = repro.array(base[1])
                repro.parallel_for(128, axpy, 2.0, x, y)
                outs[ex] = repro.to_host(x)
        set_executor_mode(None)
        np.testing.assert_array_equal(outs["codegen"], outs["vector"])
        np.testing.assert_array_equal(outs["codegen"], outs["interpreter"])


# ---------------------------------------------------------------------------
# The scratch arena
# ---------------------------------------------------------------------------


class TestArena:
    def test_frame_take_release_reuses(self):
        arena = ScratchArena()
        with arena.frame() as fr:
            b1 = fr.take((64,))
        with arena.frame() as fr:
            b2 = fr.take((64,))
        assert b1 is b2  # recycled, not reallocated
        stats = arena.stats()
        assert stats["buffers_created"] == 1
        assert stats["buffers_reused"] == 1
        assert stats["bytes_saved"] == 64 * 8

    def test_distinct_shapes_not_shared(self):
        arena = ScratchArena()
        with arena.frame() as fr:
            fr.take((8,))
        with arena.frame() as fr:
            fr.take((9,))
        assert arena.stats()["buffers_created"] == 2

    def test_dtype_keys_pool(self):
        arena = ScratchArena()
        with arena.frame() as fr:
            fr.take((8,), np.float64)
        with arena.frame() as fr:
            buf = fr.take((8,), np.float32)
        assert buf.dtype == np.float32
        assert arena.stats()["buffers_created"] == 2

    def test_same_frame_never_hands_out_same_buffer(self):
        arena = ScratchArena()
        fr = arena.frame()
        bufs = [fr.take((16,)) for _ in range(4)]
        assert len({id(b) for b in bufs}) == 4
        fr.release()
        assert arena.stats()["buffers_live"] == 4

    def test_clear_drops_pool(self):
        arena = ScratchArena()
        with arena.frame() as fr:
            fr.take((8,))
        arena.clear()
        assert arena.stats()["buffers_live"] == 0

    def test_launches_populate_context_arena(self):
        # Arena temporaries are a codegen-rung artifact (the native C
        # loop keeps everything in registers), so pin the executor.
        def axpy(i, a, x, y):
            x[i] += a * y[i]

        set_executor_mode("codegen")
        try:
            with repro.use_backend("serial") as ctx:
                x = repro.array(np.ones(256))
                y = repro.array(np.ones(256))
                repro.parallel_for(256, axpy, 2.0, x, y)
                first = ctx.arena.stats()
                repro.parallel_for(256, axpy, 2.0, x, y)
                second = ctx.arena.stats()
        finally:
            set_executor_mode(None)
        assert first["buffers_created"] >= 1
        # the second identical launch allocated nothing new
        assert second["buffers_created"] == first["buffers_created"]
        assert second["buffers_reused"] > first["buffers_reused"]

    def test_context_arenas_are_isolated(self):
        def axpy(i, a, x, y):
            x[i] += a * y[i]

        set_executor_mode("codegen")
        try:
            with repro.use_backend("serial") as ctx1:
                x = repro.array(np.ones(64))
                repro.parallel_for(
                    64, axpy, 2.0, x, repro.array(np.ones(64))
                )
                s1 = ctx1.arena.stats()
            with repro.use_backend("serial") as ctx2:
                s2 = ctx2.arena.stats()
        finally:
            set_executor_mode(None)
        assert ctx1.arena is not ctx2.arena
        assert s1["buffers_created"] >= 1
        assert s2["buffers_created"] == 0

    def test_threads_backend_chunked_launches_correct(self):
        from repro.backends.threads import ThreadsBackend

        def axpy(i, a, x, y):
            x[i] += a * y[i]

        n = 1 << 16  # above min_parallel_size → chunked across workers
        base = _rng().standard_normal((2, n))
        backend = ThreadsBackend(4, min_parallel_size=1)
        set_executor_mode("codegen")  # arena frames are codegen-rung
        try:
            with repro.use_backend(backend) as ctx:
                x = repro.array(base[0])
                y = repro.array(base[1])
                for _ in range(3):
                    repro.parallel_for(n, axpy, 2.0, x, y)
                got = repro.to_host(x)
                stats = ctx.arena.stats()
        finally:
            set_executor_mode(None)
            backend.close()
        expected = base[0] + 3 * 2.0 * base[1]
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        # chunks drew frames from the shared pool and recycled them
        assert stats["buffers_created"] >= 1
        assert stats["buffers_reused"] >= 1

    def test_concurrent_frames_share_nothing(self):
        arena = ScratchArena()
        n_threads, n_rounds = 8, 50
        errors = []

        def worker(tid):
            try:
                for r in range(n_rounds):
                    with arena.frame() as fr:
                        buf = fr.take((128,))
                        buf.fill(tid * 1000 + r)
                        assert (buf == tid * 1000 + r).all()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = arena.stats()
        # at most one buffer per simultaneously-open frame was created
        assert stats["buffers_created"] <= n_threads
        assert stats["buffers_live"] == stats["buffers_created"]

    def test_default_arena_backs_direct_runs(self):
        def axpy(i, a, x, y):
            x[i] += a * y[i]

        before = default_arena().stats()["buffers_created"]
        ck = compile_kernel(
            axpy, 1, [2.0, np.ones(32), np.ones(32)], executor="codegen"
        )
        ck.run_for(IndexDomain.full((32,)), [2.0, np.ones(32), np.ones(32)])
        after = default_arena().stats()
        assert after["buffers_created"] + after["buffers_reused"] > 0 or before


def test_arena_frame_is_context_manager():
    fr = ArenaFrame(ScratchArena())
    with fr as f:
        assert f is fr
