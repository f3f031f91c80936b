"""Unit tests for the CPU backends (serial, interp, threads)."""

import time

import numpy as np
import pytest

import repro
from repro.backends.serial import InterpreterBackend, SerialBackend
from repro.backends.threads import ThreadsBackend, default_num_threads
from repro.core.exceptions import KernelExecutionError
from repro.ir.compile import compile_kernel


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


def compiled(fn, ndim, args, reduce=False):
    return compile_kernel(fn, ndim, args, reduce=reduce)


class TestHostArray:
    """``array()`` on serial and threads shares an input nothing can
    write through, and copies everything else."""

    BACKENDS = (SerialBackend, lambda: ThreadsBackend(1))

    @pytest.mark.parametrize("make", BACKENDS)
    def test_read_only_input_and_its_read_only_views_are_shared(self, make):
        host = np.arange(12.0).reshape(3, 4).copy()  # owns its data
        host.flags.writeable = False
        b = make()
        assert b.array(host) is host
        row = host[1]
        assert b.array(row) is row

    @pytest.mark.parametrize("make", BACKENDS)
    def test_a_read_only_view_of_writable_data_is_copied(self, make):
        base = np.arange(8.0)
        view = base[2:]
        view.flags.writeable = False
        dev = make().array(view)
        assert dev is not view
        base[:] = -1.0
        np.testing.assert_array_equal(dev, np.arange(2.0, 8.0))

    @pytest.mark.parametrize("make", BACKENDS)
    def test_a_strided_read_only_input_is_copied(self, make):
        host = np.arange(8.0)
        host.flags.writeable = False
        strided = host[::2]
        dev = make().array(strided)
        assert dev is not strided and dev.flags.c_contiguous


class TestSerial:
    def test_for_and_reduce(self):
        b = SerialBackend()
        x, y = np.zeros(8), np.ones(8)
        b.run_for((8,), compiled(axpy, 1, [2.0, x, y]), [2.0, x, y])
        assert np.allclose(x, 2.0)
        r = b.run_reduce((8,), compiled(dot, 1, [x, y], True), [x, y])
        assert r == pytest.approx(16.0)

    def test_array_copies(self):
        b = SerialBackend()
        host = np.ones(3)
        dev = b.array(host)
        host[:] = 5
        assert np.allclose(dev, 1.0)

    def test_launch_counter(self):
        b = SerialBackend()
        x, y = np.zeros(4), np.ones(4)
        ck = compiled(axpy, 1, [1.0, x, y])
        b.run_for((4,), ck, [1.0, x, y])
        assert b.accounting.n_kernel_launches == 1


class TestInterp:
    def test_matches_serial(self):
        bi, bs = InterpreterBackend(), SerialBackend()
        x1, y = np.arange(6.0), np.ones(6)
        x2 = x1.copy()
        ck = compiled(axpy, 1, [3.0, x1, y])
        bs.run_for((6,), ck, [3.0, x1, y])
        bi.run_for((6,), ck, [3.0, x2, y])
        np.testing.assert_array_equal(x1, x2)

    def test_reduce_matches_serial(self):
        bi, bs = InterpreterBackend(), SerialBackend()
        x, y = np.arange(6.0), np.full(6, 0.5)
        ck = compiled(dot, 1, [x, y], True)
        assert bi.run_reduce((6,), ck, [x, y]) == pytest.approx(
            bs.run_reduce((6,), ck, [x, y])
        )


class TestThreadsConfig:
    def test_default_num_threads_env(self, monkeypatch):
        monkeypatch.setenv("PYACC_NUM_THREADS", "7")
        assert default_num_threads() == 7

    def test_default_num_threads_bad_env(self, monkeypatch):
        monkeypatch.setenv("PYACC_NUM_THREADS", "lots")
        with pytest.raises(ValueError):
            default_num_threads()

    def test_default_num_threads_nonpositive_env(self, monkeypatch):
        monkeypatch.setenv("PYACC_NUM_THREADS", "0")
        with pytest.raises(ValueError):
            default_num_threads()

    def test_default_honours_affinity_mask(self, monkeypatch):
        # A cpuset-limited container: 64 CPUs on the machine, 3 usable.
        import os

        from repro.backends.cluster import default_num_workers

        monkeypatch.delenv("PYACC_NUM_THREADS", raising=False)
        monkeypatch.delenv("PYACC_CLUSTER_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False
        )
        assert default_num_threads() == 3
        assert ThreadsBackend().n_threads == 3
        assert default_num_workers() == 3
        monkeypatch.setattr(os, "process_cpu_count", lambda: 2, raising=False)
        assert default_num_threads() == 2  # 3.13+: the interpreter's own count
        monkeypatch.setenv("PYACC_NUM_THREADS", "7")
        monkeypatch.setenv("PYACC_CLUSTER_WORKERS", "5")
        assert (default_num_threads(), default_num_workers()) == (7, 5)

    def test_default_without_affinity_support(self, monkeypatch):
        import os

        monkeypatch.delenv("PYACC_NUM_THREADS", raising=False)
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_num_threads() == 6

    def test_explicit_count(self):
        b = ThreadsBackend(n_threads=3)
        assert b.n_threads == 3

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            ThreadsBackend(n_threads=0)


class TestThreadsExecution:
    def test_small_domain_runs_inline(self):
        b = ThreadsBackend(n_threads=4)
        x, y = np.zeros(16), np.ones(16)
        b.run_for((16,), compiled(axpy, 1, [1.0, x, y]), [1.0, x, y])
        assert np.allclose(x, 1.0)
        assert b._pool is None  # never forked

    def test_large_domain_uses_pool_and_matches_serial(self):
        n = 1 << 16
        b = ThreadsBackend(n_threads=4, min_parallel_size=1024)
        rng = np.random.default_rng(3)
        x = rng.random(n)
        y = rng.random(n)
        expected = x + 2.5 * y
        b.run_for((n,), compiled(axpy, 1, [2.5, x, y]), [2.5, x, y])
        assert np.allclose(x, expected)
        assert b._pool is not None
        b.close()

    def test_chunked_reduce_matches_numpy(self):
        n = 1 << 16
        b = ThreadsBackend(n_threads=4, min_parallel_size=1024)
        rng = np.random.default_rng(4)
        x, y = rng.random(n), rng.random(n)
        r = b.run_reduce((n,), compiled(dot, 1, [x, y], True), [x, y])
        assert r == pytest.approx(float(x @ y), rel=1e-10)
        b.close()

    def test_chunked_minmax_reduce(self):
        def val(i, x):
            return x[i]

        n = 1 << 15
        b = ThreadsBackend(n_threads=4, min_parallel_size=1024)
        x = np.random.default_rng(5).random(n)
        ck = compiled(val, 1, [x], True)
        assert b.run_reduce((n,), ck, [x], op="min") == pytest.approx(x.min())
        assert b.run_reduce((n,), ck, [x], op="max") == pytest.approx(x.max())
        b.close()

    def test_2d_chunking_splits_leading_axis(self):
        def setval(i, j, x):
            x[i, j] = i * 100.0 + j

        m, n = 64, 512
        b = ThreadsBackend(n_threads=4, min_parallel_size=16)
        x = np.zeros((m, n))
        b.run_for((m, n), compiled(setval, 2, [x]), [x])
        ii, jj = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
        assert np.allclose(x, ii * 100 + jj)
        b.close()

    def test_worker_exception_propagates(self):
        def bad(i, x, n):
            x[i + n] = 1.0  # out of bounds on every lane

        b = ThreadsBackend(n_threads=2, min_parallel_size=16)
        x = np.zeros(1 << 14)
        ck = compiled(bad, 1, [x, len(x)])
        with pytest.raises(Exception):
            b.run_for((len(x),), ck, [x, len(x)])
        b.close()

    def test_error_surfaces_only_after_every_chunk_finished(self):
        """``Threads.@sync``: a failing chunk must not let the construct
        return while a later chunk still writes the caller's arrays."""
        n = 1 << 14
        x, y = np.zeros(n), np.ones(n)
        finished = []

        class Chunk0Fails:
            """The compiled AXPY, except chunk 0 raises and chunk 1 is slow."""

            def __init__(self, ck):
                self._ck = ck

            def __getattr__(self, name):
                return getattr(self._ck, name)

            def run_for(self, domain, args, arena=None):
                if domain.ranges[0][0] == 0:
                    raise KernelExecutionError("chunk 0 failed")
                time.sleep(0.3)
                self._ck.run_for(domain, args, arena)
                finished.append(domain.ranges[0])

        b = ThreadsBackend(n_threads=2, min_parallel_size=16)
        ck = Chunk0Fails(compiled(axpy, 1, [1.0, x, y]))
        with pytest.raises(KernelExecutionError, match="chunk 0 failed"):
            b.run_for((n,), ck, [1.0, x, y])
        assert finished == [(n // 2, n)]
        assert np.all(x[n // 2:] == 1.0)
        b.close()

    def test_interpreter_fallback_stays_inline(self):
        def weird(i, x, m):
            for _ in range(int(x[i] * 0 + m)):
                pass
            x[i] = 1.0

        b = ThreadsBackend(n_threads=4, min_parallel_size=16)
        x = np.zeros(64)
        ck = compiled(weird, 1, [x, 1])
        assert ck.mode == "interpreter"
        b.run_for((64,), ck, [x, 1])
        assert np.allclose(x, 1.0)
        assert b._pool is None
        b.close()

    def test_sim_time_advances(self):
        b = ThreadsBackend(n_threads=2)
        x, y = np.zeros(64), np.ones(64)
        t0 = b.accounting.sim_time
        b.run_for((64,), compiled(axpy, 1, [1.0, x, y]), [1.0, x, y])
        assert b.accounting.sim_time > t0

    def test_portable_dispatch_overhead_charged(self):
        b = ThreadsBackend(n_threads=2)
        t0 = b.accounting.sim_time
        b.account_portable_dispatch("for", (4,))
        assert b.accounting.sim_time > t0


class TestThreadsViaApi:
    def test_matches_serial_through_public_api(self):
        n = 1 << 15
        rng = np.random.default_rng(6)
        xh, yh = rng.random(n), rng.random(n)

        repro.set_backend("serial")
        xs = repro.array(xh)
        repro.parallel_for(n, axpy, 1.5, xs, repro.array(yh))
        ref = repro.to_host(xs)

        repro.set_backend(ThreadsBackend(n_threads=4, min_parallel_size=256))
        xt = repro.array(xh)
        repro.parallel_for(n, axpy, 1.5, xt, repro.array(yh))
        np.testing.assert_array_equal(repro.to_host(xt), ref)
        repro.set_backend("serial")


def val(i, x):
    return x[i]


def _left_to_right(partials):
    """The IEEE left-to-right sum (``sum()`` is compensated on 3.12+)."""
    acc = partials[0]
    for p in partials[1:]:
        acc = acc + p
    return acc


def _bits(value):
    return np.float64(value).tobytes()


class TestReducePartialFold:
    """One partial fold for every backend: ``fold_partials`` uses the
    kernel IR's own ufuncs, so chunked min/max propagate NaN exactly like
    the serial lane fold and chunked add is the plain left-to-right sum."""

    N = 1 << 18

    def _backends(self):
        return [
            ThreadsBackend(n_threads=2),
            ThreadsBackend(n_threads=4),
            "multi-sim",
        ]

    @pytest.mark.parametrize("op", ["min", "max"])
    @pytest.mark.parametrize("pos", [0, N - 1], ids=["first", "last"])
    def test_nan_lane_matches_serial_bitwise(self, op, pos):
        host = np.ones(self.N)
        host[pos] = np.nan
        try:
            repro.set_backend("serial")
            want = repro.parallel_reduce(self.N, val, repro.array(host), op=op)
            assert np.isnan(want)
            for backend in self._backends():
                repro.set_backend(backend)
                got = repro.parallel_reduce(self.N, val, repro.array(host), op=op)
                assert _bits(got) == _bits(want), (backend, got)
        finally:
            repro.set_backend("serial")

    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_add_is_left_to_right_over_chunk_partials(self, n_threads):
        from repro.core.launch import cpu_chunks

        host = np.random.default_rng(11).standard_normal(self.N)
        try:
            repro.set_backend("serial")
            partials = [
                repro.parallel_reduce(hi - lo, val, repro.array(host[lo:hi]))
                for lo, hi in cpu_chunks((self.N,), n_threads)
            ]
            assert len(partials) == n_threads
            repro.set_backend(ThreadsBackend(n_threads=n_threads))
            got = repro.parallel_reduce(self.N, val, repro.array(host))
            assert _bits(got) == _bits(_left_to_right(partials))
        finally:
            repro.set_backend("serial")

    def test_fold_partials_contract(self):
        from repro.core.exceptions import KernelExecutionError
        from repro.ir.vectorizer import fold_partials

        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 8):
            ps = [float(v) for v in rng.standard_normal(n)]
            assert _bits(fold_partials("add", ps)) == _bits(_left_to_right(ps))
            assert fold_partials("min", ps) == min(ps)
            assert fold_partials("max", ps) == max(ps)
        only = -0.0
        assert fold_partials("add", [only]) is only  # returned unchanged
        assert np.isnan(fold_partials("min", [1.0, np.nan]))
        assert np.isnan(fold_partials("max", [np.nan, 1.0]))
        with pytest.raises(KernelExecutionError):
            fold_partials("prod", [1.0, 2.0])

    def test_unknown_op_raises_before_any_chunk_runs(self):
        launches = []
        repro.set_backend(ThreadsBackend(n_threads=2))
        unsubscribe = repro.current_context().on_launch(launches.append)
        try:
            x = repro.array(np.ones(self.N))
            with pytest.raises(ValueError):
                repro.parallel_reduce(self.N, val, x, op="prod")
            assert launches == []
        finally:
            unsubscribe()
            repro.set_backend("serial")
