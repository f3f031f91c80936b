"""Unit tests for the portable front end (repro.core.api)."""

import numpy as np
import pytest

import repro
from repro.core.backend import normalize_dims
from repro.core.exceptions import BackendError, UnknownBackendError


@pytest.fixture(autouse=True)
def serial_backend():
    repro.set_backend("serial")
    yield
    repro.reset_backend()


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


class TestNormalizeDims:
    def test_int(self):
        assert normalize_dims(5) == (5,)

    def test_numpy_int(self):
        assert normalize_dims(np.int64(5)) == (5,)

    def test_tuple(self):
        assert normalize_dims((3, 4)) == (3, 4)
        assert normalize_dims((2, 3, 4)) == (2, 3, 4)

    def test_list(self):
        assert normalize_dims([3, 4]) == (3, 4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_dims(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_dims((3, -1))

    def test_4d_rejected(self):
        with pytest.raises(ValueError):
            normalize_dims((1, 2, 3, 4))


class TestParallelFor:
    def test_basic(self):
        x = repro.array(np.zeros(10))
        y = repro.array(np.ones(10))
        repro.parallel_for(10, axpy, 2.0, x, y)
        assert np.allclose(repro.to_host(x), 2.0)

    def test_synchronous_semantics(self):
        # The result must be visible immediately after the construct.
        x = repro.array(np.zeros(4))
        y = repro.array(np.ones(4))
        repro.parallel_for(4, axpy, 1.0, x, y)
        assert repro.to_host(x)[0] == 1.0

    def test_partial_domain(self):
        def setone(i, x):
            x[i] = 1.0

        x = repro.array(np.zeros(10))
        repro.parallel_for(6, setone, x)
        h = repro.to_host(x)
        assert np.allclose(h[:6], 1.0)
        assert np.allclose(h[6:], 0.0)

    def test_accounting_counts_constructs(self):
        b = repro.active_backend()
        start = b.accounting.n_for
        x = repro.array(np.zeros(4))
        y = repro.array(np.ones(4))
        repro.parallel_for(4, axpy, 1.0, x, y)
        repro.parallel_for(4, axpy, 1.0, x, y)
        assert b.accounting.n_for == start + 2


class TestParallelReduce:
    def test_returns_python_float(self):
        x = repro.array(np.arange(5.0))
        y = repro.array(np.ones(5))
        r = repro.parallel_reduce(5, dot, x, y)
        assert isinstance(r, float)
        assert r == pytest.approx(10.0)

    def test_min_max_ops(self):
        def val(i, x):
            return x[i]

        x = repro.array(np.array([4.0, -2.0, 9.0]))
        assert repro.parallel_reduce(3, val, x, op="min") == -2.0
        assert repro.parallel_reduce(3, val, x, op="max") == 9.0

    def test_unknown_op_rejected_at_api_boundary(self):
        # Validated before any backend work: a clear ValueError naming
        # the accepted ops, not a failure deep inside a backend.
        x = repro.array(np.ones(3))
        with pytest.raises(ValueError, match="add.*min.*max"):
            repro.parallel_reduce(3, dot, x, x, op="mul")

    def test_unknown_op_rejected_before_compile(self):
        calls = []

        def kernel(i, x):
            calls.append(i)
            return x[i]

        x = repro.array(np.ones(3))
        with pytest.raises(ValueError):
            repro.parallel_reduce(3, kernel, x, op="prod")
        assert calls == []  # rejected before tracing/execution

    def test_2d_reduce(self):
        def dot2(i, j, x, y):
            return x[i, j] * y[i, j]

        x = repro.array(np.full((3, 3), 2.0))
        y = repro.array(np.full((3, 3), 0.5))
        assert repro.parallel_reduce((3, 3), dot2, x, y) == pytest.approx(9.0)

    def test_counts_reduce_constructs(self):
        b = repro.active_backend()
        x = repro.array(np.ones(4))
        repro.parallel_reduce(4, lambda i, x: x[i], x)
        assert b.accounting.n_reduce >= 1


class TestBackendSelection:
    def test_set_by_name(self):
        b = repro.set_backend("threads")
        assert b.name == "threads"
        assert repro.active_backend() is b

    def test_set_by_instance(self):
        from repro.backends.serial import SerialBackend

        inst = SerialBackend()
        assert repro.set_backend(inst) is inst

    def test_persist_instance_rejected(self):
        from repro.backends.serial import SerialBackend

        with pytest.raises(BackendError):
            repro.set_backend(SerialBackend(), persist=True)

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownBackendError) as ei:
            repro.set_backend("tpu")
        assert "threads" in str(ei.value)

    def test_reset_backend_revives_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PYACC_BACKEND", "serial")
        repro.reset_backend()
        assert repro.active_backend().name == "serial"

    def test_available_backends_contains_builtins(self):
        names = repro.available_backends()
        for expected in ("threads", "serial", "interp", "cuda-sim", "rocm-sim", "oneapi-sim"):
            assert expected in names

    def test_synchronize_is_safe(self):
        repro.synchronize()  # no-op on CPU, must not raise


class TestRegistryExtension:
    def test_register_custom_backend(self):
        from repro.backends.registry import register_backend, unregister_backend
        from repro.backends.serial import SerialBackend

        class Custom(SerialBackend):
            name = "custom-test"

        register_backend("custom-test", Custom)
        try:
            b = repro.set_backend("custom-test")
            assert isinstance(b, Custom)
        finally:
            unregister_backend("custom-test")
            repro.set_backend("serial")

    def test_factory_returning_non_backend_rejected(self):
        from repro.backends.registry import (
            create_backend,
            register_backend,
            unregister_backend,
        )

        register_backend("broken", lambda: object())
        try:
            with pytest.raises(BackendError):
                create_backend("broken")
        finally:
            unregister_backend("broken")

    def test_empty_name_rejected(self):
        from repro.backends.registry import register_backend

        with pytest.raises(BackendError):
            register_backend("", lambda: None)


class TestArrayHelpers:
    def test_array_copies_host_data(self):
        host = np.ones(4)
        dev = repro.array(host)
        host[:] = 99.0
        assert np.allclose(repro.to_host(dev), 1.0)

    def test_array_dtype_override(self):
        dev = repro.array([1, 2, 3], dtype=np.float64)
        assert repro.to_host(dev).dtype == np.float64

    def test_is_backend_array_false_on_cpu(self):
        assert not repro.is_backend_array(repro.array(np.ones(3)))

    def test_is_backend_array_true_on_gpusim(self):
        repro.set_backend("cuda-sim")
        arr = repro.array(np.ones(3))
        assert repro.is_backend_array(arr)


class TestHotPathHygiene:
    @pytest.mark.parametrize(
        "backend", ["serial", "threads", "multi-sim", "cuda-sim", "cluster"]
    )
    def test_no_import_statement_executes_per_launch(self, backend, monkeypatch):
        import builtins

        monkeypatch.setenv("PYACC_CLUSTER_WORKERS", "2")
        active = repro.set_backend(backend)
        # Above the threads and cluster inline cutoffs: pool chunks, shard
        # dispatch, the halo schedule and the partial fold are all inside
        # the counted window.
        n = 1 << 16
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
        try:
            for _ in range(3):  # warm-up: compile, verify, pool/worker start
                repro.parallel_for(n, axpy, 1.0, x, y)
                repro.parallel_reduce(n, dot, x, y)
            imports = []
            real_import = builtins.__import__

            def counting_import(name, globals=None, *args, **kwargs):
                # Ours only: a scheduled worker kill (CI's chaos leg)
                # respawns through multiprocessing, whose function-level
                # imports are the standard library's business.
                if (globals or {}).get("__name__", "").startswith("repro"):
                    imports.append(name)
                return real_import(name, globals, *args, **kwargs)

            monkeypatch.setattr(builtins, "__import__", counting_import)
            for _ in range(100):
                repro.parallel_for(n, axpy, 1.0, x, y)
            total = repro.parallel_reduce(n, dot, x, y)
            monkeypatch.undo()
        finally:
            getattr(active, "close", lambda: None)()
        assert imports == []
        assert total == 103.0 * n

    def test_no_import_statement_executes_per_replay(self, monkeypatch):
        import builtins

        from repro.graph import GraphRegion

        repro.set_backend("threads")
        repro.set_graph_mode("on")
        n = 1 << 15
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
        region = GraphRegion("hygiene")

        def body(alpha):  # three recorded nodes, one slot
            repro.parallel_for(n, axpy, alpha, x, y)
            repro.parallel_reduce(n, dot, y, y)
            return repro.parallel_reduce(n, dot, x, y)

        try:
            for _ in range(3):  # capture + instantiate, then two replays
                region.run((id(x), id(y)), body, alpha=1.0)
            imports = []
            real_import = builtins.__import__

            def counting_import(name, *args, **kwargs):
                imports.append(name)
                return real_import(name, *args, **kwargs)

            monkeypatch.setattr(builtins, "__import__", counting_import)
            for _ in range(100):
                total = region.run((id(x), id(y)), body, alpha=1.0)
            monkeypatch.undo()
        finally:
            repro.set_graph_mode(None)
        assert imports == []
        assert total == 103.0 * n
        assert region.stats()["replays"] == 102
