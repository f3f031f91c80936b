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
        # dispatch and the partial fold are all inside the counted window.
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


def _python_calls(fn):
    """Python-level ``call`` events (``sys.setprofile``) while ``fn()``
    runs — a count, not a time: the same launch makes the same calls."""
    import sys

    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestHotPathBudget:
    """What a warm launch costs in Python function calls, pinned at the
    number measured when the launch record landed (ISSUE 23) plus five:
    a "+1 keyword here" that no benchmark pair can resolve fails here.
    Lower is fine — Python 3.12 inlines comprehensions, for one."""

    #: (eager parallel_for, eager parallel_reduce, one-node replay).
    PINNED = (42 + 5, 44 + 5, 31 + 5)

    def test_calls_per_warm_launch_and_replay(self):
        from repro import faults
        from repro.graph import GraphRegion
        from repro.ir.compile import set_executor_mode
        from repro.ir.nativecache import resolve_cc

        if resolve_cc() is None or faults.injection_possible():
            pytest.skip("the budget is the native rung's, with no injection armed")
        set_executor_mode("native")
        repro.set_backend("threads")
        repro.set_graph_mode("on")
        n = 512  # below the pool cutoff at any PYACC_NUM_THREADS: inline
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
        region = GraphRegion("budget")

        def body():
            repro.parallel_for(n, axpy, 1.0, x, y)

        launches = (
            lambda: repro.parallel_for(n, axpy, 1.0, x, y),
            lambda: repro.parallel_reduce(n, dot, x, y),
            lambda: region.run((id(x), id(y)), body),
        )
        try:
            for _ in range(3):
                for launch in launches:
                    launch()
            counts = [_python_calls(launch) - 1 for launch in launches]
        finally:
            set_executor_mode(None)
            repro.set_graph_mode(None)
        assert region.stats()["replays"] >= 3
        for count, pinned in zip(counts, self.PINNED):
            assert count <= pinned, (counts, self.PINNED)


class TestEveryLaunchRunsTheWholeContract:
    """A launch record spares recomputation, never a seam: hooks, the
    fault probe, write versioning, accounting and the native pre-flight
    run on each of 100 warm launches and each of 100 replayed nodes."""

    def test_five_seams_over_100_launches_and_100_replays(self, monkeypatch):
        from repro import faults
        from repro.graph import GraphRegion
        from repro.ir import cgen, writes
        from repro.ir.nativecache import resolve_cc

        repro.set_backend("threads")
        repro.set_graph_mode("on")
        n = 256
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
        region = GraphRegion("contract")

        def body():
            repro.parallel_for(n, axpy, 1.0, x, y)

        seen = dict.fromkeys(("launch", "complete", "probe", "writes", "preflight"), 0)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return real(*args, **kwargs)

            return wrapper

        ctx = repro.current_context()
        backend = ctx.backend()
        try:
            for _ in range(2):  # compile, capture, instantiate
                repro.parallel_for(n, axpy, 1.0, x, y)
                region.run((id(x), id(y)), body)
            undo = [
                ctx.on_launch(counting("launch", lambda plan: None)),
                ctx.on_complete(counting("complete", lambda plan: None)),
            ]
            monkeypatch.setattr(faults, "guarded", counting("probe", faults.guarded))
            monkeypatch.setattr(
                writes, "note_writes", counting("writes", writes.note_writes)
            )
            monkeypatch.setattr(
                cgen.NativeKernel,
                "preflight",
                counting("preflight", cgen.NativeKernel.preflight),
            )
            before = backend.accounting.snapshot()
            for _ in range(100):
                repro.parallel_for(n, axpy, 1.0, x, y)
            for _ in range(100):
                region.run((id(x), id(y)), body)
            after = backend.accounting.snapshot()
            for off in undo:
                off()
        finally:
            repro.set_graph_mode(None)
        expect = dict.fromkeys(seen, 200)
        if repro.executor_mode() != "native" or resolve_cc() is None:
            expect["preflight"] = 0  # no C kernel to pre-flight
        assert seen == expect
        assert after["n_for"] - before["n_for"] == 200
        assert after["n_kernel_launches"] - before["n_kernel_launches"] == 200
        assert after["sim_time"] > before["sim_time"]
        assert repro.to_host(x)[0] == 204.0


class TestLaunchRecord:
    """The per-kernel launch record (``CompiledKernel.launches``): one
    look-up per launch, keyed on everything it was derived from —
    mutate any component and the launch misses."""

    N = 64

    @pytest.fixture(autouse=True)
    def fresh(self):
        from repro.ir.compile import clear_cache

        clear_cache()
        yield
        repro.set_verify_mode(None)
        clear_cache()

    @staticmethod
    def guarded(i, lim, x, y):
        if i < lim:
            return x[i] * y[i]
        return 0.0

    def _record(self, n=None, op="add", scalar=3, x=None):
        """The record a guarded reduce launch of this signature binds."""
        n = n or self.N
        x = repro.array(np.ones(n)) if x is None else x
        handle = repro.launch(n, self.guarded, scalar, x, x, reduce=True, op=op)
        return handle.plan.record

    def test_same_signature_hits(self):
        first = self._record()
        assert self._record() is first
        # A scalar the analysis never reads is not part of the key ...
        x, y = repro.array(np.zeros(8)), repro.array(np.ones(8))
        a = repro.launch(8, axpy, 1.0, x, y).plan.record
        assert repro.launch(8, axpy, 2.5, x, y).plan.record is a
        # ... and neither are the arrays themselves, only their shapes.
        assert self._record(x=repro.array(np.full(self.N, 2.0))) is first

    def test_dims_shape_op_and_consumed_scalar_miss(self):
        first = self._record()
        assert self._record(n=self.N // 2, x=repro.array(np.ones(self.N))) is not first
        assert self._record(n=self.N, x=repro.array(np.ones(self.N + 1))) is not first
        assert self._record(op="max") is not first
        assert self._record(scalar=4) is not first  # ``lim`` guards a load
        assert self._record() is first  # and none of them evicted it

    def test_backend_swap_and_epoch_bump_miss(self):
        from repro.backends.threads import ThreadsBackend

        backend = ThreadsBackend(n_threads=2)
        repro.set_backend(backend)
        first = self._record()
        assert self._record() is first
        # The threads backend's epoch *is* its scheduling inputs.
        backend.min_parallel_size = 8
        moved = self._record()
        assert moved is not first
        assert not moved.schedule.inline and first.schedule.inline
        backend.min_parallel_size = 1 << 14
        assert self._record() is first
        # A swapped performance model re-derives the modeled cost.
        from repro.perfmodel import PerfModel, get_profile

        backend.model = PerfModel(get_profile("a100"))
        assert self._record().cost != first.cost
        # Another instance never shares a record, even a look-alike.
        repro.set_backend(ThreadsBackend(n_threads=2))
        assert self._record() is not first

    def test_verify_mode_change_and_clear_cache_miss(self):
        from repro.ir.compile import clear_cache

        repro.set_verify_mode("warn")
        first = self._record()
        repro.set_verify_mode("off")
        off = self._record()
        assert off is not first and off.diagnostics == ()
        repro.set_verify_mode("warn")
        assert self._record() is first
        clear_cache()
        assert self._record() is not first

    def test_error_mode_raises_on_every_launch(self):
        from repro.core.exceptions import KernelVerificationError

        def racy(i, x):
            x[i] = x[i + 1]

        x = repro.array(np.zeros(9))
        repro.set_verify_mode("error")
        for _ in range(3):
            with pytest.raises(KernelVerificationError):
                repro.parallel_for(8, racy, x)
        # ... while the analysis itself ran once.
        kernel = repro.ir.compile.compile_kernel(racy, 1, [repro.to_host(x)])
        assert len(kernel.launches.verified) == 1
        assert kernel.launches.records == {}

    def test_records_are_bounded(self):
        x = repro.array(np.ones(4 * 300))
        for n in range(1, 300):
            repro.parallel_reduce(n, dot, x, x)
        kernel = repro.ir.compile.compile_kernel(
            dot, 1, [repro.to_host(x)] * 2, reduce=True
        )
        assert 0 < len(kernel.launches.records) <= kernel.launches.MAX
