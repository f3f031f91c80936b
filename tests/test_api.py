"""Unit tests for the portable front end (repro.core.api)."""

import os

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
            repro.synchronize()
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
            repro.synchronize()
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
    number measured when warm launches became bound calls, plus five: a
    "+1 keyword here" that no benchmark pair can resolve fails here.
    Lower is fine — Python 3.12 inlines comprehensions, for one."""

    #: (eager parallel_for, eager parallel_reduce, one-node replay),
    #: measured 21 / 24 / 26 on Python 3.11 (28 / 32 / 26 with a plan
    #: built per warm launch, 41 / 44 / 32 before the warm-launch table).
    PINNED = (21 + 5, 24 + 5, 26 + 5)

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
            # A unit that compiled meanwhile installs at its next launch.
            repro.synchronize()
            for launch in launches:
                launch()
            counts = [_python_calls(launch) - 1 for launch in launches]
        finally:
            set_executor_mode(None)
            repro.set_graph_mode(None)
        assert region.stats()["replays"] >= 3
        for count, pinned in zip(counts, self.PINNED):
            assert count <= pinned, (counts, self.PINNED)

    #: A warm 8³ HPCCG solve, its loop bound to a stored template and
    #: the driver running iterations 1-11: 509 calls measured (553 while
    #: its six set-up launches each built a plan, 640 before they took
    #: the warm-launch table; 1,020 when iteration 1 ran eagerly, 1,789
    #: when every iteration replayed region by region), plus a slack of
    #: ten.
    SOLVE_PINNED = 509 + 10

    def test_a_hooked_context_takes_the_staged_path(self, monkeypatch):
        """A traced run (the spine's ``--trace 1`` attaches hooks) must
        measure the staged execute path, not a bound call: every
        hooked launch goes through ``faults.execute_plan``, and no
        unhooked one does while the fences are clear and its kernel has
        an installed native rung (other rungs are always staged)."""
        from repro import faults
        from repro.ir.nativecache import resolve_cc

        if not os.environ.get("PYACC_FAULTS"):
            faults.refresh_gate()
        repro.set_backend("threads")
        n = 512  # inline at any PYACC_NUM_THREADS
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
        staged = []
        real = faults.execute_plan

        def spy(plan, ctx):
            staged.append(plan.construct)
            return real(plan, ctx)

        monkeypatch.setattr(faults, "execute_plan", spy)
        ctx = repro.current_context()
        off = ctx.on_complete(lambda plan: None)
        try:
            for _ in range(3):
                repro.parallel_for(n, axpy, 1.0, x, y)
                repro.parallel_reduce(n, dot, x, y)
        finally:
            off()
        assert staged == ["for", "reduce"] * 3
        repro.synchronize()  # a unit that compiled meanwhile installs
        repro.parallel_for(n, axpy, 1.0, x, y)  # at its next launch
        repro.parallel_reduce(n, dot, x, y)
        del staged[:]
        repro.parallel_for(n, axpy, 1.0, x, y)
        repro.parallel_reduce(n, dot, x, y)
        bound = (
            repro.executor_mode() == "native"
            and resolve_cc() is not None
            and not faults.injection_possible()
        )
        assert staged == ([] if bound else ["for", "reduce"])

    def test_calls_per_warm_hpccg_solve(self):
        from repro import faults
        from repro.apps.hpccg import build_27pt_problem, hpccg_solve
        from repro.graph import graph_stats
        from repro.ir.compile import set_executor_mode
        from repro.ir.nativecache import resolve_cc

        if resolve_cc() is None or faults.injection_possible():
            pytest.skip("the budget is the loop driver's, with no injection armed")
        set_executor_mode("native")
        repro.set_backend("threads")
        repro.set_graph_mode("on")
        a, b, _ = build_27pt_problem(8, 8, 8)
        try:
            for _ in range(2):
                hpccg_solve(a, b, tol=1e-8)
                repro.synchronize()
            calls = graph_stats()["loop"]["calls"]
            count = _python_calls(lambda: hpccg_solve(a, b, tol=1e-8))
            assert graph_stats()["loop"]["calls"] == calls + 1
        finally:
            set_executor_mode(None)
            repro.set_graph_mode(None)
        assert count <= self.SOLVE_PINNED, count

    def test_warm_hpccg_solve_stages_only_its_set_up(self, monkeypatch):
        """A warm 8³ solve launches its set-up's six launches and nothing
        else, each one a bound call (none staged): iteration 1 is
        recorded dry and driven with the rest, so no region instantiates
        a graph — its three stored structures are rebound through the
        loop template, none built — and one driver call runs it all."""
        from repro import faults
        from repro.apps.hpccg import build_27pt_problem, hpccg_solve
        from repro.core import api
        from repro.core.plan import BoundCall
        from repro.graph import capture, graph_stats
        from repro.ir.compile import set_executor_mode
        from repro.ir.nativecache import resolve_cc

        if resolve_cc() is None or faults.injection_possible():
            pytest.skip("the budget is the loop driver's, with no injection armed")
        set_executor_mode("native")
        repro.set_backend("threads")
        repro.set_graph_mode("on")
        a, b, _ = build_27pt_problem(8, 8, 8)
        staged, bound, instantiated = [], [], []

        def spy(real, log):
            def counting(*args, **kwargs):
                log.append(args)
                return real(*args, **kwargs)

            return counting

        try:
            for _ in range(2):
                hpccg_solve(a, b, tol=1e-8)
                repro.synchronize()
            before = graph_stats()
            monkeypatch.setattr(api, "_stage", spy(api._stage, staged))
            monkeypatch.setattr(BoundCall, "__call__", spy(BoundCall.__call__, bound))
            monkeypatch.setattr(
                capture._Structure, "bind", spy(capture._Structure.bind, instantiated)
            )
            hpccg_solve(a, b, tol=1e-8)
            after = graph_stats()
        finally:
            set_executor_mode(None)
            repro.set_graph_mode(None)
        moved = {
            "staged": len(staged),
            "bound": len(bound),
            "instantiated": len(instantiated),
            "captures": after["captures"] - before["captures"],
            "rebinds": after["rebinds"] - before["rebinds"],
            "loop calls": after["loop"]["calls"] - before["loop"]["calls"],
            "loop bound": after["loop"]["bound"] - before["loop"]["bound"],
        }
        assert moved == {
            "staged": 0, "bound": 6, "instantiated": 0, "captures": 3,
            "rebinds": 3, "loop calls": 1, "loop bound": 1,
        }, [args[1].fn.__name__ for args in staged]
        assert after["loop"]["declined"] == before["loop"]["declined"]


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
            repro.synchronize()
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

    def test_a_cg_solve_with_hooks_fires_every_node(self):
        """Hooks decline the CG loop driver (repro.graph.loop), so every
        iteration's replayed nodes fire them, as do the eager launches."""
        from repro.apps.hpccg import build_27pt_problem, hpccg_solve
        from repro.graph import graph_stats

        repro.set_backend("threads")
        repro.set_graph_mode("on")
        a, b, _ = build_27pt_problem(4, 4, 4)
        ctx = repro.current_context()
        backend = ctx.backend()
        fired = {"launch": 0, "complete": 0}

        def count(name):
            def hook(plan):
                fired[name] += 1

            return hook

        try:
            hpccg_solve(a, b)  # compile, and store the structures
            undo = [
                ctx.on_launch(count("launch")),
                ctx.on_complete(count("complete")),
            ]
            before, graph0 = backend.accounting.snapshot(), graph_stats()
            result = hpccg_solve(a, b)
            after, graph = backend.accounting.snapshot(), graph_stats()
            for off in undo:
                off()
        finally:
            repro.set_graph_mode(None)
        launches = (after["n_for"] - before["n_for"]) + (
            after["n_reduce"] - before["n_reduce"]
        )
        replayed = graph["nodes_replayed"] - graph0["nodes_replayed"]
        assert result.converged and result.iterations > 2
        assert fired == {"launch": launches, "complete": launches}
        # six set-up launches, six eager ones in the capturing iteration,
        # then every replayed node of iterations 2 onwards
        assert launches == 6 + 6 + replayed
        assert replayed >= 2 * (result.iterations - 1)
        assert graph["loop"]["calls"] == graph0["loop"]["calls"]


class TestLaunchRecord:
    """The per-kernel launch record (``CompiledKernel.launches``) and the
    warm-launch table that hands it out with its kernel
    (``KernelCache.launches``): one look-up per launch, keyed on
    everything it was derived from — mutate any component and the
    launch misses."""

    N = 64

    @pytest.fixture(autouse=True)
    def fresh(self):
        from repro import faults
        from repro.ir.compile import clear_cache

        # A fault plan installed earlier leaves the injection gate open,
        # and an open gate fences every launch off its bound call.
        if not os.environ.get("PYACC_FAULTS"):
            faults.refresh_gate()
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
        return repro.launch(n, self.guarded, scalar, x, x, reduce=True, op=op).record

    def test_same_signature_hits(self):
        first = self._record()
        assert self._record() is first
        # A scalar the analysis never reads is not part of the key ...
        x, y = repro.array(np.zeros(8)), repro.array(np.ones(8))
        a = repro.launch(8, axpy, 1.0, x, y).record
        assert repro.launch(8, axpy, 2.5, x, y).record is a
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

    # -- the warm-launch table (KernelCache.launches) -------------------------
    # Each change below, made after a warm launch, must miss the table or
    # behave exactly as the staged path does.

    @staticmethod
    def _table():
        from repro.ir.compile import resolve_cache

        return resolve_cache(None).launches

    def test_a_warm_launch_is_one_lookup_and_one_hit(self, monkeypatch):
        from repro.core import api

        x, y = repro.array(np.zeros(8)), repro.array(np.ones(8))
        repro.parallel_for(8, axpy, 1.0, x, y)
        before = repro.cache_info()

        def no_compile(*args, **kwargs):
            raise AssertionError("a warm launch walked the ladder")

        monkeypatch.setattr(api, "compile_kernel", no_compile)
        repro.parallel_for(8, axpy, 2.5, x, y)  # alpha is not consumed
        after = repro.cache_info()
        assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (1, 0)
        assert len(self._table()) == 1
        assert repro.to_host(x)[0] == 3.5

    def test_executor_mode_change_misses(self):
        from repro.ir.compile import set_executor_mode

        x, y = repro.array(np.zeros(8)), repro.array(np.ones(8))
        try:
            set_executor_mode("codegen")
            first = repro.launch(8, axpy, 1.0, x, y).kernel
            set_executor_mode("interpreter")
            interp = repro.launch(8, axpy, 1.0, x, y).kernel
            set_executor_mode("codegen")
            again = repro.launch(8, axpy, 1.0, x, y).kernel
        finally:
            set_executor_mode(None)
        assert first.mode == "codegen" and interp.mode == "interpreter"
        assert again is first
        assert len(self._table()) == 1  # the interpreter kernel is never filed
        assert repro.to_host(x)[0] == 3.0

    def test_error_mode_raises_on_every_launch_after_a_warm_one(self):
        from repro.core.exceptions import KernelVerificationError

        def racy(i, x):
            x[i] = x[i + 1]

        x = repro.array(np.arange(9.0))
        repro.set_verify_mode("off")
        repro.parallel_for(8, racy, x)
        repro.parallel_for(8, racy, x)
        repro.set_verify_mode("error")
        for _ in range(3):
            with pytest.raises(KernelVerificationError):
                repro.parallel_for(8, racy, x)
        repro.set_verify_mode("off")
        repro.parallel_for(8, racy, x)
        assert repro.to_host(x).tolist() == [3, 4, 5, 6, 7, 8, 8, 8, 8]

    def test_clear_cache_empties_the_table(self):
        from repro.ir.compile import clear_cache

        x, y = repro.array(np.zeros(8)), repro.array(np.ones(8))
        first = repro.launch(8, axpy, 1.0, x, y)
        assert self._table()
        clear_cache()
        assert not self._table()
        plan = repro.launch(8, axpy, 1.0, x, y)
        assert plan.kernel is not first.kernel and plan.record is not first.record

    def test_epoch_bump_restages_the_schedule_and_the_charges(self):
        from repro.backends.threads import ThreadsBackend
        from repro.perfmodel import PerfModel, get_profile

        backend = ThreadsBackend(n_threads=2)
        repro.set_backend(backend)
        x, y = repro.array(np.zeros(self.N)), repro.array(np.ones(self.N))
        clock = []
        for step in range(3):
            if step == 1:
                backend.min_parallel_size = 8
            if step == 2:
                backend.model = PerfModel(get_profile("a100"))
            before = backend.accounting.sim_time
            plan = repro.launch(self.N, axpy, 1.0, x, y)
            assert plan.schedule.inline == (step == 0)
            clock.append(backend.accounting.sim_time - before)
        backend.close()
        assert clock[0] == clock[1] != clock[2]
        assert repro.to_host(x)[0] == 3.0

    def test_rebound_closure_cell_misses(self):
        def make(value):
            def fill(i, x):
                x[i] = value

            return fill

        fill = make(1.0)
        x = repro.array(np.zeros(8))
        repro.parallel_for(8, fill, x)
        repro.parallel_for(8, fill, x)
        fill.__closure__[0].cell_contents = 2.0  # same function object
        repro.parallel_for(8, fill, x)
        assert repro.to_host(x).tolist() == [2.0] * 8

    def test_consumed_guard_scalar_keys_the_record(self):
        x = repro.array(np.ones(self.N))
        sums = []
        for lim in (3, 5, 3, 5):
            plan = repro.launch(self.N, self.guarded, lim, x, x, reduce=True)
            sums.append((plan.result, plan.record))
        assert [s for s, _ in sums] == [3.0, 5.0, 3.0, 5.0]
        assert sums[0][1] is sums[2][1] and sums[1][1] is sums[3][1]
        assert sums[0][1] is not sums[1][1]

    def test_bad_dims_still_raise_after_a_warm_launch(self):
        x, y = repro.array(np.zeros(8)), repro.array(np.ones(8))
        repro.parallel_for(1, axpy, 1.0, x, y)
        repro.parallel_for(2, axpy, 1.0, x, y)
        for dims in (True, 2.0, 0, -1):
            with pytest.raises(ValueError):
                repro.parallel_for(dims, axpy, 1.0, x, y)
        repro.parallel_for(np.int64(2), axpy, 1.0, x, y)
        assert repro.to_host(x).tolist()[:3] == [3.0, 2.0, 0.0]

    def test_read_only_array_after_warm_up_declines_in_the_preflight(self):
        from repro.ir.nativecache import native_stats, resolve_cc

        if repro.executor_mode() != "native" or resolve_cc() is None:
            pytest.skip("the pre-flight is the native rung's")
        x, y = np.zeros(8), np.ones(8)
        for _ in range(2):
            repro.parallel_for(8, axpy, 1.0, x, y)
        repro.synchronize()
        declined = native_stats()["declined"].get("read-only", 0)
        x.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            repro.parallel_for(8, axpy, 1.0, x, y)
        assert native_stats()["declined"].get("read-only", 0) == declined + 1
        assert x.tolist() == [2.0] * 8

    def test_hook_attached_later_sees_a_staged_plan(self):
        x, y = repro.array(np.zeros(8)), repro.array(np.ones(8))
        repro.parallel_for(8, axpy, 1.0, x, y)
        ctx, seen = repro.current_context(), []
        off = ctx.on_launch(
            lambda p: seen.append((p.kernel, p.record, p.schedule, p.sim_time_before))
        )
        try:
            repro.parallel_for(8, axpy, 1.0, x, y)
        finally:
            off()
        ((kernel, record, schedule, before),) = seen
        assert kernel is not None and record is not None
        assert schedule is record.schedule and before is not None

    def test_fault_plan_armed_later_probes_the_chunk_site(self):
        from repro import faults
        from repro.backends.threads import ThreadsBackend

        backend = ThreadsBackend(n_threads=2)
        repro.set_backend(backend)
        x, y = repro.array(np.zeros(8)), repro.array(np.ones(8))
        repro.parallel_for(8, axpy, 1.0, x, y)
        plan = faults.FaultPlan(
            0, scheduled=[faults.InjectedFault("threads.chunk", 0, "transient")]
        )
        repro.set_fault_plan(plan)
        try:
            launched = repro.launch(8, axpy, 1.0, x, y)
        finally:
            repro.set_fault_plan(None)
            backend.close()
        assert plan.injected == [("threads.chunk", 0, "transient", None)]
        assert [e.action for e in launched.fault_events] == ["retry"]
        assert repro.to_host(x)[0] == 2.0

    def test_capture_opened_later_records_the_node(self):
        x, y = repro.array(np.zeros(8)), repro.array(np.ones(8))
        repro.parallel_for(8, axpy, 1.0, x, y)
        ctx = repro.current_context()
        with ctx.capture() as cap:
            repro.parallel_for(8, axpy, 1.0, x, y)
        (node,) = cap.graph().nodes
        assert node.plan.record is not None and node.plan.sim_time_after is not None
        assert repro.to_host(x)[0] == 2.0

    def test_counters_and_clock_equal_the_staged_path(self, monkeypatch):
        """The same launches, once through the table and once with it
        emptied before every launch, move ``cache_info()`` and every
        accounting field (``sim_time`` to the bit) alike."""
        from repro.backends.threads import ThreadsBackend
        from repro.ir.compile import KernelCache, clear_cache

        def run():
            clear_cache()
            backend = ThreadsBackend(n_threads=2)
            repro.set_backend(backend)
            x, y = repro.array(np.zeros(self.N)), repro.array(np.ones(self.N))
            info = repro.cache_info()
            out = []
            for k in range(6):
                repro.parallel_for(self.N, axpy, 0.5 * k, x, y)
                out.append(repro.parallel_reduce(self.N, self.guarded, k, x, y))
            after = repro.cache_info()
            backend.close()
            return (
                out, repro.to_host(x).tobytes(), backend.accounting.snapshot(),
                (after["hits"] - info["hits"], after["misses"] - info["misses"]),
            )

        warm = run()
        real = KernelCache.find_launch

        def emptied(self, key, args):
            self.launches.clear()
            return real(self, key, args)

        monkeypatch.setattr(KernelCache, "find_launch", emptied)
        staged = run()
        assert warm == staged
        assert warm[3] == (10, 2)

    def test_a_warm_write_moves_the_write_version(self):
        """A graph hoisted ``a * y * y`` out of its replay; warm eager
        launches that write ``y`` must version it, or the replay reads
        the stale product."""
        from repro.ir.compile import set_executor_mode

        def axpy_sq(i, a, x, y):
            x[i] += a * y[i] * y[i]

        def mix(i, x, y):
            y[i] = 0.5 * y[i] + 0.25 * x[i]

        x, y = np.ones(64), np.ones(64)
        ctx = repro.current_context()
        try:
            set_executor_mode("codegen")
            repro.parallel_for(64, mix, x, y)
            with ctx.capture() as cap:
                repro.parallel_for(64, axpy_sq, 0.5, x, y)
            inst = cap.graph().instantiate(ctx, fuse=False)
            assert inst.nodes[0].hoist is not None
            inst.replay()
            for _ in range(2):
                repro.parallel_for(64, mix, x, y)
            inst.replay()
        finally:
            set_executor_mode(None)
        assert y[0] == 0.7734375 and x[0] == 1.5625 + 0.5 * y[0] * y[0]
