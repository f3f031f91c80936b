"""Tests for execution contexts, use_backend isolation and LaunchPlans
(repro.core.context / repro.core.plan)."""

import threading

import numpy as np
import pytest

import repro
from repro.backends.serial import SerialBackend
from repro.backends.threads import ThreadsBackend
from repro.core.context import current_context, use_backend
from repro.core.exceptions import BackendError
from repro.core.plan import LaunchPlan
from repro.graph import GraphError


@pytest.fixture(autouse=True)
def serial_backend():
    repro.set_backend("serial")
    yield
    repro.reset_backend()


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


class TestUseBackend:
    def test_scoped_backend(self):
        outer = repro.active_backend()
        with use_backend("threads"):
            assert isinstance(repro.active_backend(), ThreadsBackend)
        assert repro.active_backend() is outer

    def test_accepts_instance(self):
        backend = SerialBackend()
        with use_backend(backend):
            assert repro.active_backend() is backend

    def test_nested_scopes(self):
        with use_backend("serial") as ctx1:
            with use_backend("threads") as ctx2:
                assert current_context() is ctx2
                assert isinstance(repro.active_backend(), ThreadsBackend)
            assert current_context() is ctx1
            assert isinstance(repro.active_backend(), SerialBackend)

    def test_none_rejected(self):
        with pytest.raises(BackendError):
            with use_backend(None):
                pass

    def test_set_backend_inside_scope_is_local(self):
        outer = repro.active_backend()
        with use_backend("serial"):
            repro.set_backend("threads")
            assert isinstance(repro.active_backend(), ThreadsBackend)
        assert repro.active_backend() is outer

    def test_constructs_run_on_scoped_backend(self):
        with use_backend("serial") as ctx:
            x = repro.array(np.zeros(8))
            y = repro.array(np.ones(8))
            repro.parallel_for(8, axpy, 2.0, x, y)
            assert np.allclose(repro.to_host(x), 2.0)
            assert ctx.backend().accounting.n_for == 1


class TestThreadIsolation:
    def test_concurrent_scopes_do_not_leak(self):
        # Two threads hold different backends at the same time; neither
        # may observe the other's choice.
        barrier = threading.Barrier(2)
        seen = {}
        errors = []

        def worker(name, backend_name, expected_type):
            try:
                with use_backend(backend_name):
                    barrier.wait(timeout=10)  # both scopes active now
                    seen[name] = type(repro.active_backend())
                    barrier.wait(timeout=10)  # hold until both observed
                    assert isinstance(repro.active_backend(), expected_type)
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        t1 = threading.Thread(
            target=worker, args=("a", "serial", SerialBackend)
        )
        t2 = threading.Thread(
            target=worker, args=("b", "threads", ThreadsBackend)
        )
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert not errors
        assert seen["a"] is SerialBackend
        assert seen["b"] is ThreadsBackend

    def test_reset_backend_only_affects_calling_context(self):
        # reset inside a scope must not disturb the process default.
        outer = repro.active_backend()
        with use_backend("threads") as ctx:
            repro.reset_backend()
            assert ctx._backend is None  # next use re-resolves
        assert repro.active_backend() is outer

    def test_reset_in_thread_does_not_touch_other_scope(self):
        barrier = threading.Barrier(2)
        errors = []

        def resetter():
            try:
                with use_backend("serial"):
                    barrier.wait(timeout=10)
                    repro.reset_backend()
                    barrier.wait(timeout=10)
            except Exception as exc:
                errors.append(exc)

        def holder():
            try:
                with use_backend("threads"):
                    barrier.wait(timeout=10)
                    barrier.wait(timeout=10)
                    # unaffected by the other thread's reset
                    assert isinstance(repro.active_backend(), ThreadsBackend)
            except Exception as exc:
                errors.append(exc)

        t1 = threading.Thread(target=resetter)
        t2 = threading.Thread(target=holder)
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert not errors

    def test_global_context_shared_outside_scopes(self):
        # Outside any use_backend scope every thread sees the
        # process-default context (the pre-refactor behaviour).
        repro.set_backend("serial")
        observed = []

        def worker():
            observed.append(type(repro.active_backend()))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert observed == [SerialBackend]


class TestLaunchSync:
    def test_sync_launch_matches_parallel_for(self):
        x = repro.array(np.zeros(6))
        y = repro.array(np.ones(6))
        plan = repro.launch(6, axpy, 3.0, x, y)
        assert isinstance(plan, LaunchPlan)
        assert plan.sim_time_after is not None
        assert np.allclose(repro.to_host(x), 3.0)

    def test_sync_reduce_result(self):
        x = repro.array(np.full(5, 2.0))
        y = repro.array(np.full(5, 3.0))
        plan = repro.launch(5, dot, x, y, reduce=True)
        assert plan.result == pytest.approx(30.0)
        assert plan.is_reduce

    def test_plan_is_fully_staged(self):
        x = repro.array(np.zeros(4))
        y = repro.array(np.ones(4))
        plan = repro.launch(4, axpy, 1.0, x, y)
        assert isinstance(plan, LaunchPlan)
        assert plan.backend is repro.active_backend()
        assert plan.kernel is not None
        assert plan.schedule is not None
        assert plan.schedule.n_chunks >= 1
        assert plan.sim_time_before is not None
        assert plan.sim_time_after is not None

    def test_bad_op_raises_at_call_site(self):
        x = repro.array(np.ones(3))
        with pytest.raises(ValueError):
            repro.launch(3, dot, x, x, reduce=True, op="mul")

    def test_launch_has_no_sync_option(self):
        # One launch model: a leftover asynchronous caller fails loudly.
        x = repro.array(np.zeros(4))
        y = repro.array(np.ones(4))
        with pytest.raises(TypeError):
            repro.launch(4, axpy, 1.0, x, y, sync=False)
        assert np.allclose(repro.to_host(x), 0.0)

    def test_replay_has_no_sync_option(self):
        x = repro.array(np.zeros(4))
        y = repro.array(np.ones(4))
        ctx = current_context()
        with ctx.capture() as cap:
            repro.parallel_for(4, axpy, 1.0, x, y)
        inst = cap.graph("g").instantiate(ctx)
        with pytest.raises(GraphError, match="slots mismatch"):
            inst.replay(sync=False)
        assert np.allclose(repro.to_host(x), 1.0)


class TestDispatchHooks:
    def test_hooks_fire_around_execution(self):
        ctx = current_context()
        launched, completed = [], []
        unsub_l = ctx.on_launch(launched.append)
        unsub_c = ctx.on_complete(completed.append)
        try:
            x = repro.array(np.zeros(4))
            y = repro.array(np.ones(4))
            repro.parallel_for(4, axpy, 1.0, x, y)
            total = repro.parallel_reduce(4, dot, x, y)
        finally:
            unsub_l()
            unsub_c()
        assert total == pytest.approx(4.0)
        assert [p.construct for p in launched] == ["for", "reduce"]
        assert [p.construct for p in completed] == ["for", "reduce"]
        # completion carries the result and the modeled time span
        assert completed[1].result == pytest.approx(4.0)
        assert completed[0].sim_time_elapsed >= 0.0

    def test_unsubscribe_stops_events(self):
        ctx = current_context()
        seen = []
        unsub = ctx.on_launch(seen.append)
        x = repro.array(np.zeros(2))
        y = repro.array(np.ones(2))
        repro.parallel_for(2, axpy, 1.0, x, y)
        unsub()
        repro.parallel_for(2, axpy, 1.0, x, y)
        assert len(seen) == 1


class TestScopedKernelCache:
    def test_context_cache_is_private(self):
        from repro.ir.compile import KernelCache, cache_info

        private = KernelCache()
        with use_backend("serial", kernel_cache=private):

            def triple(i, x):
                x[i] *= 3.0

            x = repro.array(np.ones(8))
            repro.parallel_for(8, triple, x)
            repro.parallel_for(8, triple, x)
        stats = cache_info(private)
        assert stats["size"] >= 1
        assert stats["hits"] >= 1
        assert np.allclose(repro.to_host(x), 9.0)
