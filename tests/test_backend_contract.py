"""Contract tests for the Backend ABC shared across all implementations.

Each registered backend must satisfy the same observable contract —
the compute/memory split of the paper's Fig. 1.  Parametrized over every
registry entry so a future backend automatically inherits the checks.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backends.registry import available_backends, create_backend
from repro.core.backend import Backend
from repro.faults import FaultPlan, InjectedFault, LaunchPolicy

ALL = sorted(available_backends())

#: The fault site each registered backend guards its own chunk body with
#: (a new registry entry declares its site here).  ``serial`` probes no
#: site of its own — it retries the ``arena.frame`` transients raised
#: beneath it — and ``interp``, the reference oracle, runs under no seam.
OWN_SITE = {
    "serial": "arena.frame",
    "interp": None,
    "threads": "threads.chunk",
    "cuda-sim": "gpusim.launch",
    "rocm-sim": "gpusim.launch",
    "oneapi-sim": "gpusim.launch",
    "multi-sim": "multidevice.chunk",
    "hetero-sim": "multidevice.chunk",
    "cluster": "cluster.shard",
}


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


@pytest.fixture(autouse=True)
def restore():
    yield
    repro.set_fault_plan(None)
    repro.set_launch_policy(None)
    repro.set_backend("serial")


class TestAbstractBase:
    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            Backend()

    def test_all_builtins_registered(self):
        assert set(ALL) >= {
            "threads",
            "serial",
            "interp",
            "cuda-sim",
            "rocm-sim",
            "oneapi-sim",
            "multi-sim",
            "hetero-sim",
            "cluster",
        }


@pytest.mark.parametrize("name", ALL)
class TestPerBackendContract:
    def test_construction_and_metadata(self, name):
        b = create_backend(name)
        assert isinstance(b, Backend)
        assert b.device_kind in ("cpu", "gpu")
        assert b.accounting.n_for == 0

    def test_array_roundtrip_preserves_values(self, name):
        b = create_backend(name)
        host = np.linspace(-3, 3, 17)
        arr = b.array(host)
        np.testing.assert_array_equal(b.to_host(arr), host)

    def test_array_copies_not_aliases(self, name):
        b = create_backend(name)
        host = np.ones(8)
        arr = b.array(host)
        host[:] = -9
        np.testing.assert_array_equal(b.to_host(arr), np.ones(8))

    def test_unwrap_gives_kernel_visible_storage(self, name):
        b = create_backend(name)
        arr = b.array(np.arange(4.0))
        raw = b.unwrap(arr)
        assert isinstance(raw, np.ndarray)
        np.testing.assert_array_equal(raw, np.arange(4.0))

    def test_for_then_reduce_end_to_end(self, name):
        repro.set_backend(create_backend(name))
        x = repro.array(np.full(33, 2.0))
        y = repro.array(np.full(33, 3.0))
        repro.parallel_for(33, axpy, 2.0, x, y)  # x = 2 + 6 = 8
        r = repro.parallel_reduce(33, dot, x, y)
        assert r == pytest.approx(33 * 8.0 * 3.0)

    def test_constructs_count_and_synchronize(self, name):
        b = create_backend(name)
        repro.set_backend(b)
        x = repro.array(np.ones(8))
        y = repro.array(np.ones(8))
        repro.parallel_for(8, axpy, 1.0, x, y)
        repro.parallel_reduce(8, dot, x, y)
        assert b.accounting.n_for == 1
        assert b.accounting.n_reduce == 1
        b.synchronize()  # must not raise on any backend

    def test_2d_construct(self, name):
        def set2(i, j, x):
            x[i, j] = i + 10.0 * j

        repro.set_backend(create_backend(name))
        x = repro.array(np.zeros((5, 7)))
        repro.parallel_for((5, 7), set2, x)
        h = repro.to_host(x)
        assert h[3, 4] == 43.0

    def test_repr_names_backend(self, name):
        b = create_backend(name)
        assert b.name in repr(b) or type(b).__name__ in repr(b)


@pytest.mark.parametrize("name", ALL)
class TestExecuteSeam:
    def test_transient_at_own_site_is_one_invisible_retry(self, name, monkeypatch):
        """Probe before side effects, charge after success: the first
        probe of the backend's own site faults once, and nothing but the
        event log can tell."""
        monkeypatch.setenv("PYACC_CLUSTER_WORKERS", "2")
        site = OWN_SITE[name]
        n = 1 << 16  # above the threads and cluster inline cutoffs
        y = np.random.default_rng(7).standard_normal(n)
        if name == "serial":
            # serial's only probe is the arena frame beneath it, which the
            # codegen rung opens (a native add-reduce leases nothing).
            monkeypatch.setattr(
                repro.core.preferences.MODES["executor"], "_active", "codegen"
            )

        def run(fault_plan):
            backend = create_backend(name)
            repro.set_backend(backend)
            repro.set_launch_policy(LaunchPolicy(backoff_base=0.0))
            repro.set_fault_plan(fault_plan)
            ctx = repro.current_context()
            n0 = len(ctx.fault_events)
            try:
                x, yd = repro.array(np.zeros(n)), repro.array(y)
                repro.parallel_for(n, axpy, 1.5, x, yd)  # not idempotent
                total = repro.parallel_reduce(n, dot, x, yd)
                host = repro.to_host(x).copy()
            finally:
                getattr(backend, "close", lambda: None)()
            return host, total, backend.accounting.snapshot(), ctx.fault_events[n0:]

        clean_x, clean_total, clean_acct, clean_events = run(None)
        scheduled = [InjectedFault(site, 0, "transient")] if site else []
        plan = FaultPlan(scheduled=scheduled)
        x, total, acct, events = run(plan)

        assert clean_events == []
        assert [(e.site, e.kind, e.action) for e in events] == [
            (site, "transient", "retry") for _ in scheduled
        ]
        assert [f[:3] for f in plan.injected] == [
            (site, 0, "transient") for _ in scheduled
        ]
        assert np.array_equal(x, clean_x)  # stores applied once
        assert np.float64(total).tobytes() == np.float64(clean_total).tobytes()
        assert acct == clean_acct  # counters and modeled clock


def _functions(root):
    """``(path, qualified name, node)`` for every function under ``root``."""
    for path in sorted(Path(root).rglob("*.py")):
        stack = [("", ast.parse(path.read_text()))]
        while stack:
            prefix, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = f"{prefix}{child.name}"
                    if isinstance(child, ast.FunctionDef):
                        yield path, name, child
                    stack.append((name + ".", child))
                else:
                    stack.append((prefix, child))


def _calls(fn_node, *attrs):
    """Names among ``attrs`` that ``fn_node`` calls (``x.attr(...)`` or
    ``attr(...)``), nested functions included."""
    found = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Call):
            f = node.func
            called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if called in attrs:
                found.add(called)
    return found


class TestSeamStaysSingle:
    """Structural guard: the execute seam's two primitives are called,
    never re-implemented, by code under ``src/repro/backends``."""

    SRC = Path(repro.__file__).parent
    BACKENDS = SRC / "backends"

    def _sites(self, root, *attrs):
        return sorted(
            f"{path.relative_to(self.SRC)}:{name}"
            for path, name, node in _functions(root)
            if _calls(node, *attrs)
        )

    def test_retry_loop_is_called_only_by_the_seam(self):
        assert self._sites(self.SRC, "retry_transients") == ["faults.py:guarded"]

    def test_backends_probe_only_through_the_seam(self):
        # FaultPlan.check is the probe; FaultPlan.take_kill — the cluster
        # SIGKILL schedule, consumed where the shard message is sent — is
        # the one fault-plan decision a backend takes for itself.
        assert self._sites(self.BACKENDS, "check") == []
        assert self._sites(self.BACKENDS, "take_kill") == [
            "backends/cluster.py:ClusterBackend._send_shard"
        ]

    def test_for_or_reduce_branch_lives_in_launch_plan_run(self):
        sites = self._sites(self.BACKENDS, "run_for", "run_reduce")
        sites += self._sites(self.SRC / "core", "run_for", "run_reduce")
        assert sites == [
            "backends/cluster.py:_worker_run_shard",  # plan-less worker side
            "backends/gpusim/device.py:Device.launch",  # native Device API
            "core/plan.py:LaunchPlan.run",
        ]

    def test_failover_events_are_built_in_one_place(self):
        literals = [
            f"{path.relative_to(self.SRC)}:{name}"
            for path, name, node in _functions(self.SRC)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == "FaultEvent"
            and any(
                kw.arg == "action" and getattr(kw.value, "value", None) == "failover"
                for kw in call.keywords
            )
        ]
        assert literals == ["faults.py:record_failover"]

    def test_no_function_level_faults_import_in_backends(self):
        lazy = [
            f"{path.relative_to(self.SRC)}:{name}"
            for path, name, node in _functions(self.BACKENDS)
            for stmt in ast.walk(node)
            if isinstance(stmt, ast.ImportFrom)
            and "faults" in [stmt.module] + [a.name for a in stmt.names]
        ]
        assert lazy == []

    def test_host_memory_backends_inherit_to_host_and_unwrap(self):
        overrides = sorted(
            f"{path.relative_to(self.SRC)}:{name}"
            for path, name, _node in _functions(self.BACKENDS)
            if name.endswith(("Backend.to_host", "Backend.unwrap"))
        )
        assert overrides == [
            "backends/gpusim/backend.py:GpuSimBackend.to_host",
            "backends/gpusim/backend.py:GpuSimBackend.unwrap",
        ]
