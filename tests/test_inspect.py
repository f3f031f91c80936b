"""Tests for kernel inspection (repro.ir.inspect)."""

import doctest

import numpy as np
import pytest

import repro
from repro.ir import inspect as inspect_mod
from repro.ir.compile import clear_cache, set_executor_mode
from repro.ir.inspect import inspect_kernel


@pytest.fixture(autouse=True)
def fresh():
    # These tests assert codegen-rung report contents; pin the executor
    # so the native default doesn't shift every kernel one rung up.
    clear_cache()
    set_executor_mode("codegen")
    yield
    set_executor_mode(None)
    clear_cache()


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


class TestReportContents:
    def test_vector_kernel(self):
        rep = inspect_kernel(axpy, 1, [2.5, np.ones(4), np.ones(4)])
        assert rep.mode == "codegen"
        assert rep.name == "axpy"
        assert rep.n_paths == 1
        assert rep.kernel_class == "stream"
        assert "arg1[i]" in rep.ir
        assert rep.fallback_reason is None

    def test_dims_tuple_accepted(self):
        def k2(i, j, x):
            x[i, j] = 1.0

        rep = inspect_kernel(k2, (8, 8), [np.ones((8, 8))])
        assert rep.ndim == 2

    def test_reduce_kernel(self):
        def dot(i, x, y):
            return x[i] * y[i]

        rep = inspect_kernel(dot, 1, [np.ones(4), np.ones(4)], reduce=True)
        assert rep.kernel_class == "reduce"
        assert "return" in rep.ir

    def test_specialized_kernel_reports_values(self):
        def k(i, x, m):
            s = 0.0
            for _ in range(m):
                s += x[i]
            x[i] = s

        rep = inspect_kernel(k, 1, [np.ones(4), 3])
        assert rep.mode == "codegen-specialized"
        assert rep.specialized_on == {1: 3}
        assert "specialized" in rep.explain()

    def test_generated_source_in_report(self):
        rep = inspect_kernel(axpy, 1, [2.5, np.ones(4), np.ones(4)])
        assert "def _kernel" in rep.source
        assert "generated source:" in rep.explain()
        # the vector executor carries no generated program
        from repro.ir.compile import compile_kernel

        ck = compile_kernel(
            axpy, 1, [2.5, np.ones(4), np.ones(4)], executor="vector"
        )
        assert ck.codegen is None

    def test_interpreter_kernel_reports_reason(self):
        def k(i, x, m):
            for _ in range(int(x[i] * 0 + m)):
                pass
            x[i] = 1.0

        rep = inspect_kernel(k, 1, [np.ones(4), 1])
        assert rep.mode == "interpreter"
        assert rep.fallback_reason
        text = rep.explain()
        assert "NOT vectorized" in text
        assert "PORTING.md" in text

    def test_branchy_kernel_shows_guards(self):
        def k(i, x, n):
            if i == 0:
                x[i] = 1.0
            else:
                x[i] = 2.0

        rep = inspect_kernel(k, 1, [np.ones(4), 4])
        assert rep.n_paths == 2
        assert "if" in rep.ir
        assert "2 path(s)" in rep.explain()

    def test_bad_rank_rejected(self):
        from repro.core.exceptions import PyACCError

        with pytest.raises(PyACCError):
            inspect_kernel(axpy, 4, [2.5, np.ones(4), np.ones(4)])

    def test_exposed_at_top_level(self):
        assert repro.inspect_kernel is inspect_kernel

    def test_module_doctest(self):
        results = doctest.testmod(inspect_mod, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 2


@pytest.mark.parametrize("flag", ["--program", "--native"])
def test_cli_runs_warning_free(flag):
    """``python -m repro.ir.inspect`` as docs/API.md gives it: the
    package must not import the module runpy is about to execute, or a
    second copy runs and runpy warns — an error under ``-W error``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "repro.ir.inspect", flag],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    if flag == "--native":
        assert "ms waited this process" in done.stdout
