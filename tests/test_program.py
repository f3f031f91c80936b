"""Program-level dataflow IR and global fusion (repro.ir.program).

Three layers:

* unit — the two-valued mode knob, def-use graph construction,
  non-adjacent fusion legality, the guard-free replay path (external
  launches and readbacks between replays, V602 as a diagnostic), and
  the dead-store analysis behind lint rule V401;
* acceptance — the CG iteration body where global fusion hops a launch
  over a reduce (pass-counter evidence in ``graph_stats()``);
* differential — every captured app body (CG, HPCCG, LBM, LBM3D) is
  **bit-identical** with fusion off vs on, across all four backend
  families.
"""

import numpy as np
import pytest

import repro
from repro.apps.cg import cg_solve, tridiagonal_system
from repro.apps.hpccg import build_27pt_problem, hpccg_solve
from repro.apps.lbm import LBM
from repro.apps.lbm3d import LBM3D
from repro.core import current_context, parallel_for, parallel_reduce
from repro.core.exceptions import PreferencesError
from repro.graph import graph_stats, reset_graph_stats
from repro.ir.compile import (
    cache_info,
    clear_cache,
    compile_kernel,
    set_executor_mode,
)
from repro.ir import writes
from repro.ir.deadstore import trace_dead_stores
from repro.ir.diagnostics import KernelVerificationWarning
from repro.ir.nativecache import resolve_cc
from repro.ir.verify import verify_kernel

#: Backend families the differential suite sweeps.
BACKENDS = ["serial", "threads", "cuda-sim", "multi-sim"]


@pytest.fixture(autouse=True)
def fresh():
    clear_cache()
    repro.set_graph_mode("on")
    reset_graph_stats()
    yield
    repro.set_passes_mode(None)
    repro.set_graph_mode(None)
    repro.set_backend("serial")
    set_executor_mode(None)
    clear_cache()


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


def produce(i, x, t, u):
    t[i] = 2.0 * x[i]  # dead: ``mirror`` overwrites t before any read
    u[i] = x[i] + 1.0


def mirror(i, n, u, t):
    t[i] = u[n - 1 - i]  # non-identity read of u: cannot fuse with produce


def accumulate(i, u, out):
    out[i] += u[i]


def _passes():
    return graph_stats()["passes"]


# ---------------------------------------------------------------------------
# The mode knob
# ---------------------------------------------------------------------------


class TestPassesKnob:
    @pytest.mark.parametrize("mode", ["schedule", "peephole", "fuse,dse"])
    def test_invalid_mode_raises(self, mode):
        with pytest.raises(PreferencesError, match=r"'all', 'none'"):
            repro.set_passes_mode(mode)

    @pytest.mark.parametrize("mode", ["peephole", "fuse,dse"])
    def test_invalid_env_raises(self, monkeypatch, mode):
        monkeypatch.setenv("PYACC_PASSES", mode)
        repro.set_passes_mode(None)  # drop the session override
        with pytest.raises(PreferencesError, match=r"'all', 'none'"):
            repro.passes_mode()

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PYACC_PASSES", "none")
        repro.set_passes_mode(None)  # drop the session override
        assert repro.passes_mode() == "none"

    def test_mode_reported_in_stats(self):
        repro.set_passes_mode("none")
        assert graph_stats()["passes_mode"] == "none"
        assert cache_info()["graph"]["passes_mode"] == "none"


# ---------------------------------------------------------------------------
# Program construction: the def-use graph
# ---------------------------------------------------------------------------


class TestProgramConstruction:
    def test_nodes_edges_and_rw_sets(self):
        repro.set_backend("threads")
        repro.set_passes_mode("none")
        ctx = current_context()
        x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))
        with ctx.capture() as cap:
            parallel_for(64, axpy, 2.0, x, y)
            parallel_reduce(64, dot, x, x)
        inst = cap.graph("t").instantiate(ctx)
        prog = inst.program
        assert len(prog.nodes) == 2
        xs = id(ctx.backend().unwrap(x))
        ys = id(ctx.backend().unwrap(y))
        assert prog.nodes[0].writes == {xs}
        assert prog.nodes[0].reads == {xs, ys}
        assert prog.nodes[1].writes == frozenset()
        assert prog.nodes[1].reads == {xs}
        # The dot depends on the axpy through x: one RAW edge.
        assert (0, 1, "raw") in prog.edges()

    def test_describe_mentions_passes(self):
        repro.set_backend("threads")
        repro.set_passes_mode("all")
        ctx = current_context()
        x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))
        with ctx.capture() as cap:
            parallel_for(64, axpy, 2.0, x, y)
            parallel_reduce(64, dot, x, x)
        inst = cap.graph("t").instantiate(ctx)
        text = inst.program.describe()
        assert "pass trail" in text
        assert "fuse: merged" in text


# ---------------------------------------------------------------------------
# Global (non-adjacent) fusion
# ---------------------------------------------------------------------------


class TestNonAdjacentFusion:
    def test_global_fusion_hops_the_reduce(self):
        n = 256
        repro.set_backend("threads")
        repro.set_passes_mode("all")
        ctx = current_context()
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
        z = repro.array(np.full(n, 3.0))
        u, v = repro.array(np.zeros(n)), repro.array(np.full(n, 2.0))
        with ctx.capture() as cap:
            parallel_for(n, axpy, 1.0, x, y)
            parallel_reduce(n, dot, z, z)
            parallel_for(n, axpy, 1.0, u, v)
        inst = cap.graph("t").instantiate(
            ctx, return_convention=("single", 1)
        )
        assert inst.n_nodes == 1
        assert _passes()["fuse"]["applied"] == 2
        assert _passes()["fuse"]["nonadjacent"] >= 1
        # Replays remain exact: capture ran one iteration eagerly, the
        # replay adds a second identical update.
        s = inst.replay()
        assert s == pytest.approx(9.0 * n)
        assert np.array_equal(repro.to_host(x), np.full(n, 2.0))
        assert np.array_equal(repro.to_host(u), np.full(n, 4.0))

    def test_cg_app_nonadjacent_acceptance(self):
        """ISSUE 6 acceptance: the CG update body fuses non-adjacently
        (the x-axpy hops the r·r reduce), bit-identically to unfused."""
        n = 3000
        lower, diag, upper, b = tridiagonal_system(n)

        def run(mode):
            clear_cache()
            repro.set_backend("threads")
            repro.set_passes_mode(mode)
            reset_graph_stats()
            res = cg_solve(lower, diag, upper, b, tol=1e-10)
            return res, _passes()["fuse"]

        res_n, fuse_n = run("none")
        res_a, fuse_a = run("all")
        assert fuse_n["applied"] == 0
        assert fuse_a["nonadjacent"] >= 1
        assert np.array_equal(res_n.x, res_a.x)
        assert res_n.residual_norms == res_a.residual_norms


# ---------------------------------------------------------------------------
# The guard-free path: nothing is eliminated, nothing needs demoting
# ---------------------------------------------------------------------------


class TestGuardFreePath:
    def test_writes_module_surface(self):
        assert set(writes.__all__) == {
            "note_writes",
            "versions_of",
            "hazards",
            "reset",
        }

    def test_removed_pass_rows_stay_zero(self):
        # benchmarks/perf reads these four rows by name on every run.
        repro.set_backend("threads")
        lower, diag, upper, b = tridiagonal_system(200)
        cg_solve(lower, diag, upper, b, tol=1e-8)
        passes = _passes()
        assert passes["fuse"]["applied"] >= 1
        for name in ("dse", "sink", "schedule"):
            assert passes[name] == {"applied": 0, "declined": {}, "demoted": 0}

    def test_dead_store_is_reported_not_eliminated(self):
        """A store fully overwritten before any read yields V602 at
        instantiate(); every node still runs, so replay is bit-identical
        to dispatching the body directly."""
        n = 128
        repro.set_backend("serial")
        ctx = current_context()

        def fresh_arrays():
            return (
                repro.array(np.arange(n, dtype=np.float64)),
                repro.array(np.zeros(n)),
                repro.array(np.zeros(n)),
                repro.array(np.zeros(n)),
            )

        def body(x, t, u, out):
            parallel_for(n, produce, x, t, u)
            parallel_for(n, mirror, n, u, t)
            parallel_for(n, accumulate, u, out)

        arrays = fresh_arrays()
        with ctx.capture() as cap:
            body(*arrays)
        with pytest.warns(KernelVerificationWarning, match="V602"):
            inst = cap.graph("t").instantiate(ctx)
        assert graph_stats()["validate"]["diagnostics"] == {"V602": 1}
        assert _passes()["fuse"]["applied"] == 1  # accumulate merged
        assert inst.n_active_nodes == inst.n_nodes == 2
        inst.replay()
        inst.replay()

        reference = fresh_arrays()
        for _ in range(3):
            body(*reference)
        for got, want in zip(arrays, reference):
            assert np.array_equal(repro.to_host(got), repro.to_host(want))

    @pytest.mark.parametrize("backend", ["serial", "threads", "cuda-sim"])
    def test_external_touches_between_replays(self, backend):
        """An uncaptured launch and a to_host on a fused graph's arrays
        between replays need no guard: nothing the graph does is
        optimistic.  Results match PYACC_GRAPH=off bit for bit."""
        n = 1 << 15
        rng = np.random.default_rng(5)
        init = rng.standard_normal((4, n))

        def run(graphs):
            clear_cache()
            repro.set_backend(backend)
            ctx = current_context()
            x, y, u, v = (repro.array(row) for row in init)

            def body():
                parallel_for(n, axpy, 0.5, x, y)
                s = parallel_reduce(n, dot, x, x)
                parallel_for(n, axpy, -0.25, u, v)
                return s

            if graphs:
                with ctx.capture() as cap:
                    sums = [body()]
                inst = cap.graph("t").instantiate(
                    ctx, return_convention=("single", 1)
                )
                assert inst.n_nodes == 1  # fully fused
                step = inst.replay
            else:
                sums = [body()]
                step = body
            sums.append(step())
            parallel_for(n, axpy, 2.0, x, u)  # external writer + reader
            seen = repro.to_host(x).copy()  # external readback
            sums.append(step())
            return sums, seen, repro.to_host(x).copy(), repro.to_host(u).copy()

        on = run(True)
        off = run(False)
        assert on[0] == off[0]
        for a, b in zip(on[1:], off[1:]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("executor", ["codegen", "native"])
    def test_hpccg_32_threads_matches_graphs_off(self, executor):
        """32^3 sits at the threads backend's inline threshold — the one
        size where a perfmodel schedule pin used to land."""
        if executor == "native" and resolve_cc() is None:
            pytest.skip("no C compiler on host")
        a, b, _ = build_27pt_problem(32, 32, 32)
        set_executor_mode(executor)

        def run(graph_mode):
            clear_cache()
            repro.set_backend("threads")
            repro.set_graph_mode(graph_mode)
            return hpccg_solve(a, b, tol=1e-8)

        on = run("on")
        assert _passes()["fuse"]["applied"] >= 1
        off = run("off")
        assert np.array_equal(on.x, off.x)
        assert on.iterations == off.iterations
        assert on.residual_norms == off.residual_norms


# ---------------------------------------------------------------------------
# Shared dead-store analysis (lint rule V401)
# ---------------------------------------------------------------------------


class TestV401SharedAnalysis:
    def test_unconditional_killer_still_flagged(self):
        def k(i, x):
            x[i] = 1.0
            x[i] = 2.0

        diags = verify_kernel(k, 8, [np.zeros(8)])
        assert [d.rule for d in diags] == ["V401"]

    def test_guarded_killer_is_not_a_kill(self):
        # The old heuristic flagged this: the guarded second store does
        # not always execute, so the first store is live on the
        # not-taken path.
        def k(i, c, x):
            x[i] = 1.0
            if c[i] > 0:
                x[i] = 2.0

        assert verify_kernel(k, 8, [np.ones(8), np.zeros(8)]) == ()

    def test_same_guard_pair_is_dead(self):
        def k(i, c, x):
            if c[i] > 0:
                x[i] = 1.0
            if c[i] > 0:
                x[i] = 2.0

        diags = verify_kernel(k, 8, [np.ones(8), np.zeros(8)])
        assert "V401" in [d.rule for d in diags]

    def test_guard_written_between_is_not_dead(self):
        def k(i, c, x):
            if c[i] > 0:
                x[i] = 1.0
            c[i] = -1.0
            if c[i] > 0:
                x[i] = 2.0

        diags = verify_kernel(k, 8, [np.ones(8), np.zeros(8)])
        assert "V401" not in [d.rule for d in diags]

    def test_trace_dead_stores_unit(self):
        def k(i, x, y):
            x[i] = 1.0
            y[i] = 3.0
            x[i] = 2.0

        ck = compile_kernel(k, 1, [np.zeros(8), np.zeros(8)])
        pairs = trace_dead_stores(ck.trace)
        assert pairs == [(0, 2)]


# ---------------------------------------------------------------------------
# Differential: app bodies, passes off vs on, all backends
# ---------------------------------------------------------------------------


def _with_mode(backend, mode, fn):
    clear_cache()
    repro.set_backend(backend)
    repro.set_passes_mode(mode)
    reset_graph_stats()
    return fn()


@pytest.mark.parametrize("backend", BACKENDS)
class TestDifferential:
    def test_cg(self, backend):
        lower, diag, upper, b = tridiagonal_system(500)

        def run():
            return cg_solve(lower, diag, upper, b, tol=1e-8)

        off = _with_mode(backend, "none", run)
        on = _with_mode(backend, "all", run)
        assert np.array_equal(off.x, on.x)
        assert off.iterations == on.iterations
        assert off.residual_norms == on.residual_norms

    def test_hpccg(self, backend):
        a, b, _ = build_27pt_problem(5, 5, 4)

        def run():
            return hpccg_solve(a, b, tol=1e-8)

        off = _with_mode(backend, "none", run)
        on = _with_mode(backend, "all", run)
        assert np.array_equal(off.x, on.x)
        assert off.residual_norms == on.residual_norms

    def test_lbm(self, backend):
        def run():
            sim = LBM(12, tau=0.8, lid_velocity=0.05)
            sim.step(4)
            return (
                repro.to_host(sim.df1).copy(),
                repro.to_host(sim.df2).copy(),
                repro.to_host(sim.df).copy(),
            )

        off = _with_mode(backend, "none", run)
        on = _with_mode(backend, "all", run)
        for a, b in zip(off, on):
            assert np.array_equal(a, b)

    def test_lbm3d(self, backend):
        def run():
            sim = LBM3D(6, tau=0.8, lid_velocity=0.05)
            sim.step(3)
            return (
                repro.to_host(sim.df1).copy(),
                repro.to_host(sim.df2).copy(),
            )

        off = _with_mode(backend, "none", run)
        on = _with_mode(backend, "all", run)
        for a, b in zip(off, on):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Native executor × fusion
# ---------------------------------------------------------------------------


class TestNativeExecutorDifferential:
    """Global fusion composes with the native rung: passes-on under the
    native executor is bit-identical to passes-on under codegen."""

    @pytest.mark.skipif(
        resolve_cc() is None, reason="no C compiler on host"
    )
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_cg_native_matches_codegen_with_passes(self, backend):
        lower, diag, upper, b = tridiagonal_system(300)

        def run():
            return cg_solve(lower, diag, upper, b, tol=1e-8)

        set_executor_mode("codegen")
        ref = _with_mode(backend, "all", run)
        set_executor_mode("native")
        out = _with_mode(backend, "all", run)
        set_executor_mode(None)
        assert np.array_equal(ref.x, out.x)
        assert ref.iterations == out.iterations
        assert ref.residual_norms == out.residual_norms

    @pytest.mark.skipif(
        resolve_cc() is None, reason="no C compiler on host"
    )
    def test_lbm_native_matches_codegen_with_passes(self):
        def run():
            sim = LBM(10, tau=0.8, lid_velocity=0.05)
            sim.step(4)
            return (
                repro.to_host(sim.df1).copy(),
                repro.to_host(sim.df2).copy(),
                repro.to_host(sim.df).copy(),
            )

        set_executor_mode("codegen")
        ref = _with_mode("serial", "all", run)
        set_executor_mode("native")
        out = _with_mode("serial", "all", run)
        set_executor_mode(None)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
