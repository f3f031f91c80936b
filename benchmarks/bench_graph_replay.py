"""Launch-graph replay vs per-launch staged dispatch (PR 5 ablation).

The launch-graph subsystem (:mod:`repro.graph`) captures a solver's
inner-loop constructs once, fuses adjacent launches, hoists
replay-invariant work into per-instantiation prologues (index
arithmetic, loads from write-version-validated const arrays,
gather-index clamps, pre-bound scratch buffers), and replays the frozen
sequence with only scalar slots rebinding.  This benchmark times the
same solvers with graphs on (``PYACC_GRAPH`` default) and off — the
"off" leg is exactly the PR-3 staged codegen path: per-launch plan
construction, cache lookups, verification, scheduling.

The replay win concentrates at *small* domains, where per-launch
staging and interpretive overhead are comparable to the actual array
work — an iterative solver's launch profile.  Timings are per solver
iteration (HPCCG/CG: one CG step; LBM: one lattice step) with enough
iterations per solve that one-time capture + instantiation amortizes
into steady-state replay.

Standalone usage (the CI smoke job)::

    python benchmarks/bench_graph_replay.py --tiny --json out.json

writes ``{"timings": {...}, "graph": {...}}`` — per-app off/on seconds
per iteration plus the process-wide graph counters (the smoke job
asserts ≥2x on HPCCG and ≥1 fused pair).
"""

import time

import pytest

import repro
from repro.apps.cg import cg_solve, tridiagonal_system
from repro.apps.hpccg import build_27pt_problem, hpccg_solve
from repro.apps.lbm import LBM

NX = 6  # HPCCG lattice edge (n = NX^3 rows)
CG_N = 256  # tridiagonal system size
LBM_N = 16  # D2Q9 lattice edge
ITERS = 200  # solver iterations per timed solve
LBM_STEPS = 150


@pytest.fixture(autouse=True)
def codegen_rung():
    # The gate and BENCH_graph.json's 3.71x were recorded at the codegen rung.
    repro.set_executor_mode("codegen")
    yield
    repro.set_executor_mode(None)


@pytest.fixture
def graph_on():
    repro.set_graph_mode("on")
    repro.clear_cache()
    yield
    repro.set_graph_mode(None)
    repro.clear_cache()


@pytest.fixture
def graph_off():
    repro.set_graph_mode("off")
    repro.clear_cache()
    yield
    repro.set_graph_mode(None)
    repro.clear_cache()


# -- HPCCG (the gated inner loop) --------------------------------------------


def test_hpccg_replay(benchmark, graph_on):
    benchmark.group = "graph-replay-hpccg"
    a, b, _ = build_27pt_problem(NX, NX, NX)
    benchmark(hpccg_solve, a, b, tol=0.0, max_iter=ITERS)


def test_hpccg_staged(benchmark, graph_off):
    benchmark.group = "graph-replay-hpccg"
    a, b, _ = build_27pt_problem(NX, NX, NX)
    benchmark(hpccg_solve, a, b, tol=0.0, max_iter=ITERS)


# -- CG on the tridiagonal operator ------------------------------------------


def test_cg_replay(benchmark, graph_on):
    benchmark.group = "graph-replay-cg"
    lower, diag, upper, rhs = tridiagonal_system(CG_N)
    benchmark(cg_solve, lower, diag, upper, rhs, tol=0.0, max_iter=ITERS)


def test_cg_staged(benchmark, graph_off):
    benchmark.group = "graph-replay-cg"
    lower, diag, upper, rhs = tridiagonal_system(CG_N)
    benchmark(cg_solve, lower, diag, upper, rhs, tol=0.0, max_iter=ITERS)


# -- LBM lid-driven cavity ---------------------------------------------------


def _lbm_steps(n, steps):
    sim = LBM(n, tau=0.7, lid_velocity=0.08)
    sim.step(steps)


def test_lbm_replay(benchmark, graph_on):
    benchmark.group = "graph-replay-lbm"
    benchmark(_lbm_steps, LBM_N, LBM_STEPS)


def test_lbm_staged(benchmark, graph_off):
    benchmark.group = "graph-replay-lbm"
    benchmark(_lbm_steps, LBM_N, LBM_STEPS)


# -- the acceptance gate -----------------------------------------------------


def test_graph_replay_speedup_hpccg():
    """The captured HPCCG inner loop must replay ≥2x faster per
    iteration than the uncaptured staged codegen path at small domains
    (typically 2.3-3x: no staging, fused matvec+dot, hoisted prologues,
    pre-bound scratch buffers), with at least one fused launch pair."""
    doc = run_graph_replay(nx=4, iters=ITERS, reps=4, apps=("hpccg",))
    row = doc["timings"]["hpccg"]
    ratio = row["staged"] / row["replay"]
    assert doc["graph"]["fused_pairs"] >= 1, doc["graph"]
    assert ratio >= 2.0, (
        f"graph replay {row['replay'] * 1e6:.1f}us/iter vs staged "
        f"{row['staged'] * 1e6:.1f}us/iter ({ratio:.2f}x)"
    )


# ---------------------------------------------------------------------------
# Standalone entry point (CI smoke job / BENCH_graph.json)
# ---------------------------------------------------------------------------


def _best_per_iter(fn, reps):
    """Best-of-``reps`` seconds per solver iteration (``fn`` returns the
    iteration count it ran)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        iters = fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def run_graph_replay(
    nx=NX, cg_n=CG_N, lbm_n=LBM_N, iters=ITERS, lbm_steps=LBM_STEPS,
    reps=4, apps=("hpccg", "cg", "lbm"),
):
    """Per-iteration off/on timings for the three captured solvers.

    Each leg clears the kernel cache and graph counters, so the "on"
    column includes capture + instantiation amortized over ``iters``
    replays — the honest steady-state cost of the graph path.
    """
    legs = {}
    if "hpccg" in apps:
        a, b, _ = build_27pt_problem(nx, nx, nx)
        legs["hpccg"] = (
            lambda: hpccg_solve(a, b, tol=0.0, max_iter=iters).iterations,
            reps,
            {"nx": nx, "iters": iters},
        )
    if "cg" in apps:
        lower, diag, upper, rhs = tridiagonal_system(cg_n)
        legs["cg"] = (
            lambda: cg_solve(
                lower, diag, upper, rhs, tol=0.0, max_iter=iters
            ).iterations,
            reps,
            {"n": cg_n, "iters": iters},
        )
    if "lbm" in apps:

        def _lbm():
            sim = LBM(lbm_n, tau=0.7, lid_velocity=0.08)
            sim.step(lbm_steps)
            return lbm_steps

        legs["lbm"] = (_lbm, max(2, reps // 2), {"n": lbm_n, "steps": lbm_steps})

    timings = {name: dict(meta) for name, (_, _, meta) in legs.items()}
    graph_counts = None
    for mode, column in (("off", "staged"), ("on", "replay")):
        repro.set_graph_mode(mode)
        repro.clear_cache()
        repro.reset_graph_stats()
        try:
            for name, (fn, leg_reps, _) in legs.items():
                timings[name][column] = _best_per_iter(fn, leg_reps)
        finally:
            repro.set_graph_mode(None)
        if mode == "on":
            graph_counts = repro.graph_stats()
    repro.clear_cache()
    return {"timings": timings, "graph": graph_counts}


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="launch-graph replay vs staged dispatch"
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke-test sizes (CI): seconds total, not minutes",
    )
    parser.add_argument("--json", metavar="FILE", default=None)
    args = parser.parse_args(argv)
    repro.set_executor_mode("codegen")  # the rung BENCH_graph.json was recorded at

    if args.tiny:
        doc = run_graph_replay(
            nx=4, cg_n=128, lbm_n=12, iters=ITERS, lbm_steps=100, reps=3
        )
    else:
        doc = run_graph_replay()

    for name, row in doc["timings"].items():
        ratio = row["staged"] / row["replay"]
        print(
            f"{name:>6}: staged {row['staged'] * 1e6:8.1f}us/iter  "
            f"replay {row['replay'] * 1e6:8.1f}us/iter  "
            f"({ratio:.2f}x)"
        )
    g = doc["graph"]
    print(
        f" graph: captures={g['captures']} replays={g['replays']} "
        f"fused_pairs={g['fused_pairs']} "
        f"uncaptureable={g['uncaptureable']}"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
