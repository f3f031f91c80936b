"""Global graph fusion vs unfused replay (ablation).

The graph pass (:mod:`repro.ir.program`) sees the whole captured
program: global fusion merges launches *non-adjacently* by hopping over
independent nodes.  The baseline is ``passes=none`` — the same captured
graph replayed node for node.  The showcase is the CG update segment of
HPCCG's iteration::

    r -= alpha s ; rr = r.r ; x += alpha p

The x-axpy is independent of the dot between them: global fusion hops
it backwards over the reduce and merges all three launches into one
node (3 → 1).

Timings are steady-state ``replay()`` calls of the captured segment —
per solver iteration, after capture + instantiation — on the HPCCG
problem's vectors.  The full captured iteration (matvec+dot, update,
direction) is timed as well for context; its ratio is diluted by the
27-point matvec, whose array work no fusion can remove.

Standalone usage (the CI smoke job)::

    python benchmarks/bench_program_passes.py --tiny --json out.json

writes ``{"timings": {...}, "passes": {...}}`` — the smoke job asserts
the update-segment replay is ≥1.2x faster fused than unfused, with ≥1
non-adjacent fusion recorded.
"""

import time

import numpy as np
import pytest

import repro
from repro.apps.blas import axpy_kernel_1d, dot_kernel_1d
from repro.apps.cg import xpby_kernel
from repro.apps.hpccg import build_27pt_problem, matvec_ell_kernel
from repro.core import current_context, parallel_for, parallel_reduce
from repro.graph import ScalarSlot

NX = 4  # HPCCG lattice edge (n = NX^3 rows)
REPS = 2000  # replays per timing sample
SAMPLES = 5  # best-of samples

#: The acceptance gate: update-segment replay speedup, all vs none.
GATE_RATIO = 1.2


def _passes_leg(mode):
    # The gate and BENCH_program.json's 2.27x were recorded at the codegen rung.
    repro.set_executor_mode("codegen")
    repro.set_graph_mode("on")
    repro.set_passes_mode(mode)
    repro.clear_cache()
    repro.reset_graph_stats()


def _reset():
    repro.set_executor_mode(None)
    repro.set_passes_mode(None)
    repro.set_graph_mode(None)
    repro.clear_cache()


def _capture_update(ctx, n, vecs):
    """The reordered CG update segment (see ``cg_solve_operator``)."""
    dx, dr, dp, ds = vecs
    with ctx.capture() as cap:
        parallel_for(n, axpy_kernel_1d, ScalarSlot("neg_alpha", -0.0), dr, ds)
        parallel_reduce(n, dot_kernel_1d, dr, dr)
        parallel_for(n, axpy_kernel_1d, ScalarSlot("alpha", 0.0), dx, dp)
    return cap.graph("hpccg.update").instantiate(
        ctx, return_convention=("single", 1)
    )


def _capture_iteration(ctx, n, a_dev, vecs):
    """All three captured segments of one HPCCG CG iteration."""
    dcols, dvals = a_dev
    dx, dr, dp, ds = vecs
    with ctx.capture() as cap:
        parallel_for(n, matvec_ell_kernel, dcols, dvals, dp, ds)
        parallel_reduce(n, dot_kernel_1d, dp, ds)
    mv = cap.graph("hpccg.mv").instantiate(
        ctx, return_convention=("single", 1)
    )
    update = _capture_update(ctx, n, vecs)
    with ctx.capture() as cap:
        parallel_for(n, xpby_kernel, ScalarSlot("beta", 0.0), dr, dp)
    direction = cap.graph("hpccg.dir").instantiate(ctx)
    return mv, update, direction


def _vectors(n, b):
    return (
        repro.array(np.zeros(n)),
        repro.array(b.copy()),
        repro.array(b.copy()),
        repro.array(np.zeros(n)),
    )


def _best(fn, reps, samples):
    best = float("inf")
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


# -- pytest-benchmark entries ------------------------------------------------


@pytest.fixture(params=["none", "all"])
def passes_mode(request):
    _passes_leg(request.param)
    yield request.param
    _reset()


def test_update_segment_replay(benchmark, passes_mode):
    benchmark.group = "program-passes-update"
    a, b, _ = build_27pt_problem(NX, NX, NX)
    ctx = current_context()
    inst = _capture_update(ctx, a.n, _vectors(a.n, b))
    benchmark(lambda: inst.replay(neg_alpha=-0.0, alpha=0.0))


def test_full_iteration_replay(benchmark, passes_mode):
    benchmark.group = "program-passes-iteration"
    a, b, _ = build_27pt_problem(NX, NX, NX)
    ctx = current_context()
    a_dev = (repro.array(a.cols), repro.array(a.vals))
    mv, update, direction = _capture_iteration(
        ctx, a.n, a_dev, _vectors(a.n, b)
    )

    def one_iter():
        mv.replay()
        update.replay(neg_alpha=-0.0, alpha=0.0)
        direction.replay(beta=0.0)

    benchmark(one_iter)


# -- the acceptance gate -----------------------------------------------------


def test_program_passes_speedup_hpccg():
    """Fusion must replay the HPCCG update segment ≥1.2x faster per
    iteration than the unfused graph (3 launches fused into 1), with
    the non-adjacent merge recorded in the pass counters."""
    doc = run_program_passes(nx=NX, reps=REPS // 2, samples=3)
    row = doc["timings"]["hpccg_update"]
    ratio = row["none"] / row["all"]
    assert doc["passes"]["all"]["fuse"]["nonadjacent"] >= 1, doc["passes"]
    assert ratio >= GATE_RATIO, (
        f"update-segment replay: all {row['all'] * 1e6:.1f}us/iter vs "
        f"none {row['none'] * 1e6:.1f}us/iter ({ratio:.2f}x)"
    )


# ---------------------------------------------------------------------------
# Standalone entry point (CI smoke job / BENCH_program.json)
# ---------------------------------------------------------------------------


def run_program_passes(nx=NX, reps=REPS, samples=SAMPLES):
    """Steady-state replay timings, unfused vs fused.

    ``hpccg_update`` is the gated row (where non-adjacent fusion
    fires); ``hpccg_iteration`` is the full captured iteration body for
    context.  Pass counters for both legs ride along so the smoke job
    can assert the non-adjacent merge actually happened.
    """
    a, b, _ = build_27pt_problem(nx, nx, nx)
    n = a.n
    timings = {
        "hpccg_update": {"nx": nx, "n": n, "nodes": {}},
        "hpccg_iteration": {"nx": nx, "n": n, "nodes": {}},
    }
    passes = {}
    for mode in ("none", "all"):
        _passes_leg(mode)
        try:
            ctx = current_context()
            update = _capture_update(ctx, n, _vectors(n, b))
            timings["hpccg_update"][mode] = _best(
                lambda: update.replay(neg_alpha=-0.0, alpha=0.0),
                reps,
                samples,
            )
            timings["hpccg_update"]["nodes"][mode] = update.n_nodes
            a_dev = (repro.array(a.cols), repro.array(a.vals))
            mv, upd, direction = _capture_iteration(
                ctx, n, a_dev, _vectors(n, b)
            )

            def one_iter():
                mv.replay()
                upd.replay(neg_alpha=-0.0, alpha=0.0)
                direction.replay(beta=0.0)

            timings["hpccg_iteration"][mode] = _best(
                one_iter, max(1, reps // 3), samples
            )
            timings["hpccg_iteration"]["nodes"][mode] = (
                mv.n_nodes + upd.n_nodes + direction.n_nodes
            )
            passes[mode] = repro.graph_stats()["passes"]
        finally:
            _reset()
    return {"timings": timings, "passes": passes, "gate_ratio": GATE_RATIO}


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="global graph fusion vs unfused replay"
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke-test sizes (CI): seconds total, not minutes",
    )
    parser.add_argument("--json", metavar="FILE", default=None)
    args = parser.parse_args(argv)

    if args.tiny:
        doc = run_program_passes(nx=NX, reps=600, samples=3)
    else:
        doc = run_program_passes()

    for name, row in doc["timings"].items():
        ratio = row["none"] / row["all"]
        print(
            f"{name:>16}: none {row['none'] * 1e6:7.1f}us/iter "
            f"({row['nodes']['none']} nodes)  "
            f"all {row['all'] * 1e6:7.1f}us/iter "
            f"({row['nodes']['all']} nodes)  ({ratio:.2f}x)"
        )
    fuse = doc["passes"]["all"]["fuse"]
    print(
        f"          passes: fused={fuse['applied']} "
        f"nonadjacent={fuse['nonadjacent']} "
        f"declined={sum(fuse['declined'].values())}"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
