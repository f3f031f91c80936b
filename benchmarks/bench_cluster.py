"""Cluster backend: sharded speedup and recovery overhead (PR 9).

The cluster backend (:mod:`repro.backends.cluster`) shards each launch
across worker processes with shared-memory array segments, exchanges
halo slabs for stencil reads, and survives worker loss by respawning
and rebalancing mid-plan.  This benchmark measures the two costs that
matter:

* **Sharded speedup** — D2Q9 LBM steps on the cluster backend vs the
  serial backend.  The collide kernel is arithmetic-heavy and
  embarrassingly parallel over lattice rows, so with real cores the
  sharded run should win despite halo traffic.  The ≥1.5x acceptance
  gate binds **only on multi-core machines** (``os.sched_getaffinity``)
  — on a single core, worker processes time-slice one CPU and the
  sharded run is honestly slower; the JSON records the core count so
  the number can't masquerade as a parallel result.

* **Recovery overhead** — the same sharded run with one worker
  SIGKILLed per ~100 steps (via the ``kill=cluster.shard:<ordinal>``
  fault grammar).  Each loss costs a respawn + a re-dispatched span;
  the gate asserts the faulty run stays within 25% of the fault-free
  cluster run.  This gate binds everywhere — recovery cost is a ratio
  of two cluster runs and does not depend on core count.

Standalone usage (the CI smoke job / BENCH_cluster.json)::

    python benchmarks/bench_cluster.py --tiny --json out.json

writes ``{"timings": {...}, "cluster": {...}, "cores": N, "gates":
{...}}`` — per-leg seconds per LBM step, the process-wide cluster
counters after the faulty leg (kills/worker_losses/respawns/rebalances
must all reflect the injected losses), and which gates were enforced.
"""

import os
import time

import pytest

import repro
from repro import faults
from repro.apps.lbm import LBM
from repro.backends.cluster import ClusterBackend

LBM_N = 96  # D2Q9 lattice edge
STEPS = 300  # lattice steps per timed run
KILL_EVERY = 100  # inject one worker loss per this many steps
SPEEDUP_GATE = 1.5  # cluster vs serial, multi-core only
OVERHEAD_GATE = 0.25  # faulty vs fault-free cluster, everywhere


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _lbm_run(n, steps):
    sim = LBM(n, tau=0.7, lid_velocity=0.08)
    sim.step(steps)
    return sim


def _time_per_step(n, steps, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        _lbm_run(n, steps)
        best = min(best, (time.perf_counter() - t0) / steps)
    return best


def _kill_spec(shards_per_step, steps, kill_every):
    """One ``cluster.shard`` kill per ``kill_every`` steps, placed
    mid-interval so each loss hits a steady-state dispatch."""
    ordinals = [
        int((i + 0.5) * kill_every * shards_per_step)
        for i in range(max(1, steps // kill_every))
    ]
    return "kill=" + "|".join(f"cluster.shard:{o}" for o in ordinals), len(ordinals)


def run_cluster_bench(n=LBM_N, steps=STEPS, reps=3, n_workers=2,
                      kill_every=KILL_EVERY):
    """Serial vs fault-free cluster vs cluster-with-kills timings.

    Returns per-step seconds for each leg plus the cluster counters
    snapshotted after the faulty leg, so the JSON carries evidence the
    losses actually happened (kills == worker_losses == respawns).
    """
    cores = _cores()
    timings = {"n": n, "steps": steps, "workers": n_workers}

    # The gates and BENCH_cluster.json were recorded at the codegen rung.
    repro.set_executor_mode("codegen")
    repro.set_backend("serial")
    timings["serial"] = _time_per_step(n, steps, reps)

    # Respawn budget must cover every injected kill across all reps —
    # an exhausted budget would silently degrade the faulty leg to
    # fewer workers and corrupt the overhead measurement.
    kills_per_run = max(1, steps // kill_every)
    backend = ClusterBackend(
        n_workers,
        min_parallel_size=1,
        shm_threshold=1,
        max_respawns=4 * reps * kills_per_run,
    )
    repro.set_backend(backend)
    try:
        _lbm_run(n, steps)  # warm spawn + halo-schedule derivation
        repro.reset_cluster_stats()
        timings["cluster"] = _time_per_step(n, steps, reps)
        stats = repro.cluster_stats()
        shards_per_step = max(1, stats["shards"] // (steps * reps))

        spec, planned = _kill_spec(shards_per_step, steps, kill_every)
        repro.reset_cluster_stats()
        best = float("inf")
        for _ in range(reps):
            faults.set_fault_plan(faults.parse_fault_spec(spec))
            try:
                t0 = time.perf_counter()
                _lbm_run(n, steps)
                best = min(best, (time.perf_counter() - t0) / steps)
            finally:
                faults.set_fault_plan(None)
        timings["cluster_faulty"] = best
        timings["kills_per_run"] = planned
        counters = repro.cluster_stats()
    finally:
        faults.set_fault_plan(None)
        backend.close()
        repro.set_backend("serial")
        repro.set_executor_mode(None)

    gates = {
        "speedup_gate": SPEEDUP_GATE,
        "speedup_enforced": cores > 1,
        "overhead_gate": OVERHEAD_GATE,
        "overhead_enforced": True,
    }
    return {"timings": timings, "cluster": counters, "cores": cores,
            "gates": gates}


# ---------------------------------------------------------------------------
# Acceptance gates (pytest)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_doc():
    return run_cluster_bench(n=48, steps=120, reps=2)


def test_cluster_speedup_multicore(bench_doc):
    """Sharded LBM must beat serial by ≥1.5x — but only where there are
    cores to shard onto.  On one core the measurement is still taken
    and recorded; the assertion is skipped, not faked."""
    row = bench_doc["timings"]
    if bench_doc["cores"] <= 1:
        pytest.skip(
            f"1 CPU core: cluster {row['cluster'] * 1e3:.2f}ms/step vs "
            f"serial {row['serial'] * 1e3:.2f}ms/step recorded, gate waived"
        )
    ratio = row["serial"] / row["cluster"]
    assert ratio >= SPEEDUP_GATE, (
        f"cluster {row['cluster'] * 1e3:.2f}ms/step vs serial "
        f"{row['serial'] * 1e3:.2f}ms/step ({ratio:.2f}x < {SPEEDUP_GATE}x "
        f"on {bench_doc['cores']} cores)"
    )


def test_cluster_recovery_overhead(bench_doc):
    """One injected worker loss per ~100 steps must cost ≤25% over the
    fault-free cluster run: a loss is one respawn plus one re-dispatched
    span, amortized over the kill interval."""
    row = bench_doc["timings"]
    overhead = row["cluster_faulty"] / row["cluster"] - 1.0
    assert overhead <= OVERHEAD_GATE, (
        f"recovery overhead {overhead * 100:.1f}% > {OVERHEAD_GATE * 100:.0f}% "
        f"(faulty {row['cluster_faulty'] * 1e3:.2f}ms/step vs clean "
        f"{row['cluster'] * 1e3:.2f}ms/step)"
    )


def test_cluster_losses_really_happened(bench_doc):
    """The overhead number is meaningless unless the kills landed: the
    counters must show every planned kill became a worker loss and a
    respawn (budget permitting)."""
    c = bench_doc["cluster"]
    assert c["kills"] >= bench_doc["timings"]["kills_per_run"], c
    assert c["worker_losses"] >= c["kills"], c
    assert c["respawns"] >= c["kills"], c
    assert c["rebalances"] >= c["kills"], c


# ---------------------------------------------------------------------------
# Standalone entry point (CI smoke job / BENCH_cluster.json)
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="cluster backend speedup + recovery overhead"
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke-test sizes (CI): seconds total, not minutes",
    )
    parser.add_argument("--json", metavar="FILE", default=None)
    args = parser.parse_args(argv)

    if args.tiny:
        doc = run_cluster_bench(n=32, steps=60, reps=2, kill_every=30)
    else:
        doc = run_cluster_bench()

    row = doc["timings"]
    speedup = row["serial"] / row["cluster"]
    overhead = row["cluster_faulty"] / row["cluster"] - 1.0
    print(
        f"serial {row['serial'] * 1e3:8.2f}ms/step  "
        f"cluster {row['cluster'] * 1e3:8.2f}ms/step  "
        f"({speedup:.2f}x on {doc['cores']} core(s)"
        f"{', gate waived' if doc['cores'] <= 1 else ''})"
    )
    print(
        f"faulty {row['cluster_faulty'] * 1e3:9.2f}ms/step  "
        f"recovery overhead {overhead * 100:+.1f}% "
        f"({row['kills_per_run']} kill(s)/run)"
    )
    c = doc["cluster"]
    print(
        f"cluster: kills={c['kills']} losses={c['worker_losses']} "
        f"respawns={c['respawns']} rebalances={c['rebalances']} "
        f"halo_exchanges={c['halo_exchanges']}"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
