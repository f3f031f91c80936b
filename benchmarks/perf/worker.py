"""One workload, in this process — the subprocess the runner isolates.

Closed loop, one client: the next operation starts when the previous one
returns.  Rounds of library ops and of the hand-written reference on the
same inputs alternate in one process, so host drift cancels in their
ratio.  The last line of stdout is one JSON document; everything the
workload started (cluster workers, child interpreters) has exited before
it is printed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path
from statistics import median

from .metrics import LAYER_UNITS, percentile

_clock = time.perf_counter


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for
    (cluster workers, compilers, fresh interpreters), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(setups: list, ops: list, refs: list) -> dict:
    """The four end-to-end metrics of one run.

    Times are reported as the *fastest* sample, not the median.  The
    reference host is a shared 2-vCPU VM: any single op either gets the
    machine or runs up to 2x slower beside its neighbours, so a run's
    median (and even its 10th percentile, once fewer than a tenth of the
    ops run undisturbed) sits wherever the host's mood put it — 0.08-0.21
    inter-quartile spread over ten runs of ``lbm_native`` against 0.04
    for the minimum; the median of 200 microsecond-scale set-ups reads
    18-54 us from process to process, their minimum 17.3-18.5.  Slow
    samples measure the neighbours; the fast edge measures the library.
    Median and p90 of the ops stay in the per-layer pass.
    """
    return {
        "setup_s": min(setups),
        "op_ms_min": min(ops),
        "overhead_vs_ref": min(ops) / min(refs),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(name, target, tracer, kernels, first_op, counted, counted_ops, plain_ops, ops,
                  refs, apps: dict, smoke: bool, out_dir: Path) -> tuple[dict, list]:
    """Every per-layer metric for one traced run, plus the layer table.

    ``tracer`` holds the traced ops' spans, ``kernels`` the distinct user
    kernels the workload launched, ``first_op`` the library's counters
    after the first op, ``counted`` the same counters summed over
    ``counted_ops`` steady-state operations (reported per op), ``target``
    the object the direct probes drive.  Metrics that do not apply to a
    workload stay 0.
    """
    from . import probes

    layer = dict.fromkeys(LAYER_UNITS, 0.0)
    for key, value in counted.items():
        layer[key if key in layer else f"{key}_per_op"] = value / counted_ops
    for key in probes.FIRST_OP:
        layer[key] = first_op[key]
    s = tracer.summary()
    ops = sorted(ops)
    layer.update({
        "core.launches_per_op": s["launches_per_op"],
        "core.stage_us_p50": s["stage_us_p50"],
        "core.host_gap_ms_per_op": s["host_gap_ms_per_op"],
        "core.dispatch_frac": s["dispatch_frac"],
        "core.trace_overhead_frac": ops[0] / min(plain_ops) - 1.0,
        "backends.execute_ms_per_op": s["execute_ms_per_op"],
        "backends.execute_us_p50": s["execute_us_p50"],
        "backends.threads.chunks_per_launch": s["chunks_per_launch"],
        "apps.bytes_per_op": s["bytes_per_op"],
        "apps.flops_per_op": s["flops_per_op"],
        "apps.samples": len(ops),
        # A percentile is reported only with ten samples beyond it.
        "apps.op_ms_p50": median(ops) if len(ops) >= 21 else 0.0,
        "apps.op_ms_p90": percentile(ops, 0.9) if len(ops) >= 100 else 0.0,
        "apps.ref_op_ms_min": min(refs),
    })
    layer.update(apps)
    host = probes.host(smoke)
    layer.update(host)
    dominant = max(kernels, key=lambda k: k["bytes"])
    layer.update(probes.mode_ratios(target))
    layer.update(probes.executors(dominant, target.executor or "codegen", host["host.triad_gbps"]))
    layer.update(probes.graph_lifecycle(target.graph_body()))
    # Last: these two drop the in-memory kernel and native-handle caches.
    layer.update(probes.cache_tiers(kernels, dominant))
    layer.update(probes.compile_stages(kernels, out_dir / "probe-native"))
    tracer.write_chrome(out_dir.parent / f"trace-{name}.json")
    return layer, tracer.layer_table()


def _measure(w, seconds: float, tracer, state: dict) -> tuple[list, list]:
    """Rounds of (``w.block`` ops, then ``w.ref_block`` refs) until
    ``seconds`` have passed; at least two ops.  Returns the per-op and
    per-ref wall times in ms."""
    # Packed doubles, not float objects: 90 000 samples of a 0.1 ms op
    # would otherwise add 6 MB, varying with the op count, to peak_rss_mb.
    ops, refs = array("d"), array("d")
    deadline = _clock() + seconds
    while len(ops) < 2 or _clock() < deadline:
        for _ in range(w.block):
            state["attempted"] += 1
            if tracer is not None:
                tracer.begin_op(state["attempted"])
            t0 = _clock()
            try:
                w.op()
                ops.append((_clock() - t0) * 1e3)
            except Exception:
                state["failed"] += 1
                state["detail"] = traceback.format_exc(limit=3)
            finally:
                if tracer is not None:
                    tracer.end_op()
        for _ in range(w.ref_block or w.block):
            t0 = _clock()
            w.ref()
            refs.append((_clock() - t0) * 1e3)
    return ops, refs


def run_inprocess(name: str, seed: int, seconds: float, trace: bool, smoke: bool, out_dir: Path) -> dict:
    t0 = _clock()
    import repro
    import repro.apps  # noqa: F401

    import_s = _clock() - t0
    from . import workloads
    from .tracer import Tracer

    if trace:  # not otherwise: its imports would count towards peak_rss_mb
        from . import probes

    w = workloads.make(name, smoke)
    w.configure()
    ctx = repro.current_context()
    tracer = Tracer()
    state = {"attempted": 0, "failed": 0, "detail": ""}

    w.setup(seed)

    # Warm-up: compiles, captures, spawns — untimed, but op and reference
    # advance in lockstep and are compared at its end.  In a trace pass
    # the hooks collect the kernels it launches.
    detach = tracer.attach(ctx) if trace else None
    t0 = _clock()
    w.op()
    first_op_s = _clock() - t0
    first_op = probes.counters() if trace else None
    w.ref()
    for _ in range(w.warmup_rounds - 1):
        w.op()
        w.ref()
    state["attempted"] = w.warmup_rounds
    if trace:
        detach()
    try:
        max_err = w.verify()
        if trace:
            before = probes.counters()
            plain_ops, _ = _measure(w, seconds / 8, None, state)
            detach = tracer.attach(ctx)
            ops, refs = _measure(w, seconds / 4, tracer, state)
            detach()
            counted = probes.delta(probes.counters(), before)
        else:
            ops, refs = _measure(w, seconds, None, state)
        max_err = max(max_err, w.verify())
    except workloads.CheckFailed as exc:
        # A wrong result discredits every op of the run.
        state["failed"], state["detail"] = state["attempted"], str(exc)
    if state["failed"]:
        w.teardown()
        return {
            "workload": name, "seed": seed, "correct": False, "attempted": state["attempted"],
            "failed": state["failed"], "detail": state["detail"], "samples": 0, "metrics": {},
        }

    result = {
        "workload": name, "seed": seed, "correct": True, "attempted": state["attempted"],
        "failed": 0, "detail": "", "samples": len(ops),
    }
    if trace:
        apps = {
            "apps.first_op_s": first_op_s, "apps.import_s": import_s,
            "apps.iters_to_tol": w.iters, "apps.max_rel_err": max_err,
        }
        result["metrics"], result["layer_table"] = layer_metrics(
            name, w, tracer, list(tracer.kernels.values()), first_op, counted,
            len(plain_ops) + len(ops), plain_ops, ops, refs, apps, smoke, out_dir,
        )
    w.teardown()
    if not trace:
        # Set-up is timed last, on a process as warm as the one the ops
        # ran in, at least five times and for at least a tenth of the
        # run: a few hundred microsecond-scale set-ups fit inside one of
        # the host's slow patches, and then even their minimum reads
        # 1.5x high.
        setups, deadline = [], _clock() + seconds / 10
        while len(setups) < 5 or _clock() < deadline:
            t0 = _clock()
            w.setup(seed)
            setups.append(_clock() - t0)
            w.teardown()
        result["metrics"] = end_to_end(setups, ops, refs)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", type=int, default=0)
    ap.add_argument("--out-dir", type=Path, required=True, help="this run's private scratch directory")
    args = ap.parse_args(argv)
    if args.workload in ("coldstart", "warmstart"):
        from .coldstart import run_sweeps as run
    else:
        run = run_inprocess
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), bool(args.smoke), args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
