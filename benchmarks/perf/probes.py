"""Direct per-layer probes: the benchmark times the library's public entry
points from outside, on the kernels and arguments the workload itself
launched (collected by the tracer), and reads its counter blocks.

Nothing here changes the library; every number is a wall-clock timing of
a call a user could make, or a counter difference (read before, read
after) over the traced part of the run.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

import numpy as np

import repro
from repro.core.exceptions import ConcretizationRequired
from repro.ir import IndexDomain, arena_stats, compile_kernel, verify_trace
from repro.ir import cgen, codegen, nativecache
from repro.ir.optimize import count_nodes, optimize_trace
from repro.ir.tracer import trace_kernel

from . import reference
from .host import llc_bytes

_clock = time.perf_counter


def _timed(fn, *args, **kwargs):
    t0 = _clock()
    out = fn(*args, **kwargs)
    return out, (_clock() - t0) * 1e3


def _best_ms(fn, budget_s: float, max_reps: int) -> float:
    """Fastest of up to ``max_reps`` calls of ``fn`` within ``budget_s``
    (always at least one) — the same estimator, for the same reason, as
    the end-to-end op time."""
    best, reps, deadline = float("inf"), 0, _clock() + budget_s
    while reps < max_reps and (not reps or _clock() < deadline):
        best = min(best, _timed(fn)[1])
        reps += 1
    return best


# -- counters ---------------------------------------------------------------------


def counters() -> dict:
    """Every counter block the library exposes, flattened to the
    per-layer metric names."""
    info = repro.cache_info()
    graph, disk, native, cluster = info["graph"], info["disk"], info["native"], info["cluster"]
    arena = arena_stats()
    out = {
        "ir.cache.mem_hits": info["hits"],
        "ir.cache.mem_misses": info["misses"],
        "ir.cache.disk_hits": disk["disk_hits"],
        "ir.cache.disk_misses": disk["disk_misses"],
        "ir.cache.disk_stores": disk["stores"],
        "ir.cache.disk_bytes": disk["bytes"],
        "ir.cache.ineligible": disk["ineligible"],
        "ir.cache.graph_hits": disk["graph_hits"],
        "ir.exec.native_declines": sum(native["declined"].values()),
        "ir.cgen.cc_invocations": native["compiled"],
        "graph.validate.programs": graph["validate"]["programs"],
        "backends.cluster.shards": cluster["shards"],
        "backends.cluster.halo_bytes": cluster["halo_bytes"],
        "backends.cluster.halo_exchanges": cluster["halo_exchanges"],
        "backends.cluster.staged_bytes": cluster["staged_in_bytes"] + cluster["staged_out_bytes"],
        "backends.cluster.inline_launches": cluster["inline_launches"],
        "backends.cluster.respawns": cluster["respawns"],
    }
    for key in ("buffers_created", "buffers_reused", "bytes_allocated"):
        out[f"ir.arena.{key}"] = arena[key]
    for key in ("captures", "replays", "nodes_replayed", "fused_pairs", "invalidations"):
        out[f"graph.{key}"] = graph[key]
    for name in ("fuse", "dse", "sink", "schedule"):
        out[f"graph.passes.{name}_applied"] = graph["passes"][name]["applied"]
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


#: Counters of work that happens once, on the first op of a process
#: (compiles and their cache writes): read after the first op, not
#: averaged over the steady-state ops that follow.
FIRST_OP = (
    "ir.cache.disk_misses", "ir.cache.disk_stores", "ir.cache.disk_bytes", "ir.cache.ineligible",
    "ir.cgen.cc_invocations",
)


# -- compile pipeline -------------------------------------------------------------------


def _arg_env(args):
    shapes = {p: a.shape for p, a in enumerate(args) if isinstance(a, np.ndarray)}
    scalars = {
        p: (a.item() if isinstance(a, np.generic) else a)
        for p, a in enumerate(args)
        if not isinstance(a, np.ndarray)
    }
    return shapes, scalars


def compile_stages(kernels: list[dict], native_dir: Path) -> dict:
    """Trace → optimize → verify → lower (NumPy source) → lower (C + cc),
    summed over the workload's distinct kernels.  The C step runs against
    an empty native cache so every kernel pays its compiler invocation."""
    out: dict = defaultdict(float)
    saved = os.environ.get("PYACC_NATIVE_CACHE")
    os.environ["PYACC_NATIVE_CACHE"] = str(native_dir)
    nativecache.reset_state(drop_memory=True, drop_counters=False)
    try:
        for k in kernels:
            fn, dims, args = k["fn"], k["dims"], k["args"]
            try:
                trace, ms = _timed(trace_kernel, fn, len(dims), args)
            except ConcretizationRequired:
                trace, ms = _timed(trace_kernel, fn, len(dims), args, concretize_scalars=True)
            out["ir.tracer.trace_ms"] += ms
            out["ir.tracer.nodes"] += count_nodes(trace)
            opt, ms = _timed(optimize_trace, trace)
            out["ir.optimize.optimize_ms"] += ms
            out["ir.optimize.nodes_after"] += count_nodes(opt)
            shapes, scalars = _arg_env(args)
            (diags, _), ms = _timed(
                verify_trace, opt, dims=dims, shapes=shapes, scalars=scalars,
                op=k["op"] if k["reduce"] else None, kernel=fn.__name__,
            )
            out["ir.verify.verify_ms"] += ms
            out["ir.verify.diagnostics"] += len(diags)
            program, ms = _timed(codegen.lower_trace, opt, args)
            out["ir.codegen.lower_ms"] += ms
            out["ir.codegen.source_bytes"] += len(program.source)
            _, ms = _timed(cgen.try_lower_native, opt, args)
            out["ir.cgen.lower_ms"] += ms
    finally:
        if saved is None:
            del os.environ["PYACC_NATIVE_CACHE"]
        else:
            os.environ["PYACC_NATIVE_CACHE"] = saved
        nativecache.reset_state(drop_memory=True, drop_counters=False)
    out["ir.cgen.so_bytes"] = sum(p.stat().st_size for p in native_dir.glob("*.so"))
    return dict(out)


def cache_tiers(kernels: list[dict], dominant: dict) -> dict:
    """In-memory lookup cost (warm), then the disk tier's load cost: the
    memory cache is cleared, the disk cache is what this run wrote."""

    def lookup(k=dominant):
        compile_kernel(k["fn"], len(k["dims"]), k["args"], reduce=k["reduce"])

    lookup()
    samples = []
    for _ in range(200):
        t0 = _clock()
        lookup()
        samples.append((_clock() - t0) * 1e6)
    repro.clear_cache()
    nativecache.reset_state(drop_memory=True, drop_counters=False)
    load_ms = sum(_timed(lookup, k)[1] for k in kernels)
    return {"ir.cache.lookup_us_p50": median(samples), "ir.cache.warm_load_ms": load_ms}


def executors(dominant: dict, configured: str, triad_gbps: float) -> dict:
    """The dominant kernel run directly on each executor rung over its
    full domain — no dispatch, no backend, one thread."""
    out = {}
    dims, args = dominant["dims"], dominant["args"]
    domain = IndexDomain.full(dims)
    for rung in ("native", "codegen", "vector"):
        ck = compile_kernel(
            dominant["fn"], len(dims), args, reduce=dominant["reduce"], executor=rung
        )
        if dominant["reduce"]:
            run = lambda: ck.run_reduce(domain, args, dominant["op"])  # noqa: E731
        else:
            run = lambda: ck.run_for(domain, args)  # noqa: E731
        run()
        out[f"ir.exec.kernel_ms.{rung}"] = _best_ms(run, 0.5, 7)
    gbps = dominant["bytes"] / (out[f"ir.exec.kernel_ms.{configured}"] * 1e-3) / 1e9
    out["ir.exec.gbps"] = gbps
    out["ir.exec.stream_frac"] = gbps / triad_gbps
    return out


def graph_lifecycle(body) -> dict:
    """Capture → instantiate → replay of a fixed launch sequence."""
    ctx = repro.current_context()
    body()  # compile outside the probe
    t0 = _clock()
    with ctx.capture() as cap:
        body()
    t1 = _clock()
    inst = cap.graph("probe").instantiate(ctx)
    t2 = _clock()
    inst.replay()
    replay_ms = _best_ms(inst.replay, 0.5, 50)
    return {
        "graph.capture_ms": (t1 - t0) * 1e3,
        "graph.instantiate_ms": (t2 - t1) * 1e3,
        "graph.replay_us_per_node": replay_ms * 1e3 / max(1, inst.n_active_nodes),
    }


def mode_ratios(w) -> dict:
    """The same op with launch graphs off, and on the plain serial
    backend — each as a ratio to the configured run measured alongside."""

    def timed_probe():
        return _best_ms(w.probe_op, 1.0, 5)

    w.probe_op()
    configured = timed_probe()
    repro.set_graph_mode("off")
    try:
        w.probe_op()
        graphs_off = timed_probe()
    finally:
        repro.set_graph_mode(None)
    with repro.use_backend("serial"):
        w.probe_op()
        serial = timed_probe()
    return {
        "graph.off_ratio": graphs_off / configured,
        "backends.threads.speedup_vs_serial": serial / configured,
    }


# -- host ------------------------------------------------------------------------------


def host(smoke: bool) -> dict:
    triad, copy = reference.triad_copy_gbps(1 << 16 if smoke else 1 << 24)
    return {
        "host.cores": os.cpu_count() or 1,
        "host.llc_bytes": llc_bytes(),
        "host.triad_gbps": triad,
        "host.copy_gbps": copy,
    }
