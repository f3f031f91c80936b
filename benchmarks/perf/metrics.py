"""The metric and workload catalogue — one source for names, units,
directions, bounds and the predictions the README tables print.

``BENCHMARK.json`` at the repo root is the driver-facing copy of
``benchmark_json()``; a self-test holds the two equal.
"""

from __future__ import annotations

RUN_SECONDS = 10

#: name -> why it exists (which layer does the work).
WORKLOADS = {
    "axpy_dot_small": "dispatch-bound: n=2^10 AXPY+DOT pair, so core staging, cache lookup and hooks are the whole op",
    "axpy_dot_large": "bandwidth-bound: n=2^24 AXPY+DOT pair (128 MiB/array), ir executor temporaries and threads chunking do the work",
    "hpccg_small_native": "graph/marshal-bound: 8^3 HPCCG solve at the native rung, capture+instantiate+ctypes marshal dominate kernels",
    "hpccg_large": "time-to-solution at 64^3 on defaults: gather-bound ELL matvec replay plus the per-solve fixed cost",
    "lbm_native": "compute/stencil-bound 512^2 D2Q9 step at the native rung on threads: cgen code quality and GIL-free chunks",
    "lbm_cluster": "same LBM step on the 2-worker cluster backend: shard dispatch, shared memory and halo exchange do the work",
    "coldstart": "fresh interpreter, empty caches, toy app sweep: tracer/verify/optimize/codegen/cgen+cc and cache writes are the cost",
    "warmstart": "fresh interpreter reusing a populated cache: compilecache/nativecache reads are the cost, zero compiles allowed",
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_min", "ms", "lower", 0.25),
    ("overhead_vs_ref", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

_SMALL = "axpy_dot_small, hpccg_small_native"
_BIG = "axpy_dot_large, hpccg_large, lbm_native"
_GRAPHS = "hpccg_small_native, hpccg_large, lbm_*"

#: (name, unit, better, end-to-end metric it should move, on workloads).
PER_LAYER = [
    ("core.launches_per_op", "count", "lower", "op_ms_min", _SMALL),
    ("core.stage_us_p50", "us", "lower", "op_ms_min", _SMALL),
    ("core.host_gap_ms_per_op", "ms", "lower", "op_ms_min", _SMALL),
    ("core.dispatch_frac", "fraction", "lower", "overhead_vs_ref", _SMALL),
    ("core.trace_overhead_frac", "fraction", "lower", "op_ms_min", _SMALL),
    ("ir.cache.lookup_us_p50", "us", "lower", "op_ms_min", "axpy_dot_small"),
    ("ir.cache.mem_hits", "count", "higher", "op_ms_min", "axpy_dot_small"),
    ("ir.cache.mem_misses", "count", "lower", "op_ms_min", "axpy_dot_small"),
    ("ir.exec.kernel_ms.native", "ms", "lower", "op_ms_min", _BIG),
    ("ir.exec.kernel_ms.codegen", "ms", "lower", "op_ms_min", _BIG),
    ("ir.exec.kernel_ms.vector", "ms", "lower", "op_ms_min", _BIG),
    ("ir.exec.gbps", "GB/s", "higher", "op_ms_min", _BIG),
    ("ir.exec.stream_frac", "fraction", "higher", "overhead_vs_ref", _BIG),
    ("ir.exec.native_declines", "count", "lower", "op_ms_min", _BIG),
    ("apps.bytes_per_op", "B", "lower", "op_ms_min", _BIG),
    ("apps.flops_per_op", "flop", "lower", "op_ms_min", _BIG),
    ("ir.arena.buffers_created", "count", "lower", "peak_rss_mb", "axpy_dot_large, hpccg_large"),
    ("ir.arena.buffers_reused", "count", "higher", "op_ms_min", "axpy_dot_large, hpccg_large"),
    ("ir.arena.bytes_allocated", "B", "lower", "peak_rss_mb", "axpy_dot_large, hpccg_large"),
    ("backends.execute_ms_per_op", "ms", "lower", "op_ms_min", _BIG),
    ("backends.execute_us_p50", "us", "lower", "op_ms_min", _BIG),
    ("backends.threads.chunks_per_launch", "count", "higher", "op_ms_min", _BIG),
    ("backends.threads.speedup_vs_serial", "ratio", "higher", "op_ms_min", _BIG),
    ("backends.cluster.shards_per_op", "count", "lower", "op_ms_min", "lbm_cluster"),
    ("backends.cluster.halo_bytes_per_op", "B", "lower", "op_ms_min", "lbm_cluster"),
    ("backends.cluster.halo_exchanges_per_op", "count", "lower", "op_ms_min", "lbm_cluster"),
    ("backends.cluster.staged_bytes_per_op", "B", "lower", "op_ms_min", "lbm_cluster"),
    ("backends.cluster.inline_launches", "count", "lower", "op_ms_min", "lbm_cluster"),
    ("backends.cluster.respawns", "count", "lower", "op_ms_min", "lbm_cluster"),
    ("graph.captures", "count", "lower", "op_ms_min", _GRAPHS),
    ("graph.replays", "count", "higher", "op_ms_min", _GRAPHS),
    ("graph.nodes_replayed", "count", "lower", "op_ms_min", _GRAPHS),
    ("graph.fused_pairs", "count", "higher", "op_ms_min", _GRAPHS),
    ("graph.invalidations", "count", "lower", "op_ms_min", _GRAPHS),
    ("graph.passes.fuse_applied", "count", "higher", "op_ms_min", _GRAPHS),
    ("graph.passes.dse_applied", "count", "higher", "op_ms_min", _GRAPHS),
    ("graph.passes.sink_applied", "count", "higher", "op_ms_min", _GRAPHS),
    ("graph.passes.schedule_applied", "count", "higher", "op_ms_min", _GRAPHS),
    ("graph.validate.programs", "count", "lower", "op_ms_min", _GRAPHS),
    ("graph.capture_ms", "ms", "lower", "op_ms_min", "hpccg_small_native"),
    ("graph.instantiate_ms", "ms", "lower", "op_ms_min", "hpccg_small_native"),
    ("graph.replay_us_per_node", "us", "lower", "op_ms_min", "hpccg_large, lbm_*"),
    ("graph.off_ratio", "ratio", "higher", "op_ms_min", _GRAPHS),
    ("ir.tracer.trace_ms", "ms", "lower", "op_ms_min", "coldstart"),
    ("ir.tracer.nodes", "count", "lower", "op_ms_min", "coldstart"),
    ("ir.optimize.optimize_ms", "ms", "lower", "op_ms_min", "coldstart"),
    ("ir.optimize.nodes_after", "count", "lower", "op_ms_min", "coldstart"),
    ("ir.verify.verify_ms", "ms", "lower", "op_ms_min", "coldstart"),
    ("ir.verify.diagnostics", "count", "lower", "op_ms_min", "coldstart"),
    ("ir.codegen.lower_ms", "ms", "lower", "op_ms_min", "coldstart"),
    ("ir.codegen.source_bytes", "B", "lower", "op_ms_min", "coldstart"),
    ("ir.cgen.lower_ms", "ms", "lower", "op_ms_min", "coldstart"),
    ("ir.cgen.cc_invocations", "count", "lower", "op_ms_min", "coldstart"),
    ("ir.cgen.so_bytes", "B", "lower", "op_ms_min", "coldstart"),
    ("ir.cache.disk_misses", "count", "lower", "op_ms_min", "coldstart"),
    ("ir.cache.disk_stores", "count", "lower", "op_ms_min", "coldstart"),
    ("ir.cache.disk_bytes", "B", "lower", "op_ms_min", "coldstart"),
    ("ir.cache.ineligible", "count", "lower", "op_ms_min", "coldstart"),
    ("apps.first_op_s", "s", "lower", "op_ms_min", "coldstart"),
    ("ir.cache.warm_load_ms", "ms", "lower", "op_ms_min", "warmstart"),
    ("ir.cache.disk_hits", "count", "higher", "op_ms_min", "warmstart"),
    ("ir.cache.graph_hits", "count", "higher", "op_ms_min", "warmstart"),
    ("apps.import_s", "s", "lower", "setup_s", "coldstart, warmstart"),
    ("apps.op_ms_p90", "ms", "lower", "op_ms_min", "all (context, never gates)"),
    ("apps.samples", "count", "higher", "op_ms_min", "all (context, never gates)"),
    ("apps.op_ms_p50", "ms", "lower", "op_ms_min", "all (context, never gates)"),
    ("apps.ref_op_ms_min", "ms", "lower", "overhead_vs_ref", "all (context, never gates)"),
    ("apps.iters_to_tol", "count", "lower", "op_ms_min", "hpccg_*"),
    ("apps.max_rel_err", "ratio", "lower", "op_ms_min", "all (context, never gates)"),
    ("host.cores", "count", "higher", "op_ms_min", "all (context, never gates)"),
    ("host.llc_bytes", "B", "higher", "op_ms_min", "all (context, never gates)"),
    ("host.triad_gbps", "GB/s", "higher", "op_ms_min", "all (context, never gates)"),
    ("host.copy_gbps", "GB/s", "higher", "op_ms_min", "all (context, never gates)"),
]

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {row[0]: row[1] for row in PER_LAYER}


def benchmark_json() -> dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bd}
            for n, u, b, bd in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[k]
