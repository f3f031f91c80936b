"""Where a cold process's first results go: the cold-start sweep
(``benchmarks/perf/sweep.py``'s ``run_apps``, every app once at toy
size) on empty cache directories, timed through wrappers around the
library's own functions — nothing in the library changes.

Prints two tables:

* the compile stack by stage — trace, verify, optimize, codegen lower,
  cgen lower, graph instantiate, validate and the disk cache's keys,
  reads and writes — each *exclusive* of the stages it calls, plus the
  ``cc`` waits and the rest of the op;
* the per-unit ``cc`` timeline: when each unit was submitted, when the
  worker ran ``cc`` on it, its C size and whether it was deferred, the
  runtime unit, or waited for — ms from the sweep's first launch.

Usage (a fresh interpreter; the cache directories are temporary)::

    PYTHONPATH=src python scripts/cold_profile.py --seed 401
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=401)
    args = ap.parse_args(argv)
    tmp = tempfile.mkdtemp(prefix="pyacc-cold-profile-")
    os.environ["PYACC_NATIVE_CACHE"] = os.path.join(tmp, "native")
    os.environ["PYACC_COMPILE_CACHE"] = os.path.join(tmp, "compile")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

    import repro
    from benchmarks.perf import sweep
    from repro.graph.capture import LaunchGraph
    from repro.ir import cgen, compile as compile_mod, compilecache, fuse, nativecache, verify

    clock = time.perf_counter
    stages: dict = {}
    stack: list = []

    def timed(stage, fn):
        def wrapper(*a, **kw):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*a, **kw)
            finally:
                spent = clock() - t0
                inner = stack.pop()
                stages[stage] = stages.get(stage, 0.0) + spent - inner
                if stack:
                    stack[-1] += spent

        return wrapper

    wrapped_stages = (
        ((compile_mod,), "trace_kernel", "trace"),
        ((verify,), "verify_trace", "verify"),
        ((compile_mod, fuse), "optimize_trace", "optimize"),
        ((compile_mod, fuse), "lower_trace", "codegen lower"),
        ((compile_mod, cgen), "try_lower_native", "cgen lower"),
        ((LaunchGraph,), "instantiate", "graph instantiate"),
        ((LaunchGraph,), "_validate", "validate"),
        ((compilecache,), "kernel_keys", "disk cache keys"),
        ((compilecache,), "_read", "disk cache reads"),
        ((compilecache,), "_publish", "disk cache writes"),
        ((nativecache, cgen), "wait_compiles", "cc wait"),
    )
    for owners, name, stage in wrapped_stages:
        wrapped = timed(stage, getattr(owners[0], name))
        for owner in owners:
            setattr(owner, name, wrapped)

    units: dict = {}
    submit, build = nativecache._submit, nativecache._build

    def timed_submit(key, source, symbol, cc, cdir, deferred):
        unit = submit(key, source, symbol, cc, cdir, deferred)
        units.setdefault(id(unit), {"unit": unit, "submitted": clock()})
        return unit

    def timed_build(unit):
        row = units.setdefault(id(unit), {"unit": unit, "submitted": clock()})
        row["start"] = clock()
        build(unit)
        row["end"] = clock()

    nativecache._submit, nativecache._build = timed_submit, timed_build

    repro.set_executor_mode("native")
    inp = sweep.make_inputs(args.seed)
    t0 = clock()
    sweep.run_apps(inp)
    op = clock() - t0
    native, at_op = repro.cache_info()["native"], dict(stages)
    nativecache.wait_compiles()
    shutil.rmtree(tmp, ignore_errors=True)

    ms = lambda t: (t - t0) * 1e3  # noqa: E731
    print(f"seed {args.seed}: first results after {op * 1e3:.1f} ms; "
          f"cc_wait_ms {native['cc_wait_ms']}, pending {native['pending']}, "
          f"declined {native['declined']}")
    print("\n| stage | ms | share of op |\n|---|---|---|")
    for _, _, stage in wrapped_stages:
        s = at_op.get(stage, 0.0)
        print(f"| {stage} | {s * 1e3:.1f} | {s / op:.0%} |")
    rest = op - sum(at_op.values())
    print(f"| rest (staging, launches, codegen runs) | {rest * 1e3:.1f} | {rest / op:.0%} |")
    print("\n| # | submitted | `cc` start | `cc` end | `cc` | C bytes | path |")
    print("|---|---|---|---|---|---|---|")
    rows = sorted(units.values(), key=lambda r: r.get("start", float("inf")))
    for k, row in enumerate(rows, 1):
        unit = row["unit"]
        if unit.source == cgen._RUNTIME_SOURCE:
            path = "runtime unit"
        else:
            path = "deferred" if unit.deferred else "waited for"
        if "start" not in row:
            print(f"| {k} | {ms(row['submitted']):.0f} | – | – | – | {len(unit.source):,} | {path}, a hit |")
            continue
        print(
            f"| {k} | {ms(row['submitted']):.0f} | {ms(row['start']):.0f} | {ms(row['end']):.0f} "
            f"| {(row['end'] - row['start']) * 1e3:.0f} | {len(unit.source):,} | {path} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
