"""The ``coldstart`` and ``warmstart`` workloads: one fresh interpreter
per operation (see :mod:`benchmarks.perf.sweep` for what it runs).

An *op* is the child's time from end-of-import to its last first-result;
*set-up* is what precedes it — interpreter start plus ``import repro`` and
``repro.apps`` — so the two add up to what a user waits for.  Cold
children get empty cache directories; warm children share one directory
that an untimed cold child populated first.  A warm child that compiles
anything, and any child whose results differ from the reference or from
the first child's checksum, is a failed op.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from .worker import end_to_end, layer_metrics

_clock = time.perf_counter


def _spawn(seed: int, cache: Path, trace: bool, smoke: bool) -> dict:
    env = dict(os.environ)
    env["PYACC_COMPILE_CACHE"] = str(cache / "compile")
    env["PYACC_NATIVE_CACHE"] = str(cache / "native")
    spawned_ns = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.sweep", "--seed", str(seed),
         "--trace", str(int(trace)), "--smoke", str(int(smoke))],
        env=env, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"sweep child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = (doc["imported_ns"] - spawned_ns) / 1e9
    doc["import_s"] = (doc["imported_ns"] - doc["entered_ns"]) / 1e9
    return doc


class _InProcessSweep:
    """The sweep run inside this process, for the probes that need the
    kernels in hand (the trace pass only)."""

    executor = "native"

    def __init__(self, seed: int, smoke: bool):
        from . import sweep

        self._sweep, self._inputs = sweep, sweep.make_inputs(seed, smoke)

    def probe_op(self) -> None:
        self._sweep.run_apps(self._inputs)

    def graph_body(self):
        from repro.apps import cg

        state = cg.make_paper_cg_state(self._inputs["n"])
        return lambda: cg.cg_iteration_paper(state)


def run_sweeps(name: str, seed: int, seconds: float, trace: bool, smoke: bool, out_dir: Path) -> dict:
    warm = name == "warmstart"
    state = {"attempted": 0, "failed": 0, "detail": "", "digest": None}
    if warm:
        state["digest"] = _spawn(seed, out_dir / "warm", False, smoke)["digest"]

    def measure(budget: float, traced: bool) -> list[dict]:
        docs, deadline = [], _clock() + budget
        while not docs or _clock() < deadline:
            state["attempted"] += 1
            cache = out_dir / ("warm" if warm else f"cold-{state['attempted']}")
            doc = _spawn(seed, cache, traced, smoke)
            state["digest"] = state["digest"] or doc["digest"]
            problem = (
                "result differs from the reference" if not doc["ok"]
                else "checksum differs from the first child's" if doc["digest"] != state["digest"]
                else "warm child compiled" if warm and (doc["compiles"] or doc["cc_compiled"])
                else ""
            )
            if problem:
                state["failed"] += 1
                state["detail"] = f"{problem} (max rel err {doc['max_rel_err']:.3e})"
            docs.append(doc)
        return docs

    plain = measure(seconds / 8, False) if trace else []
    docs = measure(seconds / 4 if trace else seconds, trace)
    result = {
        "workload": name, "seed": seed, "correct": not state["failed"],
        "attempted": state["attempted"], "failed": state["failed"],
        "detail": state["detail"], "samples": len(docs), "metrics": {},
    }
    if state["failed"]:
        return result
    ops = [d["first_results_s"] * 1e3 for d in docs]
    refs = [d["ref_s"] * 1e3 for d in docs]
    if not trace:
        result["metrics"] = end_to_end([d["setup_s"] for d in docs], ops, refs)
        return result

    import repro

    from .tracer import Tracer

    tracer = Tracer()
    for pid, doc in enumerate(docs, start=1):
        tracer.adopt([tuple(s) for s in doc["spans"]], pid)
    everyone = plain + docs
    counted = {k: sum(d["counters"][k] for d in everyone) for k in docs[0]["counters"]}
    # The probes need the kernels in hand: one in-process sweep against
    # this process's own (empty) cache directories collects them.
    target = _InProcessSweep(seed, smoke)
    repro.set_executor_mode("native")
    collector = Tracer()
    detach = collector.attach(repro.current_context())
    t0 = _clock()
    target.probe_op()
    first_op_s = _clock() - t0
    detach()
    apps = {
        "apps.first_op_s": first_op_s,
        "apps.import_s": median([d["import_s"] for d in everyone]),
        "apps.max_rel_err": max(d["max_rel_err"] for d in everyone),
    }
    # A child is one op, and its first: its counters are both views.
    first_op = {k: v / len(everyone) for k, v in counted.items()}
    result["metrics"], result["layer_table"] = layer_metrics(
        name, target, tracer, list(collector.kernels.values()), first_op, counted, len(everyone),
        [d["first_results_s"] * 1e3 for d in plain], ops, refs, apps, smoke, out_dir,
    )
    return result
