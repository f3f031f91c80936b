"""Launch each workload in its own isolated subprocess and collect one
document in one schema.

Isolation: every ``PYACC_*`` variable is scrubbed, preferences point at
an empty file, both disk caches and ``HOME``/``TMPDIR`` live in a scratch
directory under ``benchmarks/perf/out/`` that is removed afterwards — so
no run reads what another wrote, ``~/.cache/pyacc`` is never touched, and
nothing is written outside the checkout.  Every process a workload
started has been waited for before its result is returned.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .host import ROOT, host_block
from .metrics import E2E_UNITS, LAYER_UNITS, RUN_SECONDS, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
SCHEMA = "benchmarks.perf/1"

#: The contract gives a run 180 s; leave room to report a hung worker.
_WORKER_TIMEOUT = 170
#: Seconds a finished worker's helpers get to exit on their own.
_REAP_GRACE = 5.0
_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


class WorkerError(RuntimeError):
    """The workload subprocess died without a result."""


def _isolated_env(scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYACC_")}
    prefs = scratch / "LocalPreferences.toml"
    prefs.write_text("")
    for sub in ("home", "tmp"):
        (scratch / sub).mkdir()
    env.update(
        PYACC_PREFERENCES=str(prefs),
        PYACC_COMPILE_CACHE=str(scratch / "compile"),
        PYACC_NATIVE_CACHE=str(scratch / "native"),
        HOME=str(scratch / "home"),
        TMPDIR=str(scratch / "tmp"),
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
    )
    return env


def _reap_descendants(pgid: int) -> None:
    """Wait until every process the worker left behind has ended.

    The worker joins what it starts, but helpers of helpers outlive it
    for a moment (``multiprocessing``'s resource tracker of each cluster
    worker exits only once its pipe closes).  As the sub-reaper they are
    re-parented here: give them ``_REAP_GRACE`` seconds to finish on their own,
    then kill the worker's process group, and collect every one."""
    deadline = time.monotonic() + _REAP_GRACE
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no descendant left
        if pid:
            continue
        if time.monotonic() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = float("inf")
        time.sleep(0.01)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One workload, one subprocess; returns the worker's document."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "repro").is_dir():
        raise WorkerError(f"the library under test is missing: no {ROOT / 'src' / 'repro'}")
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    # Orphaned descendants come back to this process instead of init, so
    # they can be waited for.
    ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    worker = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.perf.worker", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
         "--smoke", str(int(smoke)), "--out-dir", str(scratch)],
        cwd=ROOT, env=_isolated_env(scratch), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = worker.communicate(timeout=_WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        # SIGTERM, which multiprocessing's resource tracker ignores: it
        # outlives the rest just long enough to unlink their segments.
        os.killpg(worker.pid, signal.SIGTERM)
        worker.communicate()
        raise WorkerError(f"{name}: no result within {_WORKER_TIMEOUT} s") from exc
    finally:
        _reap_descendants(worker.pid)
        shutil.rmtree(scratch, ignore_errors=True)
    if worker.returncode != 0:
        raise WorkerError(f"{name}: worker exited {worker.returncode}\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def with_units(metrics: dict) -> dict:
    units = {**E2E_UNITS, **LAYER_UNITS}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_suite(names: list[str], seed: int, trace: bool, smoke: bool) -> dict:
    """The full document: a ``host`` block, then per workload the untraced
    end-to-end pass and, with ``trace``, the per-layer pass."""
    seconds = 0.4 if smoke else RUN_SECONDS
    doc = {"schema": SCHEMA, "host": host_block(), "seed": seed, "smoke": smoke,
           "run_seconds": seconds, "workloads": {}}
    for name in names:
        plain = run_workload(name, seed, seconds, False, smoke)
        entry = {
            "why": WORKLOADS[name],
            "correct": plain["correct"],
            "detail": plain["detail"],
            "ops_attempted": plain["attempted"],
            "ops_failed": plain["failed"],
            "failed_frac": plain["failed"] / plain["attempted"],
            "samples": plain["samples"],
            "end_to_end": with_units(plain["metrics"]),
        }
        if trace:
            traced = run_workload(name, seed, seconds, True, smoke)
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["detail"] = entry["detail"] or traced["detail"]
            entry["per_layer"] = with_units(traced["metrics"])
            entry["layer_table"] = traced.get("layer_table", [])
        doc["workloads"][name] = entry
    return doc
