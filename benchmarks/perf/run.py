"""The driver's entry point: one workload, one run, one JSON line.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Exits non-zero, printing no
result, when the library under test is absent or the workload's
subprocess dies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf.metrics import RUN_SECONDS, WORKLOADS  # noqa: E402
from benchmarks.perf.runner import WorkerError, run_workload, with_units  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 2
    if doc["detail"]:
        print(doc["detail"], file=sys.stderr)
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": with_units(doc["metrics"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
