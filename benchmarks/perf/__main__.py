"""``python -m benchmarks.perf run|compare`` — see README.md."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import compare
from .metrics import WORKLOADS
from .runner import run_suite


def _print(doc: dict) -> None:
    host = doc["host"]
    print(f"host: {host['cores']} cores, LLC {host['llc_bytes']} B, python {host['python']}, "
          f"numpy {host['numpy']}, {host['cc']}, git {host['git_sha'][:12]}, src {host['src_lines']} lines")
    for name, entry in doc["workloads"].items():
        verdict = "ok" if entry["correct"] else f"FAILED: {entry['detail']}"
        print(f"\n{name}  [{verdict}; {entry['ops_attempted']} ops attempted, "
              f"{entry['ops_failed']} failed, failed_frac {entry['failed_frac']:.3g}, "
              f"{entry['samples']} timed samples]")
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry.get(section, {}).items():
                print(f"  {metric:<40s} {cell['value']:>16.6g} {cell['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and write one JSON document")
    run.add_argument("--workload", action="append", choices=list(WORKLOADS),
                     help="repeatable; default: all")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace", action="store_true", help="add the per-layer pass")
    run.add_argument("--smoke", action="store_true", help="tiny sizes, seconds not minutes")
    run.add_argument("--out", type=Path, required=True)
    cmp_ = sub.add_parser("compare", help="compare two sets of run documents")
    cmp_.add_argument("files", nargs="+", help="A.json... -- B.json...")
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        # argparse swallows a bare ``--``; it is this command's separator.
        return compare.main(argv[1:])
    args = ap.parse_args(argv)
    doc = run_suite(args.workload or list(WORKLOADS), args.seed, args.trace, args.smoke)
    args.out.write_text(json.dumps(doc, indent=1))
    _print(doc)
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
