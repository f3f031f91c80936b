"""Compare two sets of ``run`` documents, side A (the parent) against
side B (the change).

Per workload × end-to-end metric: each side's median and quartiles, the
ratio B/A with its base, and a verdict.  ``worse``/``better`` need the
medians to differ by more than the metric's bound; when the parent's own
inter-quartile spread exceeds the bound and the two sides' runs overlap,
the difference cannot be told from noise and the verdict is
``unresolved``, not ``same``.  Any failed op on side B is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from .metrics import END_TO_END


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1, med_a, q3 = _quartiles(a)
    med_b = _quartiles(b)[1]
    worsening = sign * (med_b - med_a) / abs(med_a)
    overlap = max(min(a), min(b)) <= min(max(a), max(b))
    if (q3 - q1) / abs(med_a) > bound and overlap:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def _load(paths: list[str]) -> dict:
    """workload -> metric -> values, plus workload -> ``failed_frac`` values."""
    cells: dict = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for name, entry in doc["workloads"].items():
            row = cells.setdefault(name, {"failed_frac": []})
            row["failed_frac"].append(entry["failed_frac"])
            for metric, cell in entry["end_to_end"].items():
                row.setdefault(metric, []).append(cell["value"])
    return cells


def compare(a_paths: list[str], b_paths: list[str]) -> list[dict]:
    side_a, side_b = _load(a_paths), _load(b_paths)
    rows = []
    for name in side_a:
        if name not in side_b:
            continue
        for metric, unit, better, bound in END_TO_END:
            a, b = side_a[name].get(metric), side_b[name].get(metric)
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            rows.append({
                "workload": name, "metric": metric, "unit": unit, "bound": bound,
                "a": qa, "b": qb, "ratio": qb[1] / qa[1],
                "verdict": verdict(a, b, better, bound),
            })
        fa, fb = max(side_a[name]["failed_frac"]), max(side_b[name]["failed_frac"])
        rows.append({
            "workload": name, "metric": "failed_frac", "unit": "fraction", "bound": 0.0,
            "a": (fa, fa, fa), "b": (fb, fb, fb), "ratio": float("nan"),
            "verdict": "worse" if fb > fa else "better" if fb < fa else "same",
        })
    return rows


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: python -m benchmarks.perf compare A.json... -- B.json...", file=sys.stderr)
        return 2
    cut = argv.index("--")
    rows = compare(argv[:cut], argv[cut + 1:])
    print(f"{'workload':<20s}{'metric':<17s}{'A q1/median/q3':>34s}{'B q1/median/q3':>34s}"
          f"{'B/A':>8s}  verdict (bound)")
    for r in rows:
        a = "/".join(f"{v:.4g}" for v in r["a"])
        b = "/".join(f"{v:.4g}" for v in r["b"])
        print(f"{r['workload']:<20s}{r['metric']:<17s}{a:>34s}{b:>34s}{r['ratio']:>8.3f}"
              f"  {r['verdict']} ({r['bound']:g}; base A median {r['a'][1]:.4g} {r['unit']})")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0
