"""CLI for regenerating the paper's figures and headline numbers.

Usage::

    python -m repro.bench fig8 [--full] [--chart]
    python -m repro.bench fig9 [--full] [--chart]
    python -m repro.bench fig11 [--full] [--chart]
    python -m repro.bench fig13 [--n N]
    python -m repro.bench headline
    python -m repro.bench all [--full]

Tables print the exact rows the paper plots; ``--chart`` adds a rough
ASCII log-log rendering.  ``--full`` uses paper-scale sweeps (slower).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..perfmodel import ascii_chart, format_table
from . import figures


def _print_panels(panels, chart: bool) -> None:
    for panel in panels:
        print(format_table(panel))
        if chart:
            print(ascii_chart(panel))
        print()


def _panel_to_dict(panel) -> dict:
    return {
        "title": panel.title,
        "series": [
            {"label": s.label, "sizes": s.sizes, "seconds": s.times}
            for s in panel.series
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the JACC paper's evaluation figures "
        "(modeled time on the four simulated architectures).",
    )
    parser.add_argument(
        "target",
        choices=[
            "fig8",
            "fig9",
            "fig11",
            "fig13",
            "headline",
            "stream",
            "roofline",
            "all",
        ],
        help="which paper artifact to regenerate (stream/roofline: "
        "analysis tables beyond the paper)",
    )
    parser.add_argument(
        "--full", action="store_true", help="paper-scale sweep sizes (slow)"
    )
    parser.add_argument(
        "--chart", action="store_true", help="also print ASCII log-log charts"
    )
    parser.add_argument(
        "--n", type=int, default=None, help="CG system size for fig13"
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the regenerated data as JSON (for plotting)",
    )
    parser.add_argument(
        "--arch",
        metavar="KEYS",
        default=None,
        help="comma-separated architecture subset for figure sweeps, "
        "e.g. --arch rome,a100",
    )
    args = parser.parse_args(argv)

    sizes_1d = tuple(2**k for k in range(13, 27, 2)) if args.full else None
    sizes_2d = tuple(2**k for k in range(6, 13)) if args.full else None
    sizes_lbm = (128, 256, 512, 1024, 2048) if args.full else None
    arch_keys = args.arch.split(",") if args.arch else None

    all_panels = []
    headline = None
    if args.target in ("fig8", "all"):
        panels = figures.figure8(sizes_1d, arch_keys=arch_keys)
        all_panels += panels
        _print_panels(panels, args.chart)
    if args.target in ("fig9", "all"):
        panels = figures.figure9(sizes_2d, arch_keys=arch_keys)
        all_panels += panels
        _print_panels(panels, args.chart)
    if args.target in ("fig11", "all"):
        panels = figures.figure11(sizes_lbm, arch_keys=arch_keys)
        all_panels += panels
        _print_panels(panels, args.chart)
    if args.target in ("fig13", "all"):
        panel = figures.figure13(args.n, arch_keys=arch_keys)
        all_panels.append(panel)
        _print_panels([panel], False)
    if args.target == "stream":
        from ..apps.stream import run_stream
        from ..core.context import use_backend
        from .harness import ARCHES

        n = args.n or (1 << 22 if not args.full else 1 << 26)
        print(f"== STREAM (modeled, n={n} doubles) ==")
        for arch in ARCHES:
            with use_backend(arch.make_jacc_backend()):
                res = run_stream(n)
            print(f"[{arch.display}]")
            print(str(res))
    if args.target == "roofline":
        from ..perfmodel.roofline import paper_kernel_placements

        print("== roofline placement of the paper's kernels ==")
        for point in paper_kernel_placements():
            print(str(point))
    if args.target in ("headline", "all"):
        print("== §V headline ratios (paper vs model) ==")
        ok = True
        headline = figures.headline_speedups()
        for r in headline:
            print(r)
            ok = ok and r.within_2x
        print("all within 2x band" if ok else "SOME RATIOS OUTSIDE 2x BAND")

    if args.json:
        from .. import obs

        doc = {"panels": [_panel_to_dict(p) for p in all_panels]}
        if headline is not None:
            doc["headline"] = [
                {"name": r.name, "paper": r.paper_value, "model": r.measured}
                for r in headline
            ]
        # The process-wide counter blocks, so the perf trajectory JSON
        # shows a kernel that starts warning (``diagnostics``), scratch
        # buffer churn (``arena``), fault/retry/failover activity — zero
        # on a healthy run — (``faults``), capture/replay/fusion
        # (``graph``) and shard/staging/recovery activity (``cluster``).
        doc["diagnostics"] = obs.stats("verify")
        for name in ("arena", "faults", "graph", "cluster"):
            doc[name] = obs.stats(name)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
