"""Array-size sweep that justifies ``axpy_dot_large``'s n = 2^24.

    PYACC_COMPILE_CACHE=off PYTHONPATH=src python -m benchmarks.perf.sizing

For n = 2^20 … 2^26 doubles: the AXPY+DOT pair through the library on its
defaults and hand-written, as achieved GB/s of *computed* bytes (AXPY
reads two arrays and writes one, DOT reads two: 40 B per element per
pair).  Where the GB/s column stops falling, the arrays no longer fit
this VM's share of the last-level cache.  README.md records one run.
"""

from __future__ import annotations

import sys

from .host import llc_bytes
from .worker import _measure
from .workloads import AxpyDot


def main() -> int:
    print(f"host LLC (as reported, socket-wide): {llc_bytes()} B")
    print(f"{'n':>6s} {'MiB/array':>10s} {'op ms':>9s} {'op GB/s':>8s} {'ref ms':>9s} {'ref GB/s':>9s}")
    for exp in range(20, 27):
        n = 1 << exp
        w = AxpyDot(n, block=4)
        w.setup(0)
        w.op()
        w.ref()
        ops, refs = _measure(w, 2.0, None, {"attempted": 0, "failed": 0, "detail": ""})
        w.verify()
        w.teardown()
        op_ms, ref_ms = min(ops), min(refs)
        gbps = 40 * n / 1e6
        print(f"2^{exp:<4d} {8 * n / 2**20:>10.0f} {op_ms:>9.3f} {gbps / op_ms:>8.2f} "
              f"{ref_ms:>9.3f} {gbps / ref_ms:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
