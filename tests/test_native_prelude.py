"""The header-free prelude (``repro.ir.cgen._PRELUDE``) changes no
instruction.

Every C unit the native rung emits starts with the prelude instead of
``#include <stdint.h>``, ``<math.h>`` and ``<string.h>``.  Each unit
below is compiled to assembly twice under the rung's own compiler and
flags (``PYACC_CC``, so CI's baseline-ISA wrapper applies): as emitted,
and with the prelude swapped back for those three lines.  The two
listings must be identical.  The units cover AXPY and DOT, LBM under
``ivdep``, the HPCCG ELL matvec, every libm call the rung emits on
float64 and float32, the constants that lower to ``NAN``, ``INFINITY``
and ``INT64_C``, and the runtime unit (fold and loop driver).
"""

import subprocess

import numpy as np
import pytest

from repro.apps import blas, hpccg, lbm
from repro.ir import cgen, nativecache
from repro.ir.cgen import _NativeLowering
from repro.ir.compile import compile_kernel
from repro.math import ceil, floor, sqrt, where


HEADERS = "#include <stdint.h>\n#include <math.h>\n#include <string.h>\n"


def _sqrt(i, y, x):
    y[i] = sqrt(x[i])


def _floor(i, y, x):
    y[i] = floor(x[i])


def _ceil(i, y, x):
    y[i] = ceil(x[i])


def _fabs(i, y, x):
    y[i] = abs(x[i])


def _constants(i, y, x, k):
    y[i] = where(x[i] > 0.5, float("nan"), -float("inf")) + x[i] * 3 + k[i] * 7


def _unit(fn, ndim, args, reduce=False):
    ck = compile_kernel(fn, ndim, args, reduce=reduce, executor="codegen")
    return _NativeLowering(ck.trace, args).lower()["source"]


LIBM = ("sqrt", "floor", "ceil", "fabs")
NAMES = ["axpy", "dot", "lbm", "matvec_ell", "constants", "runtime"] + [
    f"{fn}_{dt}" for fn in LIBM for dt in ("float64", "float32")
]


@pytest.fixture(scope="module")
def units():
    n, rng = 8, np.random.default_rng(0)
    x, y = rng.random(n), rng.random(n)
    ell, _, _ = hpccg.build_27pt_problem(2, 2, 2)
    units = {
        "axpy": _unit(blas.axpy_kernel_1d, 1, [0.5, x, y]),
        "dot": _unit(blas.dot_kernel_1d, 1, [x, y], reduce=True),
        "lbm": _unit(
            lbm.lbm_kernel,
            2,
            [np.zeros(9 * n * n), rng.random(9 * n * n) + 0.5,
             rng.random(9 * n * n), 0.8, lbm.WEIGHTS, lbm.CX, lbm.CY, n],
        ),
        "matvec_ell": _unit(
            hpccg.matvec_ell_kernel, 1, [ell.cols, ell.vals, rng.random(8), np.zeros(8)]
        ),
        "constants": _unit(_constants, 1, [np.zeros(n), x, np.arange(n)]),
        "runtime": cgen._RUNTIME_SOURCE,
    }
    for fn in (_sqrt, _floor, _ceil, _fabs):
        for dt in (np.float64, np.float32):
            units[f"{fn.__name__[1:]}_{np.dtype(dt)}"] = _unit(
                fn, 1, [np.zeros(n, dt), x.astype(dt)]
            )
    assert sorted(units) == sorted(NAMES)
    return units


def test_the_units_exercise_what_the_prelude_declares(units):
    bodies = {name: src[len(cgen._PRELUDE):] for name, src in units.items()}
    calls = "".join(bodies.values())
    assert "#pragma GCC ivdep" in bodies["lbm"]
    for name in ("NAN", "INFINITY", "INT64_C("):
        assert name in bodies["constants"]
    for fn in LIBM:
        assert f"{fn}(" in calls and f"{fn}f(" in calls
    assert "memcpy(" in bodies["runtime"]


def _asm(cc, source, tmp_path, name):
    c_path = tmp_path / "unit.c"  # one name: the listing embeds it
    c_path.write_text(source)
    out = tmp_path / name
    cmd = [cc, *nativecache._flags(), "-S", str(c_path), "-o", str(out)]
    subprocess.run(cmd, check=True, capture_output=True, text=True)
    return out.read_text()


@pytest.mark.skipif(nativecache.resolve_cc() is None, reason="no C compiler")
@pytest.mark.parametrize("name", NAMES)
def test_the_prelude_changes_no_instruction(units, name, tmp_path):
    source = units[name]
    assert source.startswith(cgen._PRELUDE)
    cc = nativecache.resolve_cc()
    emitted = _asm(cc, source, tmp_path, "emitted.s")
    headers = _asm(cc, source.replace(cgen._PRELUDE, HEADERS, 1), tmp_path, "headers.s")
    assert emitted == headers
