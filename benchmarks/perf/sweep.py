"""The cold/warm-start child: every ``repro.apps`` app once, at toy size,
in a fresh interpreter.

Kernels cost nothing at these sizes, so the time from end-of-import to
the last first-result is the compile stack's: tracer, verifier, optimizer,
code generators and the C compiler when the cache directories are empty,
the two disk caches when they are populated.  The same sweep is then run
hand-written (NumPy/SciPy) in the same process — the denominator of
``overhead_vs_ref`` and the oracle for the result check.

LBM3D is left out: its one kernel spends ~5 s in ``cc -O2``, which would
leave a run room for a single cold sample.
"""

from __future__ import annotations

import time

_T_ENTER = time.perf_counter_ns()
import repro  # noqa: E402
import repro.apps  # noqa: E402,F401

_T_IMPORTED = time.perf_counter_ns()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
from repro.apps import blas, cg, heat3d, hpccg, lbm, minife, stream  # noqa: E402

from . import reference  # noqa: E402


def make_inputs(seed: int, smoke: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    n = 256
    lower, diag, upper, b = cg.tridiagonal_system(n)
    return {
        "smoke": smoke,
        "n": n,
        "x": rng.random(n), "y": rng.random(n),
        "x2": rng.random((16, 16)), "y2": rng.random((16, 16)),
        "tri": (lower, diag, upper, b * rng.uniform(0.5, 2.0)),
        "rhs_scale": float(rng.uniform(0.5, 2.0)),
        "lid": 0.05 * (1.0 + 0.1 * float(rng.uniform(-1, 1))),
        "hot": float(rng.uniform(0.5, 2.0)),
        "grad": rng.uniform(-1, 1, size=3),
        "stream": (rng.random(n), rng.random(n), rng.random(n)),
    }


# Each app twice: through the portable constructs, and hand-written.
# Both return the app's first results, compared element by element.


def _blas(inp):
    out = []
    for dims, xk, yk in ((inp["n"], "x", "y"), ((16, 16), "x2", "y2")):
        x, y = repro.array(inp[xk]), repro.array(inp[yk])
        blas.axpy(dims, 0.5, x, y)
        out += [repro.to_host(x), blas.dot(dims, x, y)]
    return out


def _blas_ref(inp):
    out = []
    for xk, yk in (("x", "y"), ("x2", "y2")):
        x = inp[xk].copy()
        out += [x, reference.axpy_dot(0.5, x, inp[yk], np.empty_like(x))]
    return out


def _cg(inp):
    return [cg.cg_solve(*inp["tri"], max_iter=3).x]


def _cg_ref(inp):
    lower, diag, upper, b = inp["tri"]
    return [reference.cg(reference.tridiag_csr(lower, diag, upper), b, 1e-10, 3)[0]]


def _lbm(inp):
    sim = lbm.LBM(32, lid_velocity=inp["lid"])
    sim.step(2)
    return [sim.distribution()]


def _lbm_ref(inp):
    sim = reference.LbmRef(32, 0.8, inp["lid"])
    sim.step()
    sim.step()
    return [sim.f]


def _hpccg(inp):
    a, b, _ = hpccg.build_27pt_problem(6, 6, 6)
    return [hpccg.hpccg_solve(a, b * inp["rhs_scale"], max_iter=3).x]


def _hpccg_ref(inp):
    a = reference.stencil27(6)
    return [reference.cg(a, (a @ np.ones(6**3)) * inp["rhs_scale"], 1e-10, 3)[0]]


def _heat(inp):
    heat = heat3d.Heat3D(8, hot_face_value=inp["hot"])
    heat.step(2)
    return [heat.field()]


def _heat_ref(inp):
    u = np.zeros((8, 8, 8))
    u[0] = inp["hot"]
    return [reference.heat3d_step(reference.heat3d_step(u, 1.0 / 6.0), 1.0 / 6.0)]


_MESH = minife.BrickMesh(3, 3, 3)


def _minife(inp):
    return [minife.minife_solve(_MESH, lambda c: c @ inp["grad"])[0].x]


def _minife_ref(inp):
    # A linear field is in the trilinear FE space, so the converged
    # discrete solution is the boundary data's linear extension (the
    # node coordinates are mesh geometry, not a solver result).
    return [_MESH.node_coords() @ inp["grad"]]


def _stream(inp):
    n = inp["n"]
    sa, sb, sc = (repro.array(v) for v in inp["stream"])
    repro.parallel_for(n, stream.copy_kernel, sa, sc)
    repro.parallel_for(n, stream.scale_kernel, 3.0, sb, sc)
    repro.parallel_for(n, stream.add_kernel, sa, sb, sc)
    repro.parallel_for(n, stream.triad_kernel, 3.0, sa, sb, sc)
    return [repro.to_host(sa)]


def _stream_ref(inp):
    return [reference.stream(*inp["stream"], 3.0)[0]]


#: (portable, hand-written, rel tolerance).  MiniFE is compared with an
#: analytic solution it reaches to its 1e-10 residual tolerance; the rest
#: are operation-for-operation twins.
APPS = [
    (_blas, _blas_ref, 1e-10),
    (_cg, _cg_ref, 1e-10),
    (_lbm, _lbm_ref, 1e-10),
    (_hpccg, _hpccg_ref, 1e-10),
    (_heat, _heat_ref, 1e-10),
    (_minife, _minife_ref, 1e-8),
    (_stream, _stream_ref, 1e-10),
]


def _apps(inp):
    return APPS[:3] if inp["smoke"] else APPS  # smoke: 7 kernels, not 15


def run_apps(inp: dict) -> list:
    """The portable sweep; one result list per app."""
    return [portable(inp) for portable, _, _ in _apps(inp)]


def run_reference(inp: dict) -> list:
    return [ref(inp) for _, ref, _ in _apps(inp)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", type=int, default=0)
    args = ap.parse_args(argv)

    repro.set_executor_mode("native")
    inp = make_inputs(args.seed, bool(args.smoke))
    tracer = None
    if args.trace:
        from .tracer import Tracer

        tracer = Tracer()
        tracer.attach(repro.current_context())
        tracer.begin_op(0)
    t0 = time.perf_counter()
    got = run_apps(inp)
    first_results_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    # The hand-written sweep is milliseconds long: take the fastest of
    # twenty so a first-call stall does not set the denominator.
    ref_s = float("inf")
    for _ in range(20):
        t0 = time.perf_counter()
        want = run_reference(inp)
        ref_s = min(ref_s, time.perf_counter() - t0)

    errors = [
        max(reference.rel_err(g, w) for g, w in zip(app_got, app_want))
        for app_got, app_want in zip(got, want)
    ]
    digest = hashlib.sha256(b"".join(
        np.ascontiguousarray(g, dtype=np.float64).tobytes() for app_got in got for g in app_got
    )).hexdigest()
    from .probes import counters

    info = repro.cache_info()
    print(json.dumps({
        "entered_ns": _T_ENTER,
        "imported_ns": _T_IMPORTED,
        "first_results_s": first_results_s,
        "ref_s": ref_s,
        "max_rel_err": max(errors),
        "ok": all(e <= tol for e, (_, _, tol) in zip(errors, _apps(inp))),
        "digest": digest,
        "counters": counters(),
        "compiles": info["disk"]["compiles"],
        "cc_compiled": info["native"]["compiled"],
        "spans": tracer.spans if tracer is not None else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
