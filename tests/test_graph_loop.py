"""The loop unit (:mod:`repro.graph.loop`) against the per-region replay
and ``PYACC_GRAPH=off``, bit for bit, on seeded random SPD systems.

After the first CG iteration has captured its three regions, the loop
driver runs the remaining iterations in one C call.  Each seed here
builds one diagonally dominant symmetric ELL system — random width up
to 27, ``n`` from 2 up to three arithmetic tiles (so the dots fold 1–3
tile partials), random ``tol`` and ``max_iter``, including solves that
stop at ``max_iter`` and solves that converge on iteration 1 or 2 — and
solves it three ways:

* ``loop`` — the defaults: the driver runs iterations 2…;
* ``regions`` — a launch hook attached, which declines the driver, so
  every iteration replays region by region;
* ``off`` — launch graphs off: plain staged dispatch.

``x``, ``residual_norms``, ``iterations`` and ``converged`` must agree
bitwise, and the loop must move every counter the per-region replay
moves by the same amounts — the modeled clock to the bit.  The tier-1
slice is :data:`SEEDS`; a longer sweep::

    PYTHONPATH=src python -m tests.test_graph_loop --seeds 200
"""

import argparse
import os
import sys

import numpy as np
import pytest

import repro
from repro import faults
from repro.apps.hpccg import ELLMatrix, build_27pt_problem, hpccg_solve
from repro.backends.serial import SerialBackend
from repro.backends.threads import ThreadsBackend
from repro.checkpoint import SolverCheckpoint
from repro.graph import graph_stats
from repro.ir import writes
from repro.ir.compile import clear_cache, executor_mode, set_executor_mode
from repro.ir.nativecache import reset_state, resolve_cc
from repro.ir.vectorizer import TILE_LANES

#: The tier-1 slice: fixed seeds, a few seconds with warm kernels.
SEEDS = range(12)

#: Accounting fields the loop must move exactly as the replay does.
_ACCOUNTING = ("n_for", "n_reduce", "n_kernel_launches", "sim_time")


def driver_expected() -> bool:
    """Whether the loop driver may run here at all: the native rung with
    a compiler, and no fault injection armed anywhere."""
    return (
        resolve_cc() is not None
        and executor_mode() == "native"
        and not faults.injection_possible()
    )


@pytest.fixture(autouse=True)
def _closed_gate():
    # A plan installed by an earlier test leaves the injection gate open
    # for the rest of the process; the driver declines while it is open.
    if not os.environ.get("PYACC_FAULTS"):
        faults.refresh_gate()
    yield
    repro.set_graph_mode(None)


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


def spd_system(seed: int):
    """``(A, b, tol, max_iter, make_backend)`` for ``seed``: a symmetric,
    strictly diagonally dominant ELL operator with positive diagonal,
    and the backend to solve it on."""
    rng = np.random.default_rng(seed)
    if seed % 4 == 3:  # 1-3 tiles: a narrow band keeps the operator small
        n = int(rng.integers(TILE_LANES - 4096, 3 * TILE_LANES + 1))
        half = int(rng.integers(0, 3))
    else:
        n = int(rng.integers(2, 3000))
        half = int(rng.integers(0, 14))
    offsets = rng.choice(np.arange(1, n), size=min(half, n - 1), replace=False)
    width = 1 + 2 * len(offsets)
    cols = np.tile(np.arange(n, dtype=np.int32)[:, None], (1, width))
    vals = np.zeros((n, width))
    for k, d in enumerate(offsets):
        rows = np.arange(n - d)
        w = rng.uniform(-1.0, 1.0, n - d)
        cols[rows, 1 + 2 * k], vals[rows, 1 + 2 * k] = rows + d, w
        cols[rows + d, 2 + 2 * k], vals[rows + d, 2 + 2 * k] = rows, w
    vals[:, 0] = np.abs(vals).sum(axis=1) + rng.uniform(0.05, 2.0, n)
    b = rng.standard_normal(n)
    kind = seed % 5
    if kind == 0:  # stops at max_iter
        tol, max_iter = 1e-15, int(rng.integers(2, 9))
    elif kind == 1:  # converges on iteration 1 or 2
        tol, max_iter = float(rng.uniform(0.6, 0.95)), None
    else:
        tol = float(10.0 ** rng.uniform(-12, -2))
        max_iter = int(rng.integers(1, 60)) if rng.random() < 0.7 else None
    if seed % 2:
        make_backend = SerialBackend
    else:  # inline at every size, with a modeled clock
        def make_backend():
            return ThreadsBackend(2, min_parallel_size=1 << 20)
    return ELLMatrix(cols=cols, vals=vals), b, tol, max_iter, make_backend


def _bits(result) -> tuple:
    return (
        result.x.tobytes(),
        [float(v).hex() for v in result.residual_norms],
        result.iterations,
        result.converged,
    )


def solve(a, b, mode: str, make_backend, **kw) -> tuple:
    """Solve on a fresh backend: ``(bits, counters, loop counters)``."""
    backend = make_backend()
    graph0, clock0 = graph_stats(), writes._clock
    repro.set_graph_mode("off" if mode == "off" else "on")
    with repro.use_backend(backend) as ctx:
        undo = ctx.on_launch(lambda plan: None) if mode == "regions" else None
        try:
            result = hpccg_solve(a, b, **kw)
        finally:
            if undo is not None:
                undo()
    graph = graph_stats()
    acc = backend.accounting.snapshot()
    counters = {k: acc[k] for k in _ACCOUNTING}
    counters["sim_time"] = float(counters["sim_time"]).hex()
    counters["writes"] = writes._clock - clock0
    for k in ("captures", "replays", "nodes_replayed"):
        counters[k] = graph[k] - graph0[k]
    return _bits(result), counters, _loop_moved(graph0["loop"], graph["loop"])


def _loop_moved(before: dict, after: dict) -> dict:
    """What moved in ``graph_stats()["loop"]`` between two snapshots."""
    return {
        "calls": after["calls"] - before["calls"],
        "iterations": after["iterations"] - before["iterations"],
        "declined": {
            r: c - before["declined"].get(r, 0)
            for r, c in after["declined"].items()
            if c != before["declined"].get(r, 0)
        },
    }


def check_seed(seed: int) -> tuple:
    """Solve ``seed``'s system three ways and hold them to each other;
    returns ``(iterations, converged, max_iter)``."""
    a, b, tol, max_iter, backend = spd_system(seed)
    kw = dict(tol=tol, max_iter=max_iter)
    loop_bits, loop_counters, loop_stats = solve(a, b, "loop", backend, **kw)
    reg_bits, reg_counters, reg_stats = solve(a, b, "regions", backend, **kw)
    off_bits, _, off_stats = solve(a, b, "off", backend, **kw)
    assert loop_bits == reg_bits == off_bits, seed
    iterations = loop_bits[2]
    assert off_stats == {"calls": 0, "iterations": 0, "declined": {}}
    if driver_expected():
        driven = iterations >= 2
        assert loop_stats == {
            "calls": int(driven),
            "iterations": iterations - 1 if driven else 0,
            "declined": {},
        }, seed
        assert reg_stats == {
            "calls": 0,
            "iterations": 0,
            "declined": {"hooks": 1} if driven else {},
        }, seed
        assert loop_counters == reg_counters, seed
    return iterations, loop_bits[3], max_iter


@pytest.mark.parametrize("seed", SEEDS)
def test_loop_matches_regions_and_graph_off(seed):
    check_seed(seed)


def test_the_slice_covers_every_stopping_case():
    """The slice holds a solve that stops at ``max_iter``, one that
    converges on iteration 1 or 2, and a longer converged one — and the
    tile straddle is in it."""
    cases = set()
    for seed in SEEDS:
        a, b, tol, max_iter, _ = spd_system(seed)
        result = hpccg_solve(a, b, tol=tol, max_iter=max_iter)
        if not result.converged and result.iterations == max_iter:
            cases.add("max_iter")
        elif result.converged and result.iterations <= 2:
            cases.add("early")
        elif result.converged:
            cases.add("converged")
        if a.n > TILE_LANES:
            cases.add("tiles")
    assert cases == {"max_iter", "early", "converged", "tiles"}


# ---------------------------------------------------------------------------
# The fences: each keeps the per-region replay, bit for bit, counted
# ---------------------------------------------------------------------------


@pytest.fixture
def problem():
    """A 4³ HPCCG system, solved on ``threads`` (whatever the default
    backend) so that the fence under test is the first one met."""
    a, b, _ = build_27pt_problem(4, 4, 4)
    with repro.use_backend("threads"):
        yield a, b


def _off_bits(a, b, **kw):
    repro.set_graph_mode("off")
    try:
        return _bits(hpccg_solve(a, b, **kw))
    finally:
        repro.set_graph_mode(None)


def _declines(run) -> tuple:
    """``run()``'s result bits, and the loop calls and declines it made."""
    before = graph_stats()["loop"]
    repro.set_graph_mode("on")
    bits = _bits(run())
    moved = _loop_moved(before, graph_stats()["loop"])
    return bits, moved["calls"], moved["declined"]


def _assert_fence(problem, reason, **kw):
    a, b = problem
    bits, calls, declined = _declines(lambda: hpccg_solve(a, b, **kw))
    assert bits == _off_bits(a, b, **kw)
    assert calls == 0
    if not faults.injection_possible():
        assert declined == {reason: 1}


def test_hooks_decline(problem):
    ctx = repro.current_context()
    undo = ctx.on_complete(lambda plan: None)
    try:
        _assert_fence(problem, "hooks")
    finally:
        undo()


def test_checkpoint_declines(problem):
    _assert_fence(problem, "checkpoint", checkpoint=SolverCheckpoint(interval=3))


def test_active_fault_plan_declines(problem):
    faults.set_fault_plan(faults.FaultPlan(seed=1))  # armed, injects nothing
    try:
        a, b = problem
        bits, calls, declined = _declines(lambda: hpccg_solve(a, b))
        assert calls == 0 and declined == {"faults": 1}
    finally:
        faults.set_fault_plan(None)
        faults.refresh_gate()
    assert bits == _off_bits(a, b)


def test_chunked_schedule_declines(problem):
    if resolve_cc() is None or executor_mode() != "native" or faults.injection_possible():
        pytest.skip("the chunked fence is read after the native ones")
    backend = ThreadsBackend(2, min_parallel_size=1)
    try:
        with repro.use_backend(backend):
            _assert_fence(problem, "chunked")
    finally:
        backend.close()


def test_codegen_executor_declines(problem):
    set_executor_mode("codegen")
    try:
        if not faults.injection_possible():
            _assert_fence(problem, "native")
    finally:
        set_executor_mode(None)


def test_missing_compiler_declines(problem, monkeypatch):
    monkeypatch.setenv("PYACC_CC", "/nonexistent/cc")
    monkeypatch.setenv("PYACC_COMPILE_CACHE", "off")
    reset_state(drop_counters=False)
    clear_cache()
    try:
        if executor_mode() == "native" and not faults.injection_possible():
            _assert_fence(problem, "native")
    finally:
        monkeypatch.undo()
        reset_state(drop_counters=False)
        clear_cache()


def test_zero_divisor_raises_at_the_same_iteration():
    """``2 I x = b`` converges exactly in one iteration; a negative
    ``tol`` never stops, so iteration 2 divides ``r·r = 0`` by
    ``p·Ap = 0``.  The driver hands back at that ``÷`` and Python
    raises, after the same launches the per-region replay makes."""
    n = 64
    a = ELLMatrix(cols=np.arange(n, dtype=np.int32)[:, None], vals=np.full((n, 1), 2.0))
    b = np.random.default_rng(3).standard_normal(n)
    seen = {}
    for mode in ("loop", "regions", "off"):
        repro.set_graph_mode("off" if mode == "off" else "on")
        backend = ThreadsBackend(1, min_parallel_size=1 << 20)
        before = graph_stats()["loop"]
        with repro.use_backend(backend) as ctx:
            undo = ctx.on_launch(lambda plan: None) if mode == "regions" else None
            with pytest.raises(ZeroDivisionError):
                hpccg_solve(a, b, tol=-1.0, max_iter=5)
            if undo is not None:
                undo()
        acc = backend.accounting.snapshot()
        acc["sim_time"] = float(acc["sim_time"]).hex()
        seen[mode] = (acc, _loop_moved(before, graph_stats()["loop"]))
    assert seen["loop"][0] == seen["regions"][0]
    assert seen["loop"][1]["calls"] == 0
    if driver_expected():
        assert seen["loop"][1]["declined"] == {"divisor": 1}


def test_a_long_loop_runs_in_batches(problem, monkeypatch):
    from repro.graph import loop

    monkeypatch.setattr(loop, "_BATCH", 3)
    a, b = problem
    bits, calls, declined = _declines(lambda: hpccg_solve(a, b))
    assert bits == _off_bits(a, b)
    if driver_expected():
        assert declined == {}
        assert calls == -(-(bits[2] - 1) // 3)  # ⌈driven iterations / 3⌉


def test_warm_default_solve_is_one_call():
    if not driver_expected():
        pytest.skip("the driver runs on the native rung with no injection armed")
    a, b, _ = build_27pt_problem(8, 8, 8)
    with repro.use_backend("threads"):
        hpccg_solve(a, b, tol=1e-8)
        before = graph_stats()["loop"]
        result = hpccg_solve(a, b, tol=1e-8)
    assert result.converged
    assert _loop_moved(before, graph_stats()["loop"]) == {
        "calls": 1,
        "iterations": result.iterations - 1,
        "declined": {},
    }


# ---------------------------------------------------------------------------
# The long sweep
# ---------------------------------------------------------------------------


def _sweep(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.test_graph_loop")
    ap.add_argument("--seeds", type=int, default=200, help="seeds 0 .. N-1")
    ns = ap.parse_args(argv)
    stops = {"max_iter": 0, "early": 0, "converged": 0}
    for seed in range(ns.seeds):
        iterations, converged, max_iter = check_seed(seed)
        if not converged:
            stops["max_iter"] += 1
        elif iterations <= 2:
            stops["early"] += 1
        else:
            stops["converged"] += 1
    driven = "driven" if driver_expected() else "declined"
    print(f"{ns.seeds} random SPD solves bitwise equal three ways ({driven}): {stops}")
    return 0


if __name__ == "__main__":
    sys.exit(_sweep())
