"""The loop unit (:mod:`repro.graph.loop`) against the per-region replay
and ``PYACC_GRAPH=off``, bit for bit, on seeded random SPD systems.

After the first CG iteration has captured its three regions, the loop
driver runs the remaining iterations in one C call; a later solve in
the same context binds the stored template and the driver runs every
iteration.  Each seed here builds one diagonally dominant symmetric ELL
system — random width up to 27, ``n`` from 2 up to three arithmetic
tiles (so the dots fold 1–3 tile partials), random ``tol`` and
``max_iter``, including solves that stop at ``max_iter`` and solves
that converge on iteration 1 or 2 — and solves it four ways:

* ``loop`` — the defaults on a fresh context: the driver runs
  iterations 2…;
* ``bound`` — the defaults, twice on one context (a miss, then a hit
  that drives iteration 1 too), then a second operator of the same
  shape with a fresh ``b`` (a hit over other arrays);
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
import gc
import os
import sys
import weakref

import numpy as np
import pytest

import repro
from repro import faults
from repro.apps.hpccg import ELLMatrix, build_27pt_problem, hpccg_solve
from repro.backends.serial import SerialBackend
from repro.backends.threads import ThreadsBackend
from repro.checkpoint import SolverCheckpoint
from repro.graph import GraphLoop, GraphRegion, graph_stats
from repro.graph.loop import _Template
from repro.ir import writes
from repro.ir.compile import (
    KernelCache,
    clear_cache,
    executor_mode,
    resolve_cache,
    set_executor_mode,
)
from repro.ir.nativecache import reset_state, resolve_cc
from repro.ir.validate import active_validate_mode
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


def _operator(rng, n: int, half: int) -> tuple:
    """A symmetric, strictly diagonally dominant ``n``-row ELL operator
    with ``min(half, n - 1)`` off-diagonal pairs, and a ``b``."""
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
    return ELLMatrix(cols=cols, vals=vals), rng.standard_normal(n)


def spd_system(seed: int, other: bool = False):
    """``(A, b, tol, max_iter, make_backend)`` for ``seed``: a symmetric,
    strictly diagonally dominant ELL operator with positive diagonal,
    and the backend to solve it on.  ``other`` swaps in another operator
    and ``b`` of the same shapes."""
    rng = np.random.default_rng(seed)
    if seed % 4 == 3:  # 1-3 tiles: a narrow band keeps the operator small
        n = int(rng.integers(TILE_LANES - 4096, 3 * TILE_LANES + 1))
        half = int(rng.integers(0, 3))
    else:
        n = int(rng.integers(2, 3000))
        half = int(rng.integers(0, 14))
    a, b = _operator(rng, n, half)
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
    if other:
        a, b = _operator(np.random.default_rng([seed, 1]), n, half)
    return a, b, tol, max_iter, make_backend


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


def solve_bound(seed: int, **kw) -> list:
    """``seed``'s system solved twice on one context, then the other
    operator of the same shapes: per solve ``(bits, loop counters,
    captures and rebinds)``."""
    a, b, _, _, make_backend = spd_system(seed)
    a2, b2 = spd_system(seed, other=True)[:2]
    repro.set_graph_mode("on")
    out = []
    with repro.use_backend(make_backend()):
        for op, rhs in ((a, b), (a, b), (a2, b2)):
            graph0 = graph_stats()
            result = hpccg_solve(op, rhs, **kw)
            graph = graph_stats()
            moved = {k: graph[k] - graph0[k] for k in ("captures", "rebinds")}
            out.append((_bits(result), _loop_moved(graph0["loop"], graph["loop"]), moved))
    return out


def _loop_moved(before: dict, after: dict) -> dict:
    """What moved in ``graph_stats()["loop"]`` between two snapshots."""
    return {
        "calls": after["calls"] - before["calls"],
        "iterations": after["iterations"] - before["iterations"],
        "bound": after["bound"] - before["bound"],
        "declined": {
            r: c - before["declined"].get(r, 0)
            for r, c in after["declined"].items()
            if c != before["declined"].get(r, 0)
        },
    }


def check_seed(seed: int) -> tuple:
    """Solve ``seed``'s system four ways and hold them to each other;
    returns ``(iterations, converged, max_iter)``."""
    a, b, tol, max_iter, backend = spd_system(seed)
    kw = dict(tol=tol, max_iter=max_iter)
    # Warm-up on its own backend (no template it stores is keyed for the
    # solves below): every C unit they run is built before they start.
    solve(a, b, "loop", backend, **kw)
    repro.synchronize()
    loop_bits, loop_counters, loop_stats = solve(a, b, "loop", backend, **kw)
    reg_bits, reg_counters, reg_stats = solve(a, b, "regions", backend, **kw)
    off_bits, _, off_stats = solve(a, b, "off", backend, **kw)
    miss, hit, other = solve_bound(seed, **kw)
    a2, b2 = spd_system(seed, other=True)[:2]
    other_off = solve(a2, b2, "off", backend, **kw)[0]
    assert loop_bits == reg_bits == off_bits == miss[0] == hit[0], seed
    assert other[0] == other_off, seed
    iterations = loop_bits[2]
    assert off_stats == {"calls": 0, "iterations": 0, "bound": 0, "declined": {}}
    if driver_expected():
        driven = iterations >= 2
        assert loop_stats == miss[1] == {
            "calls": int(driven),
            "iterations": iterations - 1 if driven else 0,
            "bound": 0,
            "declined": {},
        }, seed
        assert reg_stats == {
            "calls": 0,
            "iterations": 0,
            "bound": 0,
            "declined": {"hooks": 1} if driven else {},
        }, seed
        assert loop_counters == reg_counters, seed
        # The miss stored the program it drove; each later solve binds it
        # and drives every iteration, its three regions' structures
        # rebound through the template and none built.
        for solved in (hit, other) if driven else ():
            assert solved[1:] == (
                {"calls": 1, "iterations": solved[0][2], "bound": 1, "declined": {}},
                {"captures": 3, "rebinds": 3},
            ), seed
        if not driven:
            assert hit[1] == miss[1], seed
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
        # A cold process compiles the last region's kernel in the first
        # solve's iteration 1: only the second can key and store a template.
        for _ in range(2):
            hpccg_solve(a, b, tol=1e-8)
            repro.synchronize()
        before = graph_stats()["loop"]
        result = hpccg_solve(a, b, tol=1e-8)
    assert result.converged
    assert _loop_moved(before, graph_stats()["loop"]) == {
        "calls": 1,
        "iterations": result.iterations,
        "bound": 1,
        "declined": {},
    }


# ---------------------------------------------------------------------------
# The bound path: what its key holds, and what a template does not
# ---------------------------------------------------------------------------


def _dot(i, x, y):
    return x[i] * y[i]


def _dot_swapped(i, x, y):
    return y[i] * x[i]


def _relax(i, a, c, x, y):
    y[i] = a * x[i] + c * y[i]


def small_loop(n=64, dtype=np.float64, dot=_dot, alias=False, strided=False,
               c=0.5, c_slot=False):
    """A two-region loop over fresh arrays: ``(loop, iteration, arrays)``.
    Each keyword changes one fact its recording is keyed on."""
    x = repro.array(np.linspace(1.0, 2.0, 2 * n if strided else n).astype(dtype))
    if strided:
        x = x[::2]
    y = x if alias else repro.array(np.full(n, 0.5, dtype=dtype))
    first, second, loop = GraphRegion("first"), GraphRegion("second"), GraphLoop()

    def measure():
        return repro.parallel_reduce(n, dot, x, y)

    def relax(a, c=c):
        repro.parallel_for(n, _relax, a, c, x, y)

    def iteration(s):
        d = loop.run(first, (id(x), id(y)), measure)
        t = s / d
        done = t <= 0.0
        if not done:
            slots = dict(a=t, c=c) if c_slot else dict(a=t)
            loop.run(second, (id(x), id(y)), relax, **slots)
        return t, d, done

    return loop, iteration, (x, y)


def _key(**variant):
    """The key a dry recording of ``small_loop(**variant)``'s first
    iteration looks a template up under, its kernels compiled first."""
    loop, iteration, _ = small_loop(**variant)
    for _ in loop.steps(iteration, 1.0, 2):
        pass
    return loop._dry(iteration, 1.0, repro.current_context())[0]


#: One changed recording fact per entry, each a different key.
_VARIANTS = {
    "kernel function": dict(dot=_dot_swapped),
    "dtype": dict(dtype=np.float32),
    "shape": dict(n=65),
    "strides": dict(strided=True),
    "alias pattern": dict(alias=True),
    "baked scalar value": dict(c=0.25),
    "slot vs baked scalar": dict(c_slot=True),
}


def _threads():
    return ThreadsBackend(2, min_parallel_size=1 << 20)


@pytest.mark.parametrize("component", sorted(_VARIANTS))
def test_each_recorded_fact_is_in_the_key(component):
    with repro.use_backend(_threads()):
        base = _key()
        assert base is not None and _key() == base  # fresh arrays, same facts
        assert _key(**_VARIANTS[component]) not in (None, base)


@pytest.mark.parametrize(
    "component, mode, set_mode, values",
    [
        ("executor", executor_mode, set_executor_mode, ("codegen", "vector")),
        ("validate mode", active_validate_mode, repro.set_validate_mode, ("off", "warn")),
        ("passes mode", repro.passes_mode, repro.set_passes_mode, ("none", "all")),
    ],
)
def test_each_mode_is_in_the_key(component, mode, set_mode, values):
    with repro.use_backend(_threads()) as ctx:
        if component == "passes mode" and ctx.fault_plan is not None:
            pytest.skip("a fault plan turns fusion off whatever the passes mode")
        base = _key()
        set_mode(values[mode() == values[0]])  # whichever is not in effect
        try:
            other = _key()
        finally:
            set_mode(None)
    assert other not in (None, base)


def test_backend_epoch_and_context_are_in_the_key():
    backend = _threads()
    with repro.use_backend(backend) as ctx:
        base = _key()
        ctx.set_backend(_threads())
        other_backend = _key()
        ctx.set_backend(backend)
        backend.min_parallel_size += 1  # a new schedule epoch
        other_epoch = _key()
        backend.min_parallel_size -= 1
        assert _key() == base
    with repro.use_backend(backend):
        other_context = _key()
    for key in (other_backend, other_epoch, other_context):
        assert key not in (None, base)


def test_a_chunked_loop_stops_its_dry_recording_at_the_first_launch(monkeypatch):
    """A loop whose first launch the backend chunks can never be driven:
    its dry recording looks up one kernel and keys nothing."""
    with repro.use_backend(ThreadsBackend(2, min_parallel_size=1)) as ctx:
        loop, iteration, _ = small_loop()
        for _ in loop.steps(iteration, 1.0, 2):  # compiles and stages both
            pass
        found = []
        real = KernelCache.find

        def counting(self, *args, **kwargs):
            found.append(args[0])
            return real(self, *args, **kwargs)

        monkeypatch.setattr(KernelCache, "find", counting)
        assert loop._dry(iteration, 1.0, ctx) == (None, None)
    assert found == [_dot]


def test_a_bound_loop_matches_graph_off_and_pins_no_array():
    """Without hooks (they fence the bound path): the third run binds
    the template the second stored and gives graph-off's bits, and once
    they return nothing holds the arrays of either."""
    if not driver_expected():
        pytest.skip("the driver runs on the native rung with no injection armed")

    def run():
        loop, iteration, arrays = small_loop()
        rows = [(float(t).hex(), float(d).hex(), bool(done))
                for t, d, done in loop.steps(iteration, 1.0, 6)]
        return rows, [weakref.ref(a) for a in arrays]

    with repro.use_backend(_threads()) as ctx:
        run()  # compiles the kernels
        refs = run()[1]  # stores the template
        before = graph_stats()["loop"]
        rows, bound_refs = run()
        refs += bound_refs
        moved = _loop_moved(before, graph_stats()["loop"])
        stored = list(resolve_cache(ctx.kernel_cache).structures.values())
        repro.set_graph_mode("off")
        off_rows, _ = run()
    assert moved == {"calls": 1, "iterations": 6, "bound": 1, "declined": {}}
    assert rows == off_rows
    gc.collect()
    assert [r() is None for r in refs] == [True] * 4
    assert any(isinstance(v, _Template) for v in stored)


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
    print(f"{ns.seeds} random SPD solves bitwise equal four ways ({driven}): {stops}")
    return 0


if __name__ == "__main__":
    sys.exit(_sweep())
