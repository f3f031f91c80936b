"""Cold-build budget: how many C units a first solve compiles.

On the native rung a cold process waits on ``cc`` once per translation
unit, so the unit count of a first solve is its cold-start cost.  Each
solve here starts from an empty artifact directory, an empty compile
cache and cleared kernel caches, and must compile exactly its budget:

* a 3-iteration CG solve at n = 256: its kernels, its two fused
  survivors and the one runtime unit (the add-fold and the loop driver);
* the same for an HPCCG 6³ solve.

An intermediate fusion that a later merge absorbs compiles nothing, and
the fold and loop driver share one unit; undoing either shows here as 9.
Dropping every in-memory handle and kernel and solving again compiles
nothing: each unit loads from disk.

The tier's two pins (kernel units compile on a worker thread while
launches of at most one tile run codegen):

* a cold solve blocks its thread on ``cc`` for no unit — every kernel
  unit and the runtime unit compile off the launch path;
* a cold launch larger than one tile waits for its own unit and leases
  no codegen scratch, whose whole-domain temporaries are what the rule
  keeps out of peak memory — on ``serial`` and when ``threads`` splits
  it into chunks of less than one tile each.  A reduce finds the
  runtime unit, ahead of its own in the worker's FIFO, built: it binds
  the C fold and leases no lane buffer either.
"""

import os

import numpy as np
import pytest

import repro
from repro import faults
from repro.apps import cg, hpccg
from repro.backends.threads import ThreadsBackend
from repro.ir import cgen, nativecache
from repro.ir.arena import global_stats
from repro.ir.compile import clear_cache, set_executor_mode
from repro.ir.vectorizer import TILE_LANES


def _cg():
    lower, diag, upper, b = cg.tridiagonal_system(256)
    return cg.cg_solve(lower, diag, upper, b, max_iter=3)


def _hpccg():
    a, b, _ = hpccg.build_27pt_problem(6, 6, 6)
    return hpccg.hpccg_solve(a, b, max_iter=3)


@pytest.fixture
def cold(tmp_path, monkeypatch):
    if nativecache.resolve_cc() is None:
        pytest.skip("no C compiler")
    if not os.environ.get("PYACC_FAULTS"):
        faults.refresh_gate()
    if faults.injection_possible():
        pytest.skip("fault injection turns fusion and the loop driver off")
    monkeypatch.setenv(nativecache.CACHE_ENV, str(tmp_path / "native"))
    monkeypatch.setenv("PYACC_COMPILE_CACHE", str(tmp_path / "compile"))
    # The runtime unit is memoized per process; forget it so it is built too.
    monkeypatch.setattr(cgen, "_FOLD", None)
    monkeypatch.setattr(cgen, "_LOOP", None)
    set_executor_mode("native")
    clear_cache()
    nativecache.reset_state()
    try:
        with repro.use_backend("serial"):
            yield
    finally:
        set_executor_mode(None)
        clear_cache()
        nativecache.reset_state()


@pytest.mark.parametrize("solve, units", [(_cg, 8), (_hpccg, 8)], ids=["cg", "hpccg"])
def test_a_cold_solve_compiles_its_budget_and_a_rerun_nothing(cold, solve, units):
    solve()
    stats = nativecache.native_stats()
    assert stats["compiled"] == units
    assert stats["declined"] == {}
    clear_cache()
    nativecache.reset_state()
    solve()
    stats = nativecache.native_stats()
    assert stats["compiled"] == 0 and stats["disk_hits"] > 0
    assert stats["declined"] == {}


@pytest.fixture
def blocked(monkeypatch):
    """The units a calling thread blocked on, in order: each wait for a
    unit not yet built, through either name of ``wait_compiles``."""
    units = []
    real = nativecache.wait_compiles

    def recording(waited=None):
        units.extend(u for u in waited or () if not u.done)
        real(waited)

    monkeypatch.setattr(nativecache, "wait_compiles", recording)
    monkeypatch.setattr(cgen, "wait_compiles", recording)
    return units


@pytest.mark.parametrize("solve", [_cg, _hpccg], ids=["cg", "hpccg"])
def test_a_cold_solve_waits_on_no_unit(cold, blocked, solve):
    solve()
    assert blocked == []
    repro.synchronize()
    stats = nativecache.native_stats()
    assert stats["compiled"] == 8 and stats["declined"] == {}


def _scale(i, a, x, y):
    x[i] = a * x[i] + y[i] * y[i]


@pytest.mark.parametrize("width", [1, 4], ids=["serial", "threads4"])
def test_a_cold_launch_past_one_tile_waits_and_leases_no_scratch(cold, blocked, width):
    # Four chunks of half a tile each: the rule is the launch's, so they
    # wait too, whatever the host's core count.
    backend = "serial" if width == 1 else ThreadsBackend(width, min_parallel_size=1)
    n = 2 * TILE_LANES
    x, y = repro.array(np.ones(n)), repro.array(np.full(n, 2.0))
    before = global_stats()["bytes_allocated"]
    try:
        with repro.use_backend(backend):
            repro.parallel_for(n, _scale, 3.0, x, y)
    finally:
        if width > 1:
            backend.close()
    assert global_stats()["bytes_allocated"] == before
    assert len({id(u) for u in blocked}) == 1
    assert nativecache.native_stats()["pending"] == 0
    assert repro.to_host(x).tolist() == [7.0] * n


def _dot(i, x, y):
    return x[i] * y[i]


@pytest.mark.parametrize("width", [1, 4], ids=["serial", "threads4"])
def test_a_cold_reduce_past_one_tile_waits_for_its_own_unit_and_folds_in_c(
    cold, blocked, width
):
    backend = "serial" if width == 1 else ThreadsBackend(width, min_parallel_size=1)
    n = 2 * TILE_LANES
    x, y = repro.array(np.ones(n)), repro.array(np.full(n, 2.0))
    before = global_stats()["bytes_allocated"]
    try:
        with repro.use_backend(backend):
            plan = repro.launch(n, _dot, x, y, reduce=True)
    finally:
        if width > 1:
            backend.close()
    assert global_stats()["bytes_allocated"] == before
    assert {u.source for u in blocked} == {plan.kernel.native.source}
    assert plan.kernel.native._c_fold
    assert nativecache.native_stats()["pending"] == 0
    assert plan.result == 2.0 * n
