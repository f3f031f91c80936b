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
"""

import os

import pytest

import repro
from repro import faults
from repro.apps import cg, hpccg
from repro.ir import cgen, nativecache
from repro.ir.compile import clear_cache, set_executor_mode


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
