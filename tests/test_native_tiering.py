"""Tiered native compilation, bit for bit: a cold process's launches of
at most one tile run the codegen program while their C unit compiles on
the worker thread, and the switch to the C loop moves no bit.

Each case runs twice in one process.  The *held* leg starts cold (empty
artifact and compile caches) with the worker held: the first ``k``
pre-flights find their units still compiling — the small launches run
codegen (``pending``) — then the worker is released and every unit in
flight is waited for, so the launches after the switch run C.  The
*native* leg repeats the case with every unit loaded.  The result bits,
a sweep-style digest of them and the ``declined`` counts must agree, and
``pending`` moves in the held leg alone.  Cases: random SPD CG solves
(``tests.test_graph_loop.spd_system``), HPCCG 6³, LBM 32² and Heat3D 8³,
each on ``serial`` and ``threads``, and a ``threads`` launch of 2^15
lanes whose two chunks straddle the switch.  The runtime unit (the C
add-fold and the loop driver) is one of the held units: every case
starts with it unbuilt, so a reduce's fold is undecided until its own
unit installs, and a cold loop declines ``compiling`` (never outside a
held leg).  The tier-1 slice is
:data:`SEEDS`; a longer sweep of random SPD solves and ``k``::

    PYTHONPATH=src python -m tests.test_native_tiering --seeds 200
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro
from repro import faults
from repro.apps import cg, heat3d, hpccg, lbm
from repro.backends.threads import ThreadsBackend
from repro.graph import graph_stats
from repro.graph.capture import _Structure
from repro.ir import cgen, nativecache
from repro.ir.compile import clear_cache, compile_kernel, resolve_cache, set_executor_mode
from repro.ir.vectorizer import TILE_LANES, IndexDomain

from .test_graph_loop import spd_system

#: The tier-1 slice of random SPD solves.
SEEDS = range(2)

pytestmark = pytest.mark.skipif(
    nativecache.resolve_cc() is None, reason="no C compiler on host"
)


@contextlib.contextmanager
def held(k: int):
    """Hold the worker until the ``k + 1``-th native pre-flight (or the
    first over one tile, which would wait), then let it build every unit
    in flight before that pre-flight runs: the switch to C falls at a
    fixed launch."""
    gate, calls = threading.Event(), [0]
    build, preflight = nativecache._build, cgen.NativeKernel.preflight
    settle = cgen.NativeKernel.settle

    def gated_build(unit):
        if unit.deferred:
            gate.wait(60)
        build(unit)

    def release():
        if not gate.is_set():
            gate.set()
            nativecache.wait_compiles()

    def counting_preflight(self, domain, args):
        calls[0] += 1
        if calls[0] > k or domain.size > TILE_LANES:
            release()
        return preflight(self, domain, args)

    def releasing_settle(self, lanes):
        if lanes > TILE_LANES:  # a launch that waits: release first
            release()
        return settle(self, lanes)

    with mock.patch.object(nativecache, "_build", gated_build), mock.patch.object(
        cgen.NativeKernel, "preflight", counting_preflight
    ), mock.patch.object(cgen.NativeKernel, "settle", releasing_settle):
        try:
            yield
        finally:
            gate.set()
            nativecache.wait_compiles()


@contextlib.contextmanager
def cold():
    """Empty artifact and compile caches, no kernel or handle in memory,
    and the runtime unit not asked for; yields the directory both caches
    live in."""
    saved = {k: os.environ.get(k) for k in (nativecache.CACHE_ENV, "PYACC_COMPILE_CACHE")}
    with tempfile.TemporaryDirectory(prefix="pyacc-tiering-") as tmp, mock.patch.object(
        cgen, "_FOLD", None
    ), mock.patch.object(cgen, "_LOOP", None):
        os.environ[nativecache.CACHE_ENV] = os.path.join(tmp, "native")
        os.environ["PYACC_COMPILE_CACHE"] = os.path.join(tmp, "compile")
        set_executor_mode("native")
        clear_cache()
        nativecache.reset_state(drop_counters=False)
        try:
            yield tmp
        finally:
            nativecache.wait_compiles()
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            set_executor_mode(None)
            clear_cache()
            nativecache.reset_state(drop_counters=False)


# ---------------------------------------------------------------------------
# The cases: each returns its result arrays
# ---------------------------------------------------------------------------


def _solved(result) -> list:
    return [result.x, np.array(result.residual_norms)]


def _spd(seed: int):
    a, b, tol, max_iter, _ = spd_system(seed)
    return lambda: _solved(hpccg.hpccg_solve(a, b, tol=tol, max_iter=max_iter))


def _hpccg():
    a, b, _ = hpccg.build_27pt_problem(6, 6, 6)
    return _solved(hpccg.hpccg_solve(a, b, max_iter=5))


def _lbm():
    sim = lbm.LBM(32, lid_velocity=0.05)
    sim.step(3)
    return [sim.distribution()]


def _heat():
    heat = heat3d.Heat3D(8, hot_face_value=1.5)
    heat.step(3)
    return [heat.field()]


APPS = {"hpccg": _hpccg, "lbm": _lbm, "heat": _heat}


def _digest(arrays: list) -> str:
    return hashlib.sha256(
        b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)
    ).hexdigest()


def _leg(run, backend: str) -> tuple:
    """``run()`` on ``backend``: its result bits, their digest, and what
    moved in ``pending``, ``declined`` and the loop's ``compiling``
    declines."""
    before = nativecache.native_stats()
    compiling = graph_stats()["loop"]["declined"].get("compiling", 0)
    with repro.use_backend(backend):
        arrays = run()
    after = nativecache.native_stats()
    compiling = graph_stats()["loop"]["declined"].get("compiling", 0) - compiling
    declined = {
        r: n - before["declined"].get(r, 0)
        for r, n in after["declined"].items()
        if n != before["declined"].get(r, 0)
    }
    bits = [np.asarray(a).tobytes() for a in arrays]
    return bits, _digest(arrays), after["pending"] - before["pending"], declined, compiling


def check(run, backend: str, k: int) -> int:
    """The held leg against the native leg; returns the held leg's
    ``pending``."""
    if not os.environ.get("PYACC_FAULTS"):
        faults.refresh_gate()
    with cold():
        with held(k):
            bits, digest, pending, declined, _ = _leg(run, backend)
        native = _leg(run, backend)
    assert native[:2] == (bits, digest)
    assert native[3] == declined
    assert native[2] == native[4] == 0
    return pending


@pytest.mark.parametrize("backend", ["serial", "threads"])
@pytest.mark.parametrize("app", APPS)
def test_a_held_app_is_bitwise_the_native_run(app, backend):
    assert check(APPS[app], backend, k=4) > 0


@pytest.mark.parametrize("backend", ["serial", "threads"])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_held_spd_solve_is_bitwise_the_native_run(seed, backend):
    k = int(np.random.default_rng(seed).integers(1, 12))
    pending = check(_spd(seed), backend, k)
    assert pending > 0 or spd_system(seed)[0].n > TILE_LANES


def _axpy(i, a, x, y):
    x[i] = a * x[i] + y[i]


def _dot(i, x, y):
    return x[i] * y[i]


@pytest.mark.parametrize("construct", ["for", "reduce"])
def test_two_chunks_straddle_the_switch(construct):
    n = 1 << 15
    rng = np.random.default_rng(5)
    host = rng.standard_normal(n), rng.standard_normal(n)
    backend = ThreadsBackend(2, min_parallel_size=1)

    def run():
        x, y = (repro.array(v) for v in host)
        if construct == "for":
            repro.parallel_for(n, _axpy, 0.5, x, y)
            return [repro.to_host(x)]
        return [np.float64(repro.parallel_reduce(n, _dot, x, y))]

    try:
        # One chunk runs codegen, the other waits for the unit and runs C.
        assert check(run, backend, k=1) == 1
    finally:
        backend.close()


def _dot_case():
    rng = np.random.default_rng(9)
    x, y = (repro.array(rng.standard_normal(3000)) for _ in range(2))
    return [np.float64(repro.parallel_reduce(3000, _dot, x, y))]


def _cg():
    lower, diag, upper, b = cg.tridiagonal_system(256)
    return _solved(cg.cg_solve(lower, diag, upper, b, max_iter=4))


RUNTIME_CASES = {"dot": _dot_case, "cg": _cg, "hpccg": _hpccg}


def _stored(compile_dir: str) -> tuple:
    """What the graph builds stored: the programs on disk, each
    structure's arena reservation, and every reduce kernel's native
    rung (structures hold the fused ones)."""
    cache = resolve_cache()
    structures = [s for s in cache.structures.values() if isinstance(s, _Structure)]
    kernels = list(cache.entries.values()) + [
        t.plan.kernel for s in structures for t in s.nodes
    ]
    programs = sorted(p.name for p in Path(compile_dir).rglob("g*.pkl"))
    reserves = sorted(repr(s.reserve) for s in structures)
    natives = {id(k.native): k.native for k in kernels if k.native and k.native.has_result}
    return programs, reserves, list(natives.values())


def _graph_counts(stats=None, path=()) -> dict:
    """``graph_stats()`` flattened to its counters, but the loop's: the
    held leg declines ``compiling`` where a warm one drives."""
    stats = graph_stats() if stats is None else stats
    flat = {}
    for name, value in stats.items():
        if isinstance(value, dict) and name != "loop":
            flat.update(_graph_counts(value, path + (name,)))
        elif isinstance(value, int):
            flat[path + (name,)] = value
    return flat


def _moved(before: dict, after: dict) -> dict:
    return {name: n - before.get(name, 0) for name, n in after.items() if n != before.get(name, 0)}


@pytest.mark.parametrize("backend", ["serial", "threads"])
@pytest.mark.parametrize("case", RUNTIME_CASES)
@pytest.mark.parametrize("k", [0, 1, 3])
def test_a_held_runtime_unit_is_bitwise_the_native_run_and_a_warm_build(k, case, backend):
    """The runtime unit held with the kernel units: the held leg is
    bitwise the native leg; afterwards every reduce kernel folds in C and
    a solve is one driver call; and the held leg's graph builds stored
    what a warm build (every unit on disk, the fold decided before any
    kernel) stores."""
    if not os.environ.get("PYACC_FAULTS"):
        faults.refresh_gate()
    run = RUNTIME_CASES[case]
    with cold() as tmp:
        counts = _graph_counts()
        with held(k):
            held_leg = _leg(run, backend)
        counts = _moved(counts, _graph_counts())
        programs, reserves, natives = _stored(os.path.join(tmp, "compile"))
        repro.synchronize()
        assert natives and all(n.leases_lanes("add") is False for n in natives)
        calls = graph_stats()["loop"]["calls"]
        native = _leg(run, backend)
        assert native[:2] == held_leg[:2] and native[3] == held_leg[3]
        assert native[2] == native[4] == 0
        if case != "dot":
            assert graph_stats()["loop"]["calls"] == calls + 1
        natives = _stored(os.path.join(tmp, "compile"))[2]
        assert all(n.leases_lanes("add") is False for n in natives)
        # A warm build: the units load from disk, the graphs build anew.
        os.environ["PYACC_COMPILE_CACHE"] = os.path.join(tmp, "warm")
        clear_cache()
        nativecache.reset_state(drop_counters=False)
        with mock.patch.object(cgen, "_FOLD", None), mock.patch.object(cgen, "_LOOP", None):
            warm_counts = _graph_counts()
            compiled = nativecache.native_stats()["compiled"]
            warm = _leg(run, backend)
            warm_counts = _moved(warm_counts, _graph_counts())
            assert nativecache.native_stats()["compiled"] == compiled
            assert warm[:2] == held_leg[:2] and warm[2] == warm[4] == 0
            assert _stored(os.path.join(tmp, "warm"))[:2] == (programs, reserves)
    assert counts == warm_counts


# ---------------------------------------------------------------------------
# Exit, fork, cluster workers and a failing compiler
# ---------------------------------------------------------------------------

_CHILD = """
import json
import numpy as np
import repro
from repro.apps import hpccg

a, b, _ = hpccg.build_27pt_problem(4, 4, 4)
r = hpccg.hpccg_solve(a, b, max_iter=4)
info = repro.cache_info()
print(json.dumps({
    "bits": [r.x.tobytes().hex(), [float(v).hex() for v in r.residual_norms]],
    "compiled": info["native"]["compiled"],
    "compiles": info["disk"]["compiles"],
    "pending": info["native"]["pending"],
}))
"""


def _child(tmp_path) -> dict:
    import json
    import subprocess

    env = dict(os.environ)
    env.update(
        PYACC_NATIVE_CACHE=str(tmp_path / "native"),
        PYACC_COMPILE_CACHE=str(tmp_path / "compile"),
        PYACC_EXECUTOR="native",
        PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_cold_child_leaves_every_unit_on_disk_when_it_exits(tmp_path):
    first = _child(tmp_path)  # exits right after its last launch
    assert first["compiled"] > 0
    warm = _child(tmp_path)
    assert (warm["compiled"], warm["compiles"], warm["pending"]) == (0, 0, 0)
    assert warm["bits"] == first["bits"]


def _logging_cc(tmp_path) -> tuple:
    """A ``cc`` that logs the pid of the process invoking it."""
    log, wrapper = tmp_path / "cc.log", tmp_path / "cc"
    wrapper.write_text(
        f'#!/bin/sh\necho $PPID >> "{log}"\nexec "{nativecache.resolve_cc()}" "$@"\n'
    )
    wrapper.chmod(0o755)
    return wrapper, log


def test_cluster_workers_load_a_cold_kernel_and_compile_nothing(tmp_path, monkeypatch):
    from repro.backends.cluster import ClusterBackend

    wrapper, log = _logging_cc(tmp_path)
    monkeypatch.setenv(nativecache.CC_ENV, str(wrapper))
    n = 1 << 12
    with cold():
        backend = ClusterBackend(2, min_parallel_size=1, shm_threshold=1)
        try:
            with repro.use_backend(backend):
                x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
                repro.parallel_for(n, _axpy, 0.5, x, y)
                assert repro.to_host(x).tolist() == [1.0] * n
        finally:
            backend.close()
    assert set(log.read_text().split()) == {str(os.getpid())}


def test_a_fork_with_a_unit_in_flight_does_not_deadlock():
    parent, gate = os.getpid(), threading.Event()
    build = nativecache._build

    def gated_build(unit):
        if os.getpid() == parent:
            gate.wait(60)
        build(unit)

    n = 2 * TILE_LANES
    args = [0.5, np.zeros(n), np.ones(n)]
    with cold(), mock.patch.object(nativecache, "_build", gated_build):
        ck = compile_kernel(_axpy, 1, args, executor="native")
        assert not ck.native._unit.done
        pid = os.fork()
        if pid == 0:  # the child: build the unit again, then run the C loop
            ok = False
            try:
                ck.run_for(IndexDomain.full((n,)), args)
                ok = ck.native._fn is not None and args[1][0] == 1.0
            finally:
                os._exit(0 if ok else 1)
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                time.sleep(0.02)
            else:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child deadlocked on the unit in flight")
        finally:
            gate.set()
    assert os.waitstatus_to_exitcode(status) == 0


def test_a_failed_deferred_compile_declines_once_and_stays_correct(tmp_path, monkeypatch):
    failing = tmp_path / "cc"
    failing.write_text("#!/bin/sh\nexit 1\n")
    failing.chmod(0o755)
    monkeypatch.setenv(nativecache.CC_ENV, str(failing))
    n = 256
    with cold():
        before = nativecache.native_stats()["declined"].get("compile-failed", 0)
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
        for _ in range(3):
            repro.parallel_for(n, _axpy, 0.5, x, y)
        repro.synchronize()
        for _ in range(3):
            repro.parallel_for(n, _axpy, 0.5, x, y)
        want = np.zeros(n)
        for _ in range(6):
            want = 0.5 * want + 1.0
        assert repro.to_host(x).tobytes() == want.tobytes()
        declined = nativecache.native_stats()["declined"]
        assert declined.get("compile-failed", 0) == before + 1


def test_a_synchronous_request_takes_a_queued_unit_to_the_head(tmp_path, monkeypatch):
    """A synchronous ``compile_source`` that joins a queued deferred unit
    is built next, and its failure is left to the synchronous caller:
    the worker records the deferred units' declines, not that one."""
    failing = tmp_path / "cc"
    failing.write_text("#!/bin/sh\nexit 1\n")
    failing.chmod(0o755)
    monkeypatch.setenv(nativecache.CC_ENV, str(failing))
    gate, order = threading.Event(), []
    build = nativecache._build

    def gated(unit):
        gate.wait(60)
        order.append(unit.source)
        build(unit)

    sources = [f"/* unit {name} */\n" for name in "abc"]
    errors = []

    def synchronous():
        try:
            nativecache.compile_source(sources[2])
        except nativecache.NativeCompileError as exc:
            errors.append(exc.reason)

    with cold(), mock.patch.object(nativecache, "_build", gated):
        before = nativecache.native_stats()["declined"].get("compile-failed", 0)
        units = [nativecache.compile_source(src, _defer=True) for src in sources]
        deadline = time.monotonic() + 10
        while units[0] in nativecache._QUEUE and time.monotonic() < deadline:
            time.sleep(0.001)  # the worker holds the first unit at the gate
        joiner = threading.Thread(target=synchronous)
        joiner.start()
        while units[2].deferred and time.monotonic() < deadline:
            time.sleep(0.001)
        assert list(nativecache._QUEUE) == [units[2], units[1]]
        gate.set()
        joiner.join(10)
        nativecache.wait_compiles()
        declined = nativecache.native_stats()["declined"]
    assert order == [sources[0], sources[2], sources[1]]
    assert errors == ["compile-failed"]
    assert declined.get("compile-failed", 0) == before + 2


def test_racing_threads_submit_one_unit_and_run_one_entry():
    """Eight threads compile one cold kernel and call it at once: the
    unit is compiled once, and every call runs codegen or the C loop
    with its whole entry point installed."""
    from concurrent.futures import ThreadPoolExecutor

    n = 512
    y = np.random.default_rng(3).standard_normal(n)
    want = 0.5 * np.zeros(n) + y
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cold():
            compiled = nativecache.native_stats()["compiled"]

            def one(_):
                x = np.zeros(n)
                ck = compile_kernel(_axpy, 1, [0.5, x, y], executor="native")
                for _ in range(20):
                    x[:] = 0.0
                    ck.run_for(IndexDomain.full((n,)), [0.5, x, y])
                    assert x.tobytes() == want.tobytes()

            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(one, range(8), timeout=60))
            repro.synchronize()
            assert nativecache.native_stats()["compiled"] == compiled + 1
    finally:
        sys.setswitchinterval(old)


def _sweep(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.test_native_tiering")
    ap.add_argument("--seeds", type=int, default=200, help="seeds 0 .. N-1")
    ns = ap.parse_args(argv)
    pending = 0
    for seed in range(ns.seeds):
        rng = np.random.default_rng([seed, 7])
        k = int(rng.integers(1, 40))
        backend = "threads" if seed % 2 else "serial"
        if seed % 4 == 0:
            app = list(APPS)[(seed // 4) % len(APPS)]
            pending += check(APPS[app], backend, k)
        else:
            pending += check(_spd(seed), backend, k)
    print(f"{ns.seeds} tiered runs bitwise the native run ({pending} codegen calls held)")
    return 0


if __name__ == "__main__":
    sys.exit(_sweep())
