"""Warm launches, bit for bit: the warm-launch table
(``KernelCache.launches``) and the inline shortcut in
``repro.core.api._execute`` change no result, counter or clock.

A seeded generator draws a sequence of launches over AXPY, DOT, a
guarded reduce whose bound the verifier reads, a guarded ``for``, and a
2-D ``for`` and reduce, at sizes on both sides of the threads backend's
pool cutoff.  Between launches it interleaves the switches a warm
launch must notice: the executor, the verify mode (``error`` raises on
every racy launch), the backend, its schedule epoch and performance
model, ``clear_cache()``, a closure cell rebound on the same function
object, a launch hook, a fault plan, and a graph capture that is
instantiated and replayed when it closes and again later, after eager
launches may have written the arrays it hoisted loads of.

Each sequence runs three times in a private context: as shipped, with
the table emptied before every launch, and with the table emptied and
every launch fenced off the inline shortcut, so it is staged and
executed in full.  Results, array bytes, every backend's accounting
(``sim_time`` to the bit), the kernel cache's size/hits/misses, the
hook log, the fault events and the captured nodes must be equal.  The
tier-1 slice is :data:`SEEDS`; a longer sweep::

    PYTHONPATH=src python -m tests.test_warm_launch --seeds 200
"""

import argparse
import contextlib
import os
import sys
import warnings
from unittest import mock

import numpy as np

import repro
from repro import faults
from repro.backends.serial import SerialBackend
from repro.backends.threads import ThreadsBackend
from repro.core.context import ExecutionContext
from repro.core.exceptions import (
    GraphError,
    KernelVerificationError,
    TransientDeviceError,
)
from repro.ir.compile import KernelCache, clear_cache, set_executor_mode
from repro.ir.verify import active_verify_mode
from repro.perfmodel import PerfModel, get_profile

#: The tier-1 slice.
SEEDS = range(20)

#: Launches per sequence.
STEPS = 60

#: Launch sizes: below and above the threads backend's pool cutoff
#: when the epoch switch lowers it.
SIZES = (64, 257, 1024)


def axpy(i, a, x, y):
    x[i] += a * y[i]


def dot(i, x, y):
    return x[i] * y[i]


def bounded(i, lim, x, y):
    if i < lim:
        return x[i] * y[i]
    return 0.0


def clip(i, lim, x, y):
    if i < lim:
        x[i] = 0.5 * x[i] + y[i]


def axpy2(i, j, a, u, v):
    u[i, j] += a * v[i, j]


def mix(i, x, y):
    y[i] = 0.5 * y[i] + 0.25 * x[i]


def sum2(i, j, u):
    return u[i, j]


def racy(i, x):
    x[i] = x[i + 1]


def _scaled(c):
    def scaled(i, x, y):
        x[i] = c * y[i]

    return scaled


#: A closure whose cell the ``cell`` switch rebinds: same function
#: object, new captured value.
scaled = _scaled(1.0)


def sequence(seed: int, steps: int = STEPS) -> list:
    """A seeded list of ``("launch", kernel, n, scalar)`` and
    ``("switch", name, choice)`` steps."""
    rng = np.random.default_rng([seed, 37])
    kernels = ("axpy", "dot", "bounded", "clip", "mix", "axpy2", "sum2", "racy", "scaled")
    switches = (
        "executor", "verify", "backend", "epoch", "model", "clear",
        "hooks", "faults", "capture", "capture", "replay", "replay", "cell",
    )
    # Odd seeds start on codegen, the rung whose replays hoist loads.
    out, launches = [("switch", "executor", seed % 2)], []
    for _ in range(steps):
        u = rng.random()
        if u < 0.15:
            out.append(("switch", switches[rng.integers(len(switches))], int(rng.integers(4))))
        elif u < 0.6 and launches:  # a warm launch: one of the last four again
            out.append(launches[-1 - rng.integers(min(4, len(launches)))])
        else:
            launches.append((
                "launch", kernels[rng.integers(len(kernels))],
                SIZES[rng.integers(len(SIZES))], int(rng.integers(1, 5)),
            ))
            out.append(launches[-1])
    return out + [("switch", "replay", 0)]


def run(steps: list, emptied: bool = False, staged: bool = False) -> dict:
    """Everything observable after ``steps``; ``emptied`` empties the
    warm-launch table before every launch, ``staged`` also fences every
    launch off the inline shortcut."""
    with contextlib.ExitStack() as stack:
        if emptied:
            real = KernelCache.find_launch

            def find_launch(self, key, args):
                self.launches.clear()
                return real(self, key, args)

            stack.enter_context(mock.patch.object(KernelCache, "find_launch", find_launch))
        if staged:
            stack.enter_context(
                mock.patch.object(ExecutionContext, "fence", lambda self: "staged")
            )
        return _run(steps)


def _run(steps: list) -> dict:
    if not os.environ.get("PYACC_FAULTS"):
        faults.refresh_gate()  # an earlier plan leaves the gate open
    cache = KernelCache()
    threads = ThreadsBackend(n_threads=2)
    backends = [SerialBackend(), threads]
    rng = np.random.default_rng(len(steps))
    n = max(SIZES)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    u, v = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
    w = np.zeros(n + 1)
    results, hooks, nodes = [], [], []
    unhook = fplan = cap = inst = None
    scaled.__closure__[0].cell_contents = 1.0
    try:
        with repro.use_backend(backends[0], kernel_cache=cache) as ctx:
            for step in steps:
                if step[0] == "switch":
                    _, name, choice = step
                    if name == "executor":
                        set_executor_mode(("native", "codegen", "native", "interpreter")[choice])
                    elif name == "verify":
                        repro.set_verify_mode(("off", "warn", "error", "warn")[choice])
                    elif name == "backend":
                        ctx.set_backend(backends[choice % 2])
                    elif name == "epoch":
                        threads.min_parallel_size = (1 << 14, 128)[choice % 2]
                    elif name == "model":
                        threads.model = PerfModel(get_profile(("rome", "a100")[choice % 2]))
                    elif name == "cell":
                        scaled.__closure__[0].cell_contents = 0.5 * choice
                    elif name == "clear":
                        clear_cache(cache)
                    elif name == "hooks":
                        if unhook is None:
                            unhook = ctx.on_launch(
                                lambda p: hooks.append((p.label, p.sim_time_before))
                            )
                        else:
                            unhook = unhook()
                    elif name == "faults":
                        fplan = faults.FaultPlan(
                            choice, transient_rate=0.2,
                            sites=("threads.chunk", "arena.frame"),
                        ) if fplan is None else None
                        repro.set_fault_plan(fplan)
                    elif name == "replay":
                        if inst is not None:
                            results.append(_attempt(inst.replay))
                    elif cap is None:
                        cap = ctx.capture().__enter__()
                    else:
                        cap.__exit__(None, None, None)
                        graph = cap.graph()
                        nodes.append([node.plan.label for node in graph.nodes])
                        if graph.nodes:
                            try:
                                inst = graph.instantiate(ctx, fuse=False)
                            except GraphError as exc:  # spans a backend switch
                                inst = None
                                results.append(str(exc))
                            else:
                                results.append(_attempt(inst.replay))
                        cap = None
                    continue
                _, kernel, m, s = step
                results.append(_attempt(_launch, kernel, m, s, x, y, u, v, w))
            if cap is not None:
                cap.__exit__(None, None, None)
            info = cache.stats()
            events = [(e.site, e.action, e.attempt) for e in ctx.fault_events]
    finally:
        set_executor_mode(None)
        repro.set_verify_mode(None)
        threads.close()
        if not os.environ.get("PYACC_FAULTS"):
            faults.refresh_gate()
    return {
        "results": results,
        "arrays": [a.tobytes() for a in (x, y, u, v, w)],
        "accounting": [b.accounting.snapshot() for b in backends],
        "cache": info,
        "hooks": hooks,
        "events": events,
        "nodes": nodes,
    }


def _attempt(fn, *args):
    """``fn(*args)``, or the error a refused launch or an exhausted
    retry raised."""
    try:
        return fn(*args)
    except (KernelVerificationError, TransientDeviceError) as exc:
        return type(exc).__name__, str(exc)


def _launch(kernel, m, s, x, y, u, v, w):
    """One launch of ``kernel`` over ``m`` lanes (2-D: ``m // 32`` rows);
    the values a reduce returns, ``None`` for a ``for``."""
    if kernel == "axpy":
        return repro.parallel_for(m, axpy, 0.25 * s, x, y)
    if kernel == "dot":
        return repro.parallel_reduce(m, dot, x, y).hex()
    if kernel == "bounded":
        return repro.parallel_reduce(m, bounded, m // s, x, y).hex()
    if kernel == "clip":
        return repro.parallel_for(m, clip, m // s, x, y)
    if kernel == "mix":
        return repro.parallel_for(m, mix, x, y)
    rows = max(1, m // 32)
    if kernel == "axpy2":
        return repro.parallel_for((rows, 32), axpy2, 0.5 * s, u, v)
    if kernel == "sum2":
        op = ("add", "min", "max", "add")[s - 1]
        return repro.parallel_reduce((rows, 32), sum2, u, op=op).hex()
    if kernel == "scaled":
        return repro.parallel_for(m, scaled, x, y)
    if active_verify_mode() != "error" and repro.active_backend().name != "serial":
        return None  # chunks would race: racy runs serially or is refused
    return repro.parallel_for(m, racy, w)


def check(seed: int) -> None:
    steps = sequence(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # A first leg, not compared, builds every C unit the sequence
        # needs: a cold unit's launches run codegen, which opens arena
        # frames (and probes their fault site) that the C loop does not.
        run(steps)
        repro.synchronize()
        legs = run(steps), run(steps, emptied=True), run(steps, emptied=True, staged=True)
    for field in legs[0]:
        assert legs[0][field] == legs[1][field] == legs[2][field], (seed, field)


def test_warm_launches_equal_staged_launches():
    for seed in SEEDS:
        check(seed)


def test_racing_threads_share_one_table():
    """Eight threads, each in its own context over one kernel cache,
    launch the same kernels with a short switch interval: every launch
    counts one hit or one miss, and every thread's results are exact."""
    from concurrent.futures import ThreadPoolExecutor

    cache, n, rounds = KernelCache(), 256, 200

    def one(k):
        x, y = np.zeros(n), np.full(n, float(k))
        with repro.use_backend(SerialBackend(), kernel_cache=cache):
            sums = [
                (repro.parallel_for(n, axpy, 1.0, x, y), repro.parallel_reduce(n, dot, y, y))[1]
                for _ in range(rounds)
            ]
        return x.tolist() == [float(k * rounds)] * n and sums == [float(k * k * n)] * rounds

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            ok = list(pool.map(one, range(8), timeout=60))
    finally:
        sys.setswitchinterval(old)
    stats = cache.stats()
    assert ok == [True] * 8
    assert stats["hits"] + stats["misses"] == 8 * rounds * 2


def _sweep(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.test_warm_launch")
    ap.add_argument("--seeds", type=int, default=200, help="seeds 0 .. N-1")
    ns = ap.parse_args(argv)
    for seed in range(ns.seeds):
        check(seed)
    print(f"{ns.seeds} launch sequences: warm bitwise staged")
    return 0


if __name__ == "__main__":
    sys.exit(_sweep())
