"""Generated licensed multi-store kernels: the native rung's vector-ready
lowering against codegen and the interpreter, bit for bit.

A licensed ``parallel_for`` kernel (lanes proven independent, see
``tests/test_native_lanes.py``) lowers to one loop nest that tells ``cc``
what the proof says: the shared guard's index bounds clip the loop, a
lane's reload of its own store takes the stored value, and the inner
loop is ``#pragma GCC ivdep``.  Each seed here builds one kernel of the
shape that lowering targets — LBM's, generalised:

* K plane stores into a flat output (``flat[k*N + lin] = ...``) and an
  identity store into an N-D output;
* clamped gathers through read-only offset arrays (``src[i - o[k]]``);
* identity reloads of just-written arrays (the forwarding);
* a guard that is a random conjunction of index bounds over constants,
  int scalars and ``n - c``, in both orientations, sometimes with a
  residual conjunct (a load, a scalar, ``==``/``!=``, a float bound)
  and bound values that make the box empty, one row, or the whole box,
  or sit at ``INT64_MAX`` / below zero;
* f64/f32/i64/i32 mixes; a guard without an upper bound on some axis
  (no licence: the grouped lowering, no ``ivdep``).

Each kernel runs over boxes with ``lo != 0``, over threads chunks and on
one cluster run; every result must be bitwise the interpreter's, with no
native decline, and ``ivdep`` must appear in the unit iff the kernel is
licensed.  The tier-1 slice is :data:`SEEDS`; a longer sweep::

    PYTHONPATH=src python -m tests.test_native_vectorize --seeds 400

Kernels are built from their seed on first access as module attributes
(``gen_<seed>``), so cluster workers unpickle them by name.
"""

import argparse
import os
import sys

import numpy as np
import pytest

import repro
from repro.backends.cluster import ClusterBackend
from repro.backends.threads import ThreadsBackend
from repro.ir.cgen import _NativeLowering
from repro.ir.compile import clear_cache, compile_kernel, set_executor_mode
from repro.ir.nativecache import native_stats, reset_state, resolve_cc
from repro.ir.vectorizer import IndexDomain

HAVE_CC = resolve_cc() is not None
INT64_MAX = 2**63 - 1
DTYPES = (np.float64, np.float32, np.int64, np.int32)

#: The tier-1 slice: fixed seeds, a few seconds with a warm artifact cache.
SEEDS = range(24)


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


class _Gen:
    """One seed's kernel: its source, its argument list and boxes."""

    def __init__(self, seed: int):
        rng = self.rng = np.random.default_rng(seed)
        # Values and boxes draw from streams of their own (see
        # ``named_args``, ``boxes``): each is a function of the seed.
        self.seed = seed
        self.name = f"gen_{seed}"
        self.ndim = ndim = int(rng.integers(1, 4))
        top = (33, 33, 9)[ndim - 1]
        self.dims = tuple(int(rng.integers(4, top + 1)) for _ in range(ndim))
        self.K = int(rng.integers(1, 5))
        self.dt = {k: DTYPES[rng.integers(4)] for k in ("flat", "nd", "src")}
        # No guard upper bound on one axis: the proof cannot bound the
        # stores without the launch box, so the kernel stays grouped.
        self.open_axis = int(rng.integers(ndim)) if rng.random() < 0.2 else None
        self.bounded = self.open_axis is None
        self.alias = self.K >= 2 and rng.random() < 0.3
        self.scalars: list[tuple[str, object]] = []
        self.guard = self._guard()
        self.source = self._source()

    def _scalar(self, value, strong=None) -> str:
        name = f"b{len(self.scalars)}"
        if strong is None:
            strong = self.rng.random() < 0.3
        if strong:
            value = np.int64(value)
        self.scalars.append((name, value))
        return name

    def _pick(self, options):
        return options[self.rng.integers(len(options))]

    def _guard(self) -> list[str]:
        """Conjuncts: every axis bounded inside ``[1, n - 2]`` (the
        gathers reach one lane either side), plus random extras."""
        out = []
        for ax, n in enumerate(self.dims):
            i = f"i{ax}"
            b_lo = self._scalar(int(self.rng.integers(0, 2)))
            out.append(
                self._pick(
                    [f"{i} > 0", f"0 < {i}", f"{i} >= 1", f"1 <= {i}",
                     f"{i} > {b_lo}", f"{b_lo} < {i}", f"{b_lo} + 1 <= {i}"]
                )
            )
            if ax == self.open_axis:
                continue  # and no extra that could bound it either
            c = int(self.rng.integers(1, 4))
            b_hi = self._scalar(int(self.rng.integers(2, n)))
            out.append(
                self._pick(
                    [f"{i} < n{ax} - 1", f"n{ax} - 1 > {i}",
                     f"{i} <= n{ax} - 2", f"n{ax} - 2 >= {i}",
                     f"{i} < {b_hi}", f"{b_hi} > {i}", f"{i} < n{ax} - {c}"]
                )
            )
        bounded = [ax for ax in range(self.ndim) if ax != self.open_axis]
        for _ in range(int(self.rng.integers(0, 3)) if bounded else 0):
            out.append(self._extra(int(self._pick(bounded))))
        self.residual = None
        # (An aliasing kernel keeps its stores unconditional: forwarded.)
        if self.bounded and not self.alias and self.rng.random() < 0.5:
            self.residual = self._residual()
            out.append(self.residual)
        self.rng.shuffle(out)
        return out

    def _extra(self, ax: int) -> str:
        """A bound that tightens, empties, pins one row or does nothing,
        at ordinary, negative or extreme values."""
        i, n = f"i{ax}", self.dims[ax]
        row = int(self.rng.integers(1, n - 1))
        kind = self.rng.choice(6, p=[0.2, 0.2, 0.05, 0.25, 0.15, 0.15])
        if kind == 0:  # one row
            b = self._scalar(row, strong=False)
            return f"{i} >= {b} and {b} >= {i}"
        if kind == 1:  # vacuous at the top of int64
            return f"{i} <= {self._scalar(INT64_MAX)}"
        if kind == 2:  # empty: nothing lies above INT64_MAX
            return f"{self._scalar(INT64_MAX)} < {i}"
        if kind == 3:  # vacuous (or, rarely, empty) below zero
            b = self._scalar(int(self.rng.integers(-9, 0)))
            return f"{i} < {b}" if self.rng.random() < 0.1 else f"{i} >= {b}"
        if kind == 4:
            return f"{i} >= {self._scalar(row)}"
        return f"{i} <= n{ax} - {int(self.rng.integers(1, 4))}"

    def _residual(self) -> str:
        """A conjunct the clip cannot take: it stays the store mask."""
        idx = ", ".join(f"i{ax}" for ax in range(self.ndim))
        options = [
            f"src[{idx}] > tf",
            "sf > -0.75",
            f"i0 != {self._scalar(int(self.rng.integers(0, self.dims[0])))}",
            f"i{self.ndim - 1} == {self._scalar(int(self.rng.integers(0, self.dims[-1])))}",
            "i0 < tf + 20.0",
        ]
        if self.ndim > 1:
            options.append("i0 + i1 < n0")
        return self._pick(options)

    # -- source ---------------------------------------------------------
    def _source(self) -> str:
        ix = [f"i{ax}" for ax in range(self.ndim)]
        lin = ix[0]
        for ax in range(1, self.ndim):
            lin = f"({lin}) * n{ax} + i{ax}"
        self.params = (
            ["flat", "nd", "src", "w"]
            + [f"o{ax}" for ax in range(self.ndim)]
            + [f"n{ax}" for ax in range(self.ndim)]
            + ["N", "sf", "tf", "z"]
            + [name for name, _ in self.scalars]
        )
        idx = ", ".join(ix)
        body = []
        for k in range(self.K):
            gather = ", ".join(f"i{ax} - o{ax}[{k}]" for ax in range(self.ndim))
            expr = self._pick(
                [f"g{k} * w[{k}] + sf", f"(g{k} + sf) * w[{k}]",
                 f"g{k} - w[{k}]", f"g{k} * sf - w[{k}]"]
            )
            # ``* z``: at z == 0 the last plane lands on plane 0 within
            # the lane — licensed, but not ``apart``.
            plane = f"{k} * N * z" if self.alias and k == self.K - 1 else f"{k} * N"
            body += [f"g{k} = src[{gather}]", f"flat[{plane} + {lin}] = {expr}"]
        body += [
            f"r = flat[0 * N + {lin}] + flat[{self.K - 1} * N + {lin}]",
            f"nd[{idx}] = r * 0.5 + sf",
            f"flat[{self.K} * N + {lin}] = nd[{idx}] - g0",
        ]
        lines = [
            f"def {self.name}({', '.join(ix + self.params)}):",
            f"    if {' and '.join(self.guard)}:",
        ]
        lines += [f"        {line}" for line in body]
        return "\n".join(lines) + "\n"

    # -- arguments --------------------------------------------------------
    def named_args(self) -> dict:
        rng, dims = np.random.default_rng([self.seed, 1]), self.dims
        size = int(np.prod(dims))

        def values(dtype, shape, lo, hi):
            v = rng.uniform(lo, hi, shape)
            return v.astype(dtype) if np.dtype(dtype).kind == "f" else np.floor(v).astype(dtype)

        named = {
            "flat": np.zeros((self.K + 1) * size, self.dt["flat"]),
            "nd": np.zeros(dims, self.dt["nd"]),
            "src": values(self.dt["src"], dims, 0.0, 5.0),
            "w": values(DTYPES[rng.integers(4)], self.K, 1.0, 3.0),
            "N": size,
            "sf": float(rng.uniform(-1.0, 1.0)),
            "tf": float(rng.uniform(0.0, 4.0)),
            "z": int(rng.integers(0, 2)) if self.alias else 1,
        }
        for ax, n in enumerate(dims):
            # The open axis has no guard upper bound: its gathers only
            # reach down, so lane ``n - 1`` stays inside ``src``.
            low = 0 if ax == self.open_axis else -1
            named[f"o{ax}"] = rng.integers(low, 2, self.K).astype(np.int64)
            named[f"n{ax}"] = n
        named.update(self.scalars)
        return named

    def args(self) -> list:
        named = self.named_args()
        return [named[p] for p in self.params]

    def admitted(self, residual: bool = True) -> int:
        """Lanes of the whole box the guard admits (``residual=False``:
        without its residual conjunct) — the interpreter's view."""
        env = self.named_args()
        conjuncts = [c for c in self.guard if residual or c is not self.residual]
        test = eval(f"lambda {', '.join(f'i{ax}' for ax in range(self.ndim))}: "
                    f"{' and '.join(conjuncts) or 'True'}", env)
        return sum(bool(test(*lane)) for lane in np.ndindex(*self.dims))

    def boxes(self) -> list:
        """The whole box and one with ``lo != 0`` on some axis."""
        rng, sub = np.random.default_rng([self.seed, 2]), []
        for n in self.dims:
            lo = int(rng.integers(1, n))
            sub.append((lo, int(rng.integers(lo + 1, n + 1))))
        return [tuple((0, n) for n in self.dims), tuple(sub)]


def _build(seed: int):
    gen = _Gen(seed)
    ns: dict = {}
    exec(compile(gen.source, f"<{gen.name}>", "exec"), ns)
    fn = ns[gen.name]
    fn.__module__ = __name__
    fn.__qualname__ = gen.name
    globals()[gen.name] = fn
    return fn


def __getattr__(name: str):
    # ``gen_<seed>``: built on first access, so a cluster worker that
    # imports this module resolves a pickled kernel by name.
    if name.startswith("gen_") and name[4:].isdigit():
        return _build(int(name[4:]))
    raise AttributeError(name)


def case(seed: int):
    """``(generator, kernel, host args)`` for ``seed``."""
    gen = _Gen(seed)
    fn = getattr(sys.modules[__name__], gen.name)
    return gen, fn, gen.args()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _copy(args):
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


def _bits(args):
    return [a.tobytes() for a in args if isinstance(a, np.ndarray)]


def _run(fn, ndim, args, box, executor):
    out = _copy(args)
    ck = compile_kernel(fn, ndim, out, executor=executor)
    repro.synchronize()  # a native run is the C unit's, not its codegen's
    ck.run_for(IndexDomain.of(box), out)
    return _bits(out)


def _launch(backend, fn, dims, args):
    with repro.use_backend(backend):
        dev = [repro.array(a) if isinstance(a, np.ndarray) else a for a in args]
        repro.parallel_for(dims, fn, *dev)
        return [
            repro.to_host(d).tobytes()
            for d, a in zip(dev, args)
            if isinstance(a, np.ndarray)
        ]


def _no_decline():
    assert set(native_stats()["declined"]) == (set() if HAVE_CC else {"cc-missing"})


def check_seed(seed: int, threads=None, cluster=None) -> None:
    """Every rung and backend bitwise the interpreter on ``seed``'s
    kernel, no native decline, ``ivdep`` iff licensed."""
    gen, fn, args = case(seed)
    clear_cache()
    reset_state(drop_memory=False)
    trace = compile_kernel(fn, gen.ndim, args, executor="codegen").trace
    spec = _NativeLowering(trace, args).lower()
    licensed = spec["lane_scalars"] is not None
    assert ("#pragma GCC ivdep" in spec["source"]) == licensed, gen.source
    # A guard bounding every axis must earn the licence; an open axis
    # refuses it unless the guard is empty under these scalars.
    assert licensed or not gen.bounded, gen.source
    for box in gen.boxes():
        want = _run(fn, gen.ndim, args, box, "interpreter")
        for executor in ("codegen", "native"):
            assert _run(fn, gen.ndim, args, box, executor) == want, (executor, box, gen.source)
    _no_decline()
    full = tuple((0, n) for n in gen.dims)
    want = _run(fn, gen.ndim, args, full, "interpreter")
    set_executor_mode("native")
    try:
        for backend in (threads, cluster):
            if backend is not None:
                clear_cache()
                assert _launch(backend, fn, gen.dims, args) == want, (backend, gen.source)
    finally:
        set_executor_mode(None)
    _no_decline()


@pytest.fixture(autouse=True)
def fresh_lowering(monkeypatch):
    # Every compile lowers afresh: a disk entry would carry the lowering
    # an earlier call's scalars decided.
    monkeypatch.setenv("PYACC_COMPILE_CACHE", "off")
    yield
    repro.set_backend("serial")
    set_executor_mode(None)
    clear_cache()
    reset_state(drop_memory=False)


@pytest.fixture(scope="module")
def threads():
    backend = ThreadsBackend(3, min_parallel_size=1)
    yield backend
    backend.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_kernel_is_bitwise_the_interpreter(seed, threads):
    check_seed(seed, threads=threads)


def test_generated_kernels_on_cluster_shards():
    backend = ClusterBackend(2, min_parallel_size=1, shm_threshold=1)
    try:
        for seed in (1, 4):
            check_seed(seed, cluster=backend)
    finally:
        backend.close()


def wrapping_planes(i, y, z, x, m, n):
    """Licensed int64 planes whose products overflow on every lane."""
    if 0 < i and i < n - 1:
        y[n + i] = x[i] * m * m
        y[i] = x[i] * m + x[i - 1]
        z[i] = y[i] * m - x[i + 1]


def test_wrapping_int64_lanes_are_bitwise_codegen():
    # The generator draws small values; here every product wraps, so the
    # vectorized unit must keep ``-fwrapv``'s two's-complement results.
    n = 37
    x = np.random.default_rng(0).integers(2**61, 2**62, n).astype(np.int64)
    args = [np.zeros(2 * n, np.int64), np.zeros(n, np.int64), x, 7, n]
    trace = compile_kernel(wrapping_planes, 1, args, executor="codegen").trace
    assert "#pragma GCC ivdep" in _NativeLowering(trace, args).lower()["source"]
    box = ((0, n),)
    want = _run(wrapping_planes, 1, args, box, "codegen")
    assert _run(wrapping_planes, 1, args, box, "native") == want
    _no_decline()


def test_the_slice_covers_what_it_claims():
    """The fixed seeds reach every shape the module doc names."""
    gens = [_Gen(seed) for seed in SEEDS]
    assert {g.ndim for g in gens} == {1, 2, 3}
    assert {g.bounded for g in gens} == {True, False}
    assert set(DTYPES) <= {dt for g in gens for dt in g.dt.values()}
    conjuncts = [c for g in gens for c in g.guard]
    assert any(c.split()[0].startswith("i") for c in conjuncts)
    assert any(c.split()[-1].startswith("i") for c in conjuncts)  # mirrored
    values = [v for g in gens for _, v in g.scalars]
    assert INT64_MAX in values and min(values) < 0
    lanes = [(g.admitted(), g.admitted(residual=False)) for g in gens if g.bounded]
    assert 0 in {a for a, _ in lanes}  # an empty guard box
    assert sum(a > 0 for a, _ in lanes) > len(lanes) // 2
    assert any(a != b for a, b in lanes)  # a residual that masks lanes
    # Stores that land on one element within a lane, forwarded past.
    assert any(g.alias and g.named_args()["z"] == 0 and g.admitted() for g in gens)


def _sweep(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.test_native_vectorize")
    ap.add_argument("--seeds", type=int, default=400, help="seeds 0 .. N-1")
    ns = ap.parse_args(argv)
    os.environ["PYACC_COMPILE_CACHE"] = "off"
    backend = ThreadsBackend(3, min_parallel_size=1)
    try:
        for seed in range(ns.seeds):
            check_seed(seed, threads=backend)
    finally:
        backend.close()
    print(f"{ns.seeds} generated kernels bitwise the interpreter")
    return 0


if __name__ == "__main__":
    # Re-import under the package name, so generated kernels pickle as
    # ``tests.test_native_vectorize.gen_<seed>``.
    from tests import test_native_vectorize

    sys.exit(test_native_vectorize._sweep())
