"""Generated gather kernels: the native rung's index lowering against
codegen and the interpreter, bit for bit.

The native rung lowers a load in one of two ways (``repro.ir.cgen``):

* **proven** — launch indices ``i0 … i{ndim-1}`` on the leading axes (or
  none at all), then non-negative integer constants below the compiling
  call's extents: a direct flat index, no clamp; the pre-flight checks
  ``hi <= shape`` on the launch axes and ``shape > k`` on the constant
  ones and declines ``extent`` otherwise;
* **clamped** — every other gather index: the two-sided clamp the
  vectorizer's ``_gather`` applies.

Each seed builds one kernel that mixes them:

* proven loads of a 2-D or 3-D array ``p[i0, …, k1(, k2)]`` and of a
  constant-only table ``c[k]`` / ``c[k1, k2]``;
* data-dependent gathers ``x[ix[…]]`` / ``x[ix[…], jx[…]]`` through
  int32 or int64 index arrays holding negative, in-range and ``>= n``
  values, and a constant on a non-leading axis (``x[ix[…], k]``);
* on a 2-D launch, a load whose leading axis is ``i1`` (not proven);
* f64/f32/i64/i32 mixes, an optional guard, and a reduce variant.

Each kernel runs over the whole box and one with ``lo != 0``, on threads
chunks and on one cluster run; every result must be bitwise the
interpreter's with no native decline (out-of-range indices sit on the
lanes the guard masks off, which only the clamping rungs load).  Then it
runs with ``p`` (or ``c``) too short for its largest constant: a kernel
compiled on the long array declines ``extent`` and gives codegen's bits;
one compiled on the short array keeps that load's clamp, gives the same
bits and declines nothing.  With ``p`` one row short of the launch box,
both decline ``extent``.  The
tier-1 slice is :data:`SEEDS`; a longer sweep::

    PYTHONPATH=src python -m tests.test_native_gather --seeds 300

Kernels are built from their seed on first access as module attributes
(``gather_<seed>``), so cluster workers unpickle them by name.
"""

import argparse
import os
import re
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
DTYPES = (np.float64, np.float32, np.int64, np.int32)

#: The tier-1 slice: fixed seeds, a few seconds with a warm artifact cache.
SEEDS = range(20)


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


class _Gen:
    """One seed's kernel: its source, its arguments and boxes."""

    def __init__(self, seed: int):
        rng = self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.name = f"gather_{seed}"
        self.ndim = ndim = int(rng.integers(1, 3))
        self.dims = tuple(int(rng.integers(3, 12)) for _ in range(ndim))
        # ``p``: the launch axes, then one or two constant axes (rank 2-3).
        consts = 2 if ndim == 1 and rng.random() < 0.5 else 1
        self.p_ext = tuple(int(rng.integers(1, 5)) for _ in range(consts))
        # ``c``: constants only, rank 1 or 2.
        self.c_ext = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 3))))
        # ``x``: gathered through data, rank 1 or 2.
        self.x_ext = tuple(int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 3))))
        self.dt = {k: DTYPES[rng.integers(4)] for k in ("p", "c", "x", "y")}
        self.ix_dt = [(np.int32, np.int64)[rng.integers(2)] for _ in self.x_ext]
        self.reduce = bool(rng.random() < 0.3)
        self.guard = (None, "i0 > b", "ok")[rng.choice(3, p=[0.2, 0.4, 0.4])]
        self.source = self._source()

    def _const(self, ext: int) -> int:
        return int(self.rng.integers(0, ext))

    def _source(self) -> str:
        ix = [f"i{ax}" for ax in range(self.ndim)]
        lanes = ", ".join(ix)
        terms = []
        # The constants each proven load uses, per constant axis.
        self.used = {"p": [], "c": []}
        for _ in range(int(self.rng.integers(1, 4))):
            self.used["p"].append([self._const(e) for e in self.p_ext])
            terms.append(f"p[{lanes}, {', '.join(map(str, self.used['p'][-1]))}]")
        for _ in range(int(self.rng.integers(1, 3))):
            self.used["c"].append([self._const(e) for e in self.c_ext])
            terms.append(f"c[{', '.join(map(str, self.used['c'][-1]))}]")
        for _ in range(int(self.rng.integers(1, 3))):
            if len(self.x_ext) == 1:
                terms.append(f"x[ix0[{lanes}]]")
            elif self.rng.random() < 0.5:
                terms.append(f"x[ix0[{lanes}], ix1[{lanes}]]")
            else:  # a constant on an axis no launch index leads
                terms.append(f"x[ix0[{lanes}], {self._const(self.x_ext[1])}]")
        if self.ndim == 2:  # ``i1`` on the leading axis: not proven
            terms.append(f"q[i1, {self._const(3)}]")
        self.rng.shuffle(terms)
        ops = [self._pick(["+", "-", "*"]) for _ in terms[1:]]
        expr = terms[0] + "".join(f" {op} {t}" for op, t in zip(ops, terms[1:]))
        guard = f"ok[{lanes}] != 0" if self.guard == "ok" else self.guard
        if self.reduce:
            body = [f"return {expr}"]
            if guard:
                body = [f"if {guard}:", f"    return {expr}", "return 0.0"]
        else:
            body = [f"y[{lanes}] = {expr}"]
            if guard:
                body = [f"if {guard}:", f"    y[{lanes}] = {expr}"]
        # Only the arguments the body names: an unused one draws V402.
        self.params = [
            n for n in ("y", "p", "c", "x", "ix0", "ix1", "q", "ok", "b")
            if any(re.search(rf"\b{n}\b", line) for line in body)
        ]
        head = f"def {self.name}({', '.join(ix + self.params)}):"
        return "\n".join([head] + [f"    {line}" for line in body]) + "\n"

    def _pick(self, options):
        return options[self.rng.integers(len(options))]

    # -- arguments --------------------------------------------------------
    def args(self, p_ext=None, c_ext=None, p_lead=None) -> list:
        """Host arguments; ``p_ext``/``c_ext`` override the constant
        axes' extents and ``p_lead`` ``p``'s first (the short arrays of
        the ``extent`` checks)."""
        rng, dims = np.random.default_rng([self.seed, 1]), self.dims
        ok = rng.integers(0, 2, dims)
        b = int(rng.integers(-1, dims[0] - 1))
        # The lanes the guard takes read in range; the others (whose
        # loads only the clamping rungs evaluate) hold indices below 0
        # and at or past the end.
        taken = {None: True, "ok": ok != 0, "i0 > b": np.indices(dims)[0] > b}[self.guard]

        def values(dtype, shape):
            # Quarters: every product and sum is exact in float32 and
            # float64, so a reduce's fold order cannot move a bit.
            return (rng.integers(-16, 17, shape) / 4).astype(dtype)

        def index(dtype, n):
            bad = np.where(
                rng.random(dims) < 0.5, rng.integers(-3, 0, dims), rng.integers(n, n + 3, dims)
            )
            return np.where(taken, rng.integers(0, n, dims), bad).astype(dtype)

        named = {
            "y": np.zeros(dims, self.dt["y"]),
            "p": values(
                self.dt["p"], (p_lead or dims[0],) + dims[1:] + tuple(p_ext or self.p_ext)
            ),
            "c": values(self.dt["c"], tuple(c_ext or self.c_ext)),
            "x": values(self.dt["x"], self.x_ext),
            "q": values(np.float64, (dims[-1], 3)),
            "ok": ok,
            "b": b,
        }
        for k, (dt, n) in enumerate(zip(self.ix_dt, self.x_ext)):
            named[f"ix{k}"] = index(dt, n)
        return [named[name] for name in self.params]

    def shorts(self) -> list:
        """``(which, args)`` pairs with one array too short for a load:
        ``p`` or ``c`` one short of the kernel's largest constant on its
        first constant axis that uses a non-zero one (if any), and
        ``lead``: ``p`` one row short of the launch box."""
        out = [("lead", self.args(p_lead=self.dims[0] - 1))]
        for which, ext in (("p", self.p_ext), ("c", self.c_ext)):
            for ax in range(len(ext)):
                used = [ks[ax] for ks in self.used[which]]
                if max(used) > 0:
                    cut = list(ext)
                    cut[ax] = max(used)
                    return [(which, self.args(**{f"{which}_ext": tuple(cut)}))] + out
        return out

    def boxes(self) -> list:
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
    if name.startswith("gather_") and name[7:].isdigit():
        return _build(int(name[7:]))
    raise AttributeError(name)


def case(seed: int):
    """``(generator, kernel, host args)`` for ``seed``."""
    gen = _Gen(seed)
    return gen, getattr(sys.modules[__name__], gen.name), gen.args()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _copy(args):
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


def _run(gen, fn, args, box, executor, compile_args=None):
    """Bits of every array (and a reduce's value) after one run over
    ``box``, compiled on ``compile_args`` (default: ``args``)."""
    out = _copy(args)
    ck = compile_kernel(
        fn, gen.ndim, _copy(compile_args or args), reduce=gen.reduce, executor=executor
    )
    repro.synchronize()  # a native run is the C unit's, not its codegen's
    dom = IndexDomain.of(box)
    value = ck.run_reduce(dom, out) if gen.reduce else ck.run_for(dom, out)
    bits = [a.tobytes() for a in out if isinstance(a, np.ndarray)]
    return bits + [np.float64(value).tobytes() if gen.reduce else b""]


def _launch(backend, gen, fn, args):
    with repro.use_backend(backend):
        dev = [repro.array(a) if isinstance(a, np.ndarray) else a for a in args]
        if gen.reduce:
            value = repro.parallel_reduce(gen.dims, fn, *dev)
        else:
            value = repro.parallel_for(gen.dims, fn, *dev)
        bits = [
            repro.to_host(d).tobytes() for d, a in zip(dev, args) if isinstance(a, np.ndarray)
        ]
        return bits + [np.float64(value).tobytes() if gen.reduce else b""]


def _declined() -> set:
    got = set(native_stats()["declined"])
    return got if HAVE_CC else got - {"cc-missing"}


def _fresh():
    clear_cache()
    reset_state(drop_memory=False)


def check_seed(seed: int, threads=None, cluster=None) -> None:
    """Every rung and backend bitwise the interpreter on ``seed``'s
    kernel with no native decline; then the short-array checks."""
    gen, fn, args = case(seed)
    _fresh()
    trace = compile_kernel(fn, gen.ndim, args, reduce=gen.reduce, executor="codegen").trace
    spec = _NativeLowering(trace, args).lower()
    assert spec["gathers"]["proven"] > 0 and spec["gathers"]["clamped"] > 0, gen.source
    for box in gen.boxes():
        want = _run(gen, fn, args, box, "interpreter")
        for executor in ("codegen", "native"):
            assert _run(gen, fn, args, box, executor) == want, (executor, box, gen.source)
    assert _declined() == set(), gen.source
    full = tuple((0, n) for n in gen.dims)
    want = _run(gen, fn, args, full, "interpreter")
    set_executor_mode("native")
    try:
        for backend in (threads, cluster):
            if backend is not None:
                _fresh()
                assert _launch(backend, gen, fn, args) == want, (backend, gen.source)
    finally:
        set_executor_mode(None)
    assert _declined() == set(), gen.source
    # A taken lane now reads past the end: the interpreter raises there
    # and the clamping rungs read the last element, so codegen is the
    # reference.  Compiled on the long array, the load is proven and the
    # short call declines ``extent`` to codegen.  Compiled on the short
    # array, a constant load keeps its clamp; a launch axis is proven
    # whatever the shapes (the lowering knows no box) and declines.
    extent = {"extent"} if HAVE_CC else set()
    for which, small in gen.shorts():
        want = _run(gen, fn, small, full, "codegen")
        _fresh()
        assert _run(gen, fn, small, full, "native", compile_args=args) == want, (which, gen.source)
        assert _declined() == extent, (which, gen.source)
        _fresh()
        assert _run(gen, fn, small, full, "native") == want, (which, gen.source)
        assert _declined() == (extent if which == "lead" else set()), (which, gen.source)


@pytest.fixture(autouse=True)
def fresh_lowering(monkeypatch):
    # Every compile lowers afresh: a disk entry would carry the lowering
    # an earlier call's shapes decided.
    monkeypatch.setenv("PYACC_COMPILE_CACHE", "off")
    yield
    repro.set_backend("serial")
    set_executor_mode(None)
    _fresh()


@pytest.fixture(scope="module")
def threads():
    backend = ThreadsBackend(3, min_parallel_size=1)
    yield backend
    backend.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_gather_kernel_is_bitwise_the_interpreter(seed, threads):
    check_seed(seed, threads=threads)


def test_generated_gathers_on_cluster_shards():
    backend = ClusterBackend(2, min_parallel_size=1, shm_threshold=1)
    try:
        for seed in (0, 3):
            check_seed(seed, cluster=backend)
    finally:
        backend.close()


def test_the_slice_covers_what_it_claims():
    """The fixed seeds reach every shape the module doc names."""
    gens = [_Gen(seed) for seed in SEEDS]
    assert {g.ndim for g in gens} == {1, 2}
    assert {g.ndim + len(g.p_ext) for g in gens} == {2, 3}
    assert {len(g.c_ext) for g in gens} == {1, 2}
    assert {len(g.x_ext) for g in gens} == {1, 2}
    assert {np.int32, np.int64} <= {dt for g in gens for dt in g.ix_dt}
    assert set(DTYPES) <= {dt for g in gens for dt in g.dt.values()}
    assert {g.reduce for g in gens} == {True, False}
    assert {g.guard is None for g in gens} == {True, False}
    assert any(", ix1[" in g.source for g in gens)
    assert any(re.search(r"x\[ix0\[[^]]*\], \d", g.source) for g in gens)
    assert any("q[i1, " in g.source for g in gens)
    assert {which for g in gens for which, _ in g.shorts()} == {"p", "c", "lead"}
    # Index arrays hold negative, in-range and past-the-end values.
    ix = [(g.args()[g.params.index("ix0")], g.x_ext[0]) for g in gens]
    assert all(((0 <= i) & (i < n)).any() for i, n in ix)
    assert sum((i < 0).any() and (i >= n).any() for i, n in ix) > len(ix) // 2


# ---------------------------------------------------------------------------
# A gather from an empty array
# ---------------------------------------------------------------------------


def empty_gather(i, y, x, idx):
    y[i] = x[idx[i]]


def masked_empty_gather(i, y, x, idx, m):
    if i < m:
        y[i] = x[idx[i]]


def _gather_from_empty(backend, executor, fn, *scalars):
    _fresh()
    set_executor_mode(executor)
    with repro.use_backend(backend):
        y = repro.array(np.ones(4))
        x = repro.array(np.zeros(0))
        idx = repro.array(np.array([0, 1, -1, 5]))
        repro.parallel_for(4, fn, y, x, idx, *scalars)
        return repro.to_host(y)


@pytest.mark.parametrize("executor", ["native", "codegen", "interpreter"])
@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_a_gather_from_an_empty_array_raises_on_every_rung(backend, executor):
    # Clamping into an empty axis has no element to read: the native
    # pre-flight declines ``extent``, so the call raises what the other
    # rungs raise instead of reading past the allocation.
    with pytest.raises(IndexError):
        _gather_from_empty(backend, executor, empty_gather)
    want = {"extent"} if executor == "native" and HAVE_CC else set()
    assert _declined() == want


@pytest.mark.parametrize("executor", ["native", "codegen", "interpreter"])
@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_a_masked_gather_from_an_empty_array(backend, executor):
    # With every lane masked off only the interpreter, which evaluates
    # a load on taken lanes alone, runs the call.  The C unit, like
    # codegen, evaluates the gather on every lane and masks the store,
    # so the native pre-flight declines ``extent`` and codegen raises.
    if executor == "interpreter":
        assert _gather_from_empty(backend, executor, masked_empty_gather, 0).tolist() == [1.0] * 4
    else:
        with pytest.raises(IndexError):
            _gather_from_empty(backend, executor, masked_empty_gather, 0)
    want = {"extent"} if executor == "native" and HAVE_CC else set()
    assert _declined() == want


# ---------------------------------------------------------------------------
# The units the benchmarks run
# ---------------------------------------------------------------------------

#: The two-sided clamp of one gather index.
CLAMP = re.compile(r"if \((t\d+) < 0\) \1 = 0;\n\s*if \(\1 >= (a\d+_n\d+)\) \1 = \2 - 1;")


def _unit(fn, ndim, args):
    trace = compile_kernel(fn, ndim, args, executor="codegen").trace
    return _NativeLowering(trace, args).lower()


def _targets_gathers() -> bool:
    """Whether ``cc`` under the rung's flags targets AVX2 or wider, the
    ISAs whose vector gathers let gcc vectorize the LBM unit."""
    import subprocess

    from repro.ir.nativecache import _flags

    cc = resolve_cc()
    if cc is None:
        return False
    done = subprocess.run(
        [cc, *_flags(), "-dM", "-E", "-x", "c", os.devnull],
        capture_output=True, text=True, timeout=60,
    )
    return "__AVX2__" in done.stdout


def test_ell_matvec_clamps_only_its_data_gathers():
    # 27 slots x (vals[i, k], cols[i, k]: two proven indices each, and
    # x[cols[i, k]]: one index only the data bounds).  Every index was
    # clamped before proven loads: 135.
    from repro.apps import hpccg

    a, _, _ = hpccg.build_27pt_problem(4, 4, 4)
    spec = _unit(hpccg.matvec_ell_kernel, 1, [a.cols, a.vals, np.ones(a.n), np.zeros(a.n)])
    assert spec["gathers"] == {"proven": 108, "clamped": 27}
    assert len(CLAMP.findall(spec["source"])) == 27
    assert spec["extent_slots"] == (0, 1, 3)


def test_lbm_unit_proves_its_tables_and_vectorizes():
    from repro.apps import lbm
    from repro.ir.inspect import _vectorize_report

    n = 8
    args = [np.zeros(9 * n * n), np.ones(9 * n * n), np.zeros(9 * n * n), 0.6,
            lbm.WEIGHTS, lbm.CX, lbm.CY, n]
    spec = _unit(lbm.lbm_kernel, 2, args)
    src = spec["source"]
    # WEIGHTS[k], CX[k], CY[k] are proven; the nine f1 pulls keep the
    # clamp, which gcc's vectorizer turns into min/max.
    assert spec["gathers"] == {"proven": 27, "clamped": 9}
    assert len(CLAMP.findall(src)) == 9
    if _targets_gathers():
        vec = _vectorize_report(src)
        assert vec is not None and vec[0] == 1, vec


def _sweep(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.test_native_gather")
    ap.add_argument("--seeds", type=int, default=300, help="seeds 0 .. N-1")
    ns = ap.parse_args(argv)
    os.environ["PYACC_COMPILE_CACHE"] = "off"
    backend = ThreadsBackend(3, min_parallel_size=1)
    try:
        for seed in range(ns.seeds):
            check_seed(seed, threads=backend)
    finally:
        backend.close()
    print(f"{ns.seeds} generated gather kernels bitwise the interpreter")
    return 0


if __name__ == "__main__":
    # Re-import under the package name, so generated kernels pickle as
    # ``tests.test_native_gather.gather_<seed>``.
    from tests import test_native_gather

    sys.exit(test_native_gather._sweep())
