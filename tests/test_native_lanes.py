"""The native rung's single-loop licence (repro.ir.cgen + repro.ir.verify).

A multi-store kernel whose lanes ``repro.ir.verify.lane_conflict``
*proves* independent lowers to one C loop nest instead of one
whole-domain pass per scatter store.  Four layers of guarantees:

* bit-identity — the LBM kernels (the paper's fused multidimensional
  ``parallel_for``) agree bitwise across every executor rung on serial,
  chunked threads and the 2-worker cluster;
* structure — one loop nest and no scatter exits under the licence, no
  proof requested for one-group kernels, the parent's per-group source
  byte for byte where independence is not provable;
* the pre-flight guard — the licence is re-proven per call, so colliding
  lanes, wrapping indices, shared storage and short arrays decline
  before any side effect and produce the codegen bits;
* a Hypothesis slice — proof granted ⇒ order-invariant (single-loop
  native ≡ a lane-permuted scalar oracle), proof refused ⇒ grouped.

Nothing here depends on the ``verify`` diagnostic mode, and every test
also passes on a compiler-less host (the native leg degrades to codegen;
the lowering decisions are checked on the C source, which needs no cc).
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.apps import cg, lbm, lbm3d
from repro.backends.cluster import ClusterBackend
from repro.backends.threads import ThreadsBackend
from repro.core.exceptions import KernelExecutionError
from repro.ir import cgen, suppress, verify
from repro.ir.cgen import NativeDeclined, _NativeLowering
from repro.ir.compile import clear_cache, compile_kernel, set_executor_mode
from repro.ir.nativecache import native_stats, reset_state, resolve_cc
from repro.ir.vectorizer import IndexDomain

HAVE_CC = resolve_cc() is not None
LOOP = "for (int64_t i0"


@pytest.fixture(autouse=True)
def fresh_state():
    clear_cache()
    reset_state(drop_memory=False)
    yield
    repro.set_backend("serial")
    set_executor_mode(None)
    clear_cache()
    reset_state(drop_memory=False)


def _lower(fn, ndim, args):
    """The native lowering's spec for ``fn`` — no compiler involved."""
    ck = compile_kernel(fn, ndim, args, executor="codegen")
    return _NativeLowering(ck.trace, args).lower()


def _same_bits(got, want):
    return all(
        a.tobytes() == b.tobytes()
        for a, b in zip(got, want)
        if isinstance(a, np.ndarray)
    )


def _copy(args):
    """Private copies that keep one object passed twice one object."""
    copies = {id(a): a.copy() for a in args if isinstance(a, np.ndarray)}
    return [copies.get(id(a), a) for a in args]


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def strided(i, y, z, x, s, n):
    """Independent lanes iff ``s != 0``: at ``s == 0`` every lane stores
    and re-reads ``y[0]``, so store-by-store order (``z = 2·x[-1]``) and
    lane-by-lane order (``z = 2·x``) give different bits.  The guard is
    what bounds the indices for the lowering's box-free proof."""
    if 0 <= i and i < n:
        y[s * i] = x[i]
        z[i] = 2.0 * y[s * i]


def shifted(i, y, z, x, off, n):
    """At ``off == -1`` lane 0 stores ``y[-1]`` (NumPy wraps it onto the
    last element) — not the location the affine form names."""
    if 0 <= i and i < n:
        y[i + off] = x[i]
        z[i] = 2.0 * y[i + off]


def unguarded(i, y, z, x, s):
    """``strided`` without its guard: independent over any finite box,
    but nothing in the kernel bounds ``s * i``."""
    y[s * i] = x[i]
    z[i] = 2.0 * y[s * i]


def two_planes(i, y, z, x, p, n):
    """Lanes independent for every ``p``; at ``p == 0`` each lane's
    second store overwrites its first, so the reload of ``y[i]`` must
    see ``2·x``: the store may only be forwarded past the second one
    while the two are proven apart."""
    if 0 <= i and i < n:
        y[i] = x[i]
        y[i + p * n] = 2.0 * x[i]
        z[i] = y[i] + 1.0


def two_planes_read_first(i, y, z, x, p, n):
    """``two_planes`` with the reload before the second store: its
    forward passes no store, so nothing needs the stores apart."""
    if 0 <= i and i < n:
        y[i] = x[i]
        z[i] = y[i] + 1.0
        y[i + p * n] = 2.0 * x[i]


def float_guarded(i, y, z, x, s, t):
    if 0 <= i and i < t:
        y[s * i] = x[i]
        z[i] = 2.0 * y[s * i]


def perm_scatter(i, y, z, p, x):
    y[p[i]] = x[i]
    z[i] = x[i] + 1.0


@suppress("V101")
def last_writer(i, bins, y, x):
    bins[0] = x[i]
    y[i] = 2.0 * x[i]


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


def _guard_args(n, s, y_len=None):
    return [
        np.zeros(2 * n + 2 if y_len is None else y_len),
        np.zeros(n),
        np.arange(1.0, n + 1),
        s,
        n,
    ]


def _lbm_args(n, rng, obstacle=False):
    f1 = rng.random(9 * n * n) + 0.5
    args = [np.zeros(9 * n * n), f1, rng.random(9 * n * n), 0.8]
    args += [lbm.WEIGHTS, lbm.CX, lbm.CY]
    if obstacle:
        solid = (rng.random((n, n)) < 0.2).astype(np.int64)
        args += [solid, lbm.OPPOSITE]
    return args + [n]


def _lbm3d_args(n, rng):
    size = 19 * n**3
    return [
        np.zeros(size), rng.random(size) + 0.5, rng.random(size), 0.8,
        lbm3d.WEIGHTS3D, lbm3d.CX3D, lbm3d.CY3D, lbm3d.CZ3D, n,
    ]


LBM_CASES = {
    "lbm": (lbm.lbm_kernel, 2, lambda n, rng: _lbm_args(n, rng)),
    "obstacle": (lbm.lbm_obstacle_kernel, 2, lambda n, rng: _lbm_args(n, rng, True)),
    "lbm3d": (lbm3d.lbm3d_kernel, 3, _lbm3d_args),
}


def _launch(backend, executor, fn, dims, host_args):
    """One ``parallel_for`` of ``fn`` on ``backend`` at rung ``executor``
    over private copies; returns the arrays back on the host."""
    set_executor_mode(executor)
    clear_cache()
    with repro.use_backend(backend):
        dev = [
            repro.array(a) if isinstance(a, np.ndarray) else a for a in host_args
        ]
        repro.parallel_for(dims, fn, *dev)
        return [
            repro.to_host(a) for a in dev if not isinstance(a, (int, float))
        ]


# ---------------------------------------------------------------------------
# (a) Bit-identity across rungs and backends
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("case", LBM_CASES)
    @pytest.mark.parametrize("n", [5, 8])
    def test_every_rung_agrees_on_serial(self, case, n):
        fn, ndim, make = LBM_CASES[case]
        args = make(n, np.random.default_rng(n))
        oracle = _launch("serial", "interpreter", fn, (n,) * ndim, args)
        for executor in ("vector", "codegen", "native"):
            got = _launch("serial", executor, fn, (n,) * ndim, args)
            assert _same_bits(got, oracle), executor
        stats = native_stats()
        assert stats["declined"] == ({} if HAVE_CC else {"cc-missing": 1})
        assert stats["single_loop"] == (1 if HAVE_CC else 0)

    @pytest.mark.parametrize("case", LBM_CASES)
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_chunked_threads_agree_with_the_oracle(self, case, n_threads):
        # min_parallel_size=1 forces one chunk per worker, so with more
        # than one thread the kernel runs over boxes with lo != 0.
        fn, ndim, make = LBM_CASES[case]
        n = 9
        args = make(n, np.random.default_rng(7))
        oracle = _launch("serial", "interpreter", fn, (n,) * ndim, args)
        backend = ThreadsBackend(n_threads, min_parallel_size=1)
        try:
            got = _launch(backend, "native", fn, (n,) * ndim, args)
        finally:
            backend.close()
        assert _same_bits(got, oracle)
        assert native_stats()["declined"] == ({} if HAVE_CC else {"cc-missing": 1})

    @pytest.mark.parametrize("case", LBM_CASES)
    def test_two_worker_cluster_agrees_with_the_oracle(self, case):
        fn, ndim, make = LBM_CASES[case]
        n = 8
        args = make(n, np.random.default_rng(11))
        oracle = _launch("serial", "interpreter", fn, (n,) * ndim, args)
        backend = ClusterBackend(2, min_parallel_size=1, shm_threshold=1)
        try:
            got = _launch(backend, "native", fn, (n,) * ndim, args)
        finally:
            backend.close()
        assert _same_bits(got, oracle)

    def test_several_steps_keep_the_digest_across_rungs(self):
        digests = set()
        for executor in ("native", "codegen"):
            set_executor_mode(executor)
            clear_cache()
            sim = lbm.LBM(12, lid_velocity=0.05)
            sim.step(5)
            digests.add(hashlib.sha256(sim.distribution().tobytes()).hexdigest())
        assert len(digests) == 1


# ---------------------------------------------------------------------------
# (b) Structure of the lowering
# ---------------------------------------------------------------------------

#: sha256 of the grouped C source at the parent commit (5bdef99): the
#: licence must leave kernels it cannot prove exactly as they were.
PARENT_SOURCE = {
    "perm_scatter": (2, "1a833fae81e9"),
    "last_writer": (2, "0c03e1472f26"),
}


class TestStructure:
    def test_lbm_is_one_loop_nest_without_scatter_exits(self):
        n = 8
        spec = _lower(lbm.lbm_kernel, 2, _lbm_args(n, np.random.default_rng(0)))
        src = spec["source"]
        assert src.count(LOOP) == 1
        assert "return 0 + 1" not in src and "return 2 + 1" not in src
        assert src.count("return ") == 1  # the final ``return 0;``
        assert spec["lane_scalars"] == (7,)  # n, not tau
        # The unproven gather through the runtime ``cx[k]`` keeps its clamp.
        assert "a1_n0 - 1" in src

    def test_lbm_tells_cc_what_the_licence_proved(self):
        spec = _lower(lbm.lbm_kernel, 2, _lbm_args(8, np.random.default_rng(0)))
        src = spec["source"]
        assert src.count("#pragma GCC ivdep") == 1
        assert (
            '#pragma GCC optimize ("vect-cost-model=dynamic", "fp-contract=off", "wrapv")'
            in src
        )
        # The guard became loop bounds: no store sits under an ``if``.
        assert not re.search(r"if \(t\d+\) \{", src)
        assert "if (t1 < hi0) hi0 = t1;" in src  # x < n - 1
        # Every plane's reload of ``f`` (arg 0) takes its stored value,
        # past the later planes' stores (proven apart): the nine
        # references left are the nine stores.
        assert spec["lane_apart"] is True
        assert src.count("a0[") == 9 and src.count("] = ") == 18

    def test_unlicensed_and_reduce_units_get_no_ivdep(self):
        n = 8
        args = [np.zeros(n), np.zeros(n), np.arange(n)[::-1].copy(), np.ones(n)]
        assert "ivdep" not in _lower(perm_scatter, 1, args)["source"]
        v = np.ones(n)
        assert "ivdep" not in _lower(dot, 1, [v, v])["source"]

    @pytest.mark.skipif(
        not HAVE_CC or shutil.which("objdump") is None, reason="needs cc and objdump"
    )
    def test_the_vectorized_unit_has_no_fma(self, tmp_path, monkeypatch):
        # ``-ffp-contract=off`` must survive the unit's optimize pragma:
        # a fused multiply-add rounds once where NumPy rounds twice.
        monkeypatch.setenv("PYACC_NATIVE_CACHE", str(tmp_path))
        reset_state()
        ck = compile_kernel(
            lbm.lbm_kernel, 2, _lbm_args(8, np.random.default_rng(0)), executor="native"
        )
        assert ck.native is not None and "ivdep" in ck.native.source
        (so,) = tmp_path.glob("*.so")
        asm = subprocess.run(
            ["objdump", "-d", str(so)], capture_output=True, text=True, check=True
        ).stdout
        assert not re.search(r"\s(v?fn?m(add|sub)\w*|fml[as])\s", asm)

    def test_lbm3d_and_obstacle_are_one_loop_nest(self):
        rng = np.random.default_rng(0)
        for fn, ndim, args in (
            (lbm.lbm_obstacle_kernel, 2, _lbm_args(6, rng, True)),
            (lbm3d.lbm3d_kernel, 3, _lbm3d_args(5, rng)),
        ):
            spec = _lower(fn, ndim, args)
            assert spec["source"].count(LOOP) == 1
            assert spec["lane_scalars"] is not None

    def test_one_group_kernels_request_no_proof(self, monkeypatch):
        calls = []
        real = cgen._verify.lane_conflict

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(cgen._verify, "lane_conflict", counting)
        n = 16
        v = np.ones(n)
        for fn, args, reduce in (
            (axpy, [2.0, v.copy(), v], False),
            (dot, [v, v], True),
            (
                cg.matvec_tridiag_kernel,
                [v, v, v, v, np.zeros(n), n],
                False,
            ),
        ):
            ck = compile_kernel(fn, 1, args, reduce=reduce, executor="native")
            spec = _NativeLowering(ck.trace, args).lower()
            assert spec["source"].count(LOOP) == 1
            assert spec["lane_scalars"] is None
            dom = IndexDomain.full((n,))
            for _ in range(3):
                if reduce:
                    ck.run_reduce(dom, args)
                else:
                    ck.run_for(dom, args)
        assert calls == []
        assert native_stats()["single_loop"] == 0
        # ... while a multi-group kernel asks exactly once per lowering.
        _lower(lbm.lbm_kernel, 2, _lbm_args(6, np.random.default_rng(0)))
        assert calls == [1]

    @pytest.mark.parametrize("name", PARENT_SOURCE)
    def test_unprovable_kernels_keep_the_parents_grouped_source(self, name):
        n = 8
        if name == "perm_scatter":
            fn = perm_scatter
            args = [np.zeros(n), np.zeros(n), np.arange(n)[::-1].copy(), np.ones(n)]
        else:
            fn = last_writer
            args = [np.zeros(2), np.zeros(n), np.ones(n)]
        spec = _lower(fn, 1, args)
        nests, digest = PARENT_SOURCE[name]
        src = spec["source"]
        assert spec["lane_scalars"] is None
        assert src.count(LOOP) == nests
        assert "return 0 + 1" in src  # the scatter keeps its exit
        # The digests are the parent's: its units included the headers
        # the prelude now stands in for.
        parent = src.replace(cgen._PRELUDE, "#include <stdint.h>\n#include <math.h>\n")
        assert hashlib.sha256(parent.encode()).hexdigest()[:12] == digest

    def test_suppression_and_verify_mode_do_not_grant_the_licence(self):
        # ``last_writer`` has no *reported* finding (V101 is suppressed)
        # and ``off`` reports nothing at all; neither is a proof.
        n = 8
        args = [np.zeros(2), np.zeros(n), np.ones(n)]
        with repro.verify_mode("off"):
            spec = _lower(last_writer, 1, args)
        assert spec["lane_scalars"] is None
        with repro.verify_mode("off"):
            spec = _lower(lbm.lbm_kernel, 2, _lbm_args(6, np.random.default_rng(0)))
        assert spec["lane_scalars"] == (7,)

    def test_narrow_integer_index_arithmetic_is_not_licensed(self):
        # ``s * i`` in int64 is the affine form's value; an int32 ``s*s``
        # intermediate can wrap where the form does not.
        def narrow(i, y, z, x, s, n):
            if 0 <= i and i < n:
                y[s * s * i] = x[i]
                z[i] = 2.0 * y[s * s * i]

        n = 4
        args = [np.zeros(4 * n + 2), np.zeros(n), np.ones(n), np.int32(2), n]
        assert _lower(narrow, 1, args)["lane_scalars"] is None
        args[3] = 2
        assert _lower(narrow, 1, args)["lane_scalars"] == (3, 4)

    def test_indices_only_the_launch_box_bounds_are_refused(self):
        # The lowering knows no box: the proof must hold under the
        # kernel's guards alone, so which launch compiles a kernel first
        # cannot change its lowering.
        spec = _lower(unguarded, 1, _guard_args(8, 2)[:4])
        assert spec["lane_scalars"] is None
        assert spec["source"].count(LOOP) == 2
        assert _lower(strided, 1, _guard_args(8, 2))["lane_scalars"] == (3, 4)

    @pytest.mark.parametrize("case", sorted(LBM_CASES))
    def test_memo_key_covers_every_scalar_the_proof_reads(self, case):
        fn, ndim, make = LBM_CASES[case]
        args = make(6, np.random.default_rng(0))
        ck = compile_kernel(fn, ndim, args, executor="codegen")
        _assert_consumed_covers_used(ck.trace, args, (6,) * ndim)


# ---------------------------------------------------------------------------
# (c) The pre-flight guard
# ---------------------------------------------------------------------------


def _licensed(fn, args):
    ck = compile_kernel(fn, 1, args, executor="native")
    if HAVE_CC:
        assert ck.native is not None and ck.native._lane_scalars == (3, 4)
    return ck


def _assert_consumed_covers_used(trace, args, dims):
    """The static ``consumed_scalars`` (the memo key) names every scalar
    the proof run itself read, bounded by guards alone or by ``dims``."""
    shapes, scalars = verify._args_env(args)
    for box in (None, dims):
        v = verify._Verifier(
            trace, dims=box, shapes=shapes, scalars=scalars, op=None, kernel=""
        )
        v.collect()
        v.lane_conflict()
        assert v.used_scalars <= set(verify.consumed_scalars(trace))


def _codegen_result(fn, args, n):
    out = _copy(args)
    compile_kernel(fn, 1, out, executor="codegen").run_for(IndexDomain.full((n,)), out)
    return out


class TestPreflightGuard:
    N = 8

    def _declines(self, ck, args, reason):
        """``args`` decline ``reason`` before any side effect, and the
        compiled kernel then produces the codegen bits."""
        n = self.N
        dom = IndexDomain.full((n,))
        want = _codegen_result(ck.fn, args, n)
        if HAVE_CC:
            before = _copy(args)
            with pytest.raises(NativeDeclined) as exc:
                ck.native.run_for(dom, args)
            assert exc.value.reason == reason
            assert _same_bits(args, before)
        base = native_stats()["declined"].get(reason, 0)
        ck.run_for(dom, args)
        assert _same_bits(args, want)
        if HAVE_CC:
            assert native_stats()["declined"][reason] == base + 1

    def test_proven_call_runs_native_single_loop(self):
        n = self.N
        args = _guard_args(n, 2)
        ck = _licensed(strided, args)
        want = _codegen_result(strided, args, n)
        ck.run_for(IndexDomain.full((n,)), args)
        assert _same_bits(args, want)
        assert np.array_equal(args[1], 2.0 * args[2])
        assert native_stats()["declined"] == ({} if HAVE_CC else {"cc-missing": 1})

    def test_colliding_lanes_decline(self):
        n = self.N
        ck = _licensed(strided, _guard_args(n, 2))
        args = _guard_args(n, 0)
        self._declines(ck, args, "lanes")
        # Store-by-store order: every lane read the last lane's store.
        assert np.array_equal(args[1], np.full(n, 2.0 * n))

    def test_wrapping_store_index_declines(self):
        n = self.N
        ck = _licensed(shifted, _guard_args(n, 1))
        args = _guard_args(n, -1)
        self._declines(ck, args, "lanes")
        assert args[0][-1] == 1.0  # lane 0 wrapped onto the last element

    def test_stores_no_longer_apart_decline(self):
        # Compiled where the two stores are apart, so the reload of
        # ``y[i]`` was forwarded past the second one; at ``p == 0`` they
        # hit one element and the forwarded value would be stale.
        n = self.N
        ck = _licensed(two_planes, _guard_args(n, 1))
        if HAVE_CC:
            assert ck.native._lane_apart is True
        args = _guard_args(n, 0)
        self._declines(ck, args, "lanes")
        assert np.array_equal(args[1], 2.0 * args[2] + 1.0)

    def test_coinciding_stores_run_native_where_no_forward_passed_them(self):
        # The same stores, but the forward of ``y[i]`` passes none: the
        # kernel keeps the plain licence and runs native at ``p == 0``.
        n = self.N
        ck = _licensed(two_planes_read_first, _guard_args(n, 1))
        if HAVE_CC:
            assert ck.native._lane_apart is False
        args = _guard_args(n, 0)
        want = _codegen_result(two_planes_read_first, args, n)
        ck.run_for(IndexDomain.full((n,)), args)
        assert _same_bits(args, want)
        assert np.array_equal(args[0][:n], 2.0 * args[2])
        assert native_stats()["declined"] == ({} if HAVE_CC else {"cc-missing": 1})

    def test_shared_storage_declines_alias(self):
        n = self.N
        ck = _licensed(strided, _guard_args(n, 2))
        args = _guard_args(n, 2)
        args[2] = args[1]  # z (written) and x (read) are one object
        args[1][:] = np.arange(1.0, n + 1)
        self._declines(ck, args, "alias")

    def test_smaller_arrays_than_the_proofs_decline(self):
        n = self.N
        ck = _licensed(strided, _guard_args(n, 2))
        dom = IndexDomain.full((n,))
        short_y = _guard_args(n, 2, y_len=n)
        before = _copy(short_y)
        if HAVE_CC:
            with pytest.raises(NativeDeclined) as exc:
                ck.native.run_for(dom, short_y)
            assert exc.value.reason == "lanes"
        # ... and the fallback reports the overrun like any other rung.
        with pytest.raises(KernelExecutionError):
            ck.run_for(dom, short_y)
        assert _same_bits(short_y, before)
        short_z = _guard_args(n, 2)
        short_z[1] = np.zeros(n - 1)
        if HAVE_CC:
            with pytest.raises(NativeDeclined) as exc:
                ck.native.run_for(dom, short_z)
            assert exc.value.reason == "extent"

    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_non_finite_guard_scalar_declines_instead_of_crashing(self, t):
        # The verifier's box arithmetic raises on inf/NaN bounds; for the
        # pre-flight an analysis that cannot finish is a refusal.
        n = self.N
        good = _guard_args(n, 2)
        good[4] = float(n)
        ck = compile_kernel(float_guarded, 1, good, executor="native")
        if HAVE_CC:
            assert ck.native._lane_scalars == (3, 4)
        args = _guard_args(n, 2)
        args[4] = t
        self._declines(ck, args, "lanes")

    def test_negative_lower_bound_declines(self):
        n = self.N
        ck = _licensed(strided, _guard_args(n, 2))
        if HAVE_CC:
            with pytest.raises(NativeDeclined) as exc:
                ck.native.preflight(IndexDomain([(-1, 3)]), _guard_args(n, 2))
            assert exc.value.reason == "lanes"

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on host")
    def test_memo_is_hit_not_reproven_and_stays_bounded(self, tmp_path, monkeypatch):
        # A private disk tier: a warm load would skip the lowering.
        monkeypatch.setenv("PYACC_COMPILE_CACHE", str(tmp_path / "compile"))
        calls = []
        real = cgen._verify.lane_conflict

        def counting(*a, **kw):
            calls.append(kw["dims"])
            return real(*a, **kw)

        monkeypatch.setattr(cgen._verify, "lane_conflict", counting)
        n = self.N
        ck = _licensed(strided, _guard_args(n, 2))
        assert calls == [None]  # the lowering's own, box-free request
        dom = IndexDomain.full((n,))
        for _ in range(4):
            ck.run_for(dom, _guard_args(n, 2))
        assert calls == [None, (n,)]  # one pre-flight proof, three memo hits
        for _ in range(2):  # a refusal is memoized too
            ck.run_for(dom, _guard_args(n, 0))
        assert len(calls) == 3
        # Sub-boxes key on their own enclosing box; sizes sweep the bound.
        for m in range(1, 3 * cgen._LANE_MEMO_MAX):
            ck.run_for(IndexDomain.full((m,)), _guard_args(m, 2))
            assert len(ck.native._lane_memo) <= cgen._LANE_MEMO_MAX
        assert native_stats()["declined"] == {"lanes": 2}

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on host")
    def test_disk_loaded_kernel_still_proves_each_call(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYACC_COMPILE_CACHE", str(tmp_path / "compile"))
        n = self.N
        _licensed(strided, _guard_args(n, 2))
        clear_cache()
        hits = repro.cache_info()["disk"]["disk_hits"]
        ck = compile_kernel(strided, 1, _guard_args(n, 2), executor="native")
        assert repro.cache_info()["disk"]["disk_hits"] == hits + 1
        assert ck.native._lane_scalars == (3, 4) and ck.native._lane_memo == {}
        self._declines(ck, _guard_args(n, 0), "lanes")
        good = _guard_args(n, 2)
        ck.run_for(IndexDomain.full((n,)), good)
        assert np.array_equal(good[1], 2.0 * good[2])


# ---------------------------------------------------------------------------
# (d) Hypothesis: proof granted => order-invariant; refused => grouped
# ---------------------------------------------------------------------------


def affine1d(i, y, z, x, glo, ghi, a0, a1, b0, b1, l0, l1):
    if glo <= i and i < ghi:
        y[a0 + a1 * i] = x[i] + 1.0
        z[i] = 3.0 * y[l0 + l1 * i]
        y[b0 + b1 * i] = 2.0 * x[i] - 0.5


def affine2d(i, j, y, z, x, ni, glo, ghi, a0, a1, a2, b0, b1, b2):
    if 0 <= i and i < ni and glo <= j and j < ghi:
        y[a0 + a1 * i + a2 * j] = x[i, j] + 1.0
        z[i, j] = 3.0 * y[a0 + a1 * i + a2 * j]
        y[b0 + b1 * i + b2 * j] = 2.0 * x[i, j] - 0.5


_off = st.integers(-1, 4)


@st.composite
def _affine_case(draw):
    """``(kernel, dims, seed, scalars)``.  Strides are drawn mostly
    equal so disjoint residue classes (a proof) are as common as
    collisions, zero strides and out-of-range offsets (refusals)."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        n = draw(st.integers(2, 9))
        glo, ghi = draw(st.integers(0, 1)), draw(st.integers(n - 1, n + 1))
        s = draw(st.integers(1, 3))
        stride = st.sampled_from([s, s, s, 0, 1])
        coefs = [draw(_off), draw(stride), draw(_off), draw(stride), draw(_off), draw(stride)]
        return affine1d, (n,), seed, [glo, ghi] + coefs
    ni, nj = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    glo, ghi = draw(st.integers(0, 1)), draw(st.integers(nj - 1, nj + 1))
    row = st.sampled_from([2 * nj, 2 * nj, nj, 1, 0])
    col = st.sampled_from([2, 2, 1, ni, 0])
    coefs = [draw(_off), draw(row), draw(col), draw(_off), draw(row), draw(col)]
    return affine2d, (ni, nj), seed, [ni, glo, ghi] + coefs


def _oracle_in_lane_order(fn, dims, args, order):
    """The kernel as plain Python, one lane at a time in ``order``."""
    out = _copy(args)
    lanes = list(np.ndindex(*dims))
    for k in order:
        fn(*(int(c) for c in lanes[k]), *out)
    return out


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
@given(_affine_case())
def test_proof_granted_means_order_invariant(monkeypatch, case):
    # Every example lowers afresh: a disk-loaded kernel would carry the
    # first example's lowering decision.
    monkeypatch.setenv("PYACC_COMPILE_CACHE", "off")
    fn, dims, seed, scalars = case
    rng = np.random.default_rng(seed)
    lanes = int(np.prod(dims))
    args = [np.zeros(4 * lanes + 12), np.zeros(dims), rng.random(dims)] + scalars
    ndim = len(dims)
    clear_cache()
    ck = compile_kernel(fn, ndim, args, executor="native")
    low = _NativeLowering(ck.trace, args)
    refusal = low.lane_refusal()
    _assert_consumed_covers_used(ck.trace, args, dims)
    spec = low.lower()
    dom = IndexDomain.full(dims)
    if refusal is not None:
        # Refused: one loop nest per store group, exits kept.
        assert spec["lane_scalars"] is None
        assert spec["source"].count(LOOP) == 3
        assert ck.native is None or ck.native._lane_scalars is None
        return
    assert spec["lane_scalars"] is not None
    assert spec["source"].count(LOOP) == 1
    declined = dict(native_stats()["declined"])
    got = _copy(args)
    ck.run_for(dom, got)
    if HAVE_CC:
        assert ck.native._lane_scalars is not None
        assert native_stats()["declined"] == declined  # it ran single-loop
    for order in (np.arange(lanes), rng.permutation(lanes)):
        want = _oracle_in_lane_order(fn, dims, args, order)
        assert _same_bits(got, want)
    # The same compiled kernel on the first refused neighbour: the guard
    # (not the lowering) must route it to the grouped semantics.
    flipped = list(args)
    flipped[-5] = 0  # ``a1``: the first store loses its leading stride
    if _NativeLowering(ck.trace, flipped).lane_refusal() is not None:
        want = _copy(flipped)
        compile_kernel(fn, ndim, want, executor="codegen").run_for(dom, want)
        got = _copy(flipped)
        ck.run_for(dom, got)
        assert _same_bits(got, want)


# ---------------------------------------------------------------------------
# (e) Independence from the diagnostic mode
# ---------------------------------------------------------------------------


def test_licence_does_not_depend_on_the_verify_mode():
    prog = textwrap.dedent(
        """
        import hashlib, json
        import repro
        from repro.apps.lbm import LBM
        sim = LBM(10, lid_velocity=0.05)
        sim.step(3)
        native = repro.cache_info()["native"]
        print(json.dumps([
            hashlib.sha256(sim.distribution().tobytes()).hexdigest(),
            native["single_loop"], native["declined"],
        ]))
        """
    )
    seen = []
    for mode in ("off", "warn"):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYACC_VERIFY=mode, PYTHONPATH=src)
        env.pop("PYACC_EXECUTOR", None)
        out = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", prog],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seen.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert seen[0] == seen[1]
    if HAVE_CC:
        assert seen[0][1:] == [1, {}]  # one single-loop kernel, no decline


# ---------------------------------------------------------------------------
# Observability: "why is this kernel N passes" without reading C
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on host")
def test_inspect_native_reports_loop_nests_and_the_licence():
    from repro.ir.inspect import _demo_native_describe

    report = _demo_native_describe()
    assert "loop nests: 1; single-loop licence not needed: one store group" in report
    assert "loop nests: 1; single-loop licence granted" in report
    assert (
        "loop nests: 2; single-loop licence refused: store arg0[arg2[i]]: "
        "index not affine in the launch indices" in report
    )
    assert "told to cc: guard-box clip, store forwarding, ivdep" in report
    # The ELL matvec: only its 27 data-dependent gathers are clamped.
    assert "gather indices: 108 proven in range, 27 clamped" in report
    # One line per kernel; the count depends on the ISA (a baseline
    # x86-64 cannot gather), and a non-gcc cc prints no report.
    assert len(re.findall(r"loops vectorized: (\d+; first missed: |n/a)", report)) == 5
    assert report.count("gather indices: ") == 5
