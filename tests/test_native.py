"""The native executor rung (repro.ir.cgen + repro.ir.nativecache).

Four layers of guarantees:

* artifact cache — a second compile of the same source is a pure
  disk load (zero compiler invocations), corrupted artifacts are
  invalidated and rebuilt exactly once, and a missing compiler declines
  cleanly to codegen with the decline recorded;
* pre-flight — a call whose arguments violate a baked-in assumption
  (dtype drift, non-contiguous storage, read-only writes, aliasing)
  raises :class:`NativeDeclined` *before any side effect* and the
  compiled kernel falls through to its codegen program;
* correctness — out-of-bounds scatters abort with the same
  :class:`KernelExecutionError` the other rungs raise, and results stay
  bit-identical through the fallback chain;
* chaos — a seeded FaultPlan produces the identical fault ledger and
  identical bits under native and codegen executors.
"""

import numpy as np
import pytest

import repro
from repro.core.exceptions import KernelExecutionError
from repro.faults import FaultPlan, InjectedFault, LaunchPolicy
from repro.ir.cgen import NativeDeclined, NativeKernel, try_lower_native
from repro.ir.compile import (
    cache_info,
    clear_cache,
    compile_kernel,
    set_executor_mode,
)
from repro.ir.nativecache import (
    cache_dir,
    native_stats,
    reset_state,
    resolve_cc,
)
from repro.ir.vectorizer import TILE_LANES, IndexDomain

FAST = LaunchPolicy(max_retries=3, backoff_base=0.0)

HAVE_CC = resolve_cc() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on host")


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets a private artifact directory and zeroed counters
    (the kernel cache is cleared too, so each compile is real — the
    persistent compile cache is scoped per-test for the same reason)."""
    monkeypatch.setenv("PYACC_NATIVE_CACHE", str(tmp_path / "native"))
    monkeypatch.setenv("PYACC_COMPILE_CACHE", str(tmp_path / "compile"))
    clear_cache()
    reset_state()
    yield
    repro.set_fault_plan(None)
    repro.set_launch_policy(None)
    repro.set_backend("serial")
    set_executor_mode(None)
    clear_cache()
    reset_state()


def _compile_native(fn=axpy, args=None, **kw):
    if args is None:
        args = [2.0, np.ones(8), np.ones(8)]
    return compile_kernel(fn, 1, args, executor="native", **kw)


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------


@needs_cc
class TestArtifactCache:
    def test_first_compile_invokes_cc_once(self):
        ck = _compile_native()
        assert ck.mode == "native"
        assert ck.native is not None
        stats = native_stats()
        assert stats["compiled"] == 1
        assert stats["disk_hits"] == 0
        # both halves of the artifact landed in the content-addressed dir
        sos = list(cache_dir().glob("*.so"))
        cs = list(cache_dir().glob("*.c"))
        assert len(sos) == 1 and len(cs) == 1
        assert sos[0].stem == cs[0].stem

    def test_warm_process_zero_compiler_invocations(self):
        _compile_native()
        clear_cache()  # kernel cache off; the artifact ladder decides
        reset_state(drop_memory=False, drop_counters=True)
        _compile_native()
        stats = native_stats()
        assert stats["compiled"] == 0  # the acceptance gate's assertion
        assert stats["mem_hits"] == 1

    def test_second_compile_is_a_disk_hit(self):
        # Dropping the in-memory handle map simulates a fresh process
        # against a warm on-disk cache: the reload must be a pure
        # disk_hits load with zero compiler invocations.
        _compile_native()
        clear_cache()
        reset_state(drop_memory=True, drop_counters=True)
        ck = _compile_native()
        assert ck.mode == "native"
        stats = native_stats()
        assert stats["compiled"] == 0
        assert stats["disk_hits"] == 1

    def test_corrupted_artifact_invalidated_and_rebuilt_once(self):
        # dlopen caches by pathname inside a process, so the real
        # corruption scenario — a *fresh* process finding a truncated
        # artifact — needs a subprocess to reproduce honestly.
        import os
        import subprocess
        import sys
        import textwrap

        _compile_native()
        (so,) = cache_dir().glob("*.so")
        so.unlink()
        so.write_bytes(b"not an elf")
        prog = textwrap.dedent(
            """
            import numpy as np
            from repro.ir.compile import compile_kernel
            from repro.ir.nativecache import native_stats
            from repro.ir.vectorizer import TILE_LANES, IndexDomain

            def axpy(i, alpha, x, y):
                x[i] += alpha * y[i]

            ck = compile_kernel(
                axpy, 1, [2.0, np.ones(8), np.ones(8)], executor="native"
            )
            assert ck.mode == "native", ck.mode  # recovered, not declined
            stats = native_stats()
            assert stats["compiled"] == 1, stats  # exactly one rebuild
            assert stats["disk_hits"] == 0, stats
            x = np.zeros(8)
            ck.run_for(IndexDomain.full((8,)), [2.0, x, np.ones(8)])
            assert np.array_equal(x, np.full(8, 2.0))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        proc = subprocess.run(
            [sys.executable, "-c", prog],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_dtype_signature_is_part_of_the_key(self):
        _compile_native(args=[2.0, np.ones(8), np.ones(8)])
        _compile_native(
            args=[
                2.0,
                np.ones(8, np.float32),
                np.ones(8, np.float32),
            ]
        )
        assert native_stats()["compiled"] == 2
        assert len(list(cache_dir().glob("*.so"))) == 2


class TestCompilerMissing:
    def test_nonexistent_cc_declines_to_codegen(self, monkeypatch):
        monkeypatch.setenv("PYACC_CC", "/nonexistent/cc")
        reset_state()  # drop the memoized compiler resolution
        ck = _compile_native()
        assert ck.native is None
        assert ck.mode == "codegen"  # degraded one rung, not to vector
        assert "native declined: cc-missing" in ck.fallback_reason
        assert native_stats()["declined"].get("cc-missing") == 1
        # the degraded kernel still computes correctly
        x = np.zeros(8)
        ck.run_for(IndexDomain.full((8,)), [2.0, x, np.ones(8)])
        np.testing.assert_array_equal(x, np.full(8, 2.0))

    def test_decline_surfaces_in_cache_info(self, monkeypatch):
        monkeypatch.setenv("PYACC_CC", "/nonexistent/cc")
        reset_state()
        _compile_native()
        native = cache_info()["native"]
        assert native["compiled"] == 0
        assert native["declined"].get("cc-missing") == 1


# ---------------------------------------------------------------------------
# Pre-flight declines (per call, before any side effect)
# ---------------------------------------------------------------------------


@needs_cc
class TestPreflight:
    def test_non_contiguous_declines(self):
        ck = _compile_native()
        bad = np.ones(16)[::2]
        with pytest.raises(NativeDeclined) as ei:
            ck.native.run_for(
                IndexDomain.full((8,)), [2.0, bad, np.ones(8)]
            )
        assert ei.value.reason == "non-contiguous"

    def test_read_only_written_array_declines(self):
        ck = _compile_native()
        frozen = np.ones(8)
        frozen.setflags(write=False)
        with pytest.raises(NativeDeclined) as ei:
            ck.native.run_for(
                IndexDomain.full((8,)), [2.0, frozen, np.ones(8)]
            )
        assert ei.value.reason == "read-only"

    def test_dtype_drift_declines(self):
        ck = _compile_native()
        with pytest.raises(NativeDeclined) as ei:
            ck.native.run_for(
                IndexDomain.full((8,)),
                [2.0, np.ones(8, np.float32), np.ones(8)],
            )
        assert ei.value.reason == "dtype-drift"

    def test_decline_falls_back_to_codegen_with_same_bits(self):
        # Through the CompiledKernel entry point a pre-flight decline is
        # invisible: the codegen rung computes the same bits and the
        # decline is only recorded in the counters.
        ck = _compile_native()
        x = np.ones(16)[::2].copy()  # contiguous twin for the reference
        strided = np.ones(16)[::2]
        ref = np.ones(8) + 2.0
        before = native_stats()["declined"].get("non-contiguous", 0)
        ck.run_for(IndexDomain.full((8,)), [2.0, strided, np.ones(8)])
        ck.run_for(IndexDomain.full((8,)), [2.0, x, np.ones(8)])
        after = native_stats()["declined"].get("non-contiguous", 0)
        np.testing.assert_array_equal(np.asarray(strided), ref)
        np.testing.assert_array_equal(x, ref)
        assert after == before + 1


# ---------------------------------------------------------------------------
# Correctness contracts
# ---------------------------------------------------------------------------


@needs_cc
class TestExecutionContracts:
    def test_oob_scatter_aborts_with_kernel_error(self):
        def bad(i, x, s):
            x[i + s] = 1.0

        x = np.zeros(8)
        ck = compile_kernel(bad, 1, [x, 4], executor="native")
        assert ck.mode == "native"
        with pytest.raises(KernelExecutionError):
            ck.native.run_for(IndexDomain.full((8,)), [x, 4])

    def test_reduce_matches_codegen_bits(self):
        r = np.random.default_rng(7)
        x, y = r.standard_normal(1000), r.standard_normal(1000)
        nk = compile_kernel(dot, 1, [x, y], reduce=True, executor="native")
        gk = compile_kernel(
            dot, 1, [x, y], reduce=True, executor="codegen"
        )
        assert nk.mode == "native"
        dom = IndexDomain.full((1000,))
        assert nk.run_reduce(dom, [x, y], "add") == gk.run_reduce(
            dom, [x, y], "add"
        )

    def test_empty_reduce_returns_identity_without_calling_c(self):
        nk = compile_kernel(
            dot, 1, [np.ones(4), np.ones(4)], reduce=True, executor="native"
        )
        dom = IndexDomain([(2, 2)])
        assert nk.run_reduce(dom, [np.ones(4), np.ones(4)], "add") == 0.0
        assert nk.run_reduce(dom, [np.ones(4), np.ones(4)], "min") == np.inf

    def test_sub_domain_chunks_match_full(self):
        r = np.random.default_rng(3)
        y = r.standard_normal(100)
        full, halves = np.zeros(100), np.zeros(100)
        ck = compile_kernel(axpy, 1, [2.0, full, y], executor="native")
        assert ck.mode == "native"
        ck.native.run_for(IndexDomain.full((100,)), [2.0, full, y])
        ck.native.run_for(IndexDomain([(0, 50)]), [2.0, halves, y])
        ck.native.run_for(IndexDomain([(50, 100)]), [2.0, halves, y])
        np.testing.assert_array_equal(full, halves)

    def test_try_lower_native_records_reason(self):
        # a kernel using an op outside the C lowering's closed set
        def powk(i, x):
            x[i] = x[i] ** 1.5

        ck = compile_kernel(powk, 1, [np.ones(4)], executor="native")
        assert ck.native is None
        assert "native declined" in (ck.fallback_reason or "")
        assert try_lower_native(None, [])[1] == "no-trace"


# ---------------------------------------------------------------------------
# Chaos parity
# ---------------------------------------------------------------------------


@needs_cc
class TestFaultParity:
    def _solve(self, executor):
        set_executor_mode(executor)
        repro.set_backend("threads")
        repro.set_launch_policy(FAST)
        repro.set_fault_plan(
            FaultPlan(
                scheduled=[InjectedFault("threads.chunk", 2, "transient")]
            )
        )
        from repro.core import current_context

        ctx = current_context()
        n0 = len(ctx.fault_events)
        r = np.random.default_rng(11)
        base = r.standard_normal((2, 1 << 15))
        x = repro.array(base[0])
        y = repro.array(base[1])
        for _ in range(4):
            repro.parallel_for(base.shape[1], axpy, 1.5, x, y)
        events = [
            (e.site, e.kind, e.action) for e in ctx.fault_events[n0:]
        ]
        out = repro.to_host(x).copy()
        repro.set_fault_plan(None)
        set_executor_mode(None)
        return out, events

    def test_seeded_faults_bit_identical_native_vs_codegen(self):
        native_out, native_ev = self._solve("native")
        codegen_out, codegen_ev = self._solve("codegen")
        assert native_ev == codegen_ev
        assert "retry" in {a for _, _, a in native_ev}
        assert np.array_equal(native_out, codegen_out)


# ---------------------------------------------------------------------------
# One pre-flight per chunk
# ---------------------------------------------------------------------------


@needs_cc
class TestPreflightOncePerChunk:
    @pytest.fixture
    def preflights(self, monkeypatch):
        calls = []
        real = NativeKernel.preflight

        def counting(self, domain, args):
            calls.append(domain)
            return real(self, domain, args)

        monkeypatch.setattr(NativeKernel, "preflight", counting)
        return calls

    @pytest.mark.parametrize("n_tiles", [1, 4])
    def test_reduce_preflights_the_chunk_not_each_tile(self, preflights, n_tiles):
        n = 1000 if n_tiles == 1 else 4 * TILE_LANES
        r = np.random.default_rng(n_tiles)
        x, y = r.standard_normal(n), r.standard_normal(n)
        nk = compile_kernel(dot, 1, [x, y], reduce=True, executor="native")
        gk = compile_kernel(dot, 1, [x, y], reduce=True, executor="codegen")
        dom = IndexDomain.full((n,))
        assert nk.mode == "native" and len(dom.tiles) == n_tiles
        got = nk.run_reduce(dom, [x, y], "add")
        assert preflights == [dom]
        assert got == gk.run_reduce(dom, [x, y], "add")
        # The public per-tile entry still checks itself.
        nk.native.run_reduce(dom.tiles[0], [x, y], "add")
        assert len(preflights) == 2

    def test_decline_once_per_chunk_before_the_c_loop(self, preflights, monkeypatch):
        n = 4 * TILE_LANES
        r = np.random.default_rng(5)
        x, y = r.standard_normal(2 * n)[::2], r.standard_normal(n)
        nk = compile_kernel(dot, 1, [y, y], reduce=True, executor="native")
        gk = compile_kernel(dot, 1, [y, y], reduce=True, executor="codegen")

        def no_call(*a):
            raise AssertionError("C loop ran after a declined pre-flight")

        monkeypatch.setattr(NativeKernel, "_call", no_call)
        dom = IndexDomain.full((n,))
        got = nk.run_reduce(dom, [x, y], "add")
        assert preflights == [dom]
        assert native_stats()["declined"] == {"non-contiguous": 1}
        assert got == gk.run_reduce(dom, [x, y], "add")


# ---------------------------------------------------------------------------
# The packed call ABI
# ---------------------------------------------------------------------------


@needs_cc
class TestPackedABI:
    @staticmethod
    def _both(fn, ndim, args, **kw):
        nk = compile_kernel(fn, ndim, args, executor="native", **kw)
        gk = compile_kernel(fn, ndim, args, executor="codegen", **kw)
        assert nk.mode.startswith("native"), nk.fallback_reason
        return nk, gk

    def test_index_only_kernel_packs_bounds_alone(self):
        def tri(i):
            return i * (i + 1)

        nk, gk = self._both(tri, 1, [], reduce=True)
        for dom in (IndexDomain.full((100,)), IndexDomain([(37, 61)])):
            assert nk.run_reduce(dom, [], "add") == gk.run_reduce(dom, [], "add")
            assert nk.run_reduce(dom, [], "max") == gk.run_reduce(dom, [], "max")

    @pytest.mark.parametrize(
        "scalar",
        [np.float32(1.7), np.int32(-3), np.int64(2**40), np.bool_(True), 5, 2.5, True],
    )
    def test_scalar_kinds_round_trip(self, scalar):
        def scale(i, s, x, y):
            x[i] = y[i] * s

        y = np.arange(1.0, 9.0)
        nk, gk = self._both(scale, 1, [scalar, np.zeros(8), y])
        a, b = np.zeros(8), np.zeros(8)
        nk.run_for(IndexDomain.full((8,)), [scalar, a, y])
        gk.run_for(IndexDomain.full((8,)), [scalar, b, y])
        assert a.tobytes() == b.tobytes()
        assert native_stats()["declined"] == {}

    def test_weak_int_narrowed_to_i4_declines_on_overflow(self):
        def add(i, s, x):
            x[i] = x[i] + s

        x = np.arange(8, dtype=np.int32)
        nk, gk = self._both(add, 1, [3, x])
        dom = IndexDomain.full((8,))
        with pytest.raises(NativeDeclined) as ei:
            nk.native.run_for(dom, [2**31, x])
        assert ei.value.reason == "scalar-overflow"
        assert x.tolist() == list(range(8))  # declined before any store
        a, b = x.copy(), x.copy()
        nk.run_for(dom, [7, a])
        gk.run_for(dom, [7, b])
        assert a.tobytes() == b.tobytes()

    def test_3d_bounds_with_nonzero_lo(self):
        def stamp(i, j, k, x, y):
            x[i, j, k] = y[i, j, k] + (i * 100 + j * 10 + k)

        y = np.random.default_rng(2).standard_normal((5, 6, 7))
        nk, gk = self._both(stamp, 3, [np.zeros_like(y), y])
        dom = IndexDomain([(1, 4), (2, 6), (3, 7)])
        a, b = np.zeros_like(y), np.zeros_like(y)
        nk.run_for(dom, [a, y])
        gk.run_for(dom, [b, y])
        assert a.tobytes() == b.tobytes() and np.count_nonzero(a) == 3 * 4 * 4

    def test_oob_scatter_names_the_argument(self):
        def bad(i, y, x, s):
            x[i + s] = y[i]

        y, x = np.ones(8), np.zeros(8)
        nk, _ = self._both(bad, 1, [y, x, 4])
        with pytest.raises(KernelExecutionError, match="argument 1"):
            nk.native.run_for(IndexDomain.full((8,)), [y, x, 4])

    def test_overlapping_views_decline_to_codegen_bits(self):
        def shift(i, x, y):
            x[i] = y[i] + 1.0

        nk, gk = self._both(shift, 1, [np.zeros(9), np.zeros(9)])
        a, b = np.zeros(10), np.zeros(10)
        dom = IndexDomain.full((9,))
        nk.run_for(dom, [a[1:], a[:-1]])
        gk.run_for(dom, [b[1:], b[:-1]])
        assert a.tobytes() == b.tobytes()
        assert native_stats()["declined"] == {"alias": 1}
        v = a[:9]
        nk.run_for(dom, [v, v])  # one object under two names: same lanes
        assert native_stats()["declined"] == {"alias": 1}

    def test_concurrent_calls_with_different_bounds_match_serial(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        n, parts = 1 << 16, 64
        y = np.random.default_rng(9).standard_normal(n)
        nk, _ = self._both(axpy, 1, [2.0, np.zeros(n), y])
        doms = [
            IndexDomain([(k * n // parts, (k + 1) * n // parts)])
            for k in range(parts)
        ]
        serial, threaded = np.zeros(n), np.zeros(n)
        for k, dom in enumerate(doms):
            nk.native.run_for(dom, [float(k), serial, y])
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futs = [
                    pool.submit(nk.native.run_for, dom, [float(k), threaded, y])
                    for k, dom in enumerate(doms)
                ]
                for f in futs:
                    f.result(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert serial.tobytes() == threaded.tobytes()


# ---------------------------------------------------------------------------
# The shipped default (no PYACC_* variable set)
# ---------------------------------------------------------------------------

_DEFAULT_CHILD = """
import hashlib, json
import numpy as np
import repro
from repro.apps import blas, hpccg
from repro.ir.compile import compile_kernel

a, _, _ = hpccg.build_27pt_problem(4, 4, 4)
n = a.n
r = np.random.default_rng(0)
x, y, out = r.standard_normal(n), r.standard_normal(n), np.zeros(n)
dots = []
for _ in range(3):
    blas.axpy(n, 0.5, x, y)
    dots.append(blas.dot(n, x, y))
    repro.parallel_for(n, hpccg.matvec_ell_kernel, a.cols, a.vals, x, out)
modes = [
    compile_kernel(blas.axpy_kernel_1d, 1, [0.5, x, y]).mode,
    compile_kernel(blas.dot_kernel_1d, 1, [x, y], reduce=True).mode,
    compile_kernel(hpccg.matvec_ell_kernel, 1, [a.cols, a.vals, x, out]).mode,
]
digest = hashlib.sha256(
    x.tobytes() + out.tobytes() + np.array(dots).tobytes()
).hexdigest()
print(json.dumps({
    "executor": repro.ir.compile.executor_mode(),
    "modes": modes,
    "declined": repro.cache_info()["native"]["declined"],
    "digest": digest,
}))
"""


class TestShippedDefault:
    @staticmethod
    def _child(home, **extra):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = {k: v for k, v in os.environ.items() if not k.startswith("PYACC_")}
        env.update(
            HOME=str(home),  # both disk caches default to ~/.cache/pyacc
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            **extra,
        )
        proc = subprocess.run(
            [sys.executable, "-c", _DEFAULT_CHILD],
            capture_output=True, text=True, env=env, cwd=home, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    @needs_cc
    def test_defaults_compile_to_native_and_degrade_bitwise(self, tmp_path):
        for sub in ("with-cc", "without-cc"):
            (tmp_path / sub).mkdir()
        native = self._child(tmp_path / "with-cc")
        assert native["executor"] == "native"
        assert all(m.startswith("native") for m in native["modes"]), native
        assert native["declined"] == {}
        # No compiler: same default, one recorded decline per distinct
        # kernel (three kernels, nine launches), same bits.
        degraded = self._child(tmp_path / "without-cc", PYACC_CC="/nonexistent/cc")
        assert degraded["executor"] == "native"
        assert degraded["modes"] == ["codegen"] * 3
        assert degraded["declined"] == {"cc-missing": 3}
        assert degraded["digest"] == native["digest"]
