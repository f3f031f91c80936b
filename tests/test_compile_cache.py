"""Persistent cross-process compile cache (PYACC_COMPILE_CACHE).

The contract under test: a warm process rebuilds every eligible kernel
from disk — zero re-traces, re-verifies, or re-lowers — with results
bit-identical to a cold run, across executor rungs and backends
(including cluster workers); any environment change (repro/NumPy
version, verify mode, toolchain) or damaged entry is a silent miss that
rebuilds, never a wrong hit; and the janitor CLI can list, prune,
verify, and clear the directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
import types
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache import main as cache_main
from repro.ir import compilecache, diskcache
from repro.ir.compile import clear_cache, compile_kernel
from repro.ir.nativecache import resolve_cc
from repro.ir.vectorizer import IndexDomain
from repro.ir.verify import verify_mode

SRC = str(Path(__file__).resolve().parents[1] / "src")

needs_cc = pytest.mark.skipif(
    resolve_cc() is None, reason="no C compiler on host"
)


# -- kernels under test (module level: inspect.getsource must work) ---------


def axpy_kernel(i, alpha, x, y):
    y[i] = y[i] + alpha * x[i]


def stencil_kernel(i, n, dst, src):
    if 0 < i < n - 1:
        dst[i] = 0.25 * src[i - 1] + 0.5 * src[i] + 0.25 * src[i + 1]


def dot_kernel(i, x, y):
    return x[i] * y[i]


# -- fixtures / helpers -----------------------------------------------------


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private, empty compile-cache directory + clean counters, with
    the in-memory KernelCache dropped so the disk tier is actually on
    the compile path."""
    d = tmp_path / "compile"
    monkeypatch.setenv("PYACC_COMPILE_CACHE", str(d))
    clear_cache()
    compilecache.reset_state()
    yield d
    clear_cache()
    compilecache.reset_state()


def _compile_axpy(executor="codegen"):
    rng = np.random.default_rng(3)
    x, y = rng.random(64), rng.random(64)
    ck = compile_kernel(axpy_kernel, 1, [0.5, x, y], executor=executor)
    ck.run_for(IndexDomain.full((64,)), [0.5, x, y])
    return ck, y


def _entries(d: Path, prefix="k"):
    return sorted(d.glob(f"{prefix}*.pkl"))


def run_child(script: str, cache_dir, extra_env=None, timeout=600) -> dict:
    """Run a python child with its own PYACC_COMPILE_CACHE; the child
    prints one JSON document on its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYACC_COMPILE_CACHE"] = str(cache_dir)
    # These children measure the cache, not resilience: an inherited
    # fault plan (CI's chaos legs) disables region fusion and with it the
    # graph-tier stores the counters assert on.
    env.pop("PYACC_FAULTS", None)
    # ... and they count verification runs, so an inherited
    # PYACC_VERIFY=off (a CI leg) must not switch the verifier off.
    env.pop("PYACC_VERIFY", None)
    env.update(extra_env or {})
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"child failed:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Child: launch two kernels under one executor rung (the full
#: pipeline: compile + verify + execute), report the persistent-tier
#: counters and a content digest of the outputs.
KERNEL_CHILD = """
import hashlib, json
import numpy as np
import repro
from repro import parallel_for
from repro.ir.compile import compile_kernel, set_executor_mode
from repro.ir.compilecache import disk_stats

def axpy_kernel(i, alpha, x, y):
    y[i] = y[i] + alpha * x[i]

def stencil_kernel(i, n, dst, src):
    if 0 < i < n - 1:
        dst[i] = 0.25 * src[i - 1] + 0.5 * src[i] + 0.25 * src[i + 1]

set_executor_mode({executor!r})
rng = np.random.default_rng(7)
n = 256
x = repro.array(rng.random(n))
y = repro.array(rng.random(n))
dst = repro.array(np.zeros(n))
src = repro.array(rng.random(n))
parallel_for(n, axpy_kernel, 0.5, x, y)
parallel_for(n, stencil_kernel, n, dst, src)
hy, hd = repro.to_host(y), repro.to_host(dst)
digest = hashlib.sha256(hy.tobytes() + hd.tobytes()).hexdigest()
# Same-signature probes hit the in-memory cache the launches populated;
# they report which executor rung actually compiled (warm native must
# not have silently degraded to codegen).
ck1 = compile_kernel(axpy_kernel, 1, [0.5, hy, hy])
ck2 = compile_kernel(stencil_kernel, 1, [n, hd, hd])
print(json.dumps({{"disk": disk_stats(), "digest": digest,
                  "modes": [ck1.mode, ck2.mode]}}))
"""

#: Child: full CG solve on one backend, reporting the solution digest.
BACKEND_CHILD = """
import hashlib, json
import numpy as np
import repro
from repro.apps.cg import cg_solve
from repro.ir.compilecache import disk_stats

backend_name = {backend!r}
backend = repro.set_backend(backend_name)
n = 96
rng = np.random.default_rng(11)
lower = -1.0 + 0.01 * rng.random(n)
upper = -1.0 + 0.01 * rng.random(n)
diag = 4.0 + rng.random(n)
b = rng.random(n)
res = cg_solve(lower, diag, upper, b, tol=1e-10)
if hasattr(backend, "close"):
    backend.close()
repro.set_backend("serial")
print(json.dumps({{"disk": disk_stats(),
                  "digest": hashlib.sha256(res.x.tobytes()).hexdigest(),
                  "iters": res.iterations}}))
"""

#: Child: captured graph region (fuse/DSE/hoist/validate program tier).
GRAPH_CHILD = """
import hashlib, json
import numpy as np
import repro
from repro import parallel_for, parallel_reduce
from repro.graph import GraphRegion
from repro.ir.compilecache import disk_stats

def scale_kernel(i, alpha, a):
    a[i] = alpha * a[i]

def shift_kernel(i, n, dst, src):
    if i < n - 1:
        dst[i] = src[i + 1]

def dot_kernel(i, x, y):
    return x[i] * y[i]

repro.set_backend("threads")
n = 128
a = repro.array(np.arange(n, dtype=float))
out = repro.array(np.zeros(n))
region = GraphRegion("pcc.t")

def body():
    parallel_for(n, scale_kernel, 1.5, a)
    parallel_for(n, shift_kernel, n, out, a)
    return parallel_reduce(n, dot_kernel, out, out)

r1 = region.run((id(a), id(out)), body)
r2 = region.run((id(a), id(out)), body)
host = repro.to_host(out)
digest = hashlib.sha256(host.tobytes()).hexdigest()
repro.set_backend("serial")
print(json.dumps({"disk": disk_stats(), "digest": digest,
                  "results": [float(r1), float(r2)]}))
"""


# ---------------------------------------------------------------------------
# Warm start: zero re-traces / re-verifies / re-lowers
# ---------------------------------------------------------------------------


class TestWarmStart:
    def test_cold_then_warm_kernels(self, tmp_path):
        cold = run_child(KERNEL_CHILD.format(executor="codegen"), tmp_path)
        assert cold["disk"]["compiles"] == 2
        assert cold["disk"]["stores"] >= 2
        assert cold["disk"]["verify_runs"] >= 1

        warm = run_child(KERNEL_CHILD.format(executor="codegen"), tmp_path)
        # The warm process performed no compilation-pipeline work at all:
        # no trace, no verify_trace, no lowering, nothing republished.
        assert warm["disk"]["disk_hits"] == 2
        assert warm["disk"]["disk_misses"] == 0
        assert warm["disk"]["compiles"] == 0
        assert warm["disk"]["verify_runs"] == 0
        assert warm["disk"]["stores"] == 0
        assert warm["modes"] == cold["modes"]
        assert warm["digest"] == cold["digest"]

    @pytest.mark.parametrize(
        "executor",
        [
            "interpreter",
            "vector",
            "codegen",
            pytest.param("native", marks=needs_cc),
        ],
    )
    def test_warm_bit_identical_per_executor(self, tmp_path, executor):
        env = {"PYACC_NATIVE_CACHE": str(tmp_path / "native")}
        child = KERNEL_CHILD.format(executor=executor)
        cold = run_child(child, tmp_path, extra_env=env)
        warm = run_child(child, tmp_path, extra_env=env)
        assert warm["digest"] == cold["digest"]
        assert warm["modes"] == cold["modes"]
        assert warm["disk"]["compiles"] == 0
        assert warm["disk"]["disk_hits"] == 2

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_warm_bit_identical_cg_backends(self, tmp_path, backend):
        child = BACKEND_CHILD.format(backend=backend)
        cold = run_child(child, tmp_path)
        warm = run_child(child, tmp_path)
        assert warm["digest"] == cold["digest"]
        assert warm["iters"] == cold["iters"]
        assert warm["disk"]["disk_hits"] > 0
        assert warm["disk"]["compiles"] == 0

    def test_warm_bit_identical_cg_cluster(self, tmp_path):
        child = BACKEND_CHILD.format(backend="cluster")
        env = {"PYACC_CLUSTER_WORKERS": "2"}
        cold = run_child(child, tmp_path, extra_env=env)
        warm = run_child(child, tmp_path, extra_env=env)
        assert warm["digest"] == cold["digest"]
        assert warm["iters"] == cold["iters"]
        assert warm["disk"]["disk_hits"] > 0

    def test_warm_graph_instantiate_replays_from_disk(self, tmp_path):
        child = GRAPH_CHILD
        cold = run_child(child, tmp_path)
        assert cold["disk"]["graph_misses"] >= 1
        assert cold["disk"]["graph_stores"] >= 1

        warm = run_child(child, tmp_path)
        assert warm["digest"] == cold["digest"]
        assert warm["results"] == cold["results"]
        assert warm["disk"]["graph_hits"] >= 1
        assert warm["disk"]["compiles"] == 0
        assert warm["disk"]["verify_runs"] == 0


# ---------------------------------------------------------------------------
# Invalidation: version / mode changes and damaged entries never hit
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_wrong_repro_version_misses(self, fresh_cache, monkeypatch):
        _compile_axpy()
        assert compilecache.disk_stats()["stores"] >= 1

        clear_cache()
        compilecache.reset_state()
        monkeypatch.setattr(repro, "__version__", "0.0.0-stale-test")
        _compile_axpy()
        st = compilecache.disk_stats()
        assert st["disk_hits"] == 0
        assert st["disk_misses"] >= 1
        assert st["compiles"] == 1

    def test_flipped_verify_mode_misses(self, fresh_cache):
        with verify_mode("warn"):
            _compile_axpy()
        clear_cache()
        compilecache.reset_state()
        with verify_mode("error"):
            _compile_axpy()
        st = compilecache.disk_stats()
        assert st["disk_hits"] == 0
        assert st["compiles"] == 1
        # ... and back under the original mode it hits again.
        clear_cache()
        compilecache.reset_state()
        with verify_mode("warn"):
            _compile_axpy()
        assert compilecache.disk_stats()["disk_hits"] == 1

    def test_corrupted_entry_unlinked_and_rebuilt(self, fresh_cache):
        _, y_cold = _compile_axpy()
        entries = _entries(fresh_cache)
        assert entries
        for p in entries:
            blob = p.read_bytes()
            p.write_bytes(blob[: len(blob) // 2])  # truncate mid-payload

        clear_cache()
        compilecache.reset_state()
        _, y_warm = _compile_axpy()
        st = compilecache.disk_stats()
        assert st["invalidated"] >= 1
        assert st["disk_hits"] == 0
        assert st["compiles"] == 1
        np.testing.assert_array_equal(y_cold, y_warm)
        # The rebuilt entry republished and round-trips cleanly.
        assert _entries(fresh_cache)
        checked, removed = diskcache.verify_dir(fresh_cache)
        assert checked >= 1 and removed == 0

    def test_garbage_pickle_is_a_silent_miss(self, fresh_cache):
        _compile_axpy()
        (path,) = _entries(fresh_cache)[:1]
        # Valid frame, nonsense payload: the env check must reject it.
        diskcache.write_entry(path, b"not a pickle")
        clear_cache()
        compilecache.reset_state()
        _compile_axpy()
        st = compilecache.disk_stats()
        assert st["invalidated"] >= 1
        assert st["compiles"] == 1

    def test_disabled_tier_compiles_without_touching_disk(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("PYACC_COMPILE_CACHE", "off")
        clear_cache()
        compilecache.reset_state()
        try:
            _compile_axpy()
            st = compilecache.disk_stats()
            assert not st["enabled"]
            assert st["stores"] == 0
            assert st["disk_hits"] == 0
            assert st["disk_misses"] == 0
        finally:
            clear_cache()
            compilecache.reset_state()

    def test_ineligible_kernel_skips_the_tier(self, fresh_cache):
        big = np.random.default_rng(0).random(1 << 15)  # > _ARRAY_FP_LIMIT

        def closure_kernel(i, out):
            out[i] = big[0] + 0.0 * i

        out = np.zeros(32)
        compile_kernel(closure_kernel, 1, [out], executor="codegen")
        st = compilecache.disk_stats()
        assert st["ineligible"] >= 1
        assert st["stores"] == 0


# ---------------------------------------------------------------------------
# Fingerprint soundness ("a wrong hit is impossible by construction")
# ---------------------------------------------------------------------------


def _make_fns(body: str) -> dict:
    """exec a kernel + helpers into a private non-repro "user module"."""
    ns: dict = {"__name__": "usermod", "np": np}
    exec(textwrap.dedent(body), ns)
    return ns


class TestFingerprintSoundness:
    def test_version_keyed_module_global_is_eligible(self):
        ns = _make_fns(
            """
            def kern(i, out):
                out[i] = np.float64(1.0) + 0.0 * i
            """
        )
        assert compilecache._fn_fingerprint(ns["kern"])

    def test_foreign_module_global_is_ineligible(self):
        """mymod.CONST gets baked into the trace; a name-only module
        part would survive edits to the module's contents."""
        ns = _make_fns(
            """
            def kern(i, out):
                out[i] = mymod.CONST + 0.0 * i
            """
        )
        mymod = types.ModuleType("mymod")
        mymod.CONST = 2.0
        ns["mymod"] = mymod
        with pytest.raises(compilecache._Ineligible):
            compilecache._fn_fingerprint(ns["kern"])

    def test_helper_bodies_fold_into_fingerprint(self):
        """kernel -> h1 -> h2: editing the *deepest* helper must change
        the fingerprint (its body is baked into the trace)."""
        ns = _make_fns(
            """
            def h2(v):
                return v * 2.0
            def h1(v):
                return h2(v) + 1.0
            def kern(i, out):
                out[i] = h1(1.0) + 0.0 * i
            """
        )
        fp1 = compilecache._fn_fingerprint(ns["kern"])
        exec("def h2(v):\n    return v * 3.0", ns)
        fp2 = compilecache._fn_fingerprint(ns["kern"])
        assert fp1 != fp2

    def test_helper_chain_deeper_than_two_is_ineligible(self):
        """kernel -> h1 -> h2 -> h3: h3's body cannot be hashed at the
        depth cap, so the kernel must be a safe miss, not name-keyed."""
        ns = _make_fns(
            """
            def h3(v):
                return v
            def h2(v):
                return h3(v)
            def h1(v):
                return h2(v)
            def kern(i, out):
                out[i] = h1(1.0) + 0.0 * i
            """
        )
        with pytest.raises(compilecache._Ineligible):
            compilecache._fn_fingerprint(ns["kern"])

    def test_recursive_helper_is_still_eligible(self):
        """A self-recursive helper's body is hashed once; the cycle
        reference degrades to a (sound) name part."""
        ns = _make_fns(
            """
            def fact(n):
                return 1.0 if n <= 1 else n * fact(n - 1)
            def kern(i, out):
                out[i] = fact(3) + 0.0 * i
            """
        )
        fp1 = compilecache._fn_fingerprint(ns["kern"])
        exec(
            "def fact(n):\n"
            "    return 2.0 if n <= 1 else n * fact(n - 1)",
            ns,
        )
        fp2 = compilecache._fn_fingerprint(ns["kern"])
        assert fp1 != fp2

    def test_object_dtype_array_is_ineligible(self):
        a = np.empty(2, dtype=object)
        a[:] = ["x", "y"]
        with pytest.raises(compilecache._Ineligible):
            compilecache._array_part(a)


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


class TestConcurrentWriters:
    def test_racing_processes_publish_safely(self, tmp_path):
        """N children compile the same kernels into one directory at
        once; every entry must round-trip (atomic publish, no torn
        writes), and a subsequent warm child hits."""
        child = KERNEL_CHILD.format(executor="codegen")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["PYACC_COMPILE_CACHE"] = str(tmp_path)
        env.pop("PYACC_VERIFY", None)  # same keys as run_child's warm probe
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", textwrap.dedent(child)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(4)
        ]
        for p in procs:
            out, err = p.communicate(timeout=600)
            assert p.returncode == 0, err
        checked, removed = diskcache.verify_dir(tmp_path)
        assert checked >= 2 and removed == 0

        warm = run_child(child, tmp_path)
        assert warm["disk"]["disk_hits"] == 2
        assert warm["disk"]["compiles"] == 0


# ---------------------------------------------------------------------------
# Cluster worker spool
# ---------------------------------------------------------------------------


class TestWorkerSpool:
    def test_worker_publishes_to_spool_parent_promotes(self, fresh_cache):
        try:
            compilecache.enter_worker_mode()
            _compile_axpy()
            # Nothing lands in the shared namespace while spooling...
            assert not _entries(fresh_cache)
            spooled = list((fresh_cache / "spool").rglob("k*.pkl"))
            assert spooled
        finally:
            compilecache.reset_state(drop_counters=False)

        promoted = compilecache.promote_spools()
        assert promoted == len(spooled)
        assert compilecache.disk_stats()["promoted"] == promoted
        assert len(_entries(fresh_cache)) == promoted
        assert not list((fresh_cache / "spool").rglob("*.pkl"))

        # The promoted entry is a real warm hit.
        clear_cache()
        compilecache.reset_state()
        _compile_axpy()
        assert compilecache.disk_stats()["disk_hits"] == 1

    def test_promote_tolerates_missing_spool(self, fresh_cache):
        assert compilecache.promote_spools() == 0

    def test_promote_by_pid_leaves_live_workers_alone(self, fresh_cache):
        """handle_loss promotes only the dead worker's spool; a live
        peer's published entries and in-flight temp files survive."""
        dead = fresh_cache / "spool" / "w111"
        live = fresh_cache / "spool" / "w222"
        diskcache.write_entry(dead / "kdead.pkl", b"dead-entry")
        diskcache.write_entry(live / "klive.pkl", b"live-entry")
        # A live worker mid-publish: mkstemp done, os.replace pending.
        in_flight = live / "klive.pkl.abc123.tmp"
        in_flight.write_bytes(b"partial")

        assert compilecache.promote_spools([111]) == 1
        assert (fresh_cache / "kdead.pkl").exists()
        assert not dead.exists()
        assert (live / "klive.pkl").exists()
        assert in_flight.exists()

        # A full sweep (shutdown: all workers joined) promotes the rest
        # but still spares the fresh temp file.
        assert compilecache.promote_spools() == 1
        assert (fresh_cache / "klive.pkl").exists()
        assert in_flight.exists()

        # Once stale (no publish can still be in flight), it is reaped.
        old = time.time() - 2 * compilecache._SPOOL_TMP_GRACE
        os.utime(in_flight, (old, old))
        compilecache.promote_spools()
        assert not in_flight.exists()


# ---------------------------------------------------------------------------
# Janitor CLI (python -m repro.cache)
# ---------------------------------------------------------------------------


class TestCacheCLI:
    def test_ls_json_lists_entries(self, fresh_cache, capsys):
        _compile_axpy()
        assert cache_main(["ls", "--dir", str(fresh_cache), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bytes"] > 0
        assert doc["entries"]
        entry = doc["entries"][0]
        assert entry["kind"] == "kernel"
        assert entry["status"] == "ok"
        assert entry["kernel"] == "axpy_kernel"

    def test_verify_unlinks_corrupted(self, fresh_cache, capsys):
        _compile_axpy()
        (path,) = _entries(fresh_cache)[:1]
        path.write_bytes(b"garbage")
        assert cache_main(["verify", "--dir", str(fresh_cache), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed"] == 1
        assert not path.exists()

    def test_prune_lru_respects_budget(self, fresh_cache, capsys):
        _compile_axpy()
        _, _ = _compile_stencil_pair()
        assert len(_entries(fresh_cache)) >= 2
        assert (
            cache_main(
                ["prune", "--max-bytes", "0", "--dir", str(fresh_cache), "--json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed"] >= 2
        assert doc["bytes"] == 0
        assert not _entries(fresh_cache)

    def test_clear_empties_directory(self, fresh_cache, capsys):
        _compile_axpy()
        assert cache_main(["clear", "--dir", str(fresh_cache)]) == 0
        assert not _entries(fresh_cache)

    def test_disabled_cache_without_dir_is_usage_error(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("PYACC_COMPILE_CACHE", "off")
        assert cache_main(["ls"]) == 2
        assert "disabled" in capsys.readouterr().err

    def test_cli_subprocess_entry_point(self, fresh_cache):
        _compile_axpy()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cache", "ls",
             "--dir", str(fresh_cache)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "axpy_kernel" in proc.stdout


def _compile_stencil_pair():
    rng = np.random.default_rng(5)
    dst, src = np.zeros(64), rng.random(64)
    ck = compile_kernel(stencil_kernel, 1, [64, dst, src], executor="codegen")
    ck.run_for(IndexDomain.full((64,)), [64, dst, src])
    return ck, dst


# ---------------------------------------------------------------------------
# Stats plumbing
# ---------------------------------------------------------------------------


class TestStats:
    def test_cache_info_exposes_disk_block(self, fresh_cache):
        from repro.ir.compile import cache_info

        _compile_axpy()
        disk = cache_info()["disk"]
        for key in ("disk_hits", "disk_misses", "stores", "invalidated",
                    "bytes", "enabled"):
            assert key in disk
        assert disk["enabled"]
        assert disk["stores"] >= 1
        assert disk["bytes"] > 0

    def test_native_stats_count_bytes(self):
        from repro.ir.nativecache import native_stats

        assert "bytes" in native_stats()
