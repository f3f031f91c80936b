"""The two declare-once primitives: ``repro.obs.Counters`` (one counter
class for every process-wide stats block) and
``repro.core.preferences.Mode`` (one override/resolved cache for every
mode knob), plus a structure pin of the public views built on them."""

import sys
import threading

import pytest

import repro
from repro import obs
from repro.core import preferences
from repro.core.exceptions import PreferencesError
from repro.core.preferences import MODES
from repro.faults import global_fault_stats
from repro.ir import arena_stats


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


class TestCounters:
    def test_concurrent_bumps_sum_exactly(self):
        block = obs.Counters("t", ("hits", "bytes"), keyed=("declined",))
        n_threads, n_bumps = 8, 10_000

        def work():
            for _ in range(n_bumps):
                block.bump("hits")
                block.bump("bytes", 3)
                block.bump_key("declined", "alias")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force preemption inside the adds
        try:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        total = n_threads * n_bumps
        assert block.snapshot() == {
            "hits": total,
            "bytes": 3 * total,
            "declined": {"alias": total},
        }

    def test_keyed_groups_snapshot_as_sorted_copies(self):
        block = obs.Counters(
            "t", ("n",), keyed=("declined", "by_rule", "diagnostics")
        )
        for key in ("op:pow", "alias", "extent", "alias"):
            block.bump_key("declined", key)
        block.bump_key("by_rule", "V201", 2)
        snap = block.snapshot()
        assert list(snap["declined"]) == ["alias", "extent", "op:pow"]
        assert snap["declined"]["alias"] == 2
        assert snap["by_rule"] == {"V201": 2}
        assert snap["diagnostics"] == {}
        block.bump_key("declined", "alias")
        block.bump_key("diagnostics", "V610")
        block.bump("n")
        assert snap["declined"]["alias"] == 2  # a copy, not a view
        assert snap["diagnostics"] == {} and snap["n"] == 0

    def test_reset_zeroes_fields_and_empties_groups(self):
        block = obs.Counters("t", ("a", "b"), keyed=("g",))
        block.bump("a", 5)
        block.bump_key("g", "k")
        block.reset()
        assert block.snapshot() == {"a": 0, "b": 0, "g": {}}

    def test_undeclared_names_are_errors(self):
        block = obs.Counters("t", ("a",), keyed=("g",))
        with pytest.raises(KeyError):
            block.bump("typo")
        with pytest.raises(KeyError):
            block.bump_key("typo", "k")

    def test_registry_holds_every_process_wide_block(self):
        assert {
            "arena", "cluster", "disk", "faults", "graph", "native", "verify"
        } <= set(obs.blocks())
        for name, block in obs.blocks().items():
            assert block.name == name
        assert obs.stats("disk")["enabled"] in (True, False)  # the view
        assert obs.stats("graph") == repro.graph_stats()


# ---------------------------------------------------------------------------
# Structure pin: the public views keep the parent commit's shape
# ---------------------------------------------------------------------------

_PASS_ROW = {"applied": "int", "declined": {}, "demoted": "int"}

#: ``cache_info()`` at 1287b3a (types by name; ``{}`` = open keyed group).
#: benchmarks/perf/probes.counters indexes into this by key path.
CACHE_INFO_SHAPE = {
    "size": "int",
    "hits": "int",
    "misses": "int",
    "graph": {
        "captures": "int",
        "rebinds": "int",  # added by structural reuse (ISSUE 18), nothing renamed
        "replays": "int",
        "nodes_replayed": "int",
        "fused_pairs": "int",
        "invalidations": "int",
        "uncaptureable": "int",
        "passes": {
            "fuse": {"applied": "int", "declined": {}, "nonadjacent": "int"},
            "dse": _PASS_ROW,
            "sink": _PASS_ROW,
            "schedule": _PASS_ROW,
        },
        "validate": {
            "fuse": {"confirmed": "int", "rejected": "int"},
            "programs": "int",
            "degraded": "int",
            "diagnostics": {},
        },
        # the loop driver's block, added with it; nothing renamed.  "bound"
        # was added with the stored loop templates; nothing renamed
        "loop": {"calls": "int", "iterations": "int", "bound": "int", "declined": {}},
        "mode": "str",
        "passes_mode": "str",
    },
    "verify": {
        "kernels_verified": "int",
        "errors": "int",
        "warnings": "int",
        "infos": "int",
        "by_rule": {},
    },
    "native": {
        "compiled": "int",
        "disk_hits": "int",
        "mem_hits": "int",
        "bytes": "int",
        "single_loop": "int",  # added by the lane licence (ISSUE 21)
        "c_fold": "int",  # added by the C add-fold (ISSUE 23)
        "cc_ms": "int",  # wall ms cc ran (waited on, before tiering), added with the prelude
        "cc_wait_ms": "int",  # ms callers blocked on cc, added with tiered compilation
        "pending": "int",  # calls that ran codegen while their unit compiled, likewise
        "declined": {},
    },
    "disk": {
        **dict.fromkeys(
            (
                "disk_hits", "disk_misses", "stores", "invalidated", "bytes",
                "ineligible", "compiles", "verify_runs", "graph_hits",
                "graph_misses", "graph_stores",
            ),
            "int",
        ),
        "enabled": "bool",
    },
    "cluster": dict.fromkeys(
        (
            "spawns", "respawns", "kills", "worker_losses", "shards",
            "inline_launches", "unshippable", "halo_exchanges", "halo_bytes",
            "staged_in_bytes",
            "staged_out_bytes", "reduce_folds", "rebalances", "degradations",
            "shm_segments", "shm_bytes",
        ),
        "int",
    ),
}

_OPEN_GROUPS = {"declined", "by_rule", "diagnostics"}


def _shape(d, key=None):
    if isinstance(d, dict):
        if key in _OPEN_GROUPS:
            assert all(type(v) is int for v in d.values())
            return {}
        return {k: _shape(v, k) for k, v in d.items()}
    return type(d).__name__


class TestPublicShapes:
    def test_cache_info_structure(self):
        assert _shape(repro.cache_info()) == CACHE_INFO_SHAPE

    def test_cache_info_is_the_per_block_views(self):
        from repro.ir import compilecache, diagnostics, nativecache

        info = repro.cache_info()
        assert info["graph"] == repro.graph_stats()
        assert info["cluster"] == repro.cluster_stats()
        assert info["native"] == nativecache.native_stats()
        assert info["disk"] == compilecache.disk_stats()
        assert info["verify"] == diagnostics.counters.snapshot()

    def test_fault_and_arena_blocks(self):
        assert _shape(global_fault_stats()) == dict.fromkeys(
            (
                "probes", "transients_injected", "permanents_injected",
                "retries", "retry_exhausted", "failovers", "kills",
                "watchdog_timeouts", "checkpoint_saves", "checkpoint_restores",
            ),
            "int",
        )
        assert _shape(arena_stats()) == dict.fromkeys(
            ("buffers_created", "buffers_reused", "bytes_allocated", "bytes_saved"),
            "int",
        )

    def test_counters_move_through_the_views(self):
        def k(i, x):
            x[i] = 2.0 * x[i] + 1.0

        import numpy as np

        from repro.ir.nativecache import native_stats, record_decline, reset_state

        before = repro.cache_info()
        x = repro.array(np.ones(64))
        ctx = repro.current_context()
        with ctx.capture() as cap:
            repro.parallel_for(64, k, x)
        inst = cap.graph("obs").instantiate(ctx)
        inst.replay()
        record_decline("alias")
        after = repro.cache_info()
        assert after["graph"]["captures"] == before["graph"]["captures"] + 1
        assert after["graph"]["replays"] == before["graph"]["replays"] + 1
        assert (
            after["graph"]["nodes_replayed"]
            == before["graph"]["nodes_replayed"] + 1
        )
        declined = before["native"]["declined"].get("alias", 0)
        assert after["native"]["declined"]["alias"] == declined + 1
        reset_state(drop_memory=False, drop_counters=True)
        assert native_stats() == {
            "compiled": 0, "disk_hits": 0, "mem_hits": 0, "bytes": 0,
            "single_loop": 0, "c_fold": 0, "cc_ms": 0, "cc_wait_ms": 0, "pending": 0,
            "declined": {},
        }


# ---------------------------------------------------------------------------
# Mode
# ---------------------------------------------------------------------------

_SETTERS = {
    "executor": (repro.set_executor_mode, repro.executor_mode),
    "graph": (repro.set_graph_mode, repro.graph_mode),
    "passes": (repro.set_passes_mode, repro.passes_mode),
    "verify": (repro.set_verify_mode, repro.ir.verify.active_verify_mode),
    "validate": (repro.set_validate_mode, repro.ir.validate.active_validate_mode),
}


@pytest.fixture
def clean_modes(monkeypatch, tmp_path):
    """Every knob unset: no override, no env var, an empty prefs file."""
    saved = {key: mode.set(None) for key, mode in MODES.items()}
    for mode in MODES.values():
        monkeypatch.delenv(mode.env, raising=False)
    prefs = tmp_path / "LocalPreferences.toml"
    monkeypatch.setenv("PYACC_PREFERENCES", str(prefs))
    yield prefs
    for key, mode in MODES.items():
        mode.set(saved[key])


@pytest.mark.parametrize("key", sorted(MODES))
class TestMode:
    def test_table_declares_the_knob(self, key):
        mode = MODES[key]
        assert mode.prefs_key == key
        assert mode.env == f"PYACC_{key.upper()}"
        assert mode.default in mode.valid and mode.doc

    def test_precedence_override_env_file_default(self, key, clean_modes, monkeypatch):
        mode = MODES[key]
        others = [v for v in mode.valid if v != mode.default]
        in_file = forced = others[0]
        in_env = others[-1] if others[-1] != in_file else mode.default
        assert mode.get() == mode.default
        preferences.write_preference(key, in_file, clean_modes)
        assert mode.get() == mode.default  # cached: no re-read per get
        assert mode.set(None) is None  # drops the cache
        assert mode.get() == in_file
        monkeypatch.setenv(mode.env, in_env)
        mode.set(None)
        assert mode.get() == in_env
        assert mode.resolve() == in_env
        assert mode.set(forced) is None
        assert mode.get() == forced
        assert mode.set(None) == forced  # previous override handed back
        assert mode.get() == in_env

    def test_get_reads_preferences_once(self, key, clean_modes, monkeypatch):
        calls = []
        real = preferences.read_preferences

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(preferences, "read_preferences", counting)
        mode = MODES[key]
        mode.set(None)
        first = mode.get()
        assert len(calls) == 1
        assert all(mode.get() == first for _ in range(1000))
        assert len(calls) == 1

    def test_public_setter_contract(self, key, clean_modes):
        setter, getter = _SETTERS[key]
        mode = MODES[key]
        other = [v for v in mode.valid if v != mode.default][0]
        assert setter(other) is None
        assert getter() == other
        with pytest.raises(PreferencesError) as excinfo:
            setter("bogus")
        assert isinstance(excinfo.value, ValueError)
        assert getter() == other  # a rejected value changes nothing
        assert setter(None) == other
        assert getter() == mode.default

    def test_bad_env_and_file_values_are_rejected(self, key, clean_modes, monkeypatch):
        mode = MODES[key]
        preferences.write_preference(key, "bogus", clean_modes)
        with pytest.raises(PreferencesError):
            mode.get()
        monkeypatch.setenv(mode.env, "bogus")
        with pytest.raises(PreferencesError):
            mode.resolve()

    def test_scoped_restores_the_previous_override(self, key, clean_modes):
        mode = MODES[key]
        outer, inner = mode.valid[0], mode.valid[-1]
        mode.set(outer)
        with pytest.raises(RuntimeError):
            with mode.scoped(inner):
                assert mode.get() == inner
                raise RuntimeError
        assert mode.get() == outer
