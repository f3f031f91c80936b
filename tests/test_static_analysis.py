"""Static analysis & translation validation (PR 7).

Covers the three new analysis layers and their enforcement surface:

* :mod:`repro.ir.shapes` — the NEP-50 symbolic shape/dtype lattice that
  certifies ``out=``-fusion beyond float64;
* :mod:`repro.ir.effects` — per-plan memory-effects summaries and the
  cross-launch hazard analyses (V601/V602/V603);
* :mod:`repro.ir.validate` — the translation validator that re-derives
  every applied pass rewrite from effects summaries alone (V610), plus
  the static reduce-operator checker (V311/V312).

The app-level acceptance — the validator confirms every rewrite the
pipeline applies on the CG, HPCCG, LBM and LBM3D bodies with zero
spurious rejections under ``error`` mode — runs the real solvers.
"""

import threading
import warnings

import numpy as np
import pytest

import repro
from repro.apps.cg import cg_solve, tridiagonal_system
from repro.apps.hpccg import build_27pt_problem, hpccg_solve
from repro.apps.lbm import LBM
from repro.apps.lbm3d import LBM3D
from repro.core.context import current_context
from repro.core.exceptions import (
    KernelVerificationError,
    PreferencesError,
    TranslationValidationError,
)
from repro.core.preferences import resolve_validate_mode
from repro.graph import graph_stats, reset_graph_stats
from repro.ir.compile import cache_info, clear_cache
from repro.ir.diagnostics import (
    RULE_EXAMPLES,
    RULES,
    KernelVerificationWarning,
    counters,
)
from repro.ir.effects import (
    ArrayEffect,
    EffectsSummary,
    plan_effects,
    program_dead_stores,
    reduce_alias_hazards,
    regions_may_overlap,
    summarize_trace,
)
from repro.ir.shapes import (
    WEAK_FLOAT,
    WEAK_INT,
    Lattice,
    promote,
    scalar_dtype,
)
from repro.ir.tracer import trace_kernel
from repro.ir.validate import (
    _CHECKERS,
    set_validate_mode,
    validate_mode,
    validate_program,
    verify_reduce_op,
)


@pytest.fixture(autouse=True)
def fresh_state():
    clear_cache()
    reset_graph_stats()
    yield
    repro.set_graph_mode(None)
    repro.set_backend("serial")
    set_validate_mode(None)
    repro.set_verify_mode(None)
    clear_cache()


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def fill(i, x, v):
    x[i] = v


# ---------------------------------------------------------------------------
# The NEP-50 shape/dtype lattice
# ---------------------------------------------------------------------------


class TestShapesLattice:
    def test_scalar_dtype_weak_and_strong(self):
        assert scalar_dtype(1) is WEAK_INT
        assert scalar_dtype(1.5) is WEAK_FLOAT
        assert scalar_dtype(np.float32(1.5)) == np.dtype(np.float32)
        assert scalar_dtype(np.int64(3)) == np.dtype(np.int64)

    def test_promote_matches_numpy_nep50(self):
        f32 = np.dtype(np.float32)
        # weak Python float does not upcast float32 (NEP 50)
        assert promote("mul", f32, WEAK_FLOAT) == f32
        # weak int into int32 stays int32
        assert promote("add", np.dtype(np.int32), WEAK_INT) == np.dtype(
            np.int32
        )
        # strong float64 wins over float32
        assert promote("add", f32, np.dtype(np.float64)) == np.dtype(
            np.float64
        )

    def test_full_domain_dtype_float32(self):
        trace = trace_kernel(
            axpy, 1, [np.float32(2.0), np.zeros(8, np.float32),
                      np.ones(8, np.float32)]
        )
        lat = Lattice(1, [np.float32(2.0), np.zeros(8, np.float32),
                          np.ones(8, np.float32)])
        store = trace.stores[-1]
        assert lat.full_domain_dtype(store.value) == np.dtype(np.float32)

    def test_full_domain_dtype_declines_partial_shape(self):
        # a load at x[0] broadcasts — not full-domain, no certificate
        def k(i, x, y):
            y[i] = x[0]

        args = [np.zeros(8), np.zeros(8)]
        trace = trace_kernel(k, 1, args)
        lat = Lattice(1, args)
        assert lat.full_domain_dtype(trace.stores[-1].value) is None


# ---------------------------------------------------------------------------
# Effects summaries
# ---------------------------------------------------------------------------


def _summary_for(fn, dims, args, **kw):
    trace = trace_kernel(fn, len(dims), list(args))
    return summarize_trace(trace, dims, list(args), **kw)


class TestEffectsSummaries:
    def test_identity_axpy(self):
        x, y = np.zeros(16), np.ones(16)
        s = _summary_for(axpy, (16,), [2.0, x, y], kernel="axpy")
        ex = s.effect(1)
        assert ex.is_read and ex.is_written
        assert ex.identity_reads and ex.identity_writes
        assert ex.read_region == ((0, 15),)
        assert id(x) in s.write_ids and id(y) in s.read_ids
        assert id(y) not in s.write_ids

    def test_full_overwrite_and_stencil_regions(self):
        def stencil(i, a, b):
            if 0 < i < 15:
                b[i] = a[i - 1] + a[i + 1]

        a, b = np.zeros(16), np.zeros(16)
        s = _summary_for(stencil, (16,), [a, b], kernel="stencil")
        ea = s.effect(0)
        assert not ea.identity_reads  # neighbor loads
        assert ea.read_region == ((0, 15),)  # guard-refined to in-bounds
        # the guarded store does not cover the array
        assert id(b) not in s.full_overwrite_ids

        x = np.zeros(16)
        sf = _summary_for(fill, (16,), [x, 1.0], kernel="fill")
        assert id(x) in sf.full_overwrite_ids
        assert sf.effect(0).full_overwrite

    def test_aliased_positions_not_full_overwrite(self):
        def two(i, a, b):
            a[i] = 1.0
            b[i + 0] = b[i] * 2.0

        x = np.zeros(8)
        s = _summary_for(two, (8,), [x, x], kernel="alias")
        # same storage behind two positions → the full-overwrite claim
        # is withheld even though each store alone covers the array
        assert id(x) not in s.full_overwrite_ids

    def test_regions_may_overlap(self):
        assert regions_may_overlap(((0, 7),), ((7, 9),))
        assert not regions_may_overlap(((0, 6),), ((7, 9),))
        assert regions_may_overlap(None, ((0, 1),))


# ---------------------------------------------------------------------------
# Translation validation: app bodies confirm, unsound rewrites reject
# ---------------------------------------------------------------------------


def _run_cg():
    lower, diag, upper, b = tridiagonal_system(96)
    res = cg_solve(lower, diag, upper, b, tol=1e-12)
    return res.x


def _run_hpccg():
    a, b, _ = build_27pt_problem(4, 4, 4)
    return hpccg_solve(a, b).x


def _run_lbm():
    sim = LBM(10, tau=0.7, lid_velocity=0.08)
    sim.step(6)
    return sim.distribution()


def _run_lbm3d():
    sim = LBM3D(5, tau=0.6)
    sim.step(3)
    return sim.distribution()


class TestValidatorOnApps:
    @pytest.mark.parametrize(
        "runner, rewrites_expected",
        [
            (_run_cg, True),
            (_run_hpccg, True),
            (_run_lbm, False),  # single-kernel body: nothing to rewrite
            (_run_lbm3d, False),
        ],
        ids=["cg", "hpccg", "lbm", "lbm3d"],
    )
    def test_every_applied_rewrite_confirmed(
        self, runner, rewrites_expected
    ):
        repro.set_backend("threads")
        repro.set_graph_mode("on")
        with validate_mode("error"):
            with warnings.catch_warnings():
                warnings.simplefilter(
                    "error", KernelVerificationWarning
                )
                runner()
        st = graph_stats()["validate"]
        confirmed = st["fuse"]["confirmed"]
        rejected = st["fuse"]["rejected"]
        assert st["programs"] >= 1
        if rewrites_expected:
            assert confirmed >= 1  # the pipeline did rewrite something
        assert rejected == 0  # zero spurious rejections
        assert st["degraded"] == 0
        assert st["diagnostics"] == {}


def _unsound_record():
    """A fuse record whose consumer reads the shared array at
    non-identity indices — per-chunk fusion cannot preserve it."""
    sid = 0xBAD
    producer = EffectsSummary(
        kernel="producer",
        ndim=1,
        dims=(8,),
        arrays=(
            ArrayEffect(
                pos=0, sid=sid, shape=(8,),
                read_region=None, write_region=((0, 7),),
            ),
        ),
        read_ids=frozenset(),
        write_ids=frozenset({sid}),
        full_overwrite_ids=frozenset({sid}),
    )
    consumer = EffectsSummary(
        kernel="consumer",
        ndim=1,
        dims=(8,),
        arrays=(
            ArrayEffect(
                pos=0, sid=sid, shape=(8,),
                read_region=((0, 7),), write_region=None,
                identity_reads=False,
            ),
        ),
        read_ids=frozenset({sid}),
        write_ids=frozenset(),
        full_overwrite_ids=frozenset(),
    )
    return {
        "kind": "fuse",
        "label": "unsound",
        "a": producer,
        "b": consumer,
        "skipped": (),
    }


class TestValidatorRejectsUnsound:
    def test_unsound_fuse_record_yields_v610(self):
        class FakeProg:
            name = "p"
            rewrites = [_unsound_record()]

        tally = {}

        def record(kind, **kw):
            for key, n in kw.items():
                tally[(kind, key)] = tally.get((kind, key), 0) + n

        diags = validate_program(FakeProg(), record)
        assert [d.rule for d in diags] == ["V610"]
        assert diags[0].is_error
        assert "non-identity" in diags[0].message
        assert tally[("fuse", "rejected")] == 1

    def test_sound_record_against_each_checker(self):
        # soundness of the synthetic schema itself: a record with
        # identity-only summaries passes the fuse checker
        rec = _unsound_record()
        fixed_consumer_eff = ArrayEffect(
            pos=0, sid=0xBAD, shape=(8,),
            read_region=((0, 7),), write_region=None,
        )
        rec["b"] = EffectsSummary(
            kernel="consumer", ndim=1, dims=(8,),
            arrays=(fixed_consumer_eff,),
            read_ids=frozenset({0xBAD}), write_ids=frozenset(),
            full_overwrite_ids=frozenset(),
        )
        assert _CHECKERS["fuse"](rec) is None

    def _capture_fusable_pair(self):
        repro.set_backend("serial")
        ctx = current_context()
        n = 32
        x = repro.array(np.zeros(n))
        y = repro.array(np.ones(n))
        z = repro.array(np.zeros(n))
        with ctx.capture() as cap:
            repro.parallel_for(n, axpy, 2.0, x, y)
            repro.parallel_for(n, axpy, 1.0, z, x)
        return cap.graph("pair"), ctx

    def test_error_mode_raises_on_instantiate(self, monkeypatch):
        # Force every fuse re-derivation to fail: the instantiate-time
        # hook must raise with the structured V610 diagnostic.
        monkeypatch.setitem(
            _CHECKERS, "fuse", lambda rec: "forced failure (test)"
        )
        graph, ctx = self._capture_fusable_pair()
        with validate_mode("error"):
            with pytest.raises(TranslationValidationError) as ei:
                graph.instantiate(ctx)
        assert any(d.rule == "V610" for d in ei.value.diagnostics)

    def test_warn_mode_degrades_to_unoptimized(self, monkeypatch):
        monkeypatch.setitem(
            _CHECKERS, "fuse", lambda rec: "forced failure (test)"
        )
        graph, ctx = self._capture_fusable_pair()
        with validate_mode("warn"):
            with pytest.warns(KernelVerificationWarning, match="V610"):
                inst = graph.instantiate(ctx)
        # degraded: both nodes survive unfused and replay stays correct
        enabled = inst.program.nodes
        assert len(enabled) == 2
        st = graph_stats()["validate"]
        assert st["degraded"] == 1
        assert st["diagnostics"].get("V610", 0) >= 1
        inst.replay()

    def test_off_mode_skips_validation(self):
        graph, ctx = self._capture_fusable_pair()
        with validate_mode("off"):
            graph.instantiate(ctx)
        st = graph_stats()["validate"]
        assert st["programs"] == 0


# ---------------------------------------------------------------------------
# V601: cross-launch async races
# ---------------------------------------------------------------------------


class TestAsyncRaceV601:
    def _blocked_stream(self):
        """Occupy the single stream worker so launches stay pending."""
        ctx = current_context()
        gate = threading.Event()
        ctx.submit(lambda: gate.wait())
        return ctx, gate

    def test_warn_mode_warns_on_dependent_async_launches(self):
        repro.set_verify_mode("warn")  # whatever PYACC_VERIFY says
        repro.set_backend("threads")
        ctx, gate = self._blocked_stream()
        try:
            x = repro.array(np.zeros(64))
            repro.launch(64, fill, x, 1.0, sync=False)
            with pytest.warns(KernelVerificationWarning, match="V601"):
                repro.launch(64, fill, x, 2.0, sync=False)
        finally:
            gate.set()
            ctx.drain()
        assert np.allclose(repro.to_host(x), 2.0)

    def test_error_mode_raises(self):
        repro.set_backend("threads")
        ctx, gate = self._blocked_stream()
        try:
            x = repro.array(np.zeros(64))
            repro.launch(64, fill, x, 1.0, sync=False)
            with repro.verify_mode("error"):
                with pytest.raises(KernelVerificationError) as ei:
                    repro.launch(64, fill, x, 2.0, sync=False)
            assert any(d.rule == "V601" for d in ei.value.diagnostics)
        finally:
            gate.set()
            ctx.drain()

    def test_independent_async_launches_are_silent(self):
        repro.set_backend("threads")
        ctx, gate = self._blocked_stream()
        try:
            x = repro.array(np.zeros(64))
            y = repro.array(np.zeros(64))
            repro.launch(64, fill, x, 1.0, sync=False)
            with warnings.catch_warnings():
                warnings.simplefilter(
                    "error", KernelVerificationWarning
                )
                repro.launch(64, fill, y, 1.0, sync=False)
        finally:
            gate.set()
            ctx.drain()


# ---------------------------------------------------------------------------
# V602 / V603: program-level hazards
# ---------------------------------------------------------------------------


def _fill_summary(sid, *, reads=False, full=True, kernel="fill"):
    eff = ArrayEffect(
        pos=0, sid=sid, shape=(8,),
        read_region=((0, 7),) if reads else None,
        write_region=((0, 7),),
        full_overwrite=full,
    )
    return EffectsSummary(
        kernel=kernel, ndim=1, dims=(8,), arrays=(eff,),
        read_ids=frozenset({sid}) if reads else frozenset(),
        write_ids=frozenset({sid}),
        full_overwrite_ids=frozenset({sid}) if full else frozenset(),
    )


class TestProgramHazards:
    def test_v602_dead_store_across_launches(self):
        sid = 7
        labeled = [
            ("a", _fill_summary(sid, kernel="first_fill")),
            ("b", _fill_summary(sid, kernel="second_fill")),
        ]
        diags = program_dead_stores(labeled)
        assert [d.rule for d in diags] == ["V602"]
        assert diags[0].severity == "warning"

    def test_v602_suppressed_by_intervening_read(self):
        sid = 7
        labeled = [
            ("a", _fill_summary(sid)),
            ("r", _fill_summary(sid, reads=True, full=False,
                                kernel="rmw")),
            ("b", _fill_summary(sid)),
        ]
        # the read-modify-write consumes the first fill → only the rmw
        # node's own store may be reported dead, not the first fill's
        diags = program_dead_stores(labeled)
        assert all("first" not in d.message for d in diags)

    def test_v603_reduce_reading_written_array_nonidentity(self):
        sid = 9
        eff = ArrayEffect(
            pos=0, sid=sid, shape=(8,),
            read_region=((0, 7),), write_region=((0, 7),),
            identity_reads=False,
        )
        s = EffectsSummary(
            kernel="fused", ndim=1, dims=(8,), arrays=(eff,),
            read_ids=frozenset({sid}), write_ids=frozenset({sid}),
            full_overwrite_ids=frozenset(),
            result_read_ids=frozenset({sid}),
            result_nonidentity_ids=frozenset({sid}),
            is_reduce=True,
        )
        diags = reduce_alias_hazards(s)
        assert [d.rule for d in diags] == ["V603"]
        assert diags[0].is_error

    def test_v603_identity_reduce_is_clean(self):
        sid = 9
        eff = ArrayEffect(
            pos=0, sid=sid, shape=(8,),
            read_region=((0, 7),), write_region=((0, 7),),
        )
        s = EffectsSummary(
            kernel="fused", ndim=1, dims=(8,), arrays=(eff,),
            read_ids=frozenset({sid}), write_ids=frozenset({sid}),
            full_overwrite_ids=frozenset(),
            result_read_ids=frozenset({sid}),
            result_nonidentity_ids=frozenset(),
            is_reduce=True,
        )
        assert reduce_alias_hazards(s) == []


# ---------------------------------------------------------------------------
# V31x: static reduce-operator checking
# ---------------------------------------------------------------------------


class TestReduceOpChecker:
    def test_known_names_and_ufuncs_pass(self):
        assert verify_reduce_op("add") == []
        assert verify_reduce_op("min") == []
        assert verify_reduce_op(np.add) == []
        assert verify_reduce_op(np.maximum) == []

    def test_associative_callable_passes(self):
        assert verify_reduce_op(lambda a, b: a + b, 0.0) == []
        assert verify_reduce_op(max, float("-inf")) == []

    def test_subtraction_fails_v311(self):
        diags = verify_reduce_op(lambda a, b: a - b, name="sub")
        assert [d.rule for d in diags] == ["V311"]
        assert diags[0].is_error

    def test_wrong_neutral_fails_v312(self):
        diags = verify_reduce_op(max, 1.0, name="max")
        assert [d.rule for d in diags] == ["V312"]
        assert "neutral" in diags[0].message

    def test_unknown_name_flagged(self):
        diags = verify_reduce_op("xor")
        assert [d.rule for d in diags] == ["V311"]


# ---------------------------------------------------------------------------
# Counters, mode resolution, catalog
# ---------------------------------------------------------------------------


class TestCountersAndModes:
    def test_cache_info_exposes_per_rule_counts(self):
        repro.set_verify_mode("warn")  # whatever PYACC_VERIFY says
        counters.reset()

        def racy(i, x):
            x[0] = i

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            repro.parallel_for(8, racy, np.zeros(8))
        info = cache_info()
        assert info["verify"]["kernels_verified"] >= 1
        assert info["verify"]["by_rule"].get("V101", 0) >= 1
        assert "validate" in info["graph"]

    def test_validate_mode_env_override(self, monkeypatch):
        monkeypatch.setenv("PYACC_VALIDATE", "error")
        assert resolve_validate_mode() == "error"
        monkeypatch.setenv("PYACC_VALIDATE", "bogus")
        with pytest.raises(PreferencesError):
            resolve_validate_mode()

    def test_set_validate_mode_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_validate_mode("loud")

    def test_catalog_covers_new_rules_with_examples(self):
        for rule in ("V311", "V312", "V501", "V601", "V602", "V603",
                     "V610"):
            assert rule in RULES
            assert rule in RULE_EXAMPLES


# ---------------------------------------------------------------------------
# Lint CLI: --explain and --sarif
# ---------------------------------------------------------------------------


class TestLintCLI:
    def test_explain_known_rule(self, capsys):
        from repro.lint import main

        assert main(["--explain", "V101"]) == 0
        out = capsys.readouterr().out
        assert "V101 (error)" in out
        assert "Example:" in out

    def test_explain_unknown_rule(self, capsys):
        from repro.lint import main

        assert main(["--explain", "V999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_sarif_output_shape(self, tmp_path):
        from repro.lint import lint_paths, to_sarif

        mod = tmp_path / "racy_mod.py"
        mod.write_text(
            "def racy_kernel(i, x):\n"
            "    x[0] = i\n"
        )
        sarif = to_sarif(lint_paths([str(mod)]))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "V101" in rules
        results = run["results"]
        assert any(r["ruleId"] == "V101" for r in results)
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("racy_mod.py")
        assert loc["region"]["startLine"] >= 1

    def test_sarif_cli_flag(self, tmp_path, capsys):
        import json

        from repro.lint import main

        mod = tmp_path / "ok_mod.py"
        mod.write_text(
            "def scale_kernel(i, x, alpha):\n"
            "    x[i] = x[i] * alpha\n"
        )
        rc = main(["--sarif", str(mod)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["version"] == "2.1.0"


# ---------------------------------------------------------------------------
# Inspect CLI: the EXPERIMENTS walkthrough surface
# ---------------------------------------------------------------------------


class TestInspectProgramAnalysis:
    def test_program_dump_includes_validation(self, capsys):
        from repro.ir.inspect import main

        assert main(["--program"]) == 0
        out = capsys.readouterr().out
        assert "memory-effects summaries" in out
        assert "translation validation" in out
        assert "independently confirmed" in out
        assert "REJECTED" not in out

    def test_seeded_unsound_rejected(self, capsys):
        from repro.ir.inspect import main

        assert main(["--program", "--seed-unsound"]) == 0
        out = capsys.readouterr().out
        assert "REJECTED: V610" in out
