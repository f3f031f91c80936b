"""Tests for the static kernel verifier (repro.ir.verify).

Covers the index-distance lattice (aliasing/non-aliasing pairs), guard
refinement, bounds checking, reduction purity, the lint rules, the three
enforcement modes, per-kernel suppression, and the public API surfaces.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro import (
    KernelVerificationError,
    KernelVerificationWarning,
    verify_kernel,
    verify_mode,
)
from repro.ir.verify import set_verify_mode, suppress
from repro.math import exclusive


def rules(diags):
    return sorted(d.rule for d in diags)


@pytest.fixture(autouse=True)
def _fresh_mode():
    """Each test starts from the default (preferences-resolved) mode."""
    set_verify_mode(None)
    yield
    set_verify_mode(None)


# ---------------------------------------------------------------------------
# The index-distance lattice: race detection
# ---------------------------------------------------------------------------


class TestRaceLattice:
    def test_same_index_store_load_is_clean(self):
        def k(i, x, y):
            x[i] = y[i]

        assert verify_kernel(k, 8, [np.zeros(8), np.zeros(8)]) == ()

    def test_augmented_same_index_is_clean(self):
        def k(i, alpha, x, y):
            x[i] += alpha * y[i]

        assert verify_kernel(k, 8, [2.0, np.zeros(8), np.zeros(8)]) == ()

    def test_i_vs_i_plus_1_is_a_race(self):
        def k(i, x):
            x[i] = x[i + 1]

        diags = verify_kernel(k, 8, [np.zeros(9)])
        assert rules(diags) == ["V102"]
        assert diags[0].severity == "error"

    def test_unguarded_constant_store_races_with_itself(self):
        def k(i, out, x):
            out[0] = x[i]

        diags = verify_kernel(k, 8, [np.zeros(1), np.zeros(8)])
        assert "V101" in rules(diags)

    def test_constant_store_on_one_lane_domain_is_clean(self):
        def k(i, out, x):
            out[0] = x[i]

        assert verify_kernel(k, 1, [np.zeros(1), np.zeros(8)]) == ()

    def test_exclusive_guard_proves_single_lane_store(self):
        def k(i, out, x):
            if exclusive(i):
                out[0] = x[0] * 2.0

        assert verify_kernel(k, 8, [np.zeros(1), np.zeros(8)]) == ()

    def test_stride_2_interleaved_is_clean(self):
        # 2i and 2i+1 never collide (gcd test): disjoint even/odd lattices.
        def k(i, x):
            x[2 * i] = x[2 * i + 1]

        assert verify_kernel(k, 8, [np.zeros(16)]) == ()

    def test_stride_2_same_phase_offset_races(self):
        # 2i vs 2(i+1): distance 2 is achievable -> race.
        def k(i, x):
            x[2 * i] = x[2 * i + 2]

        assert rules(verify_kernel(k, 8, [np.zeros(18)])) == ["V102"]

    def test_transposed_access_is_a_race(self):
        def k(i, j, a):
            a[i, j] = a[j, i]

        diags = verify_kernel(k, (4, 4), [np.zeros((4, 4))])
        assert rules(diags) == ["V102"]

    def test_transpose_into_distinct_array_is_clean(self):
        def k(i, j, a, b):
            a[i, j] = b[j, i]

        assert verify_kernel(k, (4, 4), [np.zeros((4, 4)), np.zeros((4, 4))]) == ()

    def test_guard_disjoint_stores_are_clean(self):
        def k(i, y, n):
            if i == 0:
                y[i] = 1.0
            elif i == n - 1:
                y[i] = 2.0
            else:
                y[i] = 3.0

        assert verify_kernel(k, 8, [np.zeros(8), 8]) == ()

    def test_two_pinned_lanes_hitting_same_element_race(self):
        def k(i, out, n):
            if i == 0:
                out[0] = 1.0
            if i == n - 1:
                out[0] = 2.0

        assert rules(verify_kernel(k, 8, [np.zeros(4), 8])) == ["V101"]

    def test_two_pinned_lanes_distinct_elements_clean(self):
        def k(i, out, n):
            if i == 0:
                out[0] = 1.0
            if i == n - 1:
                out[1] = 2.0

        assert verify_kernel(k, 8, [np.zeros(4), 8]) == ()

    def test_flat_2d_indexing_proves_clean_with_concrete_n(self):
        # The LBM layout: x*n + y is injective for 0 <= y < n.
        def k(x, y, f, g, n):
            f[x * n + y] = g[x * n + y] * 2.0

        n = 6
        args = [np.zeros(n * n), np.zeros(n * n), n]
        assert verify_kernel(k, (n, n), args) == ()

    def test_flat_2d_wrong_pitch_races(self):
        # Pitch n-1 makes (x, y) -> x*(n-1)+y non-injective over the box.
        def k(x, y, f, n):
            f[x * (n - 1) + y] = 1.0

        n = 6
        assert rules(verify_kernel(k, (n, n), [np.zeros(n * n), n])) == ["V101"]

    def test_shifted_neighbor_read_different_array_clean(self):
        # Stencils reading neighbours of a *different* array are the
        # canonical safe pattern.
        def k(i, u, un, n):
            if i > 0 and i < n - 1:
                un[i] = u[i - 1] + u[i + 1]

        assert verify_kernel(k, 8, [np.zeros(8), np.zeros(8), 8]) == ()

    def test_store_load_shift_within_guard_races(self):
        def k(i, u, n):
            if i > 0:
                u[i] = u[i - 1]

        assert rules(verify_kernel(k, 8, [np.zeros(8), 8])) == ["V102"]


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


class TestBounds:
    def test_oob_store_is_flagged(self):
        def k(i, x):
            x[i + 1] = 1.0

        diags = verify_kernel(k, 8, [np.zeros(8)])
        assert rules(diags) == ["V201"]
        assert diags[0].severity == "error"

    def test_negative_reach_is_flagged(self):
        def k(i, x):
            x[i - 1] = 1.0

        assert rules(verify_kernel(k, 8, [np.zeros(8)])) == ["V201"]

    def test_guarded_stencil_is_in_bounds(self):
        def k(i, x, y, n):
            if i > 0 and i < n - 1:
                y[i] = x[i - 1] + x[i + 1]

        assert verify_kernel(k, 8, [np.zeros(8), np.zeros(8), 8]) == ()

    def test_oob_load_is_flagged(self):
        def k(i, x, y):
            y[i] = x[i + 4]

        assert rules(verify_kernel(k, 8, [np.zeros(8), np.zeros(8)])) == ["V201"]

    def test_extent_larger_than_domain_is_fine(self):
        def k(i, x):
            x[i + 1] = 1.0

        assert verify_kernel(k, 8, [np.zeros(9)]) == ()


# ---------------------------------------------------------------------------
# Reduction purity
# ---------------------------------------------------------------------------


class TestReductionPurity:
    def test_store_in_reduce_is_impure(self):
        def k(i, scratch, x):
            scratch[i] = x[i]
            return x[i]

        diags = verify_kernel(
            k, 8, [np.zeros(8), np.zeros(8)], reduce=True, op="add"
        )
        assert "V301" in rules(diags)

    def test_implicit_return_ok_for_add(self):
        def k(i, x):
            if x[i] > 0:
                return x[i]

        assert (
            verify_kernel(k, 8, [np.ones(8)], reduce=True, op="add") == ()
        )

    def test_implicit_return_flagged_for_min(self):
        def k(i, x):
            if x[i] > 0:
                return x[i]

        diags = verify_kernel(k, 8, [np.ones(8)], reduce=True, op="min")
        assert rules(diags) == ["V302"]

    def test_explicit_both_branches_ok_for_min(self):
        def k(i, x):
            if x[i] > 0:
                return x[i]
            return 1.0e30

        assert (
            verify_kernel(k, 8, [np.ones(8)], reduce=True, op="min") == ()
        )


# ---------------------------------------------------------------------------
# Lint rules
# ---------------------------------------------------------------------------


class TestLintRules:
    def test_dead_store(self):
        def k(i, x):
            x[i] = 1.0
            x[i] = 2.0

        assert rules(verify_kernel(k, 8, [np.zeros(8)])) == ["V401"]

    def test_read_between_stores_is_not_dead(self):
        def k(i, x, y):
            x[i] = 1.0
            y[i] = x[i]
            x[i] = 2.0

        assert verify_kernel(k, 8, [np.zeros(8), np.zeros(8)]) == ()

    def test_unused_array_arg(self):
        def k(i, x, y):
            x[i] = 1.0

        diags = verify_kernel(k, 8, [np.zeros(8), np.zeros(8)])
        assert rules(diags) == ["V402"]
        assert diags[0].severity == "warning"

    def test_float_equality_guard(self):
        def k(i, x, y):
            if x[i] == 0.5:
                y[i] = 1.0

        assert rules(verify_kernel(k, 8, [np.zeros(8), np.zeros(8)])) == ["V403"]

    def test_integer_equality_guard_is_fine(self):
        def k(i, y, n):
            if i == n - 1:
                y[i] = 1.0

        assert verify_kernel(k, 8, [np.zeros(8), 8]) == ()


# ---------------------------------------------------------------------------
# Enforcement modes
# ---------------------------------------------------------------------------


def _racy(i, x):
    x[i] = x[i + 1]


class TestEnforcement:
    def test_warn_mode_warns_and_completes(self):
        with verify_mode("warn"):
            with pytest.warns(KernelVerificationWarning, match="V102"):
                repro.parallel_for(8, _racy, np.zeros(9))

    def test_error_mode_raises(self):
        def racy_err(i, x):  # fresh fn: avoids the verification cache
            x[i] = x[i + 1]

        with verify_mode("error"):
            with pytest.raises(KernelVerificationError) as excinfo:
                repro.parallel_for(8, racy_err, np.zeros(9))
        assert any(d.rule == "V102" for d in excinfo.value.diagnostics)

    def test_error_mode_raises_on_every_launch(self):
        def racy_twice(i, x):
            x[i] = x[i + 1]

        with verify_mode("error"):
            for _ in range(2):  # cached second time, still enforced
                with pytest.raises(KernelVerificationError):
                    repro.parallel_for(8, racy_twice, np.zeros(9))

    def test_off_mode_is_silent(self):
        def racy_off(i, x):
            x[i] = x[i + 1]

        with verify_mode("off"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", KernelVerificationWarning)
                repro.parallel_for(8, racy_off, np.zeros(9))

    def test_error_mode_oob(self):
        def oob(i, x):
            x[i + 1] = 1.0

        with verify_mode("error"):
            with pytest.raises(KernelVerificationError):
                repro.parallel_for(8, oob, np.zeros(8))

    def test_clean_kernel_unaffected_by_error_mode(self):
        def k(i, x, y):
            x[i] = y[i] * 2.0

        x, y = np.zeros(8), np.ones(8)
        with verify_mode("error"):
            repro.parallel_for(8, k, x, y)
        np.testing.assert_allclose(x, 2.0)

    def test_plan_diagnostics_attached_via_launch(self):
        def racy_plan(i, x):
            x[i] = x[i + 1]

        with verify_mode("warn"), warnings.catch_warnings():
            warnings.simplefilter("ignore", KernelVerificationWarning)
            plan = repro.launch(8, racy_plan, np.zeros(9))
        assert any(d.rule == "V102" for d in plan.diagnostics)

    def test_set_verify_mode_validates(self):
        with pytest.raises(ValueError):
            set_verify_mode("loud")


# ---------------------------------------------------------------------------
# Suppression + misc surfaces
# ---------------------------------------------------------------------------


class TestSuppressionAndSurfaces:
    def test_suppress_decorator(self):
        @suppress("V101")
        def accum(i, out, x):
            out[0] = x[i]

        assert verify_kernel(accum, 8, [np.zeros(1), np.zeros(8)]) == ()

    def test_suppress_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            suppress("V999")

    def test_suppressed_kernel_runs_in_error_mode(self):
        @suppress("V101")
        def accum(i, out, x):
            out[0] = x[i]

        with verify_mode("error"):
            repro.parallel_for(4, accum, np.zeros(1), np.zeros(4))

    def test_inspect_kernel_reports_diagnostics_with_dims(self):
        def racy_inspect(i, x):
            x[i] = x[i + 1]

        report = repro.inspect_kernel(racy_inspect, (8,), [np.zeros(9)])
        assert any(d.rule == "V102" for d in report.diagnostics)
        assert "V102" in report.explain()

    def test_inspect_kernel_rank_only_skips_verification(self):
        def racy_rank(i, x):
            x[i] = x[i + 1]

        report = repro.inspect_kernel(racy_rank, 1, [np.zeros(9)])
        assert report.diagnostics == ()

    def test_interpreter_kernel_reports_info(self):
        def untraceable(i, x):
            acc = 0.0
            for k in range(int(x[0])):  # data-dependent bound
                acc += k
            x[i] = acc

        with verify_mode("warn"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = repro.launch(4, untraceable, np.ones(4))
        diags = plan.diagnostics
        assert [d.rule for d in diags] == ["V901"]
        assert diags[0].severity == "info"

    def test_verification_cache_reuses_diagnostics(self):
        from repro.ir.compile import compile_kernel
        from repro.ir.verify import verify_compiled

        def k(i, alpha, x, y):
            x[i] += alpha * y[i]

        args = [2.0, np.zeros(8), np.zeros(8)]
        ck = compile_kernel(k, 1, args)
        first = verify_compiled(ck, (8,), args)
        # alpha's value is irrelevant to the analysis: cache must hit.
        second = verify_compiled(ck, (8,), [9.9, np.zeros(8), np.zeros(8)])
        assert first is second

    def test_counters_record_fresh_verifications(self):
        from repro.ir.diagnostics import counters

        def k_fresh(i, x):
            x[i] = x[i + 1]

        before = counters.snapshot()
        with verify_mode("warn"), warnings.catch_warnings():
            warnings.simplefilter("ignore", KernelVerificationWarning)
            repro.parallel_for(8, k_fresh, np.zeros(9))
        after = counters.snapshot()
        assert after["kernels_verified"] == before["kernels_verified"] + 1
        assert after["errors"] >= before["errors"] + 1


# ---------------------------------------------------------------------------
# Dims validation at the construct boundary (satellite)
# ---------------------------------------------------------------------------


class TestDimsValidation:
    def _noop(self, i, x):
        x[i] = 1.0

    def test_float_dims_rejected(self):
        with pytest.raises(ValueError, match="int"):
            repro.parallel_for(4.0, self._noop, np.zeros(4))

    def test_float_in_tuple_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            repro.parallel_for((4, 2.5), self._noop, np.zeros((4, 4)))

    def test_bool_dims_rejected(self):
        with pytest.raises(ValueError):
            repro.parallel_for(True, self._noop, np.zeros(4))

    def test_zero_and_negative_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            repro.parallel_for(0, self._noop, np.zeros(4))
        with pytest.raises(ValueError, match="positive"):
            repro.parallel_for((4, -1), self._noop, np.zeros((4, 4)))

    def test_numpy_integers_accepted(self):
        x = np.zeros(4)
        repro.parallel_for(np.int64(4), self._noop, x)
        np.testing.assert_allclose(x, 1.0)

    def test_string_dims_rejected_clearly(self):
        with pytest.raises(ValueError):
            repro.parallel_for("4", self._noop, np.zeros(4))
