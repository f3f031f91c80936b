"""Property-based differential testing: vectorizer vs interpreter.

The scalar interpreter defines kernel semantics; the vectorizer must
agree on *every* kernel it accepts.  Hypothesis generates random kernel
programs — expression trees over indices, scalars, array elements and
constants, optionally behind random guards — and both executors run the
same function on the same data.

This is the single most load-bearing test in the repository: it checks
the tracing JIT (branch forking, masking, gather clamping, memoization
invalidation) against an oracle that shares none of that machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.math as pm
from repro.ir.compile import clear_cache
from repro.ir.interpreter import interpret_for, interpret_reduce
from repro.ir.tracer import trace_kernel
from repro.ir.vectorizer import IndexDomain, execute_trace, reduce_trace

N = 16  # domain length for all differential runs


# --- random expression trees -------------------------------------------------

_LEAVES = st.sampled_from(
    ["i", "alpha", "x_i", "y_i", "y_rev", "c1", "c2", "half"]
)
_BINOPS = st.sampled_from(["add", "sub", "mul", "min", "max"])
_CMPS = st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"])


@st.composite
def exprs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_LEAVES)
    op = draw(_BINOPS)
    return (op, draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))


@st.composite
def conds(draw):
    op = draw(_CMPS)
    lhs = draw(st.sampled_from(["i", "x_i", "alpha"]))
    rhs = draw(st.sampled_from(["c1", "half", "i"]))
    base = (op, lhs, rhs)
    if draw(st.booleans()):
        op2 = draw(_CMPS)
        return ("and", base, (op2, "i", "c2"))
    return base


def _leaf(name, i, x, y, alpha, n):
    if name == "i":
        return i * 1.0
    if name == "alpha":
        return alpha
    if name == "x_i":
        return x[i]
    if name == "y_i":
        return y[i]
    if name == "y_rev":
        return y[n - 1 - i]
    if name == "c1":
        return 3.0
    if name == "c2":
        return 7.0
    if name == "half":
        return 0.5
    raise AssertionError(name)


def _eval(expr, i, x, y, alpha, n):
    if isinstance(expr, str):
        return _leaf(expr, i, x, y, alpha, n)
    op, a, b = expr
    va = _eval(a, i, x, y, alpha, n)
    vb = _eval(b, i, x, y, alpha, n)
    if op == "add":
        return va + vb
    if op == "sub":
        return va - vb
    if op == "mul":
        return va * vb
    if op == "min":
        return pm.minimum(va, vb)
    if op == "max":
        return pm.maximum(va, vb)
    # comparisons
    if op == "lt":
        return va < vb
    if op == "le":
        return va <= vb
    if op == "gt":
        return va > vb
    if op == "ge":
        return va >= vb
    if op == "eq":
        return va == vb
    if op == "ne":
        return va != vb
    if op == "and":
        return _eval(a, i, x, y, alpha, n) and _eval(b, i, x, y, alpha, n)
    raise AssertionError(op)


def make_for_kernel(expr, guard):
    def kernel(i, x, y, alpha, n):
        if guard is not None:
            if _eval(guard, i, x, y, alpha, n):
                x[i] = _eval(expr, i, x, y, alpha, n)
        else:
            x[i] = _eval(expr, i, x, y, alpha, n)

    return kernel


def make_reduce_kernel(expr, guard):
    def kernel(i, x, y, alpha, n):
        if guard is not None:
            if _eval(guard, i, x, y, alpha, n):
                return _eval(expr, i, x, y, alpha, n)
            return 0.0
        return _eval(expr, i, x, y, alpha, n)

    return kernel


def _data(seed):
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(-4, 4, N), 2)
    y = np.round(rng.uniform(-4, 4, N), 2)
    return x, y


finite = st.floats(
    min_value=-8, max_value=8, allow_nan=False, allow_infinity=False
).map(lambda v: round(v, 2))


class TestForDifferential:
    @settings(max_examples=60, deadline=None)
    @given(expr=exprs(), guard=st.none() | conds(), alpha=finite, seed=st.integers(0, 2**16))
    def test_vectorized_for_matches_interpreter(self, expr, guard, alpha, seed):
        clear_cache()
        kernel = make_for_kernel(expr, guard)
        x1, y1 = _data(seed)
        x2, y2 = x1.copy(), y1.copy()
        dom = IndexDomain.full((N,))

        interpret_for(kernel, dom, [x1, y1, alpha, N])
        trace = trace_kernel(kernel, 1, [x2, y2, alpha, N])
        execute_trace(trace, dom, [x2, y2, alpha, N])

        np.testing.assert_allclose(x2, x1, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(y2, y1)  # y is read-only

        # the optimized trace (what compile_kernel actually runs) must
        # agree too
        from repro.ir.optimize import optimize_trace

        x3, y3 = _data(seed)
        execute_trace(optimize_trace(trace), dom, [x3, y3, alpha, N])
        np.testing.assert_allclose(x3, x1, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(expr=exprs(), guard=conds(), alpha=finite, seed=st.integers(0, 2**16))
    def test_chunked_execution_matches_whole_domain(self, expr, guard, alpha, seed):
        clear_cache()
        kernel = make_for_kernel(expr, guard)
        x1, y1 = _data(seed)
        x2, y2 = x1.copy(), y1.copy()

        trace = trace_kernel(kernel, 1, [x1, y1, alpha, N])
        execute_trace(trace, IndexDomain.full((N,)), [x1, y1, alpha, N])
        for lo, hi in [(0, 5), (5, 11), (11, N)]:
            execute_trace(trace, IndexDomain([(lo, hi)]), [x2, y2, alpha, N])

        np.testing.assert_allclose(x2, x1, rtol=1e-12, atol=1e-12)


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


class TestReduceDifferential:
    @settings(max_examples=60, deadline=None)
    @given(expr=exprs(), guard=st.none() | conds(), alpha=finite, seed=st.integers(0, 2**16))
    def test_vectorized_reduce_matches_interpreter(self, expr, guard, alpha, seed):
        clear_cache()
        kernel = make_reduce_kernel(expr, guard)
        x, y = _data(seed)
        dom = IndexDomain.full((N,))

        ref = interpret_reduce(kernel, dom, [x, y, alpha, N])
        trace = trace_kernel(kernel, 1, [x, y, alpha, N])
        got = reduce_trace(trace, dom, [x, y, alpha, N])

        # The interpreter folds its lane values as every rung does, and
        # its lanes are the trace's (``repro.math.minimum`` on plain
        # floats is ``np.minimum``): equal bits.
        assert _bits(got) == _bits(ref)

        from repro.ir.optimize import optimize_trace

        got_opt = reduce_trace(optimize_trace(trace), dom, [x, y, alpha, N])
        assert _bits(got_opt) == _bits(ref)

    @settings(max_examples=20, deadline=None)
    @given(expr=exprs(), alpha=finite, seed=st.integers(0, 2**16))
    def test_minmax_reduce_matches_interpreter(self, expr, alpha, seed):
        clear_cache()
        kernel = make_reduce_kernel(expr, None)
        x, y = _data(seed)
        dom = IndexDomain.full((N,))
        for op in ("min", "max"):
            ref = interpret_reduce(kernel, dom, [x, y, alpha, N], op=op)
            trace = trace_kernel(kernel, 1, [x, y, alpha, N])
            got = reduce_trace(trace, dom, [x, y, alpha, N], op=op)
            assert _bits(got) == _bits(ref), op


def make_for_kernel_2d(expr, guard):
    """2-D variant: the expression/guard vocabulary is reused with the
    lane addressed as ``(i, j)`` and ``x``/``y`` being 2-D arrays."""

    def kernel(i, j, x, y, alpha, n):
        # reuse the 1-D evaluator with a synthetic flat index for leaves
        # that mention `i`; array leaves address [i, j].
        def leaf(name):
            if name == "i":
                return i * 1.0 + j
            if name == "alpha":
                return alpha
            if name == "x_i":
                return x[i, j]
            if name == "y_i":
                return y[i, j]
            if name == "y_rev":
                return y[n - 1 - i, n - 1 - j]
            if name == "c1":
                return 3.0
            if name == "c2":
                return 7.0
            if name == "half":
                return 0.5
            raise AssertionError(name)

        def ev(e):
            if isinstance(e, str):
                return leaf(e)
            op, a, b = e
            if op == "and":
                return ev(a) and ev(b)
            va, vb = ev(a), ev(b)
            return {
                "add": lambda: va + vb,
                "sub": lambda: va - vb,
                "mul": lambda: va * vb,
                "min": lambda: pm.minimum(va, vb),
                "max": lambda: pm.maximum(va, vb),
                "lt": lambda: va < vb,
                "le": lambda: va <= vb,
                "gt": lambda: va > vb,
                "ge": lambda: va >= vb,
                "eq": lambda: va == vb,
                "ne": lambda: va != vb,
            }[op]()

        if guard is not None:
            if ev(guard):
                x[i, j] = ev(expr)
        else:
            x[i, j] = ev(expr)

    return kernel


class TestForDifferential2D:
    M = 7  # 7x7 domain

    @settings(max_examples=40, deadline=None)
    @given(expr=exprs(), guard=st.none() | conds(), alpha=finite, seed=st.integers(0, 2**16))
    def test_vectorized_2d_matches_interpreter(self, expr, guard, alpha, seed):
        clear_cache()
        kernel = make_for_kernel_2d(expr, guard)
        rng = np.random.default_rng(seed)
        x1 = np.round(rng.uniform(-4, 4, (self.M, self.M)), 2)
        y1 = np.round(rng.uniform(-4, 4, (self.M, self.M)), 2)
        x2, y2 = x1.copy(), y1.copy()
        dom = IndexDomain.full((self.M, self.M))

        interpret_for(kernel, dom, [x1, y1, alpha, self.M])
        trace = trace_kernel(kernel, 2, [x2, y2, alpha, self.M])
        execute_trace(trace, dom, [x2, y2, alpha, self.M])

        np.testing.assert_allclose(x2, x1, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(y2, y1)

    @settings(max_examples=20, deadline=None)
    @given(expr=exprs(), guard=conds(), alpha=finite, seed=st.integers(0, 2**16))
    def test_row_chunked_2d_matches_whole_domain(self, expr, guard, alpha, seed):
        clear_cache()
        kernel = make_for_kernel_2d(expr, guard)
        rng = np.random.default_rng(seed)
        x1 = np.round(rng.uniform(-4, 4, (self.M, self.M)), 2)
        y = np.round(rng.uniform(-4, 4, (self.M, self.M)), 2)
        x2 = x1.copy()

        trace = trace_kernel(kernel, 2, [x1, y, alpha, self.M])
        execute_trace(trace, IndexDomain.full((self.M, self.M)), [x1, y, alpha, self.M])
        for lo, hi in [(0, 3), (3, 5), (5, self.M)]:
            execute_trace(
                trace,
                IndexDomain([(lo, hi), (0, self.M)]),
                [x2, y, alpha, self.M],
            )
        np.testing.assert_allclose(x2, x1, rtol=1e-12, atol=1e-12)


class TestRandomKernelsAcrossBackends:
    """Random generated kernels: the full backend stack vs the serial
    reference (not just the executor pair)."""

    @settings(max_examples=25, deadline=None)
    @given(expr=exprs(), guard=st.none() | conds(), alpha=finite, seed=st.integers(0, 2**16))
    def test_gpusim_matches_serial(self, expr, guard, alpha, seed):
        import repro

        clear_cache()
        kernel = make_for_kernel(expr, guard)
        xh, yh = _data(seed)

        repro.set_backend("serial")
        xs = repro.array(xh)
        repro.parallel_for(N, kernel, xs, repro.array(yh), alpha, N)
        ref = repro.to_host(xs).copy()

        repro.set_backend("cuda-sim")
        xg = repro.array(xh)
        repro.parallel_for(N, kernel, xg, repro.array(yh), alpha, N)
        got = repro.to_host(xg)
        repro.set_backend("serial")

        np.testing.assert_array_equal(got, ref)

    @settings(max_examples=15, deadline=None)
    @given(expr=exprs(), alpha=finite, seed=st.integers(0, 2**16))
    def test_multidevice_reduce_matches_serial(self, expr, alpha, seed):
        import repro

        clear_cache()
        kernel = make_reduce_kernel(expr, None)
        xh, yh = _data(seed)

        repro.set_backend("serial")
        ref = repro.parallel_reduce(
            N, kernel, repro.array(xh), repro.array(yh), alpha, N
        )
        repro.set_backend("multi-sim")
        got = repro.parallel_reduce(
            N, kernel, repro.array(xh), repro.array(yh), alpha, N
        )
        repro.set_backend("serial")
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-9)


class TestBackendDifferential:
    """Every backend must agree with the interpreter on the paper kernels."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_matvec_all_backends(self, seed):
        import repro
        from repro.apps.cg import matvec_tridiag_kernel, tridiag_matvec_host

        rng = np.random.default_rng(seed)
        n = 24
        lower = rng.random(n)
        diag = rng.random(n) + 4
        upper = rng.random(n)
        x = rng.random(n)
        expected = tridiag_matvec_host(lower, diag, upper, x)

        for backend in ["serial", "interp", "threads", "cuda-sim"]:
            repro.set_backend(backend)
            dl, dd, du = repro.array(lower), repro.array(diag), repro.array(upper)
            dx, dy = repro.array(x), repro.array(np.zeros(n))
            repro.parallel_for(n, matvec_tridiag_kernel, dl, dd, du, dx, dy, n)
            np.testing.assert_allclose(repro.to_host(dy), expected, rtol=1e-13)
