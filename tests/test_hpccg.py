"""Tests for the HPCCG 27-point problem (repro.apps.hpccg)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps.hpccg import (
    ELLMatrix,
    build_27pt_problem,
    hpccg_solve,
    matvec_ell_kernel,
)


@pytest.fixture(autouse=True)
def serial_default():
    repro.set_backend("serial")
    yield
    repro.set_backend("serial")


def random_ell(n, width, seed=0, spd_shift=True):
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, n, size=(n, width)).astype(np.int64)
    vals = rng.random((n, width))
    if spd_shift:
        cols[:, 0] = np.arange(n)
        vals[:, 0] += width * 2  # diagonal dominance
    return ELLMatrix(cols=cols, vals=vals)


class TestELLMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ELLMatrix(cols=np.zeros((3, 2), dtype=np.int64), vals=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ELLMatrix(cols=np.zeros(3, dtype=np.int64), vals=np.zeros(3))

    def test_operator_is_read_only_and_shared_by_a_solve(self):
        a = random_ell(8, 3)
        with pytest.raises(ValueError):
            a.vals[0, 0] = 1.0
        assert repro.array(a.vals) is a.vals and repro.array(a.cols) is a.cols

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_built_operators_own_their_storage(self, backend):
        # A view of a writable array is copied by ``repro.array``, so
        # both problem constructors must hand ``ELLMatrix`` owning arrays.
        from repro.apps.minife import BrickMesh, assemble_poisson

        ops = [build_27pt_problem(4, 3, 5)[0], assemble_poisson(BrickMesh(3, 2, 2))]
        with repro.use_backend(backend):
            for op in ops:
                assert np.shares_memory(repro.array(op.cols), op.cols)
                assert np.shares_memory(repro.array(op.vals), op.vals)

    def test_matvec_host_matches_dense(self):
        a = random_ell(20, 5)
        x = np.random.default_rng(1).random(20)
        np.testing.assert_allclose(a.matvec_host(x), a.to_dense() @ x, rtol=1e-12)

    def test_to_dense_accumulates_duplicate_slots(self):
        cols = np.array([[0, 0]], dtype=np.int64)
        vals = np.array([[2.0, 3.0]])
        a = ELLMatrix(cols=cols, vals=vals)
        assert a.to_dense()[0, 0] == 5.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(2, 30), w=st.integers(1, 6))
    def test_kernel_matches_host_oracle(self, seed, n, w):
        a = random_ell(n, w, seed=seed, spd_shift=False)
        x = np.random.default_rng(seed + 1).random(n)
        y = np.zeros(n)
        repro.parallel_for(n, matvec_ell_kernel, a.cols, a.vals, x, y)
        np.testing.assert_allclose(y, a.matvec_host(x), rtol=1e-12)


class TestProblemGenerator:
    def test_interior_row_has_27_entries(self):
        a, _, _ = build_27pt_problem(5, 5, 5)
        center = (2 * 5 + 2) * 5 + 2
        assert (a.vals[center] != 0).sum() == 27
        assert a.vals[center].sum() == pytest.approx(27 - 26)

    def test_corner_row_has_8_entries(self):
        a, _, _ = build_27pt_problem(5, 5, 5)
        assert (a.vals[0] != 0).sum() == 8  # itself + 7 neighbours

    def test_matrix_is_symmetric(self):
        a, _, _ = build_27pt_problem(3, 4, 2)
        d = a.to_dense()
        np.testing.assert_allclose(d, d.T)

    def test_matrix_is_positive_definite(self):
        a, _, _ = build_27pt_problem(3, 3, 3)
        eig = np.linalg.eigvalsh(a.to_dense())
        assert eig.min() > 0

    def test_rhs_encodes_ones_solution(self):
        a, b, x_exact = build_27pt_problem(4, 3, 2)
        np.testing.assert_allclose(a.matvec_host(x_exact), b)
        assert np.all(x_exact == 1.0)

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValueError):
            build_27pt_problem(0, 2, 2)

    @pytest.mark.parametrize("grid", [(3, 4, 5), (1, 1, 1), (2, 3, 1), (1, 1, 7), (5, 1, 2)])
    def test_matches_a_per_node_builder_byte_for_byte(self, grid):
        nx, ny, nz = grid
        n = nx * ny * nz
        cols = np.empty((n, 27), dtype=np.int64)
        vals = np.zeros((n, 27))
        for row in range(n):
            iz, rest = divmod(row, ny * nx)
            iy, ix = divmod(rest, nx)
            slot = 0
            for dz in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        jz, jy, jx = iz + dz, iy + dy, ix + dx
                        if 0 <= jz < nz and 0 <= jy < ny and 0 <= jx < nx:
                            cols[row, slot] = (jz * ny + jy) * nx + jx
                            vals[row, slot] = 27.0 if dz == dy == dx == 0 else -1.0
                        else:
                            cols[row, slot] = row
                        slot += 1
        a, b, _ = build_27pt_problem(nx, ny, nz)
        want = ELLMatrix(cols=cols, vals=vals)
        assert a.cols.dtype == want.cols.dtype
        assert a.cols.tobytes() == want.cols.tobytes()
        assert a.vals.tobytes() == want.vals.tobytes()
        assert b.tobytes() == want.matvec_host(np.ones(n)).tobytes()
        assert a.cols.base is None and a.vals.base is None

    def test_degenerate_1d_grid(self):
        a, b, x = build_27pt_problem(5, 1, 1)
        res = hpccg_solve(a, b, tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, x, atol=1e-9)


class TestCSR:
    """The CSR kernel exercises the interpreter end of the ladder."""

    def test_ell_to_csr_roundtrip(self):
        a, _, _ = build_27pt_problem(3, 3, 3)
        from repro.apps.hpccg import ell_to_csr

        csr = ell_to_csr(a)
        x = np.random.default_rng(0).random(a.n)
        np.testing.assert_allclose(csr.matvec_host(x), a.matvec_host(x), rtol=1e-13)
        # padding dropped: nnz < n * width
        assert csr.nnz < a.n * a.width

    def test_csr_validation(self):
        from repro.apps.hpccg import CSRMatrix

        with pytest.raises(ValueError):
            CSRMatrix(
                indptr=np.array([0, 1], dtype=np.int64),
                indices=np.array([0, 1], dtype=np.int64),
                data=np.array([1.0]),
            )
        with pytest.raises(ValueError):
            CSRMatrix(
                indptr=np.array([0, 2], dtype=np.int64),
                indices=np.array([0], dtype=np.int64),
                data=np.array([1.0]),
            )

    def test_csr_kernel_falls_to_interpreter_and_is_correct(self):
        from repro.apps.hpccg import CSRMatrix, ell_to_csr, matvec_csr_kernel
        from repro.ir.compile import compile_kernel

        a, _, _ = build_27pt_problem(3, 3, 2)
        csr = ell_to_csr(a)
        rng = np.random.default_rng(4)
        x = rng.random(csr.n)
        y = np.zeros(csr.n)
        args = [csr.indptr, csr.indices, csr.data, x, y]
        ck = compile_kernel(matvec_csr_kernel, 1, args)
        assert ck.mode == "interpreter"  # data-dependent loop bound
        repro.parallel_for(csr.n, matvec_csr_kernel, *args)
        np.testing.assert_allclose(y, csr.matvec_host(x), rtol=1e-12)

    def test_csr_and_ell_kernels_agree_through_api(self):
        from repro.apps.hpccg import ell_to_csr, matvec_csr_kernel

        a, _, _ = build_27pt_problem(4, 3, 2)
        csr = ell_to_csr(a)
        x = np.random.default_rng(5).random(a.n)
        y_ell = np.zeros(a.n)
        y_csr = np.zeros(a.n)
        repro.parallel_for(a.n, matvec_ell_kernel, a.cols, a.vals, x, y_ell)
        repro.parallel_for(
            a.n, matvec_csr_kernel, csr.indptr, csr.indices, csr.data, x, y_csr
        )
        np.testing.assert_allclose(y_csr, y_ell, rtol=1e-12)


class TestSolve:
    def test_recovers_ones_vector(self):
        a, b, x_exact = build_27pt_problem(6, 5, 4)
        res = hpccg_solve(a, b, tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, x_exact, atol=1e-8)

    def test_matches_scipy_cg(self):
        a, b, _ = build_27pt_problem(4, 4, 4)
        dense = a.to_dense()
        x_ref = np.linalg.solve(dense, b)
        res = hpccg_solve(a, b, tol=1e-13)
        np.testing.assert_allclose(res.x, x_ref, rtol=1e-8, atol=1e-9)

    def test_random_rhs(self):
        a, _, _ = build_27pt_problem(4, 4, 4)
        rng = np.random.default_rng(9)
        b = rng.random(a.n)
        res = hpccg_solve(a, b, tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(a.matvec_host(res.x), b, atol=1e-8)

    @pytest.mark.parametrize("backend", ["threads", "cuda-sim"])
    def test_other_backends_agree(self, backend):
        a, b, x_exact = build_27pt_problem(5, 4, 3)
        repro.set_backend(backend)
        res = hpccg_solve(a, b, tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, x_exact, atol=1e-8)

    def test_iteration_count_reasonable(self):
        # HPCCG's operator is well conditioned: CG should converge in
        # far fewer iterations than n.
        a, b, _ = build_27pt_problem(8, 8, 8)
        res = hpccg_solve(a, b, tol=1e-10)
        assert res.converged
        assert res.iterations < 60
