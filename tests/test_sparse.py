import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from monofem.mesh import build_uniform_mesh
from monofem.sparse import (
    CsrMatrix,
    DimensionMismatch,
    IndexOutOfRange,
    NoConvergence,
    cg_solve,
    from_triplets,
    spmv,
)
from monofem.assembly import assemble_mass, assemble_stiffness


def random_spd(rng, n):
    B = rng.standard_normal((n, n))
    return B.T @ B + np.eye(n)


def to_csr(dense):
    rows, cols = np.nonzero(dense)
    return from_triplets(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])


def check_csr_invariants(A):
    assert A.row_offsets[0] == 0
    assert A.row_offsets[-1] == A.nnz
    assert np.all(np.diff(A.row_offsets) >= 0)
    for i in range(A.nrows):
        cols = A.col_indices[A.row_offsets[i] : A.row_offsets[i + 1]]
        assert np.all(np.diff(cols) > 0)  # strictly increasing, hence no duplicates
        if len(cols):
            assert cols.max() < A.ncols


def test_duplicate_summation():
    A = from_triplets(1, 1, [0, 0], [0, 0], [1.0, 2.0])
    assert A.nnz == 1
    assert A.values[0] == 3.0
    check_csr_invariants(A)


def test_empty():
    A = from_triplets(2, 2, [], [], [])
    assert A.nnz == 0
    check_csr_invariants(A)
    np.testing.assert_array_equal(spmv(A, np.ones(2)), [0.0, 0.0])


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        from_triplets(2, 2, [2], [0], [1.0])
    with pytest.raises(IndexOutOfRange):
        from_triplets(2, 2, [0], [-1], [1.0])


def test_unit_square_stiffness_row_sums():
    # Assembled by hand from the two-triangle unit square: pure Neumann
    # stiffness rows sum to zero.
    mesh = build_uniform_mesh((0, 0, 1, 1), 1.0)
    A = assemble_stiffness(mesh)
    check_csr_invariants(A)
    row_sums = spmv(A, np.ones(4))
    np.testing.assert_allclose(row_sums, 0.0, atol=1e-14)


def test_spmv_identity_and_diagonal():
    I = from_triplets(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
    x = np.array([3.0, -1.0, 2.0])
    np.testing.assert_array_equal(spmv(I, x), x)
    D = from_triplets(2, 2, [0, 1], [0, 1], [2.0, 1.0])
    np.testing.assert_array_equal(spmv(D, np.ones(2)), [2.0, 1.0])


def test_spmv_dimension_mismatch():
    A = from_triplets(2, 3, [0], [0], [1.0])
    with pytest.raises(DimensionMismatch):
        spmv(A, np.ones(2))


def test_spmv_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        dense = rng.standard_normal((8, 5))
        dense[rng.random((8, 5)) < 0.5] = 0.0
        A = to_csr(dense)
        x = rng.standard_normal(5)
        expect = dense @ x
        got = spmv(A, x)
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-13)


def bincount_spmv(A, x):
    """The CSR kernel spmv replaced: each row's products summed in column
    order, starting from 0.0."""
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_offsets))
    return np.bincount(rows, weights=A.values * x[A.col_indices], minlength=A.nrows)


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def coo_and_vector(draw):
    """Random COO triplets (possibly none, possibly repeated, rows possibly
    empty) of a square or rectangular matrix, and a vector to multiply."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    triplets = draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), finite),
                             max_size=40))
    repeats = draw(st.lists(st.sampled_from(triplets), max_size=10)) if triplets else []
    rows, cols, vals = (list(t) for t in zip(*triplets + repeats)) if triplets else ([], [], [])
    x = np.array(draw(st.lists(finite, min_size=ncols, max_size=ncols)))
    return from_triplets(nrows, ncols, rows, cols, vals), x


@given(coo_and_vector())
@example((from_triplets(3, 2, [], [], []), np.array([1.0, -2.0])))  # nnz = 0
@example((from_triplets(2, 3, [1, 1, 1], [2, 0, 2], [0.5, 1.0, -0.25]), np.array([1.0, 3.0, -2.0])))
def test_spmv_property_random_coo(case):
    A, x = case
    got = spmv(A, x)
    assert got.tobytes() == bincount_spmv(A, x).tobytes()  # bit for bit
    dense = A.to_dense()
    bound = 4 * np.finfo(float).eps * A.ncols * (np.abs(dense) @ np.abs(x))
    assert np.all(np.abs(got - dense @ x) <= bound)


@pytest.mark.parametrize("h", [1 / 8, 1 / 32, 1 / 64])
def test_spmv_bit_identical_on_assembled_operators(h):
    mesh = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), h)
    M, A = assemble_mass(mesh), assemble_stiffness(mesh)
    rng = np.random.default_rng(3)
    for k in (h * h, 1 / 160):
        S = CsrMatrix(M.nrows, M.ncols, M.row_offsets, M.col_indices, M.values + k * A.values)
        for mat in (M, A, S):
            for _ in range(5):
                x = rng.standard_normal(mat.ncols)
                assert spmv(mat, x).tobytes() == bincount_spmv(mat, x).tobytes()


def test_diagonal_storage_of_assembled_operators():
    # Seven diagonals, 0, +-1, +-(N+1), +-(N+2) for N cells per side, so the
    # diagonal form holds 7 n values.
    mesh = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), 1 / 8)
    n_side = 20
    for mat in (assemble_mass(mesh), assemble_stiffness(mesh)):
        offsets = [offset for offset, *_ in mat.diagonals]
        assert offsets == [-(n_side + 2), -(n_side + 1), -1, 0, 1, n_side + 1, n_side + 2]
        assert mat.diagonals is mat.diagonals  # built once


def test_cg_diagonal():
    A = from_triplets(2, 2, [0, 1], [0, 1], [2.0, 1.0])
    x, iters = cg_solve(A, np.array([2.0, 1.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)
    assert iters >= 1


def test_cg_zero_rhs():
    A = from_triplets(2, 2, [0, 1], [0, 1], [2.0, 1.0])
    x, iters = cg_solve(A, np.zeros(2))
    np.testing.assert_array_equal(x, 0.0)
    assert iters == 0


def test_cg_against_dense_oracle():
    rng = np.random.default_rng(11)
    dense = random_spd(rng, 20)
    b = rng.standard_normal(20)
    expect = np.linalg.solve(dense, b)
    x, _ = cg_solve(to_csr(dense), b, rel_tol=1e-12)
    np.testing.assert_allclose(x, expect, atol=1e-8)


def test_cg_residual_contract():
    rng = np.random.default_rng(5)
    for n in (5, 17, 33):
        dense = random_spd(rng, n)
        A = to_csr(dense)
        b = rng.standard_normal(n)
        x, _ = cg_solve(A, b, rel_tol=1e-10)
        assert np.linalg.norm(b - dense @ x) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
def test_cg_rejects_bad_tolerance(tol):
    A = from_triplets(2, 2, [0, 1], [0, 1], [2.0, 1.0])
    with pytest.raises(ValueError):
        cg_solve(A, np.array([2.0, 1.0]), rel_tol=tol)


def test_cg_no_convergence():
    rng = np.random.default_rng(1)
    dense = random_spd(rng, 30)
    b = rng.standard_normal(30)
    with pytest.raises(NoConvergence) as info:
        cg_solve(to_csr(dense), b, rel_tol=1e-14, max_iter=2)
    assert info.value.residual > 0
    assert info.value.iterations == 2


@pytest.mark.parametrize("entry", [np.nan, 1e200])
def test_cg_non_finite_rhs_norm(entry):
    # NaN once spun 10 n iterations; 1e200 overflowed ||b|| to inf, so the
    # tolerance was inf and x0 came back as converged.
    A = from_triplets(2, 2, [0, 1], [0, 1], [2.0, 1.0])
    with np.errstate(over="ignore"), pytest.raises(NoConvergence) as info:
        cg_solve(A, np.array([entry, 1.0]), x0=np.zeros(2))
    assert info.value.iterations == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cg_breakdown_raises():
    # p.Ap = 0 in the first iteration; dividing by it once ran 10 n
    # iterations on NaN.
    indefinite = from_triplets(2, 2, [0, 1], [0, 1], [1.0, -1.0])
    with pytest.raises(NoConvergence, match="breakdown") as info:
        cg_solve(indefinite, np.array([1.0, 1.0]))
    assert info.value.iterations == 1
    negative = from_triplets(2, 2, [0, 1], [0, 1], [-2.0, -1.0])
    with pytest.raises(NoConvergence, match="breakdown"):
        cg_solve(negative, np.array([1.0, 1.0]))
    poisoned = from_triplets(2, 2, [0, 1], [0, 1], [np.nan, 1.0])
    with pytest.raises(NoConvergence, match="breakdown"):
        cg_solve(poisoned, np.array([1.0, 1.0]))


def test_assembled_matrices_exactly_symmetric():
    mesh = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), 1 / 8)
    from monofem.assembly import assemble_mass

    for mat in (assemble_mass(mesh), assemble_stiffness(mesh)):
        dense = mat.to_dense()
        assert np.array_equal(dense, dense.T)  # identical arithmetic both sides
