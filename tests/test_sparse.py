import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from element_geometry import element_geometry

import monofem.assembly
import monofem.mesh
import monofem.sparse
from monofem.ionic import make_model
from monofem.mesh import TriMesh, build_uniform_mesh
from monofem.solver import MonodomainSolver, SolverConfig
from monofem.sparse import (
    DiaMatrix,
    DimensionMismatch,
    IndexOutOfRange,
    NoConvergence,
    NotBanded,
    FastDiag,
    cg_solve,
    from_triplets,
    grid_diffusion,
    grid_matrix,
    spmv,
)
from monofem.assembly import _LOCAL_MASS, DiffusionTensor, assemble_mass, assemble_stiffness


def random_spd(rng, n):
    B = rng.standard_normal((n, n))
    return B.T @ B + np.eye(n)


def dense(A):
    """A DiaMatrix as a dense array: the oracle for its storage."""
    out = np.zeros((A.nrows, A.ncols))
    for offset, d in zip(A.offsets.tolist(), A.data):
        rows = np.arange(max(0, -offset), min(A.nrows, A.ncols - offset))
        out[rows, rows + offset] = d[rows]
    return out


def to_dia(dense):
    rows, cols = np.nonzero(dense)
    return from_triplets(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])


def check_dia_invariants(A):
    assert np.all(np.diff(A.offsets) > 0)  # strictly ascending, hence no repeats
    assert np.all((-A.nrows < A.offsets) & (A.offsets < A.ncols))
    assert A.data.shape == (len(A.offsets), A.nrows)
    assert not A.data.flags.writeable
    columns = np.arange(A.nrows) + A.offsets[:, None]
    inside = (columns >= 0) & (columns < A.ncols)
    assert not A.data[~inside].any()  # padding outside the matrix
    slots = np.count_nonzero(inside)
    # The blocks tile, in order, the rows that every diagonal reaches (none
    # if there is no diagonal); the edge rows are the rest, or a superset,
    # each in the plan once.
    blocks, size, edge, slot, cols, values = A.plan
    reached = np.flatnonzero(inside.all(axis=0)).tolist() if len(A.offsets) else []
    assert [rows.start for rows, _ in blocks] == reached[::monofem.sparse.SPMV_BLOCK]
    block_rows = [r for rows, _ in blocks for r in range(A.nrows)[rows]]
    assert block_rows == reached
    assert sorted(set(block_rows) | set(edge.tolist())) == list(range(A.nrows))
    assert len(set(edge.tolist())) == len(edge)
    check_block_terms(A)
    # Entry e is the stored value of row edge[slot[e]] in column cols[e]:
    # every in-range one of each edge row, in ascending column order.
    assert len(slot) == len(cols) == len(values) == np.count_nonzero(inside[:, edge])
    row = edge[slot]
    assert values.tobytes() == A.data[np.searchsorted(A.offsets, cols - row), row].tobytes()
    order = np.argsort(slot, kind="stable")
    assert np.all((np.diff(slot[order]) > 0) | (np.diff(cols[order]) > 0))
    assert type(A.nnz) is int  # a plain int, which JSON and the hooks take as is
    assert np.count_nonzero(A.data) <= A.nnz <= slots


def check_block_terms(A):
    """Replays the writes of each block of A's plan into a buffer of
    (coefficient bits, column of x) pairs: term j must fold, for each row r
    of the block, diagonal j's coefficient times x[r + offsets[j]].  The
    coefficient is a read-only stretch of the diagonal, or, on a grid
    operator, its value at the first interior node as a 0-d array, bit for
    bit, with one product per distinct value; the products all of one
    kind.  Each product starts on a 64-byte boundary of the buffer of
    ``size`` floats."""
    blocks, size = A.plan[:2]
    assert size % 8 == 0
    kinds = {c.ndim == 0 for _, terms in blocks for c, *_ in terms if c is not None}
    assert len(kinds) <= 1
    bits = A.data.view(np.int64)
    interior = bits[:, A.offsets[-2] + 1] if kinds == {True} else None
    for rows, terms in blocks:
        assert len(terms) == len(A.offsets)
        coefficient, column = np.zeros(size, dtype=np.int64), np.full(size, -1)
        for j, ((c, xs, into, ts), o) in enumerate(zip(terms, A.offsets.tolist())):
            if c is not None:
                assert into.start % 8 == 0 and into.stop <= size
                assert c.ndim == 0 or not c.flags.writeable and np.shares_memory(c, A.data)
                coefficient[into] = c.view(np.int64)
                column[into] = np.arange(xs.start, xs.stop)
            assert ts.stop <= size
            assert column[ts].tolist() == [r + o for r in range(A.nrows)[rows]]
            expect = bits[j, rows] if interior is None else interior[j]
            assert np.array_equal(coefficient[ts], np.broadcast_to(expect, ts.stop - ts.start))
        products = sum(c is not None for c, *_ in terms)
        assert products == (len(A.offsets) if interior is None else len(set(interior.tolist())))


def test_duplicate_summation():
    A = from_triplets(2, 2, [0, 1, 0, 0], [0, 0, 0, 1], [1.0, 5.0, 2.0, 4.0])
    assert A.nnz == 3
    assert A.offsets.tolist() == [-1, 0, 1]
    np.testing.assert_array_equal(A.data, [[0.0, 5.0], [3.0, 0.0], [4.0, 0.0]])
    check_dia_invariants(A)
    # A stored zero is an entry: it counts in nnz but looks like padding.
    assert from_triplets(2, 2, [1, 1], [1, 1], [1.0, -1.0]).nnz == 1


def test_empty():
    A = from_triplets(2, 2, [], [], [])
    assert A.nnz == 0
    check_dia_invariants(A)
    np.testing.assert_array_equal(spmv(A, np.ones(2)), [0.0, 0.0])


@pytest.mark.parametrize("offsets", [[0, 0], [1, 0], [0, 7], [-2, 0], [0.0, 1.0]],
                         ids=["duplicate", "unsorted", "past-last-column", "before-first-row",
                              "non-integer"])
def test_dia_matrix_rejects_bad_offsets(offsets):
    # Duplicate offsets once made spmv and dense storage disagree, and unsorted
    # ones made a searchsorted lookup pick the wrong main diagonal.
    with pytest.raises(DimensionMismatch):
        DiaMatrix(2, 2, offsets, np.ones((len(offsets), 2)), 2)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        from_triplets(2, 2, [2], [0], [1.0])
    with pytest.raises(IndexOutOfRange):
        from_triplets(2, 2, [0], [-1], [1.0])


@pytest.mark.parametrize("rows,cols", [
    ([0.9, 1.5], [0.2, 1.99]), ([0, 1], [0.0, 1.0]), ([True, False], [0, 1]),
], ids=["float", "float-cols", "bool"])
def test_from_triplets_rejects_non_integer_indices(rows, cols):
    # Cast to int64, the first case once built diag(1, 2).
    with pytest.raises(DimensionMismatch):
        from_triplets(2, 2, rows, cols, [1.0, 2.0])


def test_unit_square_stiffness_row_sums():
    # Assembled by hand from the two-triangle unit square: pure Neumann
    # stiffness rows sum to zero.
    mesh = build_uniform_mesh((0, 0, 1, 1), 1.0)
    A = assemble_stiffness(mesh)
    check_dia_invariants(A)
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


def test_spmv_out_contract():
    A = from_triplets(3, 2, [0, 1, 2], [0, 1, 0], [1.0, 2.0, 3.0])
    x = np.array([1.0, -1.0])
    out = np.full(3, np.nan)  # overwritten, not added to
    assert spmv(A, x, out=out) is out
    assert out.tobytes() == spmv(A, x).tobytes()
    square = from_triplets(2, 2, [0, 1], [0, 1], [1.0, 2.0])
    for bad in (np.empty(2), np.empty((3, 1)), np.empty(3, dtype=np.float32), [0.0, 0.0, 0.0]):
        with pytest.raises(DimensionMismatch):
            spmv(A, x, out=bad)
    y = np.array([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        spmv(square, y, out=y)
    z = np.arange(3.0)
    with pytest.raises(DimensionMismatch):
        spmv(square, z[:2], out=z[1:])  # overlapping views
    np.testing.assert_array_equal(y, [1.0, 2.0])


def test_spmv_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        dense = rng.standard_normal((8, 5))
        dense[rng.random((8, 5)) < 0.5] = 0.0
        A = to_dia(dense)
        x = rng.standard_normal(5)
        expect = dense @ x
        got = spmv(A, x)
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-13)


def reference_entries(ncols, rows, cols, vals):
    """Stored entries as the former sorted (CSR) assembly found them:
    distinct (row, col) pairs ordered by row, then column, each the sum of
    its duplicates in input order from 0.0."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    keys, inverse = np.unique(rows * ncols + cols, return_inverse=True)
    summed = np.bincount(inverse.ravel(), weights=np.asarray(vals, dtype=float),
                         minlength=len(keys))
    return keys // ncols, keys % ncols, summed


def reference_spmv(nrows, entries, x):
    """Each row's stored products summed in column order from 0.0."""
    rows, cols, vals = entries
    return np.bincount(rows, weights=vals * x[cols], minlength=nrows)


def in_range_entries(A):
    """Every slot of A's diagonals inside the matrix, stored zeros included,
    as (rows, cols, values) ordered by row, then column."""
    columns = np.arange(A.nrows) + A.offsets[:, None]
    rows, diagonal = np.nonzero(((columns >= 0) & (columns < A.ncols)).T)
    return rows, columns[diagonal, rows], A.data[diagonal, rows]


def check_product(A, x, entries):
    """spmv(A, x), checked against reference_spmv: byte-equal on its finite
    rows to the sums of the stored ``entries``, and non-finite, or NaN, on
    the rows where the sums over every in-range slot are (0 * inf is NaN)."""
    with np.errstate(invalid="ignore", over="ignore"):
        got = spmv(A, x)
        slots = reference_spmv(A.nrows, in_range_entries(A), x)
        expect = reference_spmv(A.nrows, entries, x)
    finite = np.isfinite(slots)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(np.isnan(got), np.isnan(slots))
    assert got[finite].tobytes() == expect[finite].tobytes()
    return got


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def coo_and_vector(draw):
    """Random COO triplets (possibly none, possibly repeated, rows possibly
    empty) of a square or rectangular matrix, and a vector to multiply,
    perhaps with one inf or NaN."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    triplets = draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), finite),
                             max_size=40))
    repeats = draw(st.lists(st.sampled_from(triplets), max_size=10)) if triplets else []
    rows, cols, vals = (list(t) for t in zip(*triplets + repeats)) if triplets else ([], [], [])
    x = np.array(draw(st.lists(finite, min_size=ncols, max_size=ncols)))
    bad = draw(st.sampled_from([None, np.inf, -np.inf, np.nan]))
    if bad is not None:
        x[draw(st.integers(0, ncols - 1))] = bad
    return (nrows, ncols, rows, cols, vals), x


@given(coo_and_vector())
@example(((3, 2, [], [], []), np.array([1.0, -2.0])))  # nnz = 0
@example(((2, 3, [1, 1, 1], [2, 0, 2], [0.5, 1.0, -0.25]), np.array([1.0, 3.0, -2.0])))
@example(((3, 3, [1, 2, 1, 1, 0, 1], [1, 0, 1, 1, 2, 1], [0.1, 2.0, 0.2, 1e6, -1.0, -1e6]),
          np.zeros(3)))  # four (1, 1), whose sum depends on the order of adding
def test_spmv_property_random_coo(case):
    (nrows, ncols, rows, cols, vals), x = case
    A = from_triplets(nrows, ncols, rows, cols, vals)
    check_dia_invariants(A)
    offsets, data, nnz = reference_dia(nrows, rows, cols, vals)
    assert A.offsets.tolist() == offsets and A.nnz == nnz
    assert A.data.tobytes() == data.tobytes()  # duplicates added in input order
    entries = reference_entries(ncols, rows, cols, vals)
    assert A.nnz == len(entries[2])
    got = check_product(A, x, entries)  # bit for bit
    expect = np.zeros((nrows, ncols))
    expect[entries[0], entries[1]] = entries[2]
    assert dense(A).tobytes() == expect.tobytes()
    if np.isfinite(x).all():
        bound = 4 * np.finfo(float).eps * A.ncols * (np.abs(expect) @ np.abs(x))
        assert np.all(np.abs(got - expect @ x) <= bound)


@given(coo_and_vector(), st.integers(1, 13))
def test_spmv_blocks_bit_identical(case, block):
    # Blocks of a few rows put block edges inside every diagonal; each row
    # must still sum its products in column order from 0.0.  The plan is
    # built on first use, so inside the patch.
    (nrows, ncols, rows, cols, vals), x = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monofem.sparse, "SPMV_BLOCK", block)
        A = from_triplets(nrows, ncols, rows, cols, vals)
        blocks = A.plan[0]
        check_dia_invariants(A)
    assert len(blocks) == -(-sum(r.stop - r.start for r, _ in blocks) // block)
    entries = reference_entries(ncols, rows, cols, vals)
    check_product(A, x, entries)
    expect = np.zeros((nrows, ncols))
    expect[entries[0], entries[1]] = entries[2]
    assert dense(A).tobytes() == expect.tobytes()


def element_triplets(mesh, D):
    """(rows, cols, mass values, stiffness values) of every element matrix,
    built independently of assembly: entry (i, j) of triangle t is triplet
    9 t + 3 i + j, the stiffness by the three-operand einsum."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    areas, grads = element_geometry(mesh)
    if D.constant is not None:
        Dc = np.broadcast_to(D.constant, (mesh.n_triangles, 2, 2))
    else:
        Dc = np.stack([D(cx, cy) for cx, cy in mesh.nodes[tri].mean(axis=1)])
    m_vals = (areas[:, None, None] * _LOCAL_MASS).ravel()
    a_vals = (areas[:, None, None] * np.einsum("tia,tab,tjb->tij", grads, Dc, grads)).ravel()
    return rows, cols, m_vals, a_vals


ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
ROTATED_CONSTANT = ROTATION @ np.diag([2.0, 0.5]) @ ROTATION.T
ASSEMBLY_TENSORS = [
    DiffusionTensor.diagonal(1.0, 1.0),
    DiffusionTensor(ROTATED_CONSTANT),
    DiffusionTensor(lambda x, y: np.array([[1 + x * x, 0.3 * np.sin(x * y)],
                                           [0.3 * np.sin(x * y), 1 + y * y]])),
]


@pytest.mark.parametrize("h", [1 / 8, 1 / 32, 1 / 64])
def test_spmv_bit_identical_on_assembled_operators(h):
    # M, A and S equal the matrices from_triplets sums from the element
    # triplets (data, offsets and nnz), and spmv on them equals each row
    # summed in column order, bit for bit, for an identity, a rotated
    # constant and a variable tensor.
    mesh = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), h)
    n = mesh.n_nodes
    rng = np.random.default_rng(3)
    for D in ASSEMBLY_TENSORS:
        rows, cols, m_vals, a_vals = element_triplets(mesh, D)
        A = assemble_stiffness(mesh, D)
        M_ref = from_triplets(n, n, rows, cols, m_vals)
        A_ref = from_triplets(n, n, rows, cols, a_vals)
        m_entries = reference_entries(n, rows, cols, m_vals)
        a_entries = reference_entries(n, rows, cols, a_vals)
        for k in (h * h, 1 / 160):
            cfg = SolverConfig(k=k, t_final=k, ionic=make_model("fhn"), diffusion=D)
            solver = MonodomainSolver(mesh, cfg)
            # S on the shared pattern
            s_entries = (m_entries[0], m_entries[1], m_entries[2] + k * a_entries[2])
            for mat, ref, entries in ((solver.mass, M_ref.data, m_entries),
                                      (A, A_ref.data, a_entries),
                                      (solver.system, M_ref.data + k * A_ref.data, s_entries)):
                assert np.array_equal(mat.data, ref)
                assert np.array_equal(mat.offsets, M_ref.offsets)
                assert mat.nnz == M_ref.nnz == len(entries[2])
                for _ in range(5):
                    x = rng.standard_normal(mat.ncols)
                    assert spmv(mat, x).tobytes() == reference_spmv(mat.nrows, entries, x).tobytes()


@pytest.mark.parametrize("block", [1, 20, 100, 1000])
def test_spmv_block_edges_on_assembled_operators(monkeypatch, block):
    # h = 1/16 has 1,681 rows, 41 per grid line, and the blocks cover rows
    # [42, 1639): blocks of 1 and 20 rows split a line, 100 and 1,000 span
    # several; every product must equal the reference row sums and the
    # single-block product.  Each plan is built on first use.
    mesh = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), 1 / 16)
    n = mesh.n_nodes
    D = ASSEMBLY_TENSORS[-1]
    rows, cols, m_vals, a_vals = element_triplets(mesh, D)
    single = system(mesh, 1 / 160, D)
    assert len(single.plan[0]) == 1
    monkeypatch.setattr(monofem.sparse, "SPMV_BLOCK", block)
    S = system(mesh, 1 / 160, D)
    assert len(S.plan[0]) == -(-(n - 2 * 42) // block)
    check_dia_invariants(S)
    m_entries = reference_entries(n, rows, cols, m_vals)
    entries = (m_entries[0], m_entries[1],
               m_entries[2] + 1 / 160 * reference_entries(n, rows, cols, a_vals)[2])
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal(n)
        got = spmv(S, x)
        assert got.tobytes() == reference_spmv(n, entries, x).tobytes()
        assert got.tobytes() == spmv(single, x).tobytes()


def test_spmv_keeps_an_aligned_product_buffer(monkeypatch):
    # spmv multiplies into a buffer that starts on a 64-byte boundary and is
    # kept for the next product, unless that one needs a longer buffer.  The
    # off-diagonals of M share one interior value, so a block of M takes a
    # row of the block's rows for the main diagonal's product and a row of
    # the block and m + 1 more rows each side for the shared one, each
    # rounded up to 8 floats.
    monkeypatch.setattr(monofem.sparse, "_BUFFERS", [])
    kept = monofem.sparse._BUFFERS
    bounds = (-1.25, -1.25, 1.25, 1.25)
    small, large = (assemble_mass(build_uniform_mesh(bounds, h)) for h in (1 / 8, 1 / 16))
    spmv(small, np.ones(small.ncols))
    (t,) = kept
    # 397 block rows of 441 (m = 21), then 1,597 of 1,681 (m = 41).
    assert small.plan[1] == 400 + 448 and large.plan[1] == 1600 + 1688
    assert t.ctypes.data % 64 == 0 and len(t) == small.plan[1]
    spmv(small, np.ones(small.ncols))
    assert len(kept) == 1 and kept[0] is t
    spmv(large, np.ones(large.ncols))
    (longer,) = kept
    assert longer is not t and longer.ctypes.data % 64 == 0 and len(longer) == large.plan[1]
    spmv(small, np.ones(small.ncols))
    assert len(kept) == 1 and kept[0] is longer


def coefficient_kinds(A):
    """{True} if A's plan multiplies its blocks by 0-d coefficients, {False}
    if by stretches of its diagonals, the empty set if it has no blocks."""
    return {c.ndim == 0 for _, terms in A.plan[0] for c, *_ in terms if c is not None}


def products_per_block(A):
    """The set of the numbers of products that the blocks of A's plan make."""
    return {sum(c is not None for c, *_ in terms) for _, terms in A.plan[0]}


SIGN_BIT = np.iinfo(np.int64).min  # the bits of -0.0


def with_signed_zeros(rng, a):
    """``a`` with about a quarter of its entries set to +0.0 or -0.0."""
    zeros = rng.random(a.shape) < 0.25
    a[zeros] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zeros)))
    return a


def nan_padded(data, nx):
    """``data`` with NaN where a diagonal leaves the matrix, which no product
    may read, but for two slots that keep their class's value so that every
    class stays one value: node (1, 0) on diagonal -m - 1 and node
    (ny - 1, nx) on m + 1, whose side edge runs are otherwise inside."""
    n, m = data.shape[1], nx + 1
    kept = data[0, m], data[6, n - m - 1]
    for d, (dx, dy) in zip(data, monofem.sparse.GRID_NEIGHBOURS):
        offset = dx + dy * m
        d[max(0, n - offset):] = np.nan
        d[:max(0, -offset)] = np.nan
    data[0, m], data[6, n - m - 1] = kept
    return data


def edge_run_nodes(nx, ny):
    """The nodes of the edge runs of at least two nodes on the grid of
    nx x ny cells: a change at one of them leaves its class."""
    grid = np.arange((ny + 1) * (nx + 1)).reshape(ny + 1, nx + 1)
    runs = [grid[[0, -1], 1:-1]] * (nx >= 3) + [grid[1:-1, [0, -1]]] * (ny >= 3)
    return [node for run in runs for node in run.ravel().tolist()]


@st.composite
def grid_operator(draw):
    """Diagonals of an operator on the grid of nx x ny cells expanded from a
    random class table with signed zeros, NaN-padded; perhaps one edge-run
    node off its class by its sign bit; a vector with signed zeros and
    perhaps one inf or NaN; and a block size.  The interior class's values
    repeat across diagonals as the assembled operators' do (symmetric
    pairs, all seven equal) or at random, and perhaps two diagonals hold
    +0.0 and -0.0, or NaN."""
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    n = (nx + 1) * (ny + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = with_signed_zeros(rng, rng.standard_normal((7, min(ny + 1, 3), min(nx + 1, 3))))
    values = draw(st.lists(st.sampled_from([0.0, -0.0]) | finite, min_size=7, max_size=7))
    share = draw(st.sampled_from([range(7), (0, 1, 2, 3, 2, 1, 0), (0,) * 7])
                 | st.lists(st.integers(0, 6), min_size=7, max_size=7))
    interior = [values[i] for i in share]
    pair = draw(st.sampled_from([None, (0.0, -0.0), (np.nan, np.nan)]))
    if pair is not None:
        j, k = draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True))
        interior[j], interior[k] = pair
    if nx >= 2 and ny >= 2:
        table[:, 1, 1] = interior
    data = nan_padded(monofem.sparse._expand(table, nx, ny), nx)
    nodes = edge_run_nodes(nx, ny)
    moved = bool(nodes) and draw(st.booleans())
    if moved:
        data.view(np.int64)[draw(st.integers(0, 6)), draw(st.sampled_from(nodes))] ^= SIGN_BIT
    x = with_signed_zeros(rng, rng.standard_normal(n))
    bad = draw(st.sampled_from([None, np.inf, -np.inf, np.nan]))
    if bad is not None:
        x[draw(st.integers(0, n - 1))] = bad
    block = draw(st.sampled_from([monofem.sparse.SPMV_BLOCK, 1, 2, 3, 7]))
    return nx, ny, data, moved, x, block


@given(grid_operator())
# Every product -0.0: a row sum that starts from +0.0 ends at +0.0.
@example((3, 3, nan_padded(-np.ones((7, 16)), 3), False, np.zeros(16), monofem.sparse.SPMV_BLOCK))
def test_spmv_paths_agree_on_grid_operators(case):
    # A grid operator with a class table (``DiaMatrix.classes``) and an
    # interior (nx, ny >= 2) gets scalar coefficients, one product per
    # distinct interior value (by its bits) in each block; one edge-run node
    # off its class gets stretches of the diagonals.  Either product is
    # byte-equal to each row's in-range stored products summed in column
    # order (never the NaN padding), and a non-finite entry of x makes the
    # same rows non-finite, so the ring reads no entry of x that the stored
    # diagonals do not.  Blocks of a few rows split the interior rows; the
    # plan is built inside the patch.
    nx, ny, data, moved, x, block = case
    m, n = nx + 1, len(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monofem.sparse, "SPMV_BLOCK", block)
        A = grid_matrix(data.copy(), nx, ny)
        blocks, _, edge, _, _, values = A.plan
    check_block_terms(A)
    assert (A.classes is None) == moved
    if nx >= 2 and ny >= 2 and not moved:
        assert coefficient_kinds(A) == {True}
        distinct = set(data[:, m + 1].view(np.int64).tolist())
        assert products_per_block(A) == {len(distinct)}
        assert len(edge) == 2 * (nx + ny) and len(values) <= 7 * len(edge)
        rows = [r for rows, _ in blocks for r in range(n)[rows]]
        assert rows == list(range(m + 1, n - m - 1))
        assert all(rows.stop - rows.start <= block for rows, _ in blocks)
        assert len(blocks) == -(-len(rows) // block)
    else:
        assert coefficient_kinds(A) <= {False}
    check_product(A, x, in_range_entries(A))


# Class entries: signed zeros, NaN, subnormals and normal values.
class_entries = st.sampled_from([0.0, -0.0, np.nan, 5e-324, -5e-324, 2.225e-308]) | finite


@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_classes_of_expanded_data(nx, ny, data):
    # The oracle of DiaMatrix.classes is the table that _expand writes over
    # the grid: given back as int64, read-only.  One sign bit flipped at one
    # node of a class of two or more nodes takes the table away; at a
    # corner it flips that entry of the table.  Any other layout has none.
    m, n = nx + 1, (nx + 1) * (ny + 1)
    shape = (7, min(ny + 1, 3), min(nx + 1, 3))
    entries = data.draw(st.lists(class_entries, min_size=math.prod(shape),
                                 max_size=math.prod(shape)))
    table = np.array(entries).reshape(shape)
    A = grid_matrix(monofem.sparse._expand(table, nx, ny), nx, ny)
    assert np.array_equal(A.classes.view(np.int64), table.view(np.int64))
    assert not A.classes.flags.writeable
    d, node = data.draw(st.integers(0, 6)), data.draw(st.integers(0, n - 1))
    flipped = A.data.copy()
    flipped.view(np.int64)[d, node] ^= SIGN_BIT
    (i, rows), (j, cols) = ([(k, run) for k, run in enumerate(monofem.sparse._runs(nodes))
                             if run.start <= at < run.stop][0]
                            for nodes, at in ((ny + 1, node // m), (m, node % m)))
    got = grid_matrix(flipped, nx, ny).classes
    if rows.stop - rows.start == cols.stop - cols.start == 1:
        table.view(np.int64)[d, i, j] ^= SIGN_BIT
        assert np.array_equal(got.view(np.int64), table.view(np.int64))
    else:
        assert got is None
    offsets, wide = A.offsets.tolist(), np.pad(A.data, ((0, 0), (0, 1)))
    for other in (DiaMatrix(n, n + 1, offsets, A.data, A.nnz),  # not square
                  DiaMatrix(n + 1, n + 1, offsets, wide, A.nnz),  # n + 1 not a multiple of m
                  DiaMatrix(n, n, offsets[:-1], A.data[:-1], A.nnz),  # six diagonals
                  DiaMatrix(2 * n, 2 * n, offsets[:-1] + [m + 2], np.tile(A.data, 2), A.nnz)):
        assert other.classes is None


def test_spmv_path_of_assembled_operators():
    # With dyadic h, every diagonal of M and of S for the identity and the
    # rotated tensor holds one value over the interior nodes, so they get
    # scalar coefficients, and each block makes one product per distinct
    # value: M 2, S 3 (identity) or 4 (rotated).  A variable tensor,
    # jittered nodes and h = 1/10 (linspace nodes, so the element areas
    # differ in their last bits) get stretches of their diagonals, one
    # product each.  The plan is worked out on the first product: set-up,
    # preconditioned or not, multiplies none of M, A and S.
    def products(mesh, D):
        """(scalar coefficients?, products per block) of M and S."""
        solver = MonodomainSolver(mesh, SolverConfig(k=1 / 16, t_final=1 / 16,
                                                     ionic=make_model("fhn"), diffusion=D))
        M, A = mesh.operators[D]
        assert not {"plan"} & ({*vars(M)} | {*vars(A)} | {*vars(solver.system)})
        assert solver.precondition is not None
        return [(coefficient_kinds(op) == {True}, *products_per_block(op))
                for op in (M, solver.system)]

    bounds = (-1.25, -1.25, 1.25, 1.25)
    identity, rotated, variable = ASSEMBLY_TENSORS
    for h in (1 / 16, 1 / 32):
        mesh = build_uniform_mesh(bounds, h)
        assert products(mesh, identity) == [(True, 2), (True, 3)]
        assert products(mesh, rotated) == [(True, 2), (True, 4)]
        assert products(mesh, variable) == [(True, 2), (False, 7)]
    base = build_uniform_mesh(bounds, 1 / 16)
    jitter = np.random.default_rng(0).uniform(-0.2, 0.2, base.nodes.shape) * base.h
    jittered = TriMesh(base.nodes + jitter, base.triangles, base.h, base.bounds)
    assert products(jittered, identity) == [(False, 7)] * 2
    assert products(build_uniform_mesh(bounds, 1 / 10), identity) == [(False, 7)] * 2


def test_assembly_bit_identical_on_a_perturbed_mesh():
    # On the uniform mesh most gradient components are 0, so the order in
    # which the stiffness kernel adds its four terms never shows there;
    # jittered nodes make every term count.
    base = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), 1 / 16)
    jitter = np.random.default_rng(0).uniform(-0.2, 0.2, base.nodes.shape) * base.h
    mesh = TriMesh(base.nodes + jitter, base.triangles, base.h, base.bounds)
    n = mesh.n_nodes
    for D in ASSEMBLY_TENSORS:
        rows, cols, m_vals, a_vals = element_triplets(mesh, D)
        for mat, vals in ((assemble_mass(mesh), m_vals), (assemble_stiffness(mesh, D), a_vals)):
            ref = from_triplets(n, n, rows, cols, vals)
            assert np.array_equal(mat.data, ref.data)
            assert np.array_equal(mat.offsets, ref.offsets) and mat.nnz == ref.nnz


def test_assembly_bit_identical_with_wide_slots():
    # Relabelling the nodes at random spreads the triplets over thousands
    # of diagonals: each matrix would store about 2,800 x 1,681 floats
    # (37 MB) for 11,000 entries.  from_triplets refuses it before the
    # storage is allocated.
    base = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), 1 / 16)
    perm = np.random.default_rng(5).permutation(base.n_nodes)
    label = np.empty_like(perm)
    label[perm] = np.arange(len(perm))  # old node perm[k] becomes node k
    mesh = TriMesh(base.nodes[perm], label[base.triangles], base.h, base.bounds)
    assert mesh.grid is None
    D = ASSEMBLY_TENSORS[-1]
    for assemble in (assemble_mass, lambda m: assemble_stiffness(m, D)):
        tracemalloc.start()
        try:
            with pytest.raises(NotBanded, match="node numbering is not banded"):
                assemble(mesh)
            assert tracemalloc.get_traced_memory()[1] < 5e6
        finally:
            tracemalloc.stop()


def test_from_triplets_refuses_unbanded_storage():
    # Up to STORAGE_PER_ENTRY floats per entry plus STORAGE_SLACK: a 12 x 12
    # matrix always fits (at most 23 diagonals, 276 floats), two entries in
    # the corners of a 2,000 x 2,000 matrix (4,000 floats) do not.
    corners = from_triplets(12, 12, [0, 11], [11, 0], [1.0, 2.0])
    assert corners.data.shape == (2, 12) and corners.nnz == 2
    with pytest.raises(NotBanded, match="2 diagonals of 2000 rows would store 4000 floats for 2"):
        from_triplets(2000, 2000, [0, 1999], [1999, 0], [1.0, 2.0])
    band = from_triplets(2000, 2000, np.arange(2000), np.arange(2000), np.ones(2000))
    assert band.data.shape == (1, 2000)


@pytest.mark.parametrize("change", ["flipped cell", "relabelled"])
def test_meshes_off_the_grid_take_from_triplets(monkeypatch, change):
    # A mesh whose triangles are not the grid's, here with one cell split
    # along its other diagonal or with its node numbering reversed, is
    # summed by from_triplets, gets no preconditioner, and gives the same bytes
    # as a plain loop over its triplets.
    base = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), 1 / 4)
    n = base.n_nodes
    if change == "flipped cell":
        nodes, triangles = base.nodes, base.triangles.copy()
        triangles[[0, 1]] = [[0, 1, 11], [1, 12, 11]]
    else:
        nodes, triangles = base.nodes[::-1], (n - 1) - base.triangles
    mesh = TriMesh(nodes, triangles, base.h, base.bounds)
    assert mesh.grid is None
    calls = []

    def counted(*args, _original=monofem.assembly.from_triplets):
        calls.append(args[0])
        return _original(*args)

    monkeypatch.setattr(monofem.assembly, "from_triplets", counted)
    matrices = [assemble_mass(mesh)] + [assemble_stiffness(mesh, D) for D in ASSEMBLY_TENSORS]
    assert calls == [n] * 4
    rows, cols, m_vals, _ = element_triplets(mesh, ASSEMBLY_TENSORS[0])
    values = [m_vals] + [element_triplets(mesh, D)[3] for D in ASSEMBLY_TENSORS]
    for mat, vals in zip(matrices, values):
        offsets, data, nnz = reference_dia(n, rows, cols, vals)
        assert mat.offsets.tolist() == offsets and mat.nnz == nnz
        assert mat.data.tobytes() == data.tobytes()
    cfg = SolverConfig(k=1 / 4, t_final=1 / 4, ionic=make_model("fhn"))
    assert MonodomainSolver(base, cfg).precondition is not None
    assert MonodomainSolver(mesh, cfg).precondition is None


def reference_dia(nrows, rows, cols, vals):
    """(offsets, data, nnz) of the triplets added into DIA storage one at a
    time, in triplet order from 0.0, by a plain loop."""
    rows, cols = [int(r) for r in np.ravel(rows)], [int(c) for c in np.ravel(cols)]
    offsets = sorted({c - r for r, c in zip(rows, cols)})
    slot = {offset: k for k, offset in enumerate(offsets)}
    data = np.zeros((len(offsets), nrows))
    for r, c, v in zip(rows, cols, np.ravel(vals).tolist()):
        data[slot[c - r], r] += v
    return offsets, data, len(set(zip(rows, cols)))


@pytest.mark.parametrize("jitter", [0.0, 0.2], ids=["uniform", "perturbed"])
@pytest.mark.parametrize("h", [1 / 4, 1 / 8, 1 / 16])
def test_assembly_does_not_depend_on_layout_block(monkeypatch, h, jitter):
    # Grid assembly takes blocks of cell rows.  Blocks of 1, 2 and 5 rows
    # split the triangles around a node between blocks; every entry must
    # still add its triplets in triplet order from 0.0, as one block of all
    # rows and a plain loop do.  Jittered nodes make every term of the
    # stiffness kernel count.  The uniform meshes have congruent cells, so
    # there M and A for the two constant tensors come from one cell's
    # element matrices whatever the block size, and this checks that path
    # against the plain loop; only the variable tensor takes the blocks.
    base = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), h)
    nodes = base.nodes + np.random.default_rng(1).uniform(-jitter, jitter, base.nodes.shape) * h
    mesh = TriMesh(nodes, base.triangles, h, base.bounds)
    (nx, ny), n = mesh.grid, mesh.n_nodes

    def assembled(rows):
        monkeypatch.setattr(monofem.mesh, "BLOCK_TRIANGLES", 2 * nx * rows)
        return [assemble_mass(mesh)] + [assemble_stiffness(mesh, D) for D in ASSEMBLY_TENSORS]

    whole = assembled(ny)
    rows, cols, m_vals, _ = element_triplets(mesh, ASSEMBLY_TENSORS[0])
    values = [m_vals] + [element_triplets(mesh, D)[3] for D in ASSEMBLY_TENSORS]
    for mat, vals in zip(whole, values):
        offsets, data, nnz = reference_dia(n, rows, cols, vals)
        assert mat.offsets.tolist() == offsets and mat.nnz == nnz
        assert mat.data.tobytes() == data.tobytes()
    for block_rows in (1, 2, 5):
        for mat, one in zip(assembled(block_rows), whole):
            assert mat.data.tobytes() == one.data.tobytes()
            assert np.array_equal(mat.offsets, one.offsets) and mat.nnz == one.nnz


def moved(mesh, node, by):
    """``mesh`` with the coordinates ``node``, an index into the nodes as a
    (node row, node column, axis) array, moved by ``by`` * h."""
    nodes = mesh.nodes.reshape(mesh.grid[1] + 1, mesh.grid[0] + 1, 2).copy()
    nodes[node] += by * mesh.h
    return TriMesh(nodes.reshape(-1, 2), mesh.triangles, mesh.h, mesh.bounds)


SQUARE = (-1.25, -1.25, 1.25, 1.25)
CONGRUENCE_CASES = {
    # 80 x 40 cells of side 1/32: dyadic, so every spacing is one float.
    "dyadic-80x40": (build_uniform_mesh((-1.25, -0.625, 1.25, 0.625), 1 / 32), True),
    # Still a tensor grid, but one y spacing differs from the others.
    "row-moved-in-y": (moved(build_uniform_mesh(SQUARE, 1 / 16), (5, slice(None), 1), 0.25), False),
    # The first node row and column keep their spacings; one node moves in x.
    "node-moved": (moved(build_uniform_mesh(SQUARE, 1 / 16), (7, 9, 0), 0.125), False),
    # linspace spacings that are not one float.
    "h-1/10": (build_uniform_mesh(SQUARE, 1 / 10), False),
}


@pytest.mark.parametrize("case", CONGRUENCE_CASES, ids=CONGRUENCE_CASES)
def test_congruent_cells_assemble_from_one_cell(monkeypatch, case):
    # A grid whose cells all have the first cell's node-coordinate
    # differences, bit for bit, builds the element matrices of M, and of A
    # for a constant tensor, from that cell's two triangles only; any other
    # grid, and A for a variable tensor, takes the blocks of cell rows.  On
    # either path M and A equal the plain loop over the element triplets
    # byte for byte.
    mesh, congruent = CONGRUENCE_CASES[case]
    (nx, ny), n = mesh.grid, mesh.n_nodes
    slices = []

    def recorded(mesh, s, _original=monofem.assembly._corners):
        slices.append((s.start, s.stop))
        return _original(mesh, s)

    monkeypatch.setattr(monofem.assembly, "_corners", recorded)
    blocks = [(2 * r0 * nx, 2 * r1 * nx) for r0, r1 in monofem.mesh.cell_row_blocks(nx, ny)]
    matrices = [assemble_mass(mesh)] + [assemble_stiffness(mesh, D) for D in ASSEMBLY_TENSORS]
    assert mesh.congruent is congruent
    assert slices == ([(0, 2)] * 3 if congruent else blocks * 3) + blocks
    rows, cols, m_vals, _ = element_triplets(mesh, ASSEMBLY_TENSORS[0])
    values = [m_vals] + [element_triplets(mesh, D)[3] for D in ASSEMBLY_TENSORS]
    for mat, vals in zip(matrices, values):
        offsets, data, nnz = reference_dia(n, rows, cols, vals)
        assert mat.offsets.tolist() == offsets and mat.nnz == nnz
        assert mat.data.tobytes() == data.tobytes()


def test_diagonal_storage_of_assembled_operators():
    # Seven diagonals, 0, +-1, +-(N+1), +-(N+2) for N cells per side, so the
    # diagonal form holds 7 n values.
    mesh = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), 1 / 8)
    n_side = 20
    offsets = [-(n_side + 2), -(n_side + 1), -1, 0, 1, n_side + 1, n_side + 2]
    for mat in (assemble_mass(mesh), assemble_stiffness(mesh)):
        check_dia_invariants(mat)
        assert mat.offsets.tolist() == offsets
        assert mat.data.shape == (7, mesh.n_nodes)


def cg_at(tol, *args, **kwargs):
    """``cg_solve`` with ``DEFAULT_CG_TOL``, its one tolerance, set to ``tol``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monofem.sparse, "DEFAULT_CG_TOL", tol)
        return cg_solve(*args, **kwargs)


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
    x, _ = cg_at(1e-12, to_dia(dense), b)
    np.testing.assert_allclose(x, expect, atol=1e-8)


def test_cg_residual_contract():
    rng = np.random.default_rng(5)
    for n in (5, 17, 33):
        dense = random_spd(rng, n)
        A = to_dia(dense)
        b = rng.standard_normal(n)
        x, _ = cg_at(1e-10, A, b)
        assert np.linalg.norm(b - dense @ x) <= 1e-10 * np.linalg.norm(b)


@st.composite
def sparse_spd_system(draw):
    """B^T B + I for a random sparse m x n matrix B, assembled from the
    triplets of its row outer products, and a right-hand side."""
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, 30))
    entries = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                                      st.floats(-3, 3)), max_size=3 * n))
    B = np.zeros((m, n))
    for i, j, value in entries:
        B[i, j] += value
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.ones(n)]
    for row in B:
        (nz,) = np.nonzero(row)
        rows.append(np.repeat(nz, len(nz)))
        cols.append(np.tile(nz, len(nz)))
        vals.append(np.outer(row[nz], row[nz]).ravel())
    A = from_triplets(n, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    b = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return A, b


@given(sparse_spd_system())
def test_cg_property_random_sparse_spd(system):
    A, b = system
    rel_tol = 1e-10
    x, _ = cg_at(rel_tol, A, b)
    bnorm = np.linalg.norm(b)
    assert np.linalg.norm(b - spmv(A, x)) <= rel_tol * bnorm
    # Every eigenvalue of B^T B + I is >= 1, so |x - x*| <= |A (x - x*)|,
    # which is at most the sum of the two residuals, up to the round-off
    # of forming them.
    full = dense(A)
    expect = np.linalg.solve(full, b)
    residuals = np.linalg.norm(b - full @ x) + np.linalg.norm(b - full @ expect)
    assert np.linalg.norm(x - expect) <= residuals * (1 + 1e-9) + 1e-14 * bnorm


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
def test_cg_rejects_bad_tolerance(tol):
    A = from_triplets(2, 2, [0, 1], [0, 1], [2.0, 1.0])
    with pytest.raises(ValueError, match="tolerance"):
        cg_at(tol, A, np.array([2.0, 1.0]))


@pytest.mark.parametrize("max_iter", [0, -1])
def test_cg_rejects_max_iter_below_one(max_iter):
    # max_iter=-1 once reported "CG did not converge in -1 iterations".
    A = from_triplets(2, 2, [0, 1], [0, 1], [2.0, 1.0])
    with pytest.raises(ValueError, match="max_iter"):
        cg_solve(A, np.array([2.0, 1.0]), max_iter=max_iter)


def test_cg_no_convergence():
    rng = np.random.default_rng(1)
    dense = random_spd(rng, 30)
    b = rng.standard_normal(30)
    with pytest.raises(NoConvergence) as info:
        cg_at(1e-14, to_dia(dense), b, max_iter=2)
    assert info.value.residual > 0
    assert info.value.iterations == 2


@pytest.mark.parametrize("entry", [np.nan, 1e200])
def test_cg_non_finite_rhs_norm(entry):
    # NaN once spun 10 n iterations, and must raise before the first one.
    # 1e200 once overflowed ||b|| to inf, so the tolerance was inf and x0
    # came back as converged; then it raised.  CG on b scaled by a power of
    # two solves it.
    A = from_triplets(2, 2, [0, 1], [0, 1], [2.0, 1.0])
    b = np.array([entry, 1.0])
    if np.isnan(entry):
        with pytest.raises(NoConvergence) as info:
            cg_solve(A, b, x0=np.zeros(2))
        assert info.value.iterations == 0
        return
    x, _ = cg_solve(A, b, x0=np.zeros(2))
    assert math.hypot(*(b - spmv(A, x))) <= 1e-10 * math.hypot(*b)  # hypot: no overflow
    assert x[0] == 5e199


@pytest.mark.parametrize("preconditioned", [False, True])
def test_cg_leaves_its_inputs_alone(preconditioned):
    # CG updates its iterates in place; MonodomainSolver.step passes its
    # state as x0, so neither b nor x0 may change, nor alias the result.
    A, B = stiff_system(fine_mesh(8, 8), 10.0, DiffusionTensor.diagonal(1.0, 1.0))
    B = B if preconditioned else None
    rng = np.random.default_rng(9)
    b, x0 = rng.uniform(-1, 1, A.nrows), rng.uniform(-1, 1, A.nrows)
    b_copy, x0_copy = b.copy(), x0.copy()
    for start in (None, x0):
        x, iterations = cg_solve(A, b, x0=start, precondition=B)
        assert iterations > 1
        assert b.tobytes() == b_copy.tobytes() and x0.tobytes() == x0_copy.tobytes()
        assert not np.shares_memory(x, b) and not np.shares_memory(x, x0)
    if B is not None:  # FastDiag reshapes r, but never writes it
        B(b)
        assert b.tobytes() == b_copy.tobytes()


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
        full = dense(mat)
        assert np.array_equal(full, full.T)  # identical arithmetic both sides


def test_cg_failure_reports_preconditioned_residual_norm():
    # With B != I the recurrence scalar is r.z; the reported residual must
    # still be ||b - A x|| of the iterate CG stopped at.
    rng = np.random.default_rng(2)
    dense = random_spd(rng, 12)
    b = rng.standard_normal(12)
    scale = 1 / np.arange(1.0, 13.0)  # B = diag(scale), SPD and far from I
    with pytest.raises(NoConvergence) as info:
        cg_at(1e-14, to_dia(dense), b, max_iter=1, precondition=lambda r: scale * r)
    z = scale * b  # the one step from x0 = 0
    x = (b @ z) / (z @ dense @ z) * z
    true = np.linalg.norm(b - dense @ x)
    assert info.value.residual == pytest.approx(true, rel=1e-12)
    assert f"{true:.3e}" in str(info.value)
    assert info.value.iterations == 1


# Preconditioned solves on a grid of 2 cx x 2 cy cells of side H_FINE.
H_FINE = 1 / 8


def fine_mesh(cx, cy):
    return build_uniform_mesh((0.0, 0.0, 2 * cx * H_FINE, 2 * cy * H_FINE), H_FINE)


def system(mesh, k, D):
    M = assemble_mass(mesh)
    A = assemble_stiffness(mesh, D)
    return DiaMatrix(M.nrows, M.ncols, M.offsets, M.data + k * A.data, M.nnz)


def stiff_system(mesh, k, D):
    """S = M + k A on a grid mesh and its FastDiag, as the solver builds it."""
    B = FastDiag(*mesh.grid, mesh.h, k, *grid_diffusion(assemble_stiffness(mesh, D)))
    return system(mesh, k, D), B


def fast_diag_operator(nx, ny, h, k, dxx, dyy):
    """FastDiag's P, x -> P x, from its Kronecker factors: on each axis W,
    the identity and the even reflection C of the neighbour mean, whose
    DCT-I symbol is the cosine (so 2 - 2 C is the Laplacian)."""
    def factors(cells):
        C = np.zeros((cells + 1, cells + 1))
        for i in range(cells + 1):
            for j in (i - 1, i + 1):
                C[i, cells - abs(cells - abs(j))] += 0.5  # j reflected into [0, cells]
        w = np.ones(cells + 1)
        w[[0, -1]] = 0.5
        return w, np.eye(cells + 1), C

    (wx, Ix, Cx), (wy, Iy, Cy) = factors(nx), factors(ny)
    # P = (Wy (x) Wx) (Iy (x) X + Cy (x) Xc + Y (x) Ix), h^2 f + k (...) grouped.
    X = h * h * (3 * Ix + Cx) / 6 + k * max(dxx, 0.0) * (2 * Ix - 2 * Cx)
    Xc, Y = h * h * (Ix + Cx) / 6, k * max(dyy, 0.0) * (2 * Iy - 2 * Cy)

    def P(x):
        u = x.reshape(ny + 1, nx + 1)
        return (wy[:, None] * wx * (u @ X.T + Cy @ u @ Xc.T + Y @ u)).ravel()

    return P


coarse_cells = st.tuples(st.integers(1, 8), st.integers(1, 8))  # half of fine_mesh's even nx, ny
stiff_k = st.floats(H_FINE**2, 10.0)


@st.composite
def diffusion(draw):
    """A constant SPD tensor, or one varying in space."""
    a, c = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0))
    b = draw(st.floats(-0.9, 0.9)) * np.sqrt(a * c)
    if draw(st.booleans()):
        return DiffusionTensor([[a, b], [b, c]])
    return DiffusionTensor(lambda x, y: np.array([[a + x * x, b], [b, c + y]]))


def dense_prolongation(cx, cy):
    """P1 interpolation from the grid of cx x cy cells of side 2 H_FINE to
    fine_mesh(cx, cy), as a dense array: a fine node on a coarse one takes
    its value, and a midpoint the mean of the two ends of its coarse edge
    (across, up, or the cell's diagonal from lower left to upper right)."""
    columns = []
    for e in np.eye((cx + 1) * (cy + 1)):
        u = e.reshape(cy + 1, cx + 1)
        f = np.zeros((2 * cy + 1, 2 * cx + 1))
        f[::2, ::2] = u
        f[::2, 1::2] = (u[:, :-1] + u[:, 1:]) / 2
        f[1::2, ::2] = (u[:-1] + u[1:]) / 2
        f[1::2, 1::2] = (u[:-1, :-1] + u[1:, 1:]) / 2
        columns.append(f.ravel())
    return np.column_stack(columns)


@given(coarse_cells, stiff_k, diffusion(), st.floats(-2, 2), st.floats(-2, 2))
def test_galerkin_probing_equals_dense_triple_product(cells, k, D, bx, by):
    # P^T S P, for S = M + k A on fine_mesh(cx, cy) and P the P1
    # interpolation from the grid of twice its side, probed through spmv
    # one coarse basis function at a time, equals the dense triple product.
    # For a constant tensor the P1 spaces are nested, so it is the coarse
    # grid's own M + k A: a check of assembly across h.
    cx, cy = cells
    fine = fine_mesh(cx, cy)
    coarse = build_uniform_mesh(fine.bounds, 2 * H_FINE)
    P = dense_prolongation(cx, cy)
    linear = lambda xy: 1.0 + bx * xy[:, 0] + by * xy[:, 1]  # noqa: E731
    np.testing.assert_allclose(P @ linear(coarse.nodes), linear(fine.nodes), rtol=0, atol=1e-14)
    S = system(fine, k, D)
    G = np.column_stack([P.T @ spmv(S, column) for column in P.T])
    expect = P.T @ dense(S) @ P
    scale = np.abs(expect).max()
    assert np.abs(G - expect).max() <= 1e-14 * scale
    if D.constant is not None:
        rediscretised = dense(system(coarse, k, D))
        assert np.abs(G - rediscretised).max() <= 1e-15 * scale


fast_diag_cells = (st.sampled_from([(1, 1), (1, 2), (2, 1), (25, 25)])
                   | st.tuples(st.integers(1, 12), st.integers(1, 12)))


@given(fast_diag_cells, st.floats(2.0**-6, 1.0), st.floats(1e-3, 10.0),
       st.floats(-1.0, 5.0), st.floats(-1.0, 5.0), st.integers(0, 2**32 - 1))
@example((80, 40), 1 / 32, 1.0, 1.3, 0.7, 0)
@settings(deadline=None)
def test_fast_diag_is_the_inverse_of_its_kronecker_form(cells, h, k, dxx, dyy, seed):
    # FastDiag applied to the identity equals the dense inverse of P, built
    # from its Kronecker factors with each coefficient clamped at 0, to
    # round-off times P's condition (at most 1 + 24 k (dxx + dyy) / h^2 in
    # the max norm), and is symmetric and positive definite.  On 80 x 40
    # cells (3,321 nodes), where dense arrays take 88 MB each, P (B r) = r
    # and the symmetry and positivity are checked on random vectors.
    nx, ny = cells
    B, P = FastDiag(nx, ny, h, k, dxx, dyy), fast_diag_operator(nx, ny, h, k, dxx, dyy)
    n = (nx + 1) * (ny + 1)
    condition = 1 + 24 * k * (max(dxx, 0.0) + max(dyy, 0.0)) / (h * h)
    if n > 1000:
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        Bx, By = B(x), B(y)
        assert np.abs(P(Bx) - x).max() <= 1e-14 * condition * np.abs(x).max()
        assert abs(x @ By - y @ Bx) <= 1e-13 * (np.abs(x) @ np.abs(By) + np.abs(y) @ np.abs(Bx))
        assert x @ Bx > 0 and y @ By > 0
        return
    identity = np.eye(n)
    Z = np.column_stack([B(e) for e in identity])
    expect = np.linalg.inv(np.column_stack([P(e) for e in identity]))
    scale = np.abs(expect).max()
    assert np.abs(Z - expect).max() <= 1e-14 * condition * scale
    assert np.abs(Z - Z.T).max() <= 1e-14 * scale
    np.linalg.cholesky(Z + Z.T)  # LinAlgError unless positive definite


@pytest.mark.parametrize("h", [1 / 8, 1 / 64, 1 / 10, 1 / 20], ids=["1/8", "1/64", "1/10", "1/20"])
def test_grid_diffusion_reads_constant_tensors(monkeypatch, h):
    # -(A[1,0] + A[1,1]) and -(A[0,1] + A[1,1]) are D00 and D11 of a
    # constant tensor, diagonal or not.  At dyadic h, A has a class table
    # and they are read off its interior class bit for bit.  The mean of
    # A's interior rows (at non-dyadic h, or with the table hidden) is
    # within 4 ulps: at non-dyadic h the interior entries differ in their
    # last bits (linspace nodes), and a sum of equal values rounds.
    for bounds in ((-1.25, -1.25, 1.25, 1.25), (0.0, 0.0, 2.5, 1.5)):
        mesh = build_uniform_mesh(bounds, h)
        for D in (np.eye(2), np.diag([3.7, 0.2]), ROTATED_CONSTANT):
            A = assemble_stiffness(mesh, DiffusionTensor(D))
            assert (A.classes is not None) == (h in (1 / 8, 1 / 64))
            if A.classes is not None:
                assert grid_diffusion(A) == (D[0, 0], D[1, 1])
            with monkeypatch.context() as mp:
                mp.setattr(DiaMatrix, "classes", property(lambda self: None))
                dxx, dyy = grid_diffusion(A)
            assert abs(dxx - D[0, 0]) <= 4 * np.spacing(D[0, 0])
            assert abs(dyy - D[1, 1]) <= 4 * np.spacing(D[1, 1])


def test_fast_diag_memory_peak():
    # One application at h = 1/64 (n = 25,921) holds the even extensions
    # (2 n floats) and one rfft output (2 n) at a time: 4.0 n floats.
    mesh = build_uniform_mesh((-1.25, -1.25, 1.25, 1.25), 1 / 64)
    _, B = stiff_system(mesh, 1 / 40, ASSEMBLY_TENSORS[0])
    r = np.random.default_rng(0).standard_normal(mesh.n_nodes)
    B(r)
    tracemalloc.start()
    try:
        B(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * mesh.n_nodes


@st.composite
def table_grid(draw):
    """A dyadic grid of nx x ny cells of side h (1 x 1, 1 x 2, 2 x 2 and
    80 x 40 among them), the identity or a diagonal tensor, and a k."""
    nx, ny = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (80, 40)])
                  | st.tuples(st.integers(1, 12), st.integers(1, 12)))
    h = 2.0 ** -draw(st.integers(0, 6))
    D = draw(st.sampled_from([DiffusionTensor.diagonal(1.0, 1.0)])
             | st.builds(DiffusionTensor.diagonal, st.floats(0.1, 5.0), st.floats(0.1, 5.0)))
    k = draw(st.sampled_from([h * h, 1 / 40, 1.0]) | st.floats(1e-4, 10.0))
    return build_uniform_mesh((0.0, 0.0, nx * h, ny * h), h), D, k


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def probed(op):
    """``op``'s diagonals read back through spmv on the whole grid: each
    probe holds 1 in every column of one residue mod 2 w + 1 (w the widest
    offset), so each row meets at most one stored entry, which the product
    returns exactly."""
    period = 2 * int(np.abs(op.offsets).max()) + 1
    rows = np.arange(op.nrows)
    data = np.zeros((len(op.offsets), op.nrows))
    for residue in range(min(period, op.ncols)):
        x = np.zeros(op.ncols)
        x[residue::period] = 1.0
        y = spmv(op, x)
        for d, offset in enumerate(op.offsets.tolist()):
            hit = ((rows + offset) % period == residue) & (rows + offset >= 0) & (rows + offset < op.ncols)
            data[d, hit] = y[hit]
    return data


@given(table_grid(), st.integers(0, 2**32 - 1))
@example((build_uniform_mesh((0.0, 0.0, 2.5, 1.25), 1 / 32), ASSEMBLY_TENSORS[0], 1 / 40), 0)
@settings(deadline=None)
def test_table_operators_expand_to_block_assembly_and_full_probing(case, seed):
    # M, A and S on congruent cells are made from class tables and hold no
    # (7, n) array.  Expanded, each must equal, as int64, what block
    # assembly of the same nodes and S = k A + M of those data give, and
    # in value what probing it through spmv on the whole grid reads back;
    # and spmv on it must equal spmv on its expanded twin, with the twin's
    # plan built from a scanned table and from diagonal stretches.
    mesh, D, k = case
    (nx, ny), n = mesh.grid, mesh.n_nodes
    M, A = assemble_mass(mesh), assemble_stiffness(mesh, D)
    S = MonodomainSolver(mesh, SolverConfig(k=k, t_final=k, ionic=make_model("fhn"),
                                            diffusion=D)).system
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TriMesh, "congruent", property(lambda self: False))
        blocks = [assemble_mass(mesh), assemble_stiffness(mesh, D)]
        mp.setattr(DiaMatrix, "classes", property(lambda self: None))
        data = k * blocks[1].data
        data += blocks[0].data
        blocks.append(DiaMatrix(n, n, M.offsets, data, M.nnz))
    rng = np.random.default_rng(seed)
    for op, expect in zip((M, A, S), blocks):
        assert "data" not in vars(op) and op.classes.shape == (7, min(ny + 1, 3), min(nx + 1, 3))
        assert bits_equal(op.data, expect.data)
        assert op.nnz == expect.nnz and np.array_equal(op.offsets, expect.offsets)
        assert np.array_equal(probed(op), expect.data)
        x = with_signed_zeros(rng, rng.standard_normal(op.ncols))
        twin = grid_matrix(op.data.copy(), nx, ny)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DiaMatrix, "classes", property(lambda self: None))
            stretched = grid_matrix(op.data.copy(), nx, ny)
            stretched.plan
        y = spmv(op, x)
        assert bits_equal(y, spmv(twin, x)) and bits_equal(y, spmv(stretched, x))


@given(coarse_cells, stiff_k, diffusion(), st.integers(0, 2**32 - 1))
def test_multigrid_pcg_property(cells, k, D, seed):
    # Once drawn for a multigrid V-cycle, now for FastDiag: PCG meets its
    # tolerance and lands within the residual bound of the dense solve.
    S, B = stiff_system(fine_mesh(*cells), k, D)
    b = np.random.default_rng(seed).uniform(-1e3, 1e3, S.nrows)
    rel_tol = 1e-10
    x, _ = cg_at(rel_tol, S, b, precondition=B)
    bnorm = np.linalg.norm(b)
    assert np.linalg.norm(b - spmv(S, x)) <= rel_tol * bnorm
    # |x - x*| <= |S^-1| (|b - S x| + |b - S x*|), S's smallest eigenvalue
    # bounding |S^-1|, up to the round-off of forming the residuals.
    full = dense(S)
    expect = np.linalg.solve(full, b)
    residuals = np.linalg.norm(b - full @ x) + np.linalg.norm(b - full @ expect)
    lam_min = np.linalg.eigvalsh(full)[0]
    assert np.linalg.norm(x - expect) <= residuals / lam_min * (1 + 1e-9) + 1e-14 * bnorm / lam_min


@pytest.mark.parametrize("e", [-1000, 0, 900])
@pytest.mark.parametrize("preconditioned", [False, True])
def test_cg_scale_free(e, preconditioned):
    # At 2^-1000 the norms underflowed (x = 0 after 0 iterations) and at
    # 2^900 they overflowed; power-of-two scaling keeps every bit.
    A, B = stiff_system(fine_mesh(8, 8), 10.0, DiffusionTensor.diagonal(1.0, 1.0))
    B = B if preconditioned else None
    rng = np.random.default_rng(5)
    b, x0 = rng.uniform(-1, 1, A.nrows), rng.uniform(-1, 1, A.nrows)
    x, iterations = cg_solve(A, b, x0=x0, precondition=B)
    assert iterations > 1
    x_scaled, iterations_scaled = cg_solve(A, np.ldexp(b, e), x0=np.ldexp(x0, e), precondition=B)
    assert iterations_scaled == iterations
    assert np.array_equal(x_scaled, np.ldexp(x, e))
