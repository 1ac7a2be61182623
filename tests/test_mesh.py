import math
from collections import Counter

import numpy as np
import pytest

from element_geometry import element_geometry

from monofem.assembly import DiffusionTensor, _corners, assemble_mass, assemble_stiffness
from monofem.mesh import (
    NonDivisibleSpacing,
    TriMesh,
    build_uniform_mesh,
    grid_cells,
)
from monofem.sparse import DimensionMismatch, IndexOutOfRange, spmv

BOUNDS = (-1.25, -1.25, 1.25, 1.25)
ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
ANISOTROPIC = ROTATION @ np.diag([2.0, 0.5]) @ ROTATION.T


def signed_area(p0, p1, p2):
    return 0.5 * ((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1]))


def check_invariants(mesh: TriMesh):
    n = mesh.n_nodes
    tri = mesh.triangles
    assert tri.min() >= 0 and tri.max() < n
    for t in tri:
        assert len(set(t)) == 3
    # strictly positive signed area (counterclockwise)
    p = mesh.nodes[tri]
    areas = 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    assert areas.min() > 0
    xmin, ymin, xmax, ymax = mesh.bounds
    domain_area = (xmax - xmin) * (ymax - ymin)
    assert areas.sum() == pytest.approx(domain_area, rel=1e-12)
    # conforming: every edge in one or two triangles, single-triangle edges on the boundary
    edges = Counter()
    for a, b, c in tri:
        for u, v in ((a, b), (b, c), (c, a)):
            edges[(min(u, v), max(u, v))] += 1
    assert set(edges.values()) <= {1, 2}
    for (u, v), count in edges.items():
        if count == 1:
            for q in (mesh.nodes[u], mesh.nodes[v]):
                assert (
                    math.isclose(q[0], xmin) or math.isclose(q[0], xmax)
                    or math.isclose(q[1], ymin) or math.isclose(q[1], ymax)
                )


@pytest.mark.parametrize("h", [1 / 8, 1 / 16, 1 / 4])
def test_uniform_mesh_invariants(h):
    check_invariants(build_uniform_mesh(BOUNDS, h))


def test_paper_level_counts():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)  # N = 2.5/h = 20 cells per side
    assert mesh.n_nodes == 441
    assert mesh.n_triangles == 800


def test_single_cell():
    mesh = build_uniform_mesh((0, 0, 1, 1), 1.0)
    assert mesh.n_nodes == 4
    assert mesh.n_triangles == 2
    check_invariants(mesh)


def test_non_divisible_spacing():
    with pytest.raises(NonDivisibleSpacing):
        build_uniform_mesh(BOUNDS, 0.3)
    with pytest.raises(NonDivisibleSpacing):
        build_uniform_mesh(BOUNDS, -0.5)
    for h in (float("inf"), float("nan"), 1e10):  # 1e10: 2.5e-10 cells per side
        with pytest.raises(NonDivisibleSpacing):
            build_uniform_mesh(BOUNDS, h)


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("nodes,triangles,error", [
    (np.c_[SQUARE, np.ones(4)], [[0, 1, 2]], DimensionMismatch),  # z was once dropped
    (SQUARE[:, 0], [[0, 1, 2]], DimensionMismatch),
    (SQUARE, [[0, 1, 2, 3]], DimensionMismatch),  # once a numpy broadcast ValueError at assembly
    (SQUARE, [0, 1, 2], DimensionMismatch),  # once an IndexError at assembly
    (SQUARE, [[0, 1, 2.7]], DimensionMismatch),  # once truncated to [0, 1, 2]
    (SQUARE, [[True, False, True]], DimensionMismatch),
    (SQUARE, [[0, 1, 4]], IndexOutOfRange),
    (SQUARE, [[0, -1, 2]], IndexOutOfRange),
], ids=["xyz-nodes", "1-d-nodes", "four-corners", "1-d-triangles", "float-index",
        "bool-index", "past-last-node", "negative-index"])
def test_mesh_rejects_bad_arrays_when_made(nodes, triangles, error):
    with pytest.raises(error):
        TriMesh(nodes, triangles, 1.0, (0.0, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("n_cells", [4, 10])
def test_count_formula(n_cells):
    h = 2.5 / n_cells
    mesh = build_uniform_mesh(BOUNDS, h)
    assert mesh.n_nodes == (n_cells + 1) ** 2
    assert mesh.n_triangles == 2 * n_cells**2


def test_refinement_nesting():
    coarse = build_uniform_mesh(BOUNDS, 1 / 4)
    fine = build_uniform_mesh(BOUNDS, 1 / 8)
    assert fine.n_triangles == 4 * coarse.n_triangles
    fine_set = {(round(x, 12), round(y, 12)) for x, y in fine.nodes}
    for x, y in coarse.nodes:
        assert (round(x, 12), round(y, 12)) in fine_set


def meshgrid_construction(bounds, h):
    """nodes and triangles as built from node and cell meshgrids and the
    four corner columns of every cell."""
    nx, ny = grid_cells(bounds, h)
    xmin, ymin, xmax, ymax = map(float, bounds)
    X, Y = np.meshgrid(np.linspace(xmin, xmax, nx + 1), np.linspace(ymin, ymax, ny + 1))
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    ll = (j * (nx + 1) + i).ravel()
    lr, ul = ll + 1, ll + (nx + 1)
    ur = ul + 1
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])
    triangles[1::2] = np.column_stack([ll, ur, ul])
    return nodes, triangles


@pytest.mark.parametrize("bounds,h", [
    (BOUNDS, 1 / 4), (BOUNDS, 1 / 128),
    ((0, 0, 3, 1), 0.5),  # nx > ny
    ((-1, 0, 2, 5), 0.25),  # nx < ny
    ((0, 0, 1, 1), 1.0),  # one cell
], ids=["square-4", "square-128", "wide", "tall", "single-cell"])
def test_build_matches_meshgrid_construction(bounds, h):
    mesh = build_uniform_mesh(bounds, h)
    nodes, triangles = meshgrid_construction(bounds, h)
    for got, want in ((mesh.nodes, nodes), (mesh.triangles, triangles)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def one_triangle(p1=(1.0, 0.0), p2=(0.0, 1.0)):
    return TriMesh(nodes=np.array([[0.0, 0.0], p1, p2]), triangles=np.array([[0, 1, 2]]),
                   h=1.0, bounds=(0, 0, 1, 1))


def unglued(mesh):
    """The triangles of ``mesh``, each with three nodes of its own, so that
    an assembled matrix is block diagonal with the element matrices."""
    n = mesh.n_triangles
    return TriMesh(mesh.nodes[mesh.triangles].reshape(-1, 2), np.arange(3 * n).reshape(n, 3),
                   mesh.h, mesh.bounds)


def jittered(h, seed=1):
    mesh = build_uniform_mesh(BOUNDS, h)
    nodes = mesh.nodes + np.random.default_rng(seed).uniform(-0.2, 0.2, mesh.nodes.shape) * h
    return TriMesh(nodes, mesh.triangles, h, mesh.bounds)


def element_stiffness(mesh, D):
    """(T, 3, 3) element stiffness matrices of ``mesh`` as assembly builds them."""
    A = assemble_stiffness(unglued(mesh), DiffusionTensor(D)).to_dense()
    n = mesh.n_triangles
    blocks = A.reshape(n, 3, n, 3)
    return blocks[np.arange(n), :, np.arange(n)]


def test_unit_right_triangle_geometry():
    mesh = build_uniform_mesh((0, 0, 1, 1), 1.0)
    # lower triangle of the unit square is (0,0),(1,0),(1,1)
    assert 0.5 * _corners(mesh, slice(0, 2))[2][0] == pytest.approx(0.5)
    # hand-computed barycentric gradients G for (0,0),(1,0),(0,1): the
    # element stiffness is area G D G^T for the identity and an
    # anisotropic D
    G = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    for D in (np.eye(2), ANISOTROPIC):
        np.testing.assert_allclose(element_stiffness(one_triangle(), D)[0], 0.5 * G @ D @ G.T,
                                   atol=1e-14)


def test_equilateral_area():
    tri = one_triangle((1.0, 0.0), (0.5, math.sqrt(3) / 2))
    assert 0.5 * _corners(tri, slice(0, 1))[2][0] == pytest.approx(math.sqrt(3) / 4)
    assert assemble_mass(tri).to_dense().sum() == pytest.approx(math.sqrt(3) / 4)


def test_gradients_sum_to_zero():
    # Each element stiffness area G D G^T has zero row sums exactly when
    # the rows of G sum to zero (G has rank 2 and D is SPD).
    mesh = unglued(jittered(1 / 8))
    for D in (np.eye(2), ANISOTROPIC):
        A = assemble_stiffness(mesh, DiffusionTensor(D))
        np.testing.assert_allclose(spmv(A, np.ones(mesh.n_nodes)), 0.0, atol=1e-12)


def test_vectorized_matches_single():
    # Per-triangle oracle: basis function i is a + b x + c y with (a, b, c)
    # column i of inv([[1, x_j, y_j]]), so its gradient is (b, c).  It
    # checks assembly's areas and element stiffness matrices and the
    # tests' element_geometry.
    mesh = jittered(1 / 4)
    n = mesh.n_triangles
    det = _corners(mesh, slice(0, n))[2]
    K = element_stiffness(mesh, ANISOTROPIC)
    areas, grads = element_geometry(mesh)
    for t in range(n):
        p = mesh.nodes[mesh.triangles[t]]
        assert 0.5 * det[t] == areas[t] == pytest.approx(signed_area(*p))
        oracle = np.linalg.inv(np.column_stack([np.ones(3), p]))[1:].T
        np.testing.assert_allclose(grads[t], oracle, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(K[t], areas[t] * oracle @ ANISOTROPIC @ oracle.T,
                                   rtol=1e-12, atol=1e-12)


def test_geometry_not_kept_and_block_independent():
    # The mesh has no geometry API and keeps only its layout after
    # assembly, which computes the geometry by blocks of triangles; each
    # triangle's values do not depend on the block.
    mesh = jittered(1 / 4)
    assemble_mass(mesh)
    assemble_stiffness(mesh)
    assert set(vars(mesh)) == {"nodes", "triangles", "h", "bounds", "p1_layout"}
    assert {a for a in dir(TriMesh) if not a.startswith("_")} == {
        "n_nodes", "n_triangles", "p1_layout", "operators"}
    n = mesh.n_triangles
    whole = _corners(mesh, slice(0, n))
    for size in (1, 7, n):
        blocks = [_corners(mesh, slice(a, min(n, a + size))) for a in range(0, n, size)]
        for k, part in enumerate(whole):
            assert np.concatenate([b[k] for b in blocks], axis=-1).tobytes() == part.tobytes()
