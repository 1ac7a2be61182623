import math
from collections import Counter

import numpy as np
import pytest

from monofem.mesh import (
    NonDivisibleSpacing,
    TriMesh,
    build_uniform_mesh,
)

BOUNDS = (-1.25, -1.25, 1.25, 1.25)


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


def test_unit_right_triangle_geometry():
    mesh = build_uniform_mesh((0, 0, 1, 1), 1.0)
    # lower triangle of the unit square is (0,0),(1,0),(1,1)
    areas, _ = mesh.geometry
    assert areas[0] == pytest.approx(0.5)
    # hand-computed barycentric gradients for (0,0),(1,0),(0,1)
    tri = TriMesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        h=1.0,
        bounds=(0, 0, 1, 1),
    )
    areas, grads = tri.geometry
    assert areas[0] == pytest.approx(0.5)
    np.testing.assert_allclose(grads[0], [[-1, -1], [1, 0], [0, 1]], atol=1e-14)


def test_equilateral_area():
    tri = TriMesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]),
        triangles=np.array([[0, 1, 2]]),
        h=1.0,
        bounds=(0, 0, 1, 1),
    )
    areas, _ = tri.geometry
    assert areas[0] == pytest.approx(math.sqrt(3) / 4)


def test_gradients_sum_to_zero():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    _, grads = mesh.geometry
    np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-13)


def test_vectorized_matches_single():
    # Per-triangle oracle: basis function i is a + b x + c y with (a, b, c)
    # column i of inv([[1, x_j, y_j]]), so its gradient is (b, c).
    mesh = build_uniform_mesh(BOUNDS, 1 / 4)
    areas, grads = mesh.geometry
    for t in (0, 1, mesh.n_triangles - 1):
        p = mesh.nodes[mesh.triangles[t]]
        assert signed_area(*p) == pytest.approx(areas[t])
        inv = np.linalg.inv(np.column_stack([np.ones(3), p]))
        np.testing.assert_allclose(inv[1:].T, grads[t])


def test_geometry_read_only_and_not_kept():
    # Assembly computes the geometry by blocks of triangles, so the mesh
    # keeps none: the whole-mesh ``geometry`` is computed on each read.
    mesh = build_uniform_mesh(BOUNDS, 1 / 4)
    areas, grads = mesh.geometry
    again = mesh.geometry
    assert again[0] is not areas and again[1] is not grads
    assert again[0].tobytes() == areas.tobytes() and again[1].tobytes() == grads.tobytes()
    assert "geometry" not in vars(mesh)
    for a in (areas, grads):
        with pytest.raises(ValueError):
            a[0] = 1.0
    # Each triangle's values do not depend on the block it is computed in.
    n = mesh.n_triangles
    for size in (1, 7, n):
        blocks = [mesh.block_geometry(slice(a, min(n, a + size))) for a in range(0, n, size)]
        assert np.concatenate([b[0] for b in blocks]).tobytes() == areas.tobytes()
        areas_only = [mesh.block_areas(slice(a, min(n, a + size))) for a in range(0, n, size)]
        assert np.concatenate(areas_only).tobytes() == areas.tobytes()
        g = np.concatenate([b[1] for b in blocks], axis=2)
        assert g.transpose(2, 1, 0).tobytes() == grads.tobytes()
