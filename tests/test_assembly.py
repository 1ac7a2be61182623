import math

import numpy as np
import pytest

from monofem.assembly import (
    DiffusionTensor,
    NonFiniteValue,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_norm,
)
from monofem.mesh import TriMesh, all_triangle_geometry, build_uniform_mesh
from monofem.sparse import DimensionMismatch, spmv

BOUNDS = (-1.25, -1.25, 1.25, 1.25)

# Degree-2-exact midpoint rule on a triangle: int f = area/3 * sum f(edge midpoints).
# Exact for the square of any P1 function, so it is an independent oracle for l2_norm.


def quadrature_p1_squared(mesh: TriMesh, e: np.ndarray) -> float:
    areas, _ = all_triangle_geometry(mesh)
    vals = e[mesh.triangles]  # (T, 3)
    mids = 0.5 * (vals + np.roll(vals, -1, axis=1))
    return float((areas / 3 * (mids**2).sum(axis=1)).sum())


# Degree-5-exact 7-point rule, for integrating smooth non-polynomial errors.
_Q7_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [0.79742699, 0.10128651, 0.10128651],
        [0.10128651, 0.79742699, 0.10128651],
        [0.10128651, 0.10128651, 0.79742699],
        [0.05971587, 0.47014206, 0.47014206],
        [0.47014206, 0.05971587, 0.47014206],
        [0.47014206, 0.47014206, 0.05971587],
    ]
)
_Q7_W = np.array([0.225, 0.12593918, 0.12593918, 0.12593918, 0.13239415, 0.13239415, 0.13239415])


def interpolation_l2_error(mesh: TriMesh, f, nodal: np.ndarray) -> float:
    """||f - I_h f||_L2 by fine quadrature; independent of the mass matrix."""
    areas, _ = all_triangle_geometry(mesh)
    pts = np.einsum("qb,tbx->tqx", _Q7_BARY, mesh.nodes[mesh.triangles])
    exact = f(pts[..., 0], pts[..., 1])
    interp = np.einsum("qb,tb->tq", _Q7_BARY, nodal[mesh.triangles])
    per_tri = ((exact - interp) ** 2 * _Q7_W).sum(axis=1) * areas
    return math.sqrt(per_tri.sum())


def unit_right_triangle():
    return TriMesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        h=1.0,
        bounds=(0, 0, 1, 1),
    )


def test_local_mass_matrix():
    # Symbolic integration of P1 products over the reference triangle:
    # area/12 * [[2,1,1],[1,2,1],[1,1,2]] with area 1/2.
    M = assemble_mass(unit_right_triangle()).to_dense()
    expect = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    np.testing.assert_allclose(M, expect, atol=1e-15)


def test_local_stiffness_matrix():
    A = assemble_stiffness(unit_right_triangle()).to_dense()
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    np.testing.assert_allclose(A, expect, atol=1e-15)


@pytest.mark.parametrize("h", [1 / 8, 1 / 16])
def test_mass_total_is_domain_area(h):
    M = assemble_mass(build_uniform_mesh(BOUNDS, h))
    assert M.values.sum() == pytest.approx(6.25, abs=1e-12)


def test_mass_quadratic_form_matches_across_refinement():
    for h in (1 / 8, 1 / 16):
        mesh = build_uniform_mesh(BOUNDS, h)
        M = assemble_mass(mesh)
        ones = np.ones(mesh.n_nodes)
        assert ones @ spmv(M, ones) == pytest.approx(6.25, abs=1e-12)


def test_mass_spd_probe():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    M = assemble_mass(mesh)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(mesh.n_nodes)
        assert x @ spmv(M, x) > 0


def test_stiffness_kernel_is_constants():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    for D in (DiffusionTensor.diagonal(1.0, 1.0), DiffusionTensor.diagonal(2.0, 0.5)):
        A = assemble_stiffness(mesh, D)
        np.testing.assert_allclose(spmv(A, np.ones(mesh.n_nodes)), 0.0, atol=1e-12)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(mesh.n_nodes)
            assert x @ spmv(A, x) >= -1e-12


def test_stiffness_linear_in_diffusion():
    mesh = build_uniform_mesh(BOUNDS, 1 / 4)
    A1 = assemble_stiffness(mesh, DiffusionTensor.diagonal(1.0, 1.0)).to_dense()
    A2 = assemble_stiffness(mesh, DiffusionTensor.diagonal(2.0, 2.0)).to_dense()
    np.testing.assert_allclose(A2, 2.0 * A1, rtol=1e-14)


def test_variable_diffusion_centroid_rule_exact_for_constant():
    mesh = build_uniform_mesh(BOUNDS, 1 / 4)
    const = assemble_stiffness(mesh, DiffusionTensor.diagonal(3.0, 1.0)).to_dense()
    fn = assemble_stiffness(
        mesh, DiffusionTensor(lambda x, y: np.diag([3.0, 1.0]))
    ).to_dense()
    np.testing.assert_allclose(fn, const, atol=1e-13)


def test_diffusion_tensor_ellipticity():
    # Constants are checked on construction, variable tensors at the
    # centroids where assemble_stiffness evaluates them.
    mesh = build_uniform_mesh(BOUNDS, 1 / 4)
    for entries in ((-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            DiffusionTensor.diagonal(*entries)
    with pytest.raises(ValueError):
        DiffusionTensor(lambda x, y: np.eye(2), constant=[[1.0, 2.0], [2.0, 1.0]])
    varying = DiffusionTensor(lambda x, y: np.diag([2.0 + x, 2.0 + y]))
    assemble_stiffness(mesh, varying)  # 0.75 <= 2 + x at every centroid
    # indefinite only where x + y > 2, i.e. at the top-right centroids
    indefinite = DiffusionTensor(lambda x, y: np.array([[1.0, 0.0], [0.0, 2.0 - x - y]]))
    with pytest.raises(ValueError):
        assemble_stiffness(mesh, indefinite)
    asymmetric = DiffusionTensor(lambda x, y: np.array([[2.0, 0.5], [-0.5, 2.0]]))
    with pytest.raises(ValueError):
        assemble_stiffness(mesh, asymmetric)


def test_interior_rows_annihilate_linear_functions():
    # For f linear and constant D, A @ interpolate(f) carries only boundary
    # (weak Neumann) terms; interior rows vanish.
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    A = assemble_stiffness(mesh)
    f = interpolate_nodal(mesh, lambda x, y: 2.0 * x - 0.5 * y + 1.0)
    r = spmv(A, f)
    xmin, ymin, xmax, ymax = mesh.bounds
    interior = (
        (np.abs(mesh.nodes[:, 0] - xmin) > 1e-12)
        & (np.abs(mesh.nodes[:, 0] - xmax) > 1e-12)
        & (np.abs(mesh.nodes[:, 1] - ymin) > 1e-12)
        & (np.abs(mesh.nodes[:, 1] - ymax) > 1e-12)
    )
    np.testing.assert_allclose(r[interior], 0.0, atol=1e-12)


def test_interpolate_constant_and_coordinates():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    np.testing.assert_array_equal(interpolate_nodal(mesh, 1.0), 1.0)
    xs = interpolate_nodal(mesh, lambda x, y: x)
    assert xs[0] == -1.25
    assert xs[-1] == 1.25


def test_interpolate_rejects_wrong_shape():
    mesh = build_uniform_mesh((0, 0, 1, 1), 1.0)
    with pytest.raises(ValueError):
        interpolate_nodal(mesh, lambda x, y: np.ones(3))


def test_interpolate_non_finite():
    mesh = build_uniform_mesh((0, 0, 1, 1), 1.0)
    with pytest.raises(NonFiniteValue):
        interpolate_nodal(mesh, lambda x, y: np.where(x > 0.5, np.inf, 1.0))


def test_interpolation_second_order():
    f = lambda x, y: x**2 + y**2
    errs = []
    for h in (1 / 4, 1 / 8):
        mesh = build_uniform_mesh(BOUNDS, h)
        errs.append(interpolation_l2_error(mesh, f, interpolate_nodal(mesh, f)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_l2_norm_basics():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    M = assemble_mass(mesh)
    assert l2_norm(M, np.ones(mesh.n_nodes)) == pytest.approx(2.5, abs=1e-12)
    assert l2_norm(M, np.zeros(mesh.n_nodes)) == 0.0
    with pytest.raises(DimensionMismatch):
        l2_norm(M, np.ones(3))


def test_l2_norm_cosine_converges_to_analytic_value():
    # int cos^2(pi (x+1.25)/2.5) over the square = 6.25/2
    target = math.sqrt(6.25 / 2)
    prev_gap = None
    for h in (1 / 8, 1 / 16, 1 / 32):
        mesh = build_uniform_mesh(BOUNDS, h)
        e = interpolate_nodal(mesh, lambda x, y: np.cos(np.pi * (x + 1.25) / 2.5))
        gap = abs(l2_norm(assemble_mass(mesh), e) - target)
        if prev_gap is not None:
            assert gap < prev_gap / 3
        prev_gap = gap
    assert gap < 5e-4


def test_l2_norm_matches_quadrature_oracle():
    rng = np.random.default_rng(2)
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    M = assemble_mass(mesh)
    for _ in range(5):
        e = rng.standard_normal(mesh.n_nodes)
        assert l2_norm(M, e) ** 2 == pytest.approx(
            quadrature_p1_squared(mesh, e), rel=1e-12
        )
