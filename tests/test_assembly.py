import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from element_geometry import element_geometry

from monofem.assembly import (
    DiffusionTensor,
    NonFiniteValue,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_norm,
)
from monofem.mesh import TriMesh, build_uniform_mesh
from monofem.sparse import DimensionMismatch, spmv

from test_sparse import dense

BOUNDS = (-1.25, -1.25, 1.25, 1.25)

# Degree-2-exact midpoint rule on a triangle: int f = area/3 * sum f(edge midpoints).
# Exact for the square of any P1 function, so it is an independent oracle for l2_norm.


def quadrature_p1_squared(mesh: TriMesh, e: np.ndarray) -> float:
    areas, _ = element_geometry(mesh)
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
    areas, _ = element_geometry(mesh)
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
    M = dense(assemble_mass(unit_right_triangle()))
    expect = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    np.testing.assert_allclose(M, expect, atol=1e-15)


def test_local_stiffness_matrix():
    A = dense(assemble_stiffness(unit_right_triangle()))
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    np.testing.assert_allclose(A, expect, atol=1e-15)


@pytest.mark.parametrize("h", [1 / 8, 1 / 16])
def test_mass_total_is_domain_area(h):
    M = assemble_mass(build_uniform_mesh(BOUNDS, h))
    assert M.data.sum() == pytest.approx(6.25, abs=1e-12)


@given(
    cells_per_unit=st.integers(2, 8),
    nx=st.integers(1, 12),
    ny=st.integers(1, 12),
    corner=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    dxx=st.floats(0.1, 10),
    dyy=st.floats(0.1, 10),
)
def test_assembly_invariants_on_random_meshes(cells_per_unit, nx, ny, corner, dxx, dyy):
    # h from 1/2 to 1/8 on a rectangle of nx x ny cells anywhere in the plane.
    h = 1 / cells_per_unit
    x0, y0 = corner
    mesh = build_uniform_mesh((x0, y0, x0 + nx * h, y0 + ny * h), h)
    xmin, ymin, xmax, ymax = mesh.bounds
    M = assemble_mass(mesh)
    A = assemble_stiffness(mesh, DiffusionTensor.diagonal(dxx, dyy))
    for mat in (M, A):
        full = dense(mat)
        assert np.array_equal(full, full.T)  # bit for bit
    assert np.abs(spmv(A, np.ones(mesh.n_nodes))).max() <= 1e-12
    assert abs(M.data.sum() - (xmax - xmin) * (ymax - ymin)) <= 1e-12


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
    A1 = dense(assemble_stiffness(mesh, DiffusionTensor.diagonal(1.0, 1.0)))
    A2 = dense(assemble_stiffness(mesh, DiffusionTensor.diagonal(2.0, 2.0)))
    np.testing.assert_allclose(A2, 2.0 * A1, rtol=1e-14)


def test_variable_diffusion_centroid_rule_exact_for_constant():
    mesh = build_uniform_mesh(BOUNDS, 1 / 4)
    const = dense(assemble_stiffness(mesh, DiffusionTensor.diagonal(3.0, 1.0)))
    fn = dense(assemble_stiffness(mesh, DiffusionTensor(lambda x, y: np.diag([3.0, 1.0]))))
    np.testing.assert_allclose(fn, const, atol=1e-13)


def test_diffusion_tensor_ellipticity():
    # Constants are checked on construction, variable tensors at the
    # centroids where assemble_stiffness evaluates them.
    mesh = build_uniform_mesh(BOUNDS, 1 / 4)
    for entries in ((-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            DiffusionTensor.diagonal(*entries)
    for matrix in ([[1.0, 2.0], [2.0, 1.0]], np.eye(3), 1.0):
        with pytest.raises(ValueError):
            DiffusionTensor(matrix)
    varying = DiffusionTensor(lambda x, y: np.diag([2.0 + x, 2.0 + y]))
    assemble_stiffness(mesh, varying)  # 0.75 <= 2 + x at every centroid
    # indefinite only where x + y > 2, i.e. at the top-right centroids
    indefinite = DiffusionTensor(lambda x, y: np.array([[1.0, 0.0], [0.0, 2.0 - x - y]]))
    with pytest.raises(ValueError):
        assemble_stiffness(mesh, indefinite)
    asymmetric = DiffusionTensor(lambda x, y: np.array([[2.0, 0.5], [-0.5, 2.0]]))
    with pytest.raises(ValueError):
        assemble_stiffness(mesh, asymmetric)


def test_constant_diffusion_tensor_is_its_matrix():
    matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
    D = DiffusionTensor(matrix)
    np.testing.assert_array_equal(D.constant, matrix)
    assert D(0.3, -0.7) is D.constant
    assert DiffusionTensor(lambda x, y: matrix).constant is None
    # Stiffness matrices are cached per tensor object, so its value is frozen
    # (and the caller's array is copied, not frozen).
    with pytest.raises(ValueError):
        D.constant[0, 0] = 3.0
    matrix[0, 0] = 3.0


def test_diffusion_tensor_spd_check_stays_in_float_range():
    # a c - b^2 underflows to 0 at 1e-300 I and overflows at 1e200 I.
    mesh = build_uniform_mesh(BOUNDS, 1 / 4)
    indefinite = [[1e200, 2e200], [2e200, 1e200]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-300, 1e200):
            DiffusionTensor.diagonal(scale, scale)
            assemble_stiffness(mesh, DiffusionTensor(lambda x, y: np.diag([scale, scale])))
        with pytest.raises(ValueError):
            DiffusionTensor(indefinite)
        with pytest.raises(ValueError):
            assemble_stiffness(mesh, DiffusionTensor(lambda x, y: np.array(indefinite)))


def test_diffusion_tensor_symmetry_is_relative_to_its_scale():
    # The lower off-diagonal entry is 1e5 times the diagonal: an absolute
    # tolerance of 1e-14 took this for symmetric.
    mesh = build_uniform_mesh(BOUNDS, 1 / 4)
    asymmetric = [[1e-20, 0.0], [1e-15, 1e-20]]
    with pytest.raises(ValueError, match="symmetric"):
        DiffusionTensor(asymmetric)
    with pytest.raises(ValueError, match="symmetric"):
        assemble_stiffness(mesh, DiffusionTensor(lambda x, y: np.array(asymmetric)))
    # R diag R^T in floats is symmetric to round-off at every scale.
    c, s = math.cos(0.3), math.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-300, 1e-20, 1.0, 1e200):
            rotated = R @ np.diag([2.0 * scale, scale]) @ R.T
            DiffusionTensor(rotated)
            assemble_stiffness(mesh, DiffusionTensor(lambda x, y: rotated))
        with pytest.raises(ValueError, match="symmetric"):  # b - b' overflows to inf
            DiffusionTensor([[1e308, 1e308], [-1e308, 1e308]])


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
