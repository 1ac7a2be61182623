"""P1 Galerkin assembly on triangle meshes.

Consistent (non-lumped) mass matrix, diffusion stiffness matrix with a
one-point centroid quadrature for the conductivity tensor, nodal
interpolation, and the mass-matrix L2 norm.
"""
from __future__ import annotations

import numpy as np

from .mesh import TriMesh, all_triangle_geometry
from .sparse import DiaMatrix, DimensionMismatch, from_triplets, spmv

# Reference-triangle integrals of products of the three P1 basis functions,
# scaled by 1/area: int phi_i phi_j = area/12 * (1 + delta_ij).
_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


class NonFiniteValue(ValueError):
    pass


def _check_spd(d: np.ndarray) -> None:
    """Raise ValueError unless every 2x2 matrix in ``d`` (..., 2, 2) is finite and SPD."""
    a, b, c = d[..., 0, 0], d[..., 0, 1], d[..., 1, 1]
    symmetric = np.isclose(b, d[..., 1, 0], atol=1e-14)
    if not (np.isfinite(d).all() and np.all(symmetric & (a > 0) & (a * c - b * b > 0))):
        raise ValueError("diffusion tensor is not symmetric positive definite")


class DiffusionTensor:
    """Symmetric positive definite conductivity field D(x, y).

    Wraps a callable (x, y) -> 2x2 symmetric matrix.  Constant tensors keep
    their value in ``constant`` so assembly can skip per-triangle evaluation.
    A constant is checked here, a variable tensor in ``assemble_stiffness``.
    """

    def __init__(self, fn, constant: np.ndarray | None = None):
        self._fn = fn
        self.constant = None if constant is None else np.asarray(constant, dtype=float)
        if self.constant is not None:
            _check_spd(self.constant)

    @classmethod
    def diagonal(cls, dxx: float, dyy: float) -> "DiffusionTensor":
        mat = np.diag([float(dxx), float(dyy)])
        return cls(lambda x, y: mat, constant=mat)

    def __call__(self, x: float, y: float) -> np.ndarray:
        return np.asarray(self._fn(x, y), dtype=float)


IDENTITY_DIFFUSION = DiffusionTensor.diagonal(1.0, 1.0)


def assemble_mass(mesh: TriMesh) -> DiaMatrix:
    """Consistent P1 mass matrix M_ij = int phi_i phi_j."""
    areas, _ = all_triangle_geometry(mesh)
    local = areas[:, None, None] * _LOCAL_MASS  # (T, 3, 3)
    return _scatter(mesh, local)


def assemble_stiffness(mesh: TriMesh, D: DiffusionTensor = IDENTITY_DIFFUSION) -> DiaMatrix:
    """Stiffness matrix A_ij = int (D grad phi_j) . grad phi_i.

    D is evaluated at each triangle centroid (one-point rule, exact for
    constant D).  Row sums vanish: the kernel contains the constants, which
    is the pure-Neumann setting.

    Raises:
        ValueError: D is not symmetric positive definite at some centroid.
    """
    areas, grads = all_triangle_geometry(mesh)
    if D.constant is not None:
        Dc = np.broadcast_to(D.constant, (mesh.n_triangles, 2, 2))
    else:
        centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        Dc = np.stack([D(cx, cy) for cx, cy in centroids])
        _check_spd(Dc)
    # K[t, i, j] = area_t * grad_i . D_t grad_j
    local = areas[:, None, None] * np.einsum("tia,tab,tjb->tij", grads, Dc, grads)
    return _scatter(mesh, local)


def _scatter(mesh: TriMesh, local: np.ndarray) -> DiaMatrix:
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()  # i index varies slower
    cols = np.tile(tri, (1, 3)).ravel()
    return from_triplets(mesh.n_nodes, mesh.n_nodes, rows, cols, local.ravel())


def interpolate_nodal(mesh: TriMesh, f) -> np.ndarray:
    """Vector of f evaluated at the mesh nodes, in node order.

    ``f`` may be a scalar constant, an array of one value per node, or a
    vectorized callable of (x, y) arrays that returns either of those.

    Raises:
        ValueError: f returns any other shape.
        NonFiniteValue: f is not finite at some node.
    """
    vals = f(mesh.nodes[:, 0], mesh.nodes[:, 1]) if callable(f) else f
    vals = np.broadcast_to(np.asarray(vals, dtype=float), (mesh.n_nodes,)).copy()
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("interpolated function is not finite at some node")
    return vals


def l2_norm(M: DiaMatrix, e: np.ndarray) -> float:
    """sqrt(e^T M e), the L2 norm of the P1 function with nodal values e."""
    e = np.asarray(e, dtype=float)
    if e.shape != (M.ncols,):
        raise DimensionMismatch(f"expected vector of length {M.ncols}, got shape {e.shape}")
    return float(np.sqrt(max(e @ spmv(M, e), 0.0)))
