"""P1 Galerkin assembly on triangle meshes.

Consistent (non-lumped) mass matrix, diffusion stiffness matrix with a
one-point centroid quadrature for the conductivity tensor, nodal
interpolation, and the mass-matrix L2 norm.

On the uniform grid (``TriMesh.grid``), a matrix is assembled by the
blocks of cell rows of ``mesh.cell_row_blocks``, in mesh order, as in the
blocked element loop of MILAMIN (Dabrowski, Krotkiewski & Schmid, G-cubed
9, Q04030, 2008): ``_corners`` computes each block's geometry, and each of
the 18 entries (triangle type, row vertex, column vertex) of the 3 x 3
element matrices is added into its diagonal of DIA storage with one
sliced add over the block's cells.  No array of one value per
element-matrix entry, nor any geometry, is made for the whole mesh.  When
the cells are congruent (``TriMesh.congruent``, as at dyadic h) and the
element matrices depend on the geometry alone (M, and A for a constant
tensor), the first cell's are added once on a model grid of at most 2 x 2
cells, whose nodes are one of each class (corner, edge run, interior):
its entries are the class table the matrix is made from.  Any other mesh
sums its whole element arrays with ``from_triplets``.
"""
from __future__ import annotations

import numpy as np

from .mesh import CELL_TRIANGLES, DegenerateTriangle, TriMesh, cell_row_blocks, grid_triangles
from .sparse import GRID_NEIGHBOURS, DiaMatrix, from_triplets, grid_matrix, spmv

# Reference-triangle integrals of products of the three P1 basis functions,
# scaled by 1/area: int phi_i phi_j = area/12 * (1 + delta_ij).
_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


class NonFiniteValue(ValueError):
    pass


# An off-diagonal entry (or the gap between the two) counts as zero when it is
# at most this fraction of the tensor's largest entry.
NEGLIGIBLE_ENTRY = 1e-14


def _check_spd(d: np.ndarray) -> None:
    """Raise ValueError unless every 2x2 matrix in ``d`` (..., 2, 2) is finite and SPD.

    Symmetric: the off-diagonal entries b, b' differ by at most
    NEGLIGIBLE_ENTRY * max |entry|, a test that does not depend on the
    tensor's scale.  Positive definite: |b| < sqrt(a) sqrt(c), a product
    that, unlike a c - b^2, cannot leave the float range.
    """
    if d.shape[-2:] != (2, 2) or not np.isfinite(d).all():
        raise ValueError("diffusion tensor is not a finite 2x2 matrix")
    a, c = np.maximum(d[..., 0, 0], 0.0), np.maximum(d[..., 1, 1], 0.0)  # a, c <= 0 fail below
    with np.errstate(over="ignore"):  # b - b' = inf fails the test, as it should
        gap = np.abs(d[..., 0, 1] - d[..., 1, 0])
    symmetric = gap <= NEGLIGIBLE_ENTRY * np.abs(d).max(axis=(-2, -1))
    if not np.all(symmetric & (np.abs(d[..., 0, 1]) < np.sqrt(a) * np.sqrt(c))):
        raise ValueError("diffusion tensor is not symmetric positive definite")


class DiffusionTensor:
    """Symmetric positive definite conductivity field D(x, y).

    ``DiffusionTensor(D)``: D is a 2x2 matrix, a constant tensor checked here
    and kept, read-only, in ``constant`` so assembly can skip per-triangle
    evaluation, or a callable (x, y) -> 2x2 matrix, checked where
    ``assemble_stiffness`` evaluates it, which must always return the same
    value at the same point.  A tensor never changes, so its matrices can
    be cached on a mesh (``TriMesh.operators``).
    """

    def __init__(self, D):
        self._fn = D if callable(D) else None
        self.constant = None if callable(D) else np.array(D, dtype=float)
        if self.constant is not None:
            _check_spd(self.constant)
            self.constant.setflags(write=False)

    @classmethod
    def diagonal(cls, dxx: float, dyy: float) -> "DiffusionTensor":
        return cls(np.diag([float(dxx), float(dyy)]))

    def __call__(self, x: float, y: float) -> np.ndarray:
        return self.constant if self._fn is None else np.asarray(self._fn(x, y), dtype=float)


IDENTITY_DIFFUSION = DiffusionTensor.diagonal(1.0, 1.0)


# Entry (i, j) of the element matrix of type t (CELL_TRIANGLES) as (i, j, t,
# d, dx, dy): its row vertex is cell corner (dx, dy), its column vertex that
# corner's neighbour GRID_NEIGHBOURS[d].  Sorted by (-dy, -dx, t), the order
# of the triangles at a node, so each DIA entry is summed in triplet order.
_GRID_ENTRIES = sorted(
    ((i, j, t, GRID_NEIGHBOURS.index((cj[0] - ci[0], cj[1] - ci[1])), *ci)
     for t, corners in enumerate(CELL_TRIANGLES)
     for i, ci in enumerate(corners) for j, cj in enumerate(corners)),
    key=lambda e: (-e[5], -e[4], e[2]))


def _corners(mesh: TriMesh, s: slice):
    """x and y (3, m) of the vertices of the m triangles ``mesh.triangles[s]``
    and det (m,), twice their signed areas.  Each triangle's values do not
    depend on the others in the slice.

    Raises:
        DegenerateTriangle: some triangle's signed area is not positive
            (clockwise, collinear or non-finite vertices); the message
            names the first one in the slice.
    """
    ids = range(mesh.n_triangles)[s]  # TypeError for an index array
    stored = vars(mesh).get("triangles")  # else the grid's, of the cell rows that hold them
    triangles = (grid_triangles(mesh.grid[0], ids) if stored is None else stored[s]).T
    x, y = mesh.nodes[:, 0][triangles], mesh.nodes[:, 1][triangles]
    det = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    bad = np.flatnonzero(~(det > 0))
    if len(bad):
        k = bad[0]
        raise DegenerateTriangle(
            f"triangle {ids[k]} (nodes {triangles[:, k].tolist()}) has signed area "
            f"{0.5 * det[k]!r}; every triangle must be counterclockwise with positive area"
        )
    return x, y, det


def _assemble(mesh: TriMesh, element, geometric: bool) -> DiaMatrix:
    """The DiaMatrix summing ``element(s)``, the element matrices (3, 3, m)
    [i, j, p] of the triangles ``mesh.triangles[s]``, s a slice; ``geometric``
    says that they depend on nothing but their triangles' node-coordinate
    differences.  On the grid, s is each block of ``cell_row_blocks`` in
    turn, and its element matrices reshape to [i, j, cell row, cell column,
    type], so that each entry (i, j) of each type is one (rows, nx) view,
    added by one sliced add.  If they are geometric and the cells congruent
    (``TriMesh.congruent``), every cell's are the first cell's, bit for bit:
    s is then that cell's two triangles, and their values are added,
    broadcast, into a model grid of min(nx, 2) x min(ny, 2) cells.  Each of
    its nodes is one class of the grid's nodes (a corner, an edge run or
    the interior), which meets the same element entries in the same order
    wherever it sits, so the model's entries are the matrix's class table
    (``DiaMatrix.classes``).  Either path sums every DIA entry from 0.0 in
    triplet order and takes the triangles in mesh order, so a
    DegenerateTriangle names the mesh's lowest bad triangle."""
    if mesh.grid is None:
        n, tri = mesh.n_nodes, mesh.triangles
        vals = element(slice(0, mesh.n_triangles)).transpose(2, 0, 1)  # [p, i, j]
        return from_triplets(n, n, np.broadcast_to(tri[:, :, None], vals.shape),
                             np.broadcast_to(tri[:, None, :], vals.shape), vals)
    nx, ny = mesh.grid
    one_cell = geometric and mesh.congruent
    mx, my = (min(nx, 2), min(ny, 2)) if one_cell else (nx, ny)  # the cells added into
    data = np.zeros((len(GRID_NEIGHBOURS), my + 1, mx + 1))
    for r0, r1 in [(0, my)] if one_cell else cell_row_blocks(nx, ny):
        rows, cols = (1, 1) if one_cell else (r1 - r0, nx)
        first = 2 * r0 * nx  # the block's first triangle
        vals = element(slice(first, first + 2 * rows * cols)).reshape(3, 3, rows, cols, 2)
        for i, j, t, d, dx, dy in _GRID_ENTRIES:
            data[d, r0 + dy : r1 + dy, dx : dx + mx] += vals[i, j, ..., t]
    return grid_matrix(data if one_cell else data.reshape(len(GRID_NEIGHBOURS), -1), nx, ny)


def assemble_mass(mesh: TriMesh) -> DiaMatrix:
    """Consistent P1 mass matrix M_ij = int phi_i phi_j (DegenerateTriangle
    as in ``_corners``)."""
    return _assemble(mesh, lambda s: np.multiply.outer(_LOCAL_MASS, 0.5 * _corners(mesh, s)[2]),
                     geometric=True)


def assemble_stiffness(mesh: TriMesh, D: DiffusionTensor = IDENTITY_DIFFUSION) -> DiaMatrix:
    """Stiffness matrix A_ij = int (D grad phi_j) . grad phi_i.

    D is evaluated at each triangle centroid (one-point rule, exact for
    constant D).  Row sums vanish: the kernel contains the constants, which
    is the pure-Neumann setting.

    Raises:
        DegenerateTriangle: as in ``_corners``.
        ValueError: D is not symmetric positive definite at some centroid.
    """

    def element(s):
        x, y, det = _corners(mesh, s)
        # g[a, i, t]: component a of the gradient of the basis function at
        # vertex i of triangle t, contiguous over the triangles.
        g = np.empty((2, *x.shape))
        for i, ahead, behind in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.subtract(y[ahead], y[behind], out=g[0, i])  # y1 - y2, y2 - y0, y0 - y1
            np.subtract(x[behind], x[ahead], out=g[1, i])  # x2 - x1, x0 - x2, x1 - x0
        g /= det
        if D.constant is not None:
            Dc = D.constant  # (2, 2), the same for every triangle
        else:
            centroids = zip(x.mean(axis=0), y.mean(axis=0))
            Dc = np.stack([D(cx, cy) for cx, cy in centroids])  # (m, 2, 2)
            _check_spd(Dc)
        # K[i, j, t] = area_t * sum_ab (grad_i[a] D_t[a, b]) grad_j[b], the
        # terms added in the order ab = 00, 01, 10, 11: what
        # np.einsum("tia,tab,tjb->ijt") gives, but for the sign of a zero
        # sum, which the DIA sum from 0.0 removes; the tests check the
        # matrices bit for bit.  Row i of K is built in place.
        local, area = np.empty((3, *g.shape[1:])), 0.5 * det
        for i, row in enumerate(local):
            np.multiply(g[0, i] * Dc[..., 0, 0], g[0], out=row)
            for a, b in ((0, 1), (1, 0), (1, 1)):
                row += g[a, i] * Dc[..., a, b] * g[b]
            row *= area
        return local

    return _assemble(mesh, element, geometric=D.constant is not None)


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
    e = np.asarray(e, dtype=float)  # spmv checks its length
    return float(np.sqrt(max(e @ spmv(M, e), 0.0)))
