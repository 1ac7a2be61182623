"""Uniform conforming triangulations of an axis-aligned rectangle.

Each square cell of an N x N grid is split into two triangles along the
diagonal from its lower-left to its upper-right corner.  Nodes are ordered
row-major by (y, x) so that matrix sparsity patterns are reproducible.
A mesh computes its triangle geometry and the layout of its P1 element
matrices once, on first use, and every operator assembled on it shares them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sparse import TripletLayout

DEFAULT_BOUNDS = (-1.25, -1.25, 1.25, 1.25)


class NonDivisibleSpacing(ValueError):
    """Rectangle side length is not an integer multiple of the grid spacing."""


class DegenerateTriangle(ValueError):
    """A triangle is clockwise or has zero area (signed area <= 0)."""


@dataclass(frozen=True)
class TriMesh:
    """Triangulation of a rectangle.

    Attributes:
        nodes: (n_nodes, 2) array of vertex coordinates.
        triangles: (n_triangles, 3) array of node indices, counterclockwise.
        h: grid spacing of the underlying square cells.
        bounds: (xmin, ymin, xmax, ymax).

    ``geometry`` (areas and basis gradients) and ``p1_layout`` (where each
    element-matrix entry goes in DIA storage) are computed on first use and
    cached on the mesh.  The geometry arrays, like ``nodes`` and
    ``triangles``, are read-only.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    h: float
    bounds: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=np.int64))
        self.nodes.setflags(write=False)
        self.triangles.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """(areas, grads) of every triangle; see ``all_triangle_geometry``."""
        return _triangle_geometry(self.nodes, self.triangles)

    @cached_property
    def p1_layout(self) -> TripletLayout:
        """DIA layout of the P1 element triplets: entry (i, j) of the 3 x 3
        element matrix of triangle t is triplet 9 t + 3 i + j, at row
        ``triangles[t, i]`` and column ``triangles[t, j]``."""
        tri = self.triangles
        return TripletLayout(self.n_nodes, self.n_nodes, tri[:, :, None], tri[:, None, :])


def grid_cells(bounds, h: float) -> tuple[int, int]:
    """Cells of side ``h`` along x and y of ``bounds``; NonDivisibleSpacing
    unless h is finite, positive and divides both sides (to 1e-9 cells)."""
    xmin, ymin, xmax, ymax = map(float, bounds)
    if not 0 < h < np.inf:
        raise NonDivisibleSpacing(f"grid spacing must be finite and positive, got {h}")
    nx = (xmax - xmin) / h
    ny = (ymax - ymin) / h
    if min(nx, ny) < 0.5 or abs(nx - round(nx)) > 1e-9 or abs(ny - round(ny)) > 1e-9:
        raise NonDivisibleSpacing(
            f"side lengths {xmax - xmin} x {ymax - ymin} are not positive integer multiples of h={h}"
        )
    return int(round(nx)), int(round(ny))


def build_uniform_mesh(bounds=DEFAULT_BOUNDS, h: float = 1 / 8) -> TriMesh:
    """Triangulate the rectangle ``bounds`` with square cells of side ``h``
    (NonDivisibleSpacing as in ``grid_cells``)."""
    nx, ny = grid_cells(bounds, h)
    xmin, ymin, xmax, ymax = map(float, bounds)

    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    X, Y = np.meshgrid(xs, ys)  # row-major by (y, x)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # Cell corners: ll, lr, ul, ur; diagonal ll-ur.
    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    ll = (j * (nx + 1) + i).ravel()
    lr = ll + 1
    ul = ll + (nx + 1)
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper
    return TriMesh(nodes=nodes, triangles=triangles, h=h, bounds=(xmin, ymin, xmax, ymax))


def all_triangle_geometry(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Areas and P1 nodal basis gradients of every triangle, cached on the
    mesh and read-only.

    Returns:
        areas: (n_triangles,) array.
        grads: (n_triangles, 3, 2) array; grads[t, i] is the constant
            gradient of the basis function attached to vertex i of
            triangle t.  The three gradients of a triangle sum to zero.

    Raises:
        DegenerateTriangle: some triangle's signed area is not positive
            (clockwise, collinear or non-finite vertices).
    """
    return mesh.geometry


def _triangle_geometry(nodes: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    (x0, x1, x2), (y0, y1, y2) = nodes[:, 0][triangles.T], nodes[:, 1][triangles.T]
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    bad = np.flatnonzero(~(det > 0))
    if len(bad):
        t = int(bad[0])
        raise DegenerateTriangle(
            f"triangle {t} (nodes {triangles[t].tolist()}) has signed area {0.5 * det[t]!r}; "
            "every triangle must be counterclockwise with positive area"
        )
    areas = 0.5 * det
    # Stored as [component, vertex, triangle], so each component of each
    # vertex is contiguous over the triangles; grads is a view of it.
    by_component = np.array([[y1 - y2, y2 - y0, y0 - y1], [x2 - x1, x0 - x2, x1 - x0]])
    by_component /= det
    grads = by_component.transpose(2, 1, 0)
    for a in (areas, grads):
        a.setflags(write=False)
    return areas, grads
