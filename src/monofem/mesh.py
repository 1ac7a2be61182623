"""Uniform conforming triangulations of an axis-aligned rectangle.

Each square cell of an N x N grid is split into two triangles along the
diagonal from its lower-left to its upper-right corner.  Nodes are ordered
row-major by (y, x) so that matrix sparsity patterns are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_BOUNDS = (-1.25, -1.25, 1.25, 1.25)


class NonDivisibleSpacing(ValueError):
    """Rectangle side length is not an integer multiple of the grid spacing."""


@dataclass(frozen=True)
class TriMesh:
    """Triangulation of a rectangle.

    Attributes:
        nodes: (n_nodes, 2) array of vertex coordinates.
        triangles: (n_triangles, 3) array of node indices, counterclockwise.
        h: grid spacing of the underlying square cells.
        bounds: (xmin, ymin, xmax, ymax).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    h: float
    bounds: tuple[float, float, float, float]
    _centroids: np.ndarray = field(init=False, repr=False, compare=False, default=None)

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

    @property
    def centroids(self) -> np.ndarray:
        """(n_triangles, 2) array of triangle centroids."""
        if self._centroids is None:
            c = self.nodes[self.triangles].mean(axis=1)
            c.setflags(write=False)
            object.__setattr__(self, "_centroids", c)
        return self._centroids


def build_uniform_mesh(bounds=DEFAULT_BOUNDS, h: float = 1 / 8) -> TriMesh:
    """Triangulate the rectangle ``bounds`` with square cells of side ``h``.

    Raises:
        NonDivisibleSpacing: if either side length is not an integer
            multiple of ``h`` (to relative 1e-9).
    """
    xmin, ymin, xmax, ymax = map(float, bounds)
    if h <= 0:
        raise NonDivisibleSpacing(f"grid spacing must be positive, got {h}")
    nx = (xmax - xmin) / h
    ny = (ymax - ymin) / h
    if abs(nx - round(nx)) > 1e-9 or abs(ny - round(ny)) > 1e-9:
        raise NonDivisibleSpacing(
            f"side lengths {xmax - xmin} x {ymax - ymin} are not integer multiples of h={h}"
        )
    nx, ny = int(round(nx)), int(round(ny))

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
    """Areas and P1 nodal basis gradients of every triangle.

    Returns:
        areas: (n_triangles,) array.
        grads: (n_triangles, 3, 2) array; grads[t, i] is the constant
            gradient of the basis function attached to vertex i of
            triangle t.  The three gradients of a triangle sum to zero.
    """
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    p0, p1, p2 = p[:, 0], p[:, 1], p[:, 2]
    det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (
        p1[:, 1] - p0[:, 1]
    )
    areas = 0.5 * det
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    grads = np.stack([b, c], axis=2) / det[:, None, None]
    return areas, grads

