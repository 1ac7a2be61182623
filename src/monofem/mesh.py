"""Uniform conforming triangulations of an axis-aligned rectangle.

Each square cell of an N x N grid is split into two triangles along the
diagonal from its lower-left to its upper-right corner.  Nodes are ordered
row-major by (y, x) so that matrix sparsity patterns are reproducible.
A mesh builds the layout of its P1 element matrices once, on first use,
and every operator assembled on it shares it; the operators themselves are
kept on the mesh too (``TriMesh.operators``).  Besides ``nodes`` and
``triangles``, that layout is all a mesh keeps per triangle: one byte per
element-matrix entry.  Assembly computes the triangle geometry block by
block each time it builds a matrix.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sparse import TripletLayout

DEFAULT_BOUNDS = (-1.25, -1.25, 1.25, 1.25)


class NonDivisibleSpacing(ValueError):
    """Rectangle side length is not an integer multiple of the grid spacing."""


class DegenerateTriangle(ValueError):
    """A triangle is clockwise or has zero area (signed area <= 0)."""


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Triangulation of a rectangle.

    Attributes:
        nodes: (n_nodes, 2) array of vertex coordinates.
        triangles: (n_triangles, 3) array of node indices, counterclockwise.
        h: grid spacing of the underlying square cells.
        bounds: (xmin, ymin, xmax, ymax).

    ``p1_layout`` (where each element-matrix entry goes in DIA storage) is
    built on first use and kept for as long as the mesh lives: one byte per
    entry, 9 per triangle, and the offsets of the diagonals.  ``operators``
    caches the matrices (see there).  The geometry, ``geometry`` for the
    whole mesh and ``block_geometry`` or ``block_areas`` for a block of
    triangles, is computed on each call and kept nowhere.  ``nodes`` and
    ``triangles`` are read-only.  Meshes compare and hash by identity.
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

    @property
    def geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """Areas and P1 nodal basis gradients of every triangle, read-only,
        computed anew on each read; assembly uses ``block_geometry`` and
        ``block_areas``.

        Returns:
            areas: (n_triangles,) array.
            grads: (n_triangles, 3, 2) array; grads[t, i] is the constant
                gradient of the basis function attached to vertex i of
                triangle t.  The three gradients of a triangle sum to zero.

        Raises:
            DegenerateTriangle: as ``block_geometry``.
        """
        areas, g = self.block_geometry(slice(0, self.n_triangles))
        grads = g.transpose(2, 1, 0)
        for a in (areas, grads):
            a.setflags(write=False)
        return areas, grads

    def block_geometry(self, s: slice) -> tuple[np.ndarray, np.ndarray]:
        """Areas (m,) and basis gradients g (2, 3, m) of the m triangles
        ``triangles[s]``, s a slice with a start and step 1: g[a, i, t] is
        component a of the gradient of the basis function at vertex i of
        triangle s.start + t, so each component of each vertex is
        contiguous over the triangles.  Each triangle's values do not
        depend on s.

        Raises:
            DegenerateTriangle: some triangle's signed area is not positive
                (clockwise, collinear or non-finite vertices); the message
                names the first such triangle by its index in the mesh.
        """
        x, y, det = self._corners_and_det(s)
        g = np.empty((2, *x.shape))
        for i, ahead, behind in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.subtract(y[ahead], y[behind], out=g[0, i])  # y1 - y2, y2 - y0, y0 - y1
            np.subtract(x[behind], x[ahead], out=g[1, i])  # x2 - x1, x0 - x2, x1 - x0
        g /= det
        return 0.5 * det, g

    def block_areas(self, s: slice) -> np.ndarray:
        """The areas of ``block_geometry(s)``, without the gradients."""
        return 0.5 * self._corners_and_det(s)[2]

    def _corners_and_det(self, s):
        """x and y (3, m) of the vertices of ``triangles[s]`` and twice
        their signed areas; DegenerateTriangle unless all are positive."""
        triangles = self.triangles[s].T
        x, y = self.nodes[:, 0][triangles], self.nodes[:, 1][triangles]
        det = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
        bad = np.flatnonzero(~(det > 0))
        if len(bad):
            t = s.start + int(bad[0])
            raise DegenerateTriangle(
                f"triangle {t} (nodes {self.triangles[t].tolist()}) has signed area "
                f"{0.5 * det[bad[0]]!r}; every triangle must be counterclockwise with positive area"
            )
        return x, y, det

    @cached_property
    def p1_layout(self) -> TripletLayout:
        """DIA layout of the P1 element triplets: entry (i, j) of the 3 x 3
        element matrix of triangle t is triplet 9 t + 3 i + j, at row
        ``triangles[t, i]`` and column ``triangles[t, j]``."""
        return TripletLayout(self.n_nodes, self.n_nodes, self.triangles, self.triangles)

    @cached_property
    def operators(self) -> weakref.WeakKeyDictionary:
        """Mass and stiffness matrices on this mesh: ``DiffusionTensor`` -> (M, A).
        ``MonodomainSolver`` assembles a pair on first use and reuses it, so
        solvers for several k on one mesh share it and each builds only
        S = M + k A and its V-cycle.  Tensors are keyed by identity (a tensor
        cannot change) and held weakly: (M, A) goes with its tensor or the
        mesh.  Two tensors on one mesh each assemble their own M."""
        return weakref.WeakKeyDictionary()


def whole_count(length: float, step: float) -> int:
    """length / step if it is within 1e-9 of a positive whole number, else 0
    (also when the ratio is not finite)."""
    ratio = length / step
    n = int(round(ratio)) if abs(ratio) < math.inf else 0
    return n if n >= 1 and abs(ratio - n) <= 1e-9 else 0


def grid_cells(bounds, h: float) -> tuple[int, int]:
    """Cells of side ``h`` along x and y of ``bounds``; NonDivisibleSpacing
    unless h is finite, positive and divides both sides (``whole_count``)."""
    xmin, ymin, xmax, ymax = map(float, bounds)
    if not 0 < h < math.inf:
        raise NonDivisibleSpacing(f"grid spacing must be finite and positive, got {h}")
    nx, ny = whole_count(xmax - xmin, h), whole_count(ymax - ymin, h)
    if not (nx and ny):
        raise NonDivisibleSpacing(
            f"side lengths {xmax - xmin} x {ymax - ymin} are not positive integer multiples of h={h}"
        )
    return nx, ny


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
