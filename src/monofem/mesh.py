"""Uniform conforming triangulations of an axis-aligned rectangle.

Each square cell of an N x N grid is split into two triangles along the
diagonal from its lower-left to its upper-right corner.  Nodes are ordered
row-major by (y, x) so that matrix sparsity patterns are reproducible.
A mesh builds the layout of its P1 element matrices once, on first use,
and every operator assembled on it shares it; the operators themselves are
kept on the mesh too (``TriMesh.operators``).  Besides ``nodes`` and
``triangles``, that layout is all a mesh keeps per triangle: one byte per
element-matrix entry.  The mesh has no geometry API: assembly computes the
areas and basis gradients block by block each time it builds a matrix.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sparse import DimensionMismatch, TripletLayout, index_array

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
        triangles: (n_triangles, 3) integer array of node indices, counterclockwise.
        h: grid spacing of the underlying square cells.
        bounds: (xmin, ymin, xmax, ymax).

    ``p1_layout``, one byte per element-matrix entry (9 per triangle), is
    built on first use and kept as long as the mesh; ``operators`` caches
    the matrices (see there).  The mesh holds no geometry and has no method
    for it: assembly computes each block's areas and gradients and keeps
    none.  ``nodes`` and ``triangles`` are read-only, and checked when the
    mesh is made (DimensionMismatch for another shape, ``index_array`` for
    the node indices).  Meshes compare and hash by identity.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    h: float
    bounds: tuple[float, float, float, float]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.shape[1:] != (2,):
            raise DimensionMismatch(f"nodes must be (n, 2), got shape {nodes.shape}")
        triangles = index_array(self.triangles, "triangles", len(nodes))
        if triangles.shape[1:] != (3,):
            raise DimensionMismatch(f"triangles must be (m, 3), got shape {triangles.shape}")
        for name, a in (("nodes", nodes), ("triangles", triangles)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def p1_layout(self) -> TripletLayout:
        """DIA layout of the P1 element matrices: entry (i, j) of triangle t's
        is triplet 9 t + 3 i + j (see ``TripletLayout``)."""
        return TripletLayout(self.n_nodes, self.triangles)

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

    nodes = np.empty((ny + 1, nx + 1, 2))  # row-major by (y, x)
    nodes[..., 0] = np.linspace(xmin, xmax, nx + 1)
    nodes[..., 1] = np.linspace(ymin, ymax, ny + 1)[:, None]

    # Cell (j, i) has lower-left corner ll = j (nx + 1) + i and is split
    # along its diagonal ll-ur into (ll, lr, ur) and (ll, ur, ul).
    ll = np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)
    triangles = np.empty((ny, nx, 2, 3), dtype=np.int64)
    np.add(ll[..., None, None], [[0, 1, nx + 2], [0, nx + 2, nx + 1]], out=triangles)
    nodes, triangles = nodes.reshape(-1, 2), triangles.reshape(-1, 3)
    return TriMesh(nodes=nodes, triangles=triangles, h=h, bounds=(xmin, ymin, xmax, ymax))
