"""Uniform conforming triangulations of an axis-aligned rectangle.

Each square cell of an N x N grid is split into two triangles along the
diagonal from its lower-left to its upper-right corner.  Nodes are ordered
row-major by (y, x) so that matrix sparsity patterns are reproducible.
A mesh keeps only ``nodes`` and ``triangles`` per node and triangle, and
the operators assembled on it (``TriMesh.operators``).  It knows whether
its triangles are those of the uniform grid (``TriMesh.grid``), which
assembly and the multigrid solver ask, and whether all the grid's cells
have the same coordinate differences (``TriMesh.congruent``), which
assembly asks.  The mesh has no geometry API: assembly computes the areas
and basis gradients block by block each time it builds a matrix, or, on
congruent cells, those of the first cell only.  ``cell_row_blocks`` is
the one walk over the grid's cell rows, in mesh order, that both the grid
check and grid assembly take.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sparse import DimensionMismatch, frozen, index_array

DEFAULT_BOUNDS = (-1.25, -1.25, 1.25, 1.25)

# Corners (dx, dy) of the two triangles of a grid cell, counterclockwise
# from its lower-left corner: the cell is split along its diagonal ll-ur.
CELL_TRIANGLES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))

# Triangles per block of ``cell_row_blocks``, in whole cell rows (12 at
# h = 1/128), at about 300 bytes each in assembly, which takes blocks where
# the cells are not congruent or the tensor is not constant.  M and A on a
# jittered h = 1/128 grid took 26-27, 21-22 and 20-21 ms with 4,096, 8,192
# and 16,384 (best of 15, three rounds, 2 cores); 16,384 doubles the
# 2.3 MB of block buffers that A holds there at h = 1/64.
BLOCK_TRIANGLES = 1 << 13


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

    ``grid`` tells whether the triangles are the uniform grid's, and
    ``congruent`` whether its cells all have the same coordinate
    differences; ``operators`` caches the matrices.  The mesh keeps
    nothing else per triangle and has no geometry API: assembly computes
    each block's areas and gradients and keeps none.  ``nodes`` and ``triangles`` are
    read-only, and checked when the mesh is made (DimensionMismatch for
    another shape, ``index_array`` for the node indices); an array the
    caller passes is copied unless it is read-only already.  Meshes
    compare and hash by identity.
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
        object.__setattr__(self, "nodes", frozen(nodes, self.nodes))
        object.__setattr__(self, "triangles", frozen(triangles, self.triangles))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def grid(self) -> tuple[int, int] | None:
        """(nx, ny) if the triangles are ``grid_triangles(nx, ny)`` for the
        nx x ny cells of side h in ``bounds`` and there are (nx+1)(ny+1)
        nodes, else None.  The nodes need not lie on the grid.

        The triangles are compared by the blocks of ``cell_row_blocks``,
        with one block of the grid's triangles shifted up a block at a
        time, so no second whole array is built."""
        try:
            nx, ny = grid_cells(self.bounds, self.h)
        except NonDivisibleSpacing:
            return None
        if self.n_nodes != (nx + 1) * (ny + 1) or self.n_triangles != 2 * nx * ny:
            return None
        blocks = cell_row_blocks(nx, ny)
        block = grid_triangles(nx, blocks[0][1])  # no later block is longer
        for r0, r1 in blocks:
            given = self.triangles[2 * nx * r0 : 2 * nx * r1]
            if not np.array_equal(given, block[: len(given)]):
                return None
            block += (r1 - r0) * (nx + 1)
        return nx, ny

    @cached_property
    def congruent(self) -> bool:
        """True if the mesh is the grid and every cell's node-coordinate
        differences are the first cell's, bit for bit, so every cell has the
        first cell's element matrices: the x spacings along the first node
        row are one float, as int64 bits, and so are the y spacings up the
        first node column (O(nx + ny), which rules out non-dyadic spacings
        at once); then every node has its column's x and its row's y (O(n)).
        A difference b - a is then one value per cell, as a - b = -(b - a)
        exactly."""
        if self.grid is None:
            return False
        nx, ny = self.grid
        for spacing in (np.diff(self.nodes[: nx + 1, 0]), np.diff(self.nodes[:: nx + 1, 1])):
            bits = spacing.view(np.int64)
            if np.any(bits != bits[0]):
                return False
        bits = self.nodes.view(np.int64).reshape(ny + 1, nx + 1, 2)
        return bool(np.all(bits[..., 0] == bits[:1, :, 0]) and np.all(bits[..., 1] == bits[:, :1, 1]))

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

    nodes, triangles = nodes.reshape(-1, 2), grid_triangles(nx, ny)
    for a in (nodes, triangles):
        a.setflags(write=False)  # so that TriMesh need not copy them
    return TriMesh(nodes=nodes, triangles=triangles, h=h, bounds=(xmin, ymin, xmax, ymax))


def cell_row_blocks(nx: int, ny: int) -> list[tuple[int, int]]:
    """(r0, r1) for each block of whole cell rows r0 to r1 of the nx x ny grid,
    in mesh order: triangles 2 r0 nx to 2 r1 nx, about BLOCK_TRIANGLES (at
    least one row); no later block is longer than the first."""
    rows = max(1, BLOCK_TRIANGLES // (2 * nx))
    return [(r0, min(ny, r0 + rows)) for r0 in range(0, ny, rows)]


def grid_triangles(nx: int, ny: int) -> np.ndarray:
    """Triangles of the grid of nx x ny cells with row-major nodes: cell
    (cx, cy) holds triangles 2 (cy nx + cx) + t, t = 0, 1, on the corners
    CELL_TRIANGLES[t] of the cell."""
    ll = np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)  # lower-left nodes
    corners = [[dx + dy * (nx + 1) for dx, dy in t] for t in CELL_TRIANGLES]
    triangles = np.empty((ny, nx, 2, 3), dtype=np.int64)
    np.add(ll[..., None, None], corners, out=triangles)
    return triangles.reshape(-1, 3)
