"""Minimal sparse matrices, conjugate gradients and a multigrid cycle.

Just enough linear algebra for the implicit diffusion step.  Matrices are
stored by diagonals (DIA): the P1 operators on the uniform mesh have seven
diagonals, and ``grid_matrix`` makes a matrix from them.  A product
(``DiaMatrix.plan``) walks the rows that every diagonal reaches in
cache-sized blocks, adds each diagonal's coefficient times a shifted slice
of x into the block through one reused buffer, and recomputes the other
rows from their stored entries; CG updates its vectors in place.  A grid
operator whose every diagonal holds one value over the interior nodes
(with dyadic h, M, S and the Galerkin operators do) is multiplied by those
seven scalars instead of its stored diagonals, and its boundary rows are
the ones recomputed; the result is the same to the bit.
``from_triplets`` sums COO arrays into DIA storage whole, and refuses a
matrix whose storage would far exceed its entries.  CG solves
symmetric positive definite systems, optionally preconditioned;
``VCycle`` is the preconditioner for P1 operators on nested uniform grids
(prolongation, restriction and Galerkin coarse operators act on the node
grid of ``mesh.py``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

DEFAULT_CG_TOL = 1e-10

# Rows per block of ``spmv``.  A block of y and the product buffer take
# 2 x 256 kB, so they stay in a 1-2 MB L2 cache while every diagonal is
# added into the block; a whole-length pass per diagonal would stream y
# through memory seven times once n exceeds L2.
SPMV_BLOCK = 1 << 15

# DIA floats per stored entry (plus a slack) that ``from_triplets`` allows:
# the grid stores about 1, a dense matrix 2, a randomly relabelled mesh 400.
STORAGE_PER_ENTRY = 4
STORAGE_SLACK = 1024


class IndexOutOfRange(IndexError):
    pass


class DimensionMismatch(ValueError):
    pass


class NotBanded(ValueError):
    """DIA storage would far exceed the entries: the node numbering is not banded."""


class NoConvergence(RuntimeError):
    """CG failed to meet the residual tolerance within max_iter, or broke down."""

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def index_array(a, name, n) -> np.ndarray:
    """``a`` as int64 indices in [0, n): DimensionMismatch unless it is empty or of
    an integer type (a cast truncates floats), IndexOutOfRange if one lies outside."""
    a = np.asarray(a)
    if a.size and not np.issubdtype(a.dtype, np.integer):
        raise DimensionMismatch(f"{name} must be an integer array, got dtype {a.dtype}")
    a = a.astype(np.int64, copy=False)
    if a.size and (a.min() < 0 or a.max() >= n):
        raise IndexOutOfRange(f"{name} holds an index outside [0, {n})")
    return a


def frozen(a: np.ndarray, given) -> np.ndarray:
    """``a`` made read-only, first copied if it is writeable and may share
    memory with ``given``, the array a caller passed and still holds."""
    if a.flags.writeable and isinstance(given, np.ndarray) and np.may_share_memory(a, given):
        a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DiaMatrix:
    """Sparse matrix stored by diagonals.

    Row ``j`` of ``data`` holds diagonal ``offsets[j]`` (column - row),
    indexed by row and zero-padded where it leaves the matrix; entries that
    are not stored are 0.  ``nnz`` counts the distinct stored (row, col)
    pairs.  Storage is distinct diagonals x nrows floats: 7 n for every
    matrix monofem assembles, but (nrows + ncols - 1) x nrows for a dense one.
    ``data`` is copied unless it is read-only already (``frozen``).
    ``plan``, worked out on the first product, is what ``spmv`` walks.
    Matrices compare and hash by identity.
    """

    nrows: int
    ncols: int
    offsets: np.ndarray  # (n_diagonals,) int64, strictly ascending
    data: np.ndarray  # (n_diagonals, nrows) float64
    nnz: int

    def __post_init__(self):
        offsets = np.asarray(self.offsets)
        if offsets.ndim != 1 or offsets.size and not np.issubdtype(offsets.dtype, np.integer):
            raise DimensionMismatch(f"offsets must be a 1-d integer array, got {offsets!r}")
        offsets = offsets.astype(np.int64)
        if np.any(np.diff(offsets) <= 0):
            raise DimensionMismatch(f"offsets {offsets.tolist()} are not strictly ascending")
        if np.any((offsets <= -self.nrows) | (offsets >= self.ncols)):
            raise DimensionMismatch(f"offsets {offsets.tolist()} leave a "
                                    f"{self.nrows} x {self.ncols} matrix")
        data = np.asarray(self.data, dtype=float)
        if data.shape != (len(offsets), self.nrows):
            raise DimensionMismatch(f"data shape {data.shape} does not fit "
                                    f"{len(offsets)} diagonals of {self.nrows} rows")
        offsets.setflags(write=False)
        data = frozen(data, self.data)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "data", data)

    @cached_property
    def plan(self) -> tuple:
        """``(blocks, edge, slot, cols, values)``, what ``spmv`` walks,
        worked out on the first product.

        ``blocks`` tiles the rows that every diagonal reaches (all rows if
        there is no diagonal) in blocks of SPMV_BLOCK rows: one
        ``(rows, terms)`` each, and one ``(c, xs)`` per diagonal in
        ``terms``, in ascending offset order, its coefficient ``c`` times
        the slice ``xs`` of x.
        ``edge`` lists the rows to be recomputed from their stored entries:
        entry e of ``values`` is the stored coefficient of row
        ``edge[slot[e]]`` in column ``cols[e]``, for every diagonal that
        reaches the row, ordered by diagonal and then by edge row.

        On a grid operator, ``c`` is the diagonal's one value over the
        interior nodes, a 0-d array, and ``edge`` is the boundary ring.  A
        grid operator is square, has the offsets (-m-1, -m, -1, 0, 1, m,
        m+1) of a node grid of n / m rows of m >= 3 nodes, at least three
        rows, and each diagonal holds one value over the interior nodes
        (compared bit for bit, as int64).  On any other matrix, ``c`` is the
        block's stretch of the diagonal, a read-only view of ``data``, and
        ``edge`` is every row outside the blocks.
        """
        n, offsets = self.nrows, self.offsets.tolist()
        lo = max([0] + [-o for o in offsets])
        hi = max(lo, min([n] + [self.ncols - o for o in offsets]))
        edge = np.r_[:lo, hi:n]
        coefficients = None
        m = offsets[-2] if len(offsets) == 7 else 0
        if (self.ncols == n and m >= 3 and n % m == 0 and n >= 3 * m
                and offsets == [-m - 1, -m, -1, 0, 1, m, m + 1]):
            grid = self.data.reshape(7, n // m, m)
            interior = grid[:, 1:-1, 1:-1].view(np.int64)
            if (interior == interior[:, :1, :1]).all():
                # 0-d arrays: numpy multiplies by them faster than by scalars.
                first = grid[:, 1, 1].copy()
                coefficients = [first[j, ...] for j in range(7)]
                boundary = np.ones((n // m, m), dtype=bool)
                boundary[1:-1, 1:-1] = False
                edge = np.flatnonzero(boundary)  # a superset of the rows outside [lo, hi)
        blocks = []
        for a in range(lo, hi, SPMV_BLOCK):
            b = min(hi, a + SPMV_BLOCK)
            stretches = coefficients or [d[a:b] for d in self.data]
            blocks.append((slice(a, b), tuple((c, slice(a + o, b + o))
                                              for c, o in zip(stretches, offsets))))
        cols = edge + self.offsets[:, None]
        diagonal, slot = np.nonzero((cols >= 0) & (cols < self.ncols))
        return tuple(blocks), edge, slot, cols[diagonal, slot], self.data[diagonal, edge[slot]]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        for offset, d in zip(self.offsets.tolist(), self.data):
            rows = np.arange(max(0, -offset), min(self.nrows, self.ncols - offset))
            out[rows, rows + offset] = d[rows]
        return out


def from_triplets(nrows, ncols, rows, cols, vals) -> DiaMatrix:
    """Build a DiaMatrix from parallel COO arrays, summing duplicate (row, col) pairs.

    np.add.at adds each triplet at slot * nrows + row, slot its diagonal's
    index, in input order from 0.0; ``index_array`` checks rows and cols.

    NotBanded, before allocating, if diagonals x nrows floats would exceed
    STORAGE_PER_ENTRY per stored entry plus STORAGE_SLACK.
    """
    rows = index_array(rows, "rows", nrows).ravel()
    cols = index_array(cols, "cols", ncols).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if not (len(rows) == len(cols) == len(vals)):
        raise DimensionMismatch("triplet arrays must have equal length")
    offsets, slot = np.unique(cols - rows, return_inverse=True)
    nnz = len(np.unique(rows * ncols + cols))
    if len(offsets) * nrows > STORAGE_PER_ENTRY * nnz + STORAGE_SLACK:
        raise NotBanded(f"{len(offsets)} diagonals of {nrows} rows would store "
                        f"{len(offsets) * nrows} floats for {nnz} entries: the node "
                        "numbering is not banded")
    data = np.zeros((len(offsets), nrows))
    np.add.at(data.reshape(-1), slot * nrows + rows, vals)
    data.setflags(write=False)
    return DiaMatrix(nrows, ncols, offsets, data, nnz)


def spmv(A: DiaMatrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """y = A @ x, written into ``out`` if given, and returned.

    Each block of ``A.plan`` is zeroed, then gets its coefficients times
    shifted slices of x added in ascending offset order; the edge rows
    are then overwritten with their stored entries times x, each row's
    products summed by ``np.bincount`` in ascending column order from
    0.0.  So every row sums its products in ascending column order from
    0.0, whatever the block size, and reads no padding.  A slot inside the
    matrix that holds no entry adds 0 * x = +-0, which leaves every sum
    unchanged for finite x, so the result is bit-identical to summing only
    the stored entries of each row.  A grid operator's interior
    coefficients equal its stored values bit for bit, so multiplying by
    them changes no bit either.

    ``out`` must be a float64 array of shape (nrows,) that shares no
    memory with ``x``; DimensionMismatch otherwise.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (A.ncols,):
        raise DimensionMismatch(f"expected vector of length {A.ncols}, got shape {x.shape}")
    if out is None:
        out = np.empty(A.nrows)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (A.nrows,)) or np.shares_memory(out, x):
        raise DimensionMismatch(f"out must be a float64 array of shape ({A.nrows},) "
                                "that shares no memory with x")
    blocks, edge, slot, cols, values = A.plan
    t = _product_buffer(blocks[0][0].stop - blocks[0][0].start if blocks else 0)
    for rows, terms in blocks:
        y = out[rows]
        tt = t[: len(y)]
        y.fill(0.0)
        for c, xs in terms:
            np.multiply(c, x[xs], tt)
            np.add(y, tt, y)
    out[edge] = np.bincount(slot, weights=values * x[cols], minlength=len(edge))
    _BUFFERS.append(t)
    return out


# Product buffers that ``spmv`` takes and puts back, each on a 64-byte
# boundary: malloc aligns to 16 bytes only, numpy's multiply and add run up
# to 1.5x slower into and out of a misaligned buffer, and finding the
# alignment costs about 2 us, as much as a tenth of a product at n = 441.
# One list for the process rather than one buffer per matrix: it holds a
# buffer per product running at once (SPMV_BLOCK floats at most), where
# per-matrix buffers raised sweep_dt's peak RSS by 0.35 MB more.  No result
# depends on which buffer a product gets.  list.pop and list.append are
# atomic, so each thread takes its own.
_BUFFERS: list[np.ndarray] = []


def _product_buffer(size: int) -> np.ndarray:
    """A kept buffer of at least ``size`` floats, else a new one."""
    try:
        t = _BUFFERS.pop()
        if len(t) >= size:
            return t
    except IndexError:  # none kept, or each taken by another thread
        pass
    t = np.empty(size + 7)
    return t[(-t.ctypes.data % 64) // 8:][:size]


def _preconditioned(precondition, r, rr):
    """(z, r.z) for z = B r; plain CG reuses r and r.r."""
    if precondition is None:
        return r, rr
    z = precondition(r)
    return z, r @ z


def cg_solve(
    A: DiaMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    rel_tol: float | None = None,
    max_iter: int | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, int]:
    """Solve A x = b for SPD A by conjugate gradients.

    Stops when the true residual satisfies ||b - A x|| <= rel_tol * ||b||;
    rel_tol None means ``DEFAULT_CG_TOL`` as it is when the call starts.
    ``precondition`` maps a residual r to z = B r for a symmetric positive
    definite B ~ A^-1, such as a ``VCycle``; without it, CG is plain and
    z is r itself.  Either way the stopping test and the residual reported
    on failure are ||r||, not the recurrence scalar r.z.

    CG runs on b 2^-e and x0 2^-e, e the binary exponent of max |b|, and
    scales x and reported norms back: no norm or p.Ap under- or overflows,
    and the iterates are exactly the unscaled ones wherever those are normal.
    These scaled copies are the only vectors updated in place; b and x0
    are never written, and the returned x is a new array.

    Returns:
        (x, iterations)

    Raises:
        ValueError: rel_tol is not finite and positive.
        NoConvergence: tolerance not met within max_iter iterations, a
            stall (a true-residual check that failed without halving the
            true residual of the check before, or of x0), b not finite, or
            breakdown (p.Ap not finite and positive, so A is not SPD);
            ``iterations`` is then the iteration that stalled or broke down.
    """
    rel_tol = DEFAULT_CG_TOL if rel_tol is None else rel_tol
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"CG tolerance must be finite and positive, got {rel_tol!r}")
    b = np.asarray(b, dtype=float)
    if A.nrows != A.ncols or b.shape != (A.nrows,):
        raise DimensionMismatch("cg_solve needs a square matrix and matching rhs")
    if max_iter is None:
        max_iter = 10 * A.nrows
    bmax = np.abs(b).max()
    if not np.isfinite(bmax):
        raise NoConvergence(f"right-hand side max |b| is {bmax}", residual=float(bmax), iterations=0)
    if bmax == 0.0:
        return np.zeros_like(b), 0
    e = int(np.frexp(bmax)[1])
    b = np.ldexp(b, -e)
    x = np.zeros_like(b) if x0 is None else np.ldexp(np.asarray(x0, dtype=float), -e)
    r = spmv(A, x)
    np.subtract(b, r, r)
    rr = checked = r @ r
    tol = rel_tol * np.linalg.norm(b)
    if np.sqrt(rr) <= tol:
        return np.ldexp(x, e, out=x), 0
    z, rz = _preconditioned(precondition, r, rr)
    p = z.copy()
    # Every iterate is updated in place through Ap and one scratch vector.
    Ap, tmp = np.empty_like(b), np.empty_like(b)
    for it in range(1, max_iter + 1):
        spmv(A, p, out=Ap)
        pAp = p @ Ap
        if not 0 < pAp < math.inf:
            raise NoConvergence(f"CG breakdown in iteration {it}: p.Ap = {pAp}",
                                residual=float(np.ldexp(np.sqrt(rr), e)), iterations=it)
        alpha = rz / pAp
        np.multiply(p, alpha, tmp)
        x += tmp
        np.multiply(Ap, alpha, tmp)
        r -= tmp
        rr = r @ r
        if np.sqrt(rr) <= tol:
            # Recurrence residual can drift; confirm with the true residual.
            spmv(A, x, out=r)
            np.subtract(b, r, r)
            rr = r @ r
            if np.sqrt(rr) <= tol:
                return np.ldexp(x, e, out=x), it
            # Below the attainable accuracy the recurrence residual keeps
            # falling while the true one stalls (Greenbaum, SIMAX 18, 1997):
            # restart only while each check at least halves the true residual.
            if not rr <= 0.25 * checked:
                raise _not_converged(it, rr, tol, e, "stalled at ")
            checked = rr
            z, rz = _preconditioned(precondition, r, rr)
            np.copyto(p, z)
            continue
        z, rz_new = _preconditioned(precondition, r, rr)
        # p = z + beta p, bit for bit: IEEE products and sums commute.
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise _not_converged(max_iter, rr, tol, e)


def _not_converged(it, rr, tol, e, how=""):
    """NoConvergence after ``it`` iterations, with the unscaled residual and target."""
    residual, target = np.ldexp([np.sqrt(rr), tol], e)
    return NoConvergence(
        f"CG did not converge in {it} iterations ({how}residual {residual:.3e}, "
        f"target {target:.3e})",
        residual=float(residual),
        iterations=it,
    )


# Damped-Jacobi weight of the multigrid smoother, and the Jacobi sweeps that
# stand in for a solve on the coarsest grid.  The cycle is SPD only while
# weight * lambda_max(diag^-1 S) < 2.  For M + kA with a diagonal tensor D,
# lambda_max is at most 2; off-diagonal entries of D can raise it towards 3
# (the P1 element bound).  So a level whose Gershgorin bound g of
# diag^-1 S exceeds 2.25 is smoothed with the weight MAX_DAMPED_RADIUS / g.
JACOBI_WEIGHT = 0.8
MAX_DAMPED_RADIUS = 1.8
COARSE_SWEEPS = 4


def prolong(u: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """P u: the P1 function with nodal values ``u`` on the grid of nx x ny
    cells, at the nodes of the grid refined once (2 nx x 2 ny cells).

    Exact for the lower-left to upper-right diagonal split of ``mesh.py``:
    a coarse node keeps its value, and the midpoint of a horizontal,
    vertical or diagonal coarse edge takes the mean of its two ends.
    """
    u = u.reshape(ny + 1, nx + 1)
    f = np.empty((2 * ny + 1, 2 * nx + 1))
    f[::2, ::2] = u
    for mid, a, b in ((f[::2, 1::2], u[:, :-1], u[:, 1:]),
                      (f[1::2, ::2], u[:-1], u[1:]),
                      (f[1::2, 1::2], u[:-1, :-1], u[1:, 1:])):
        np.add(a, b, out=mid)
        mid *= 0.5
    return f.ravel()


def restrict(r: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """P^T r for the ``prolong`` of the same coarse grid: each edge
    midpoint of the fine grid passes half its value to both ends."""
    r = r.reshape(2 * ny + 1, 2 * nx + 1)
    c = r[::2, ::2].copy()
    for mid, a, b in ((r[::2, 1::2], c[:, :-1], c[:, 1:]),
                      (r[1::2, ::2], c[:-1], c[1:]),
                      (r[1::2, 1::2], c[:-1, :-1], c[1:, 1:])):
        half = 0.5 * mid
        a += half
        b += half
    return c.ravel()


# (dx, dy) node steps of the seven P1 couplings on the uniform grid, in
# ascending DIA offset dx + dy (nx + 1).
GRID_NEIGHBOURS = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))


def grid_matrix(data: np.ndarray, nx: int, ny: int) -> DiaMatrix:
    """The P1 operator on the grid of nx x ny cells of ``mesh.py`` (row-major
    nodes, lower-left to upper-right diagonals) whose diagonal d, the
    coupling of each node to its neighbour GRID_NEIGHBOURS[d], is data[d].
    ``data`` (7, n) is made read-only, not copied."""
    n = (nx + 1) * (ny + 1)
    nnz = sum((nx + 1 - abs(dx)) * (ny + 1 - abs(dy)) for dx, dy in GRID_NEIGHBOURS)
    data.setflags(write=False)
    return DiaMatrix(n, n, np.array([dx + dy * (nx + 1) for dx, dy in GRID_NEIGHBOURS]),
                     data, nnz)


def galerkin(S: DiaMatrix, nx: int, ny: int) -> DiaMatrix:
    """Coarse operator P^T S P of an operator S on the grid of 2 nx x 2 ny
    cells, for the coarse grid of nx x ny cells.

    P^T S P couples only coarse neighbours, so probing it with the nine
    vectors that are 1 on one class of a 3 x 3 colouring of the coarse
    nodes finds every entry: two nodes within one step of each other never
    share a colour.  A row's probe for a colour none of its neighbours has
    is exactly zero, which is also the padding outside the matrix.
    """
    n = (nx + 1) * (ny + 1)
    # Colours of the coarse nodes and of one ring of nodes around the grid.
    colours = np.arange(-1, nx + 2) % 3 + 3 * (np.arange(-1, ny + 2) % 3)[:, None]
    colour = colours[1:-1, 1:-1].ravel()
    probes = np.empty((9, n))
    for c in range(9):
        probes[c] = restrict(spmv(S, prolong((colour == c).astype(float), nx, ny)), nx, ny)
    rows = np.arange(n)
    data = np.empty((len(GRID_NEIGHBOURS), n))
    for d, (dx, dy) in zip(data, GRID_NEIGHBOURS):
        d[:] = probes[colours[1 + dy : ny + 2 + dy, 1 + dx : nx + 2 + dx].ravel(), rows]
    return grid_matrix(data, nx, ny)


class VCycle:
    """Symmetric V(1,1) multigrid cycle, z = B r with B ~ S^-1 SPD.

    ``grids`` lists the (nx, ny) cells of the nested uniform grids, finest
    first: S lives on grids[0], and each later grid halves the one before.
    Coarse operators are the Galerkin products P^T S P.  Each level smooths
    once before and once after the coarse correction by damped Jacobi
    (weight JACOBI_WEIGHT, lowered where needed to keep B SPD); the
    coarsest level does COARSE_SWEEPS Jacobi sweeps.  Every matrix product
    goes through ``spmv``.
    """

    def __init__(self, S: DiaMatrix, grids: list[tuple[int, int]]):
        self.operators = [S]
        self.cells = grids[1:]  # coarse cells below each level but the last
        for nx, ny in self.cells:
            self.operators.append(galerkin(self.operators[-1], nx, ny))
        self._weights = []
        for op in self.operators:
            diagonal = op.data[np.searchsorted(op.offsets, 0)]
            g = (np.abs(op.data).sum(axis=0) / diagonal).max()
            self._weights.append(min(JACOBI_WEIGHT, MAX_DAMPED_RADIUS / g) / diagonal)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level, r):
        S, w = self.operators[level], self._weights[level]
        x = w * r
        if level == len(self.cells):
            for _ in range(COARSE_SWEEPS - 1):
                x += w * (r - spmv(S, x))
            return x
        nx, ny = self.cells[level]
        x += prolong(self._cycle(level + 1, restrict(r - spmv(S, x), nx, ny)), nx, ny)
        x += w * (r - spmv(S, x))
        return x
