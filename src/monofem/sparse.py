"""Minimal sparse matrices, conjugate gradients and a multigrid cycle.

Just enough linear algebra for the implicit diffusion step.  Matrices are
stored by diagonals (DIA): the P1 operators on the uniform mesh have seven
diagonals, so a product is seven shifted-slice multiply-adds.  A
``TripletLayout`` maps each (row, col) of a fixed COO pattern to its slot
in DIA storage once; every matrix on that pattern is then one keyed sum
of its values.  CG solves symmetric positive definite systems, optionally
preconditioned; ``VCycle`` is the preconditioner for P1 operators on
nested uniform grids (prolongation, restriction and Galerkin coarse
operators act on the node grid of ``mesh.py``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DEFAULT_CG_TOL = 1e-10


class IndexOutOfRange(IndexError):
    pass


class DimensionMismatch(ValueError):
    pass


class NoConvergence(RuntimeError):
    """CG failed to meet the residual tolerance within max_iter, or broke down."""

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class DiaMatrix:
    """Sparse matrix stored by diagonals.

    Row ``j`` of ``data`` holds diagonal ``offsets[j]`` (column - row),
    indexed by row and zero-padded where it leaves the matrix; entries that
    are not stored are 0.  ``nnz`` counts the distinct stored (row, col)
    pairs.  Storage is distinct diagonals x nrows floats: 7 n for every
    matrix monofem assembles, but (nrows + ncols - 1) x nrows for a dense one.
    """

    nrows: int
    ncols: int
    offsets: np.ndarray  # (n_diagonals,) int64, strictly ascending
    data: np.ndarray  # (n_diagonals, nrows) float64
    nnz: int
    # (offset, lo, hi, d) per diagonal: row i in [lo, hi) holds d[i - lo]
    # in column i + offset.
    diagonals: tuple = field(init=False, repr=False, compare=False)

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
        for a in (offsets, data):
            a.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "data", data)
        n = self.nrows
        diagonals = []
        for d, offset in zip(data, offsets.tolist()):
            lo, hi = max(0, -offset), min(n, self.ncols - offset)
            diagonals.append((offset, lo, hi, d[lo:hi]))
        object.__setattr__(self, "diagonals", tuple(diagonals))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        for offset, lo, hi, d in self.diagonals:
            rows = np.arange(lo, hi)
            out[rows, rows + offset] = d
        return out


class TripletLayout:
    """Where each triplet of a fixed COO pattern lands in DIA storage.

    The triplets sit at (rows, cols) of an nrows x ncols matrix, integer
    arrays that broadcast to one shape, in C order of that shape.
    ``key[p]`` is slot * nrows + row of triplet p, slot being the index in
    ``offsets`` (read-only) of its diagonal, column - row: the position of
    its entry in the flattened ``DiaMatrix.data``.  ``key`` is left
    writeable, because np.bincount copies a read-only input; nothing writes
    to it.  ``nnz`` counts the distinct (row, col) pairs.

    Raises:
        IndexOutOfRange: some row or column lies outside the matrix.
    """

    def __init__(self, nrows, ncols, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        diagonal = cols - rows  # a fresh array of the broadcast shape, reused as the key
        if diagonal.size and (
            rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols
        ):
            raise IndexOutOfRange(f"triplet index outside {nrows} x {ncols}")
        diagonal += nrows - 1  # offset + nrows - 1 >= 0
        present = np.flatnonzero(np.bincount(diagonal.ravel(), minlength=nrows + ncols - 1))
        slot = np.zeros(nrows + ncols - 1, dtype=np.int64)
        slot[present] = np.arange(len(present))
        # Every index is in range, so mode="clip" changes nothing; unlike the
        # default mode it writes straight into ``out`` without a buffer.
        key = np.take(slot, diagonal, out=diagonal, mode="clip")
        key *= nrows
        key += rows
        self.nrows, self.ncols = nrows, ncols
        self.offsets = present - (nrows - 1)
        self.offsets.setflags(write=False)
        self.key = key.ravel()
        self.nnz = int(np.count_nonzero(np.bincount(self.key, minlength=len(present) * nrows)))

    def assemble(self, vals) -> DiaMatrix:
        """The DiaMatrix with triplet values ``vals`` (n_triplets, any shape,
        C order), duplicates added in triplet order, starting from 0.0."""
        vals = np.asarray(vals, dtype=float).ravel()
        if vals.shape != self.key.shape:
            raise DimensionMismatch(f"{vals.size} values for {self.key.size} triplets")
        shape = (len(self.offsets), self.nrows)
        data = np.bincount(self.key, weights=vals, minlength=shape[0] * shape[1])
        return DiaMatrix(self.nrows, self.ncols, self.offsets, data.reshape(shape), self.nnz)


def from_triplets(nrows, ncols, rows, cols, vals) -> DiaMatrix:
    """Build a DiaMatrix from parallel COO arrays, summing duplicate (row, col) pairs.

    The layout of (rows, cols) is built, then ``TripletLayout.assemble``
    adds duplicates in input order, starting from 0.0.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if not (len(rows) == len(cols) == len(vals)):
        raise DimensionMismatch("triplet arrays must have equal length")
    return TripletLayout(nrows, ncols, rows, cols).assemble(vals)


def spmv(A: DiaMatrix, x: np.ndarray) -> np.ndarray:
    """y = A @ x.

    Diagonals are added in ascending offset order, i.e. each row's products
    in ascending column order starting from 0.0.  A zero-padded entry adds
    0 * x = +-0, which leaves every sum unchanged for finite x, so the
    result is bit-identical to summing only the stored entries of each row.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (A.ncols,):
        raise DimensionMismatch(f"expected vector of length {A.ncols}, got shape {x.shape}")
    y = np.zeros(A.nrows)
    for offset, lo, hi, d in A.diagonals:
        y[lo:hi] += d * x[lo + offset : hi + offset]
    return y


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
    rel_tol: float = DEFAULT_CG_TOL,
    max_iter: int | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, int]:
    """Solve A x = b for SPD A by conjugate gradients.

    Stops when the true residual satisfies ||b - A x|| <= rel_tol * ||b||.
    ``precondition`` maps a residual r to z = B r for a symmetric positive
    definite B ~ A^-1, such as a ``VCycle``; without it, CG is plain and
    z is r itself.  Either way the stopping test and the residual reported
    on failure are ||r||, not the recurrence scalar r.z.

    CG runs on b 2^-e and x0 2^-e, e the binary exponent of max |b|, and
    scales x and reported norms back: no norm or p.Ap under- or overflows,
    and the iterates are exactly the unscaled ones wherever those are normal.

    Returns:
        (x, iterations)

    Raises:
        ValueError: rel_tol is not finite and positive.
        NoConvergence: tolerance not met within max_iter iterations, b not
            finite, or breakdown (p.Ap not finite and positive, so A is not
            SPD); ``iterations`` is then the iteration that broke down.
    """
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
    r = b - spmv(A, x)
    rr = r @ r
    tol = rel_tol * np.linalg.norm(b)
    if np.sqrt(rr) <= tol:
        return np.ldexp(x, e), 0
    z, rz = _preconditioned(precondition, r, rr)
    p = z.copy()
    for it in range(1, max_iter + 1):
        Ap = spmv(A, p)
        pAp = p @ Ap
        if not 0 < pAp < math.inf:
            raise NoConvergence(f"CG breakdown in iteration {it}: p.Ap = {pAp}",
                                residual=float(np.ldexp(np.sqrt(rr), e)), iterations=it)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rr = r @ r
        if np.sqrt(rr) <= tol:
            # Recurrence residual can drift; confirm with the true residual.
            r = b - spmv(A, x)
            rr = r @ r
            if np.sqrt(rr) <= tol:
                return np.ldexp(x, e), it
            z, rz = _preconditioned(precondition, r, rr)
            p = z.copy()
            continue
        z, rz_new = _preconditioned(precondition, r, rr)
        p = z + (rz_new / rz) * p
        rz = rz_new
    residual, target = np.ldexp([np.sqrt(rr), tol], e)
    raise NoConvergence(
        f"CG did not converge in {max_iter} iterations (residual {residual:.3e}, "
        f"target {target:.3e})",
        residual=float(residual),
        iterations=max_iter,
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
_NEIGHBOURS = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))


def grid_offsets(nx: int) -> list[int]:
    """DIA offsets of a P1 operator on the uniform grid of ``mesh.py`` with
    nx cells per row (row-major nodes, lower-left to upper-right diagonals)."""
    return [dx + dy * (nx + 1) for dx, dy in _NEIGHBOURS]


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
    data = np.empty((len(_NEIGHBOURS), n))
    for d, (dx, dy) in zip(data, _NEIGHBOURS):
        d[:] = probes[colours[1 + dy : ny + 2 + dy, 1 + dx : nx + 2 + dx].ravel(), rows]
    nnz = n + 2 * (nx * (ny + 1) + (nx + 1) * ny + nx * ny)
    return DiaMatrix(n, n, np.array(grid_offsets(nx)), data, nnz)


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
