"""Minimal sparse matrices, conjugate gradients and a multigrid cycle.

Just enough linear algebra for the implicit diffusion step.  Matrices are
stored by diagonals (DIA): the P1 operators on the uniform mesh have seven
diagonals.  A product walks the rows in cache-sized blocks and adds each
diagonal's shifted-slice products into the block through one reused
buffer; CG updates its vectors in place.  A mesh's ``TripletLayout``
keeps the diagonal of each entry of its element matrices in one byte
(for up to 256 diagonals), and every matrix on the mesh is summed into
DIA storage block by block through it; ``from_triplets`` sums plain COO
arrays whole.  CG solves symmetric positive definite systems, optionally
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

# Rows per block of ``spmv``.  A block of y and the product buffer take
# 2 x 256 kB, so they stay in a 1-2 MB L2 cache while every diagonal is
# added into the block; a whole-length pass per diagonal would stream y
# through memory seven times once n exceeds L2.
SPMV_BLOCK = 1 << 15

# Triangles per block of ``TripletLayout`` and of assembly.  A block's DIA
# positions, element values and geometry take about 0.5 kB per triangle,
# 2 MB in all, so no array of one entry per triplet is made but the
# layout's one-byte slots.  Set-up (mesh and solver) was about fastest at
# 4,096 over h = 1/16 to 1/128: at h = 1/128, blocks of 1,024 took about
# 20 % longer (numpy's cost per call), and at h = 1/32 one block of all
# 12,800 triangles took 60 % longer (fresh pages for its larger temporaries).
LAYOUT_BLOCK = 1 << 12


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


@dataclass(frozen=True, eq=False)
class DiaMatrix:
    """Sparse matrix stored by diagonals.

    Row ``j`` of ``data`` holds diagonal ``offsets[j]`` (column - row),
    indexed by row and zero-padded where it leaves the matrix; entries that
    are not stored are 0.  ``nnz`` counts the distinct stored (row, col)
    pairs.  Storage is distinct diagonals x nrows floats: 7 n for every
    matrix monofem assembles, but (nrows + ncols - 1) x nrows for a dense one.

    ``plan`` is built once, here, and walked by ``spmv`` and ``to_dense``:
    one ``(rows, terms)`` per block of SPMV_BLOCK rows, ``rows`` the block's
    slice of rows, and one ``(ys, xs, ts, d)`` per diagonal that reaches the
    block, in ascending offset order.  Row ``rows.start + ys.start + i`` of
    that diagonal holds ``d[i]`` (a read-only view of ``data``) in column
    ``xs.start + i``; ``ts`` is ``slice(0, len(d))``, its span in a
    block-sized buffer.  Matrices compare and hash by identity.
    """

    nrows: int
    ncols: int
    offsets: np.ndarray  # (n_diagonals,) int64, strictly ascending
    data: np.ndarray  # (n_diagonals, nrows) float64
    nnz: int
    plan: tuple = field(init=False, repr=False)

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
        # Row i in [lo, hi) of a diagonal holds a column i + offset in the matrix.
        spans = [(offset, max(0, -offset), min(n, self.ncols - offset))
                 for offset in offsets.tolist()]
        plan = []
        for r0 in range(0, n, SPMV_BLOCK):
            r1 = min(n, r0 + SPMV_BLOCK)
            terms = []
            for d, (offset, lo, hi) in zip(data, spans):
                a, b = max(lo, r0), min(hi, r1)
                if a < b:
                    terms.append((slice(a - r0, b - r0), slice(a + offset, b + offset),
                                  slice(0, b - a), d[a:b]))
            plan.append((slice(r0, r1), tuple(terms)))
        object.__setattr__(self, "plan", tuple(plan))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        for rows, terms in self.plan:
            block = out[rows]
            for ys, xs, _, d in terms:
                block[np.arange(ys.start, ys.stop), np.arange(xs.start, xs.stop)] = d
        return out


class TripletLayout:
    """Where each entry of the element matrices of one mesh lands in DIA storage.

    ``elements`` (N, a) holds node indices in [0, n) (``TriMesh`` checks
    its triangles).  Triplet (p, i, j), in C order of (N, a, a), is entry
    (i, j) of element p's matrix, at row ``elements[p, i]`` and column
    ``elements[p, j]`` of an n x n matrix.

    The layout keeps ``elements``; ``offsets`` (read-only), the distinct
    diagonals, column - row; ``nnz``, the distinct (row, col) pairs; and
    ``slot`` (N, a, a), each triplet's index in ``offsets`` in the smallest
    unsigned type that holds it: one byte for up to 256 diagonals.  The
    build and ``assemble`` walk the elements in blocks of LAYOUT_BLOCK and
    rebuild each block's positions in DIA storage, slot * n + row.
    """

    def __init__(self, n, elements):
        self.n, self.elements = n, elements
        size, a = elements.shape
        # Diagonals are found as [i, j, p], so that each subtraction runs
        # along the block.
        diagonal = np.empty((a, a, min(size, LAYOUT_BLOCK)), dtype=np.int64)

        def diagonals(s):
            """column - row + n - 1 >= 0 of the triplets of block s, as [i, j, p]."""
            d = diagonal[:, :, : s.stop - s.start]
            np.subtract(elements[s].T, elements[s].T[:, None], out=d)
            d += n - 1
            return d

        blocks = _blocks(size)
        present = np.zeros(2 * n - 1, dtype=bool)
        for s in blocks:
            present[diagonals(s)] = True
        present = np.flatnonzero(present)
        self.offsets = present - (n - 1)
        self.offsets.setflags(write=False)
        slot_of = np.zeros(2 * n - 1, dtype=np.min_scalar_type(max(len(present) - 1, 0)))
        slot_of[present] = np.arange(len(present))
        self.slot = np.empty((size, a, a), dtype=slot_of.dtype)
        stored = np.zeros(len(present) * n, dtype=bool)
        key = np.empty((min(size, LAYOUT_BLOCK), a, a), dtype=np.int64)
        for s in blocks:
            # Every index is in range, so mode="clip" changes nothing; unlike
            # the default mode, it does not always buffer ``out``.
            np.take(slot_of, diagonals(s), out=self.slot[s].transpose(1, 2, 0), mode="clip")
            stored[self._keys(s, key)] = True
        self.nnz = int(np.count_nonzero(stored))

    def _keys(self, s, key):
        """Positions in the flattened ``DiaMatrix.data``, slot * n + row,
        of the triplets of block s, written into the head of ``key``."""
        k = key[: s.stop - s.start]
        np.multiply(self.slot[s], self.n, out=k, dtype=np.int64)
        k += self.elements[s][:, :, None]
        return k.reshape(-1)

    def assemble(self, fill) -> DiaMatrix:
        """The DiaMatrix whose triplets of block s hold the values that
        ``fill(s, out)`` writes into ``out``, a float array of the block's
        shape (m, a, a), for each block in order.

        Duplicates are added in triplet order, starting from 0.0, whatever
        LAYOUT_BLOCK is: np.add.at adds repeated indices one after another,
        in index order, as np.bincount does.  (np.add.at has a fast path
        from numpy 1.25 on; older versions give the same bits, slower.)
        """
        size, a, _ = self.slot.shape
        data = np.zeros(len(self.offsets) * self.n)
        key = np.empty((min(size, LAYOUT_BLOCK), a, a), dtype=np.int64)
        vals = np.empty(key.shape)
        for s in _blocks(size):
            v = vals[: s.stop - s.start]
            fill(s, v)
            np.add.at(data, self._keys(s, key), v.reshape(-1))
        return DiaMatrix(self.n, self.n, self.offsets,
                         data.reshape(len(self.offsets), self.n), self.nnz)


def _blocks(n):
    """Slices of LAYOUT_BLOCK indices (the last one shorter) that tile range(n)."""
    return [slice(a, min(n, a + LAYOUT_BLOCK)) for a in range(0, n, LAYOUT_BLOCK)]


def from_triplets(nrows, ncols, rows, cols, vals) -> DiaMatrix:
    """Build a DiaMatrix from parallel COO arrays, summing duplicate (row, col) pairs.

    np.add.at adds each triplet at slot * nrows + row, slot its diagonal's
    index, in input order from 0.0; ``index_array`` checks rows and cols.
    """
    rows = index_array(rows, "rows", nrows).ravel()
    cols = index_array(cols, "cols", ncols).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if not (len(rows) == len(cols) == len(vals)):
        raise DimensionMismatch("triplet arrays must have equal length")
    offsets, slot = np.unique(cols - rows, return_inverse=True)
    data = np.zeros(len(offsets) * nrows)
    np.add.at(data, slot * nrows + rows, vals)
    nnz = len(np.unique(rows * ncols + cols))
    return DiaMatrix(nrows, ncols, offsets, data.reshape(len(offsets), nrows), nnz)


def spmv(A: DiaMatrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """y = A @ x, written into ``out`` if given, and returned.

    Each block of ``A.plan`` is zeroed, then its diagonals are added in
    ascending offset order, so every row sums its products in ascending
    column order starting from 0.0, whatever the block size.  A
    zero-padded entry adds 0 * x = +-0, which leaves every sum unchanged
    for finite x, so the result is bit-identical to summing only the
    stored entries of each row.

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
    # One product buffer for every block, as long as the first (longest)
    # one and started on a 64-byte boundary: malloc aligns to 16 bytes only,
    # and numpy's multiply and add run up to 1.5x slower into and out of a
    # misaligned buffer.
    m = A.plan[0][0].stop if A.plan else 0
    t = np.empty(m + 7)
    t = t[(-t.ctypes.data % 64) // 8:][:m]
    for rows, terms in A.plan:
        y = out[rows]
        y.fill(0.0)
        for ys, xs, ts, d in terms:
            yy, tt = y[ys], t[ts]
            np.multiply(d, x[xs], tt)
            np.add(yy, tt, yy)
    return out


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
    nnz = sum((nx + 1 - abs(dx)) * (ny + 1 - abs(dy)) for dx, dy in _NEIGHBOURS)
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
