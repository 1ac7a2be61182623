"""Minimal sparse matrices, conjugate gradients and a multigrid cycle.

Just enough linear algebra for the implicit diffusion step.  Matrices are
stored by diagonals (DIA); ``grid_matrix`` makes the seven-diagonal P1
operator of the uniform mesh.  A product (``DiaMatrix.plan``) adds each
diagonal's coefficient times a shifted slice of x into cache-sized blocks
of rows through one reused buffer, and recomputes the other rows from
their stored entries.  On congruent cells with a constant tensor (dyadic
h), every node of M, A, S and each Galerkin operator of S holds the
entries of its class (a corner, an edge run or the interior), and
``DiaMatrix.classes`` holds that table: the plan then multiplies by the
interior class's scalars, ``galerkin`` probes a model grid of at most
2 x 2 coarse cells, and ``VCycle`` weights each class, all bit for bit.
``from_triplets`` sums COO arrays into DIA storage by ``np.bincount``, and
refuses a matrix whose storage would far exceed its entries.  CG solves
SPD systems to ``DEFAULT_CG_TOL``, optionally preconditioned, checks its
true residual at one site and updates its vectors in place; ``VCycle`` is
the preconditioner for P1 operators on nested uniform grids, whose
transfers act on the node grid of ``mesh.py`` as a few contiguous 1-D
passes per family of edge midpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

DEFAULT_CG_TOL = 1e-10

# Rows per block of ``spmv``.  A block of y and its products take
# (1 + q) x 256 kB, q the products per block (2 for M, 3 or 4 for S), so
# they stay in a 2 MB L2 cache while every diagonal is added into the
# block; a whole-length pass per diagonal would stream y through memory
# seven times once n exceeds L2.
SPMV_BLOCK = 1 << 15

# +0.0 as a 0-d array, which numpy adds faster than a Python float.
_ZERO = np.zeros(())
_ZERO.setflags(write=False)

# DIA floats per stored entry (plus a slack) that ``from_triplets`` allows:
# the grid stores about 1, a dense matrix 2, a randomly relabelled mesh 400.
STORAGE_PER_ENTRY = 4
STORAGE_SLACK = 1024


# (dx, dy) node steps of the seven P1 couplings on the uniform grid, in
# ascending DIA offset dx + dy (nx + 1).
GRID_NEIGHBOURS = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))


def _grid_offsets(m: int) -> list[int]:
    """The offsets of GRID_NEIGHBOURS on a grid of m nodes per row."""
    return [dx + dy * m for dx, dy in GRID_NEIGHBOURS]


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
    def classes(self) -> np.ndarray | None:
        """The read-only class table (7, a, b) of a grid operator whose every
        node holds its class's entries, compared as int64 with the padding
        (so +0.0 and -0.0 differ); else None.

        A grid operator is square with the offsets dx + dy m of
        GRID_NEIGHBOURS (so n / m >= 2 rows of m >= 2 nodes).  Row class i
        and column class j of ``_runs`` (a, b <= 3) are represented by their
        first node.  Edge runs are compared before the interior, so a grid
        whose edge runs differ is refused after O(n / m + m) compares.
        """
        n, offsets = self.nrows, self.offsets.tolist()
        m = offsets[-2] if len(offsets) == 7 else 0
        if not (offsets == _grid_offsets(m) and self.ncols == n and n % m == 0):
            return None
        bits = self.data.view(np.int64).reshape(7, n // m, m)
        first_last_row, first_last_col = slice(None, None, n // m - 1), slice(None, None, m - 1)
        if not ((bits[:, first_last_row, 1:-1] == bits[:, first_last_row, 1:2]).all()
                and (bits[:, 1:-1, first_last_col] == bits[:, 1:2, first_last_col]).all()
                and (bits[:, 1:-1, 1:-1] == bits[:, 1:2, 1:2]).all()):
            return None
        rows, cols = _runs(n // m), _runs(m)
        table = bits[:, [[r.start] for r in rows], [c.start for c in cols]].view(np.float64)
        table.setflags(write=False)
        return table

    @cached_property
    def plan(self) -> tuple:
        """``(blocks, size, edge, slot, cols, values)``, what ``spmv`` walks,
        worked out on the first product.

        ``blocks`` tiles the rows that every diagonal reaches in blocks of
        SPMV_BLOCK rows: one ``(rows, terms)`` each, with one term
        ``(c, xs, into, ts)`` per diagonal in ascending offset order.  The
        term adds the slice ``ts`` of a kept buffer, which holds the
        diagonal's coefficient times x[rows + offset], into the block.  A
        term whose ``c`` is not None first multiplies ``c`` by the slice
        ``xs`` of x into the slice ``into`` of the buffer, which starts on a
        64-byte boundary; a term whose ``c`` is None reads the product of an
        earlier term.  The buffer holds ``size`` floats.
        ``edge`` lists the rows to be recomputed from their stored entries:
        entry e of ``values`` is the stored coefficient of row
        ``edge[slot[e]]`` in column ``cols[e]``, for every diagonal that
        reaches the row, ordered by diagonal and then by edge row.

        If ``classes`` has an interior class (a grid of at least 3 x 3
        nodes), ``c`` is a diagonal's entry of that class, a 0-d array, and
        ``edge`` is the boundary ring.  Diagonals whose entries have the
        same bits (so +0.0 and -0.0 differ) share one product per block,
        which spans the x entries all of them read: M has 2 distinct
        values, S 3 or 4.  On any other matrix, ``c`` is the block's
        stretch of its diagonal, a read-only view of ``data``, each
        diagonal has a product of its own, and ``edge`` is every row
        outside the blocks (all rows if there is no diagonal).
        """
        n, offsets = self.nrows, self.offsets.tolist()
        lo = max([0] + [-o for o in offsets])
        hi = max(lo, min([n] + [self.ncols - o for o in offsets])) if offsets else 0
        edge = np.r_[:lo, hi:n]
        share, scalars = range(len(offsets)), None  # term j folds the product of term share[j]
        table = self.classes
        if table is not None and table.shape[1:] == (3, 3):
            scalars = table[:, 1, 1].copy()
            first_with = {}
            share = [first_with.setdefault(c.tobytes(), j) for j, c in enumerate(scalars)]
            boundary = np.ones((n // offsets[-2], offsets[-2]), dtype=bool)
            boundary[1:-1, 1:-1] = False
            edge = np.flatnonzero(boundary)  # a superset of the rows outside [lo, hi)
        low, high = {}, {}  # the lowest and highest offset that reads each product
        for o, j in zip(offsets, share):
            low.setdefault(j, o)
            high[j] = o
        # A product that one diagonal reads is folded at once, so all such
        # share the buffer's first row; the others keep a row each.
        width = min(SPMV_BLOCK, hi - lo)
        once = any(low[j] == high[j] for j in low)
        start, size = {}, -(-width // 8) * 8 if once else 0
        for j in low:
            start[j] = 0 if low[j] == high[j] else size
            size = max(size, -(-(start[j] + width + high[j] - low[j]) // 8) * 8)
        blocks = []
        for a in range(lo, hi, SPMV_BLOCK):
            b = min(hi, a + SPMV_BLOCK)
            terms = []
            for j, (o, g) in enumerate(zip(offsets, share)):
                shift = start[g] - low[g] - a  # the product of x[i] sits at i + shift
                xs = slice(a + low[g], b + high[g])
                # 0-d arrays: numpy multiplies by them faster than by scalars.
                c = None if g < j else self.data[j, a:b] if scalars is None else scalars[j, ...]
                terms.append((c, xs, slice(xs.start + shift, xs.stop + shift),
                              slice(a + o + shift, b + o + shift)))
            blocks.append((slice(a, b), tuple(terms)))
        cols = edge + self.offsets[:, None]
        diagonal, slot = np.nonzero((cols >= 0) & (cols < self.ncols))
        return (tuple(blocks), size, edge, slot, cols[diagonal, slot],
                self.data[diagonal, edge[slot]])


def from_triplets(nrows, ncols, rows, cols, vals) -> DiaMatrix:
    """Build a DiaMatrix from parallel COO arrays, summing duplicate (row, col) pairs.

    Each (row, col) pair has one key, slot * nrows + row, slot its diagonal's
    index.  ``np.bincount``, which also sums ``spmv``'s edge rows, sums each
    key's values in input order from 0.0; ``index_array`` checks rows and cols.

    NotBanded, before allocating, if diagonals x nrows floats would exceed
    STORAGE_PER_ENTRY per stored entry plus STORAGE_SLACK.
    """
    rows = index_array(rows, "rows", nrows).ravel()
    cols = index_array(cols, "cols", ncols).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if not (len(rows) == len(cols) == len(vals)):
        raise DimensionMismatch("triplet arrays must have equal length")
    offsets, slot = np.unique(cols - rows, return_inverse=True)
    key = slot * nrows + rows
    nnz = len(np.unique(key))
    size = len(offsets) * nrows
    if size > STORAGE_PER_ENTRY * nnz + STORAGE_SLACK:
        raise NotBanded(f"{len(offsets)} diagonals of {nrows} rows would store {size} floats "
                        f"for {nnz} entries: the node numbering is not banded")
    # int64 if there is no triplet; DiaMatrix makes it float.
    data = np.bincount(key, weights=vals, minlength=size).reshape(len(offsets), nrows)
    data.setflags(write=False)
    return DiaMatrix(nrows, ncols, offsets, data, nnz)


def spmv(A: DiaMatrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """y = A @ x, written into ``out`` if given, and returned.

    Each block of ``A.plan`` is set to +0.0 plus its first term, then gets
    its other terms added in ascending offset order: each term is a
    coefficient times a shifted slice of x, multiplied into the kept
    buffer by that term or by an earlier one of the same coefficient.
    The edge rows are then overwritten with their stored entries times x,
    each row's products summed by ``np.bincount`` in ascending column
    order from 0.0.  So every row sums its products in ascending column
    order from 0.0, whatever the block size, and reads no padding.  A slot
    inside the matrix that holds no entry adds 0 * x = +-0, which leaves
    every sum unchanged for finite x, so the result is bit-identical to
    summing only the stored entries of each row.  A grid operator's
    interior coefficients equal its stored values bit for bit, and a
    shared product is the same multiply of the same operands, so neither
    changes a bit either.

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
    blocks, size, edge, slot, cols, values = A.plan
    t = _product_buffer(size)
    for rows, terms in blocks:
        # The first add writes +0.0 + the first product into y, as a fold
        # from +0.0 does; each later one adds into y.
        y, total = out[rows], _ZERO
        for c, xs, into, ts in terms:
            if c is not None:
                np.multiply(c, x[xs], t[into])
            total = np.add(total, t[ts], y)
    out[edge] = np.bincount(slot, weights=values * x[cols], minlength=len(edge))
    _BUFFERS.append(t)
    return out


# Product buffers that ``spmv`` takes and puts back, each on a 64-byte
# boundary: malloc aligns to 16 bytes only, numpy's multiply and add run up
# to 1.5x slower into and out of a misaligned buffer, and finding the
# alignment costs about 2 us, as much as a tenth of a product at n = 441.
# One list for the process rather than one buffer per matrix: it holds a
# buffer per product running at once, where per-matrix buffers raised
# sweep_dt's peak RSS by 0.35 MB more.  A buffer holds at most q rows of
# SPMV_BLOCK + 2m + 2 floats, q the products of a block and m the nodes
# per grid line (S at h = 1/128: 3 rows, 0.8 MB).  No result depends on
# which buffer a product gets.  list.pop and list.append are atomic, so
# each thread takes its own.
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
    max_iter: int | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, int]:
    """Solve A x = b for SPD A by conjugate gradients.

    Stops when the true residual r = b - A x, computed at x0 and wherever
    the recurrence residual meets the tolerance, has ||r|| <= tol * ||b||,
    tol being ``DEFAULT_CG_TOL`` as it is when the call starts; otherwise
    CG restarts from r (or, after a stall, raises).  ``max_iter`` (default
    10 n) caps the iterations.
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
        ValueError: DEFAULT_CG_TOL is not finite and positive, or max_iter < 1.
        NoConvergence: "CG did not converge in N iterations (" and its
            cause: b not finite (N = 0), breakdown (p.Ap not finite and
            positive, so A is not SPD), a stall (a check after iterating
            that failed without halving the true residual of the check
            before) or max_iter reached; N is the iteration it stopped at.
    """
    rel_tol = DEFAULT_CG_TOL
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"CG tolerance must be finite and positive, got {rel_tol!r}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    b = np.asarray(b, dtype=float)
    if A.nrows != A.ncols or b.shape != (A.nrows,):
        raise DimensionMismatch("cg_solve needs a square matrix and matching rhs")
    if max_iter is None:
        max_iter = 10 * A.nrows
    bmax = np.abs(b).max()
    if not np.isfinite(bmax):
        raise NoConvergence(f"CG did not converge in 0 iterations (right-hand side max |b| "
                            f"is {bmax})", residual=float(bmax), iterations=0)
    if bmax == 0.0:
        return np.zeros_like(b), 0
    e = int(np.frexp(bmax)[1])
    b = np.ldexp(b, -e)
    x = np.zeros_like(b) if x0 is None else np.ldexp(np.asarray(x0, dtype=float), -e)
    tol = rel_tol * np.linalg.norm(b)
    r, it = None, 0
    while True:
        # The one true-residual check: the recurrence residual can drift.
        r = spmv(A, x, out=r)
        np.subtract(b, r, r)
        rr = r @ r
        if np.sqrt(rr) <= tol:
            return np.ldexp(x, e, out=x), it
        # Below the attainable accuracy the recurrence residual keeps
        # falling while the true one stalls (Greenbaum, SIMAX 18, 1997):
        # restart only while each check at least halves the true residual.
        if it and not rr <= 0.25 * checked:
            raise _not_converged(it, rr, tol, e, "stalled at")
        checked = rr
        z, rz = _preconditioned(precondition, r, rr)
        # x, r and p are updated in place through Ap and tmp, made after the
        # first product (before it, they raised fine_mesh's peak RSS by
        # 0.5 MB); a restart, which is rare, makes them anew.
        p, Ap, tmp = z.copy(), np.empty_like(b), np.empty_like(b)
        for it in range(it + 1, max_iter + 1):
            spmv(A, p, out=Ap)
            pAp = p @ Ap
            if not 0 < pAp < math.inf:
                raise _not_converged(it, rr, tol, e, f"breakdown, p.Ap = {pAp}, at")
            alpha = rz / pAp
            np.multiply(p, alpha, tmp)
            x += tmp
            np.multiply(Ap, alpha, tmp)
            r -= tmp
            rr = r @ r
            if np.sqrt(rr) <= tol:
                break
            z, rz_new = _preconditioned(precondition, r, rr)
            # p = z + beta p, bit for bit: IEEE products and sums commute.
            p *= rz_new / rz
            p += z
            rz = rz_new
        else:
            raise _not_converged(max_iter, rr, tol, e, "max_iter reached at")


def _not_converged(it, rr, tol, e, cause):
    """NoConvergence after ``it`` iterations: ``cause``, the unscaled residual and target."""
    residual, target = np.ldexp([np.sqrt(rr), tol], e)
    return NoConvergence(
        f"CG did not converge in {it} iterations ({cause} residual {residual:.3e}, "
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
    vertical or diagonal coarse edge takes the mean of its two ends.  With
    u in rows of nx + 2 that end in +0.0, each family of midpoints is one
    contiguous sum of u and u shifted by 1, nx + 2 or nx + 3 (a sum across
    a row end adds +0.0, which cannot overflow); the three are halved in
    one pass and copied into their slots of the fine grid.
    """
    m, n = nx + 2, (ny + 1) * (nx + 2)
    f, p, s = np.empty((2 * ny + 1, 2 * nx + 1)), np.zeros(n + m + 1), np.empty((3, ny + 1, m))
    p[:n].reshape(ny + 1, m)[:, :-1] = f[::2, ::2] = u.reshape(ny + 1, nx + 1)
    for t, k in zip(s.reshape(3, n), (1, m, m + 1)):
        np.add(p[:n], p[k : n + k], t)
    s *= 0.5
    f[::2, 1::2], f[1::2, ::2], f[1::2, 1::2] = s[0, :, :nx], s[1, :-1, :-1], s[2, :-1, :nx]
    return f.ravel()


def restrict(r: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """P^T r for the ``prolong`` of the same coarse grid: each edge
    midpoint of the fine grid passes half its value to both ends.

    Each family of midpoints is halved into rows of nx + 1 and added to
    the coarse nodes as two shifted 1-D slices, in ``prolong``'s order.  A
    family of nx per row ends each row in -0.0, which lands only on nodes
    that end no such edge: x + -0.0 is x bit for bit, x = -0.0 included.
    """
    r = r.reshape(2 * ny + 1, 2 * nx + 1)
    c, t = r[::2, ::2].flatten(), np.empty((3 * ny + 1, nx + 1))
    t[:, nx] = -0.0
    h, v, d = t[: ny + 1], t[ny + 1 : 2 * ny + 1], t[2 * ny + 1 :]
    for half, mid in ((h[:, :nx], r[::2, 1::2]), (v, r[1::2, ::2]), (d[:, :nx], r[1::2, 1::2])):
        np.multiply(mid, 0.5, half)
    for a, k in ((h.ravel(), 1), (v.ravel(), nx + 1), (d.ravel(), nx + 2)):
        c[: len(a)] += a
        c[k:] += a[: len(c) - k]
    return c


def grid_matrix(data: np.ndarray, nx: int, ny: int) -> DiaMatrix:
    """The P1 operator on the grid of nx x ny cells of ``mesh.py`` (row-major
    nodes, lower-left to upper-right diagonals) whose diagonal d, the
    coupling of each node to its neighbour GRID_NEIGHBOURS[d], is data[d].
    ``data`` (7, n) is made read-only, not copied."""
    n = (nx + 1) * (ny + 1)
    nnz = sum((nx + 1 - abs(dx)) * (ny + 1 - abs(dy)) for dx, dy in GRID_NEIGHBOURS)
    data.setflags(write=False)
    return DiaMatrix(n, n, np.array(_grid_offsets(nx + 1)), data, nnz)

def _runs(nodes: int) -> list[slice]:
    """The node classes along a grid line of ``nodes`` >= 2 nodes: the
    first node, the run between the ends (if there is one) and the last."""
    cuts = sorted({0, 1, nodes - 1, nodes})
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _expand(table: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """The (..., (ny + 1)(nx + 1)) nodal arrays on the grid of nx x ny cells
    whose every node holds its class's entry of ``table`` (..., a, b), the
    classes of ``DiaMatrix.classes``: one broadcast slice assignment per class."""
    grid = np.empty((*table.shape[:-2], ny + 1, nx + 1))
    for i, r in enumerate(_runs(ny + 1)):
        for j, c in enumerate(_runs(nx + 1)):
            grid[..., r, c] = table[..., i, j, None, None]
    return grid.reshape(*table.shape[:-2], -1)


def _from_table(table: np.ndarray, nx: int, ny: int) -> DiaMatrix:
    """The operator on the grid of nx x ny cells expanded from the class
    table (7, a, b), made read-only and cached as its ``classes``."""
    A = grid_matrix(_expand(table, nx, ny), nx, ny)
    table.setflags(write=False)
    vars(A)["classes"] = table  # what a scan of A would find, bit for bit
    return A


def _probe(S: DiaMatrix, nx: int, ny: int) -> np.ndarray:
    """The data (7, n) of P^T S P, S on the grid of 2 nx x 2 ny cells, by
    nine probes (see ``galerkin``)."""
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
    return data


def galerkin(S: DiaMatrix, nx: int, ny: int) -> DiaMatrix:
    """Coarse operator P^T S P of an operator S on the grid of 2 nx x 2 ny
    cells, for the coarse grid of nx x ny cells.

    P^T S P couples only coarse neighbours, so probing it with the nine
    vectors that are 1 on one class of a 3 x 3 colouring of the coarse
    nodes finds every entry: two nodes within one step of each other never
    share a colour.  A row's probe for a colour none of its neighbours has
    is exactly zero, which is also the padding outside the matrix.

    A coarse node's probes read only the rows of S within one fine step of
    it.  So if S has a class table (``DiaMatrix.classes``: every node holds
    the entries of its corner, edge run or interior), P^T S P has one too,
    bit for bit: a coarse node d >= 1 cells from an edge reads only fine
    rows at least 2d - 1 >= 1 steps from that edge, which are of S's
    interior class across it, and it sees the same pattern of probe colours
    around itself wherever it sits.  The probes then run on a model of S
    with at most 2 x 2 coarse cells, whose coarse nodes are one of each
    class, and the result is expanded to the coarse grid, which keeps it
    as its ``classes`` (``_from_table``).  Any other S is probed on the
    whole grid.

    DimensionMismatch unless S has the rows and offsets of 2 nx x 2 ny cells.
    """
    n = (2 * nx + 1) * (2 * ny + 1)
    if S.nrows != n or S.ncols != n or S.offsets.tolist() != _grid_offsets(2 * nx + 1):
        raise DimensionMismatch(f"galerkin needs an operator on the grid of {2 * nx} x "
                                f"{2 * ny} cells, got {S.nrows} rows, offsets {S.offsets}")
    if S.classes is None:
        return grid_matrix(_probe(S, nx, ny), nx, ny)
    mx, my = min(nx, 2), min(ny, 2)
    model = _from_table(S.classes, 2 * mx, 2 * my)
    return _from_table(_probe(model, mx, my).reshape(7, my + 1, mx + 1), nx, ny)


class VCycle:
    """Symmetric V(1,1) multigrid cycle, z = B r with B ~ S^-1 SPD.

    S is the finest level.  ``cells`` lists the (nx, ny) cells of the
    coarse grids, finest first, each halving the grid above it; their
    operators are the Galerkin products P^T S P (``galerkin``).  Each level
    smooths once before and once after the coarse correction by damped
    Jacobi (weight JACOBI_WEIGHT, lowered where needed to keep B SPD); the
    coarsest level does COARSE_SWEEPS Jacobi sweeps.  Every matrix product
    goes through ``spmv``, and builds its operator's plan on the first
    cycle.  A level's weight is a function of each node's entries alone, so
    where its operator has a class table (``DiaMatrix.classes``) it is
    computed per class and expanded.  ValueError if ``cells`` is empty.
    """

    def __init__(self, S: DiaMatrix, cells: list[tuple[int, int]]):
        if not cells:
            raise ValueError("a V-cycle needs at least one coarse grid")
        self.cells = list(cells)  # coarse cells below each level but the last
        self.operators = [S]
        for nx, ny in self.cells:
            self.operators.append(galerkin(self.operators[-1], nx, ny))
        (nx, ny), self._weights = self.cells[0], []
        for op, grid in zip(self.operators, [(2 * nx, 2 * ny)] + self.cells):
            table = op.classes
            data = op.data if table is None else table
            diagonal = data[np.searchsorted(op.offsets, 0)]
            g = (np.abs(data).sum(axis=0) / diagonal).max()
            w = min(JACOBI_WEIGHT, MAX_DAMPED_RADIUS / g) / diagonal
            self._weights.append(w if table is None else _expand(w, *grid))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level, r):
        S, w = self.operators[level], self._weights[level]
        coarsest = level == len(self.cells)
        # x = w r; each pass forms y = r - S x and adds w y to x, or on a
        # finer level's first pass, the prolonged coarse correction.
        x = w * r
        for sweep in range(COARSE_SWEEPS - 1 if coarsest else 2):
            y = spmv(S, x)
            np.subtract(r, y, y)
            if coarsest or sweep:
                y *= w
                x += y
            else:
                y = restrict(y, *self.cells[level])  # frees the fine y for the coarser levels
                x += prolong(self._cycle(level + 1, y), *self.cells[level])
        return x
