"""Minimal sparse matrices, conjugate gradients and a DCT preconditioner.

Just enough linear algebra for the implicit diffusion step.  Matrices are
stored by diagonals (DIA); ``grid_matrix`` makes the seven-diagonal P1
operator of the uniform mesh.  On congruent cells with a constant tensor
(dyadic h), every node of M, A and S holds the entries of its class (a
corner, an edge run or the interior), so its class table
``DiaMatrix.classes`` (at most 7 x 3 x 3 values) is all it stores.  A
product (``DiaMatrix.plan``) adds each diagonal's coefficient (a stretch
of it, or the interior class's scalar) times a shifted slice of x into
cache-sized blocks of rows through one reused buffer, and recomputes the
other rows from their entries.  ``from_triplets`` sums COO arrays into
DIA storage by ``np.bincount``, and refuses a matrix whose storage would
far exceed its entries.  CG solves SPD systems to ``DEFAULT_CG_TOL``,
optionally preconditioned, checks its true residual at one site and
updates its vectors in place; ``FastDiag`` is the preconditioner for
S = M + k A on the grid, diagonalised by the DCT-I, with the diffusion
coefficients that ``grid_diffusion`` reads off A.
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
# they stay in a 2 MB L2 cache while every diagonal is added into the block;
# a whole-length pass per diagonal would stream y seven times past L2.
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


def _grid_line(A) -> int:
    """m if A is square with the offsets dx + dy m of GRID_NEIGHBOURS on
    whole rows of m nodes (so n / m >= 2 rows of m >= 2 nodes), else 0."""
    n, offsets = A.nrows, A.offsets.tolist()
    m = offsets[-2] if len(offsets) == 7 else 0
    grid = offsets == [dx + dy * m for dx, dy in GRID_NEIGHBOURS]
    return m if grid and A.ncols == n and n % m == 0 else 0


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
    pairs.  Storage is distinct diagonals x nrows floats, up to
    (nrows + ncols - 1) x nrows for a dense matrix; but a grid operator
    made from its class table (``data`` (7, a, b), as ``classes`` returns
    it) stores that table only, and expands ``data`` from it where first
    read, bit for bit, and keeps it.  ``data`` is copied unless it is
    read-only already (``frozen``).  ``plan``, worked out on the first
    product, is what ``spmv`` walks.  Matrices compare and hash by identity.
    """

    nrows: int
    ncols: int
    offsets: np.ndarray  # (n_diagonals,) int64, strictly ascending
    data: np.ndarray  # (n_diagonals, nrows) float64, or a grid operator's (7, a, b) class table
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
        offsets.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        data, m = np.asarray(self.data, dtype=float), _grid_line(self)
        table = m and data.ndim == 3
        if data.shape != ((7, min(self.nrows // m, 3), min(m, 3)) if table
                          else (len(offsets), self.nrows)):
            raise DimensionMismatch(f"data shape {data.shape} is neither {len(offsets)} diagonals "
                                    f"of {self.nrows} rows nor a grid operator's class table")
        vars(self)["classes" if table else "data"] = frozen(data, vars(self).pop("data"))

    def __getattr__(self, name):
        """``data`` of an operator made from its class table, expanded and kept."""
        if name != "data" or "classes" not in vars(self):
            raise AttributeError(name)
        m, data = _grid_line(self), vars(self)["classes"]
        vars(self)["data"] = data = _expand(data, m - 1, self.nrows // m - 1)
        data.setflags(write=False)
        return data

    @cached_property
    def classes(self) -> np.ndarray | None:
        """The read-only class table (7, a, b) of a grid operator (``_grid_line``)
        whose every node holds its class's entries, compared as int64 with
        the padding (so +0.0 and -0.0 differ); else None.  An operator made
        from its table holds it from the start and is never scanned.  Row
        class i and column class j of ``_runs`` (a, b <= 3) are represented
        by their first node.  Edge runs are compared before the interior, so
        a grid whose edge runs differ is refused after O(n / m + m) compares.
        """
        n, m = self.nrows, _grid_line(self)
        if not m:
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
        ``(c, xs, into, ts)`` per diagonal in ascending offset order, which
        adds the slice ``ts`` of a kept buffer of ``size`` floats, holding
        the diagonal's coefficient times x[rows + offset], into the block.
        A term whose ``c`` is not None first multiplies ``c`` by the slice
        ``xs`` of x into the slice ``into`` of the buffer, which starts on a
        64-byte boundary; one whose ``c`` is None reads an earlier product.
        ``edge`` lists the rows to be recomputed from their entries: entry e
        of ``values`` is the coefficient of row ``edge[slot[e]]`` in column
        ``cols[e]``, for every diagonal that reaches the row, ordered by
        diagonal and then by edge row.

        If ``classes`` has an interior class (a grid of at least 3 x 3
        nodes), ``c`` is a diagonal's entry of that class, a 0-d array,
        ``edge`` is the boundary ring, and ``values`` are the ring rows'
        entries of their classes, so ``data`` is not read.  Diagonals whose
        entries have the same bits (so +0.0 and -0.0 differ) share one
        product per block, which spans the x entries all of them read: M has
        2 distinct values, S 3 or 4.  On any other matrix, ``c`` is the
        block's stretch of its diagonal, a read-only view of ``data``, each
        diagonal has a product of its own, and ``edge`` is every row outside
        the blocks (all rows if there is no diagonal).
        """
        n, offsets = self.nrows, self.offsets.tolist()
        lo = max([0] + [-o for o in offsets])
        hi = max(lo, min([n] + [self.ncols - o for o in offsets])) if offsets else 0
        edge = np.r_[:lo, hi:n]
        share, scalars = range(len(offsets)), None  # term j folds the product of term share[j]
        table = self.classes
        if table is not None and table.shape[1:] == (3, 3):
            scalars, m = table[:, 1, 1].copy(), offsets[-2]
            first_with = {}
            share = [first_with.setdefault(c.tobytes(), j) for j, c in enumerate(scalars)]
            boundary = np.ones((n // m, m), dtype=bool)
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
        if scalars is None:
            values = self.data[diagonal, edge[slot]]
        else:  # the entries of each ring row's row and column class, 0, 1 or 2
            r, c = np.divmod(edge[slot], m)
            values = table[diagonal, np.sign(r) + (r == n // m - 1), np.sign(c) + (c == m - 1)]
        return tuple(blocks), size, edge, slot, cols[diagonal, slot], values


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
    summing only the stored entries of each row.  A class entry is the
    entry at each node of its class, and a shared product is the same
    multiply of the same operands, so neither changes a bit either.

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
# alignment costs about 2 us, a tenth of a product at n = 441.  One list
# for the process, holding a buffer per product running at once (buffers
# per matrix raised sweep_dt's peak RSS by 0.35 MB more).  A buffer holds
# at most q rows of SPMV_BLOCK + 2m + 2 floats, q the products of a block
# and m the nodes per grid line (S at h = 1/128: 3 rows, 0.8 MB).  No
# result depends on which buffer a product gets; list.pop and list.append
# are atomic, so each thread takes its own.
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
    definite B ~ A^-1, such as a ``FastDiag``; without it, CG is plain and
    z is r itself.  Either way the stopping test and the residual reported
    on failure are ||r||, not the recurrence scalar r.z.

    CG runs on b 2^-e and x0 2^-e, e the binary exponent of max |b|, and
    scales x and reported norms back: no norm or p.Ap under- or overflows,
    and the iterates are exactly the unscaled ones wherever those are normal.
    These scaled copies are the only vectors updated in place; b and x0
    are never written.  Returns (x, iterations), x a new array.

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


def grid_matrix(data: np.ndarray, nx: int, ny: int) -> DiaMatrix:
    """The P1 operator on the grid of nx x ny cells of ``mesh.py`` (row-major
    nodes, lower-left to upper-right diagonals) whose diagonal d, the
    coupling of each node to its neighbour GRID_NEIGHBOURS[d], is data[d]:
    (7, n), or the class table (7, a, b) that the operator then holds.
    ``data`` is made read-only, not copied."""
    n, offsets = (nx + 1) * (ny + 1), [dx + dy * (nx + 1) for dx, dy in GRID_NEIGHBOURS]
    nnz = sum((nx + 1 - abs(dx)) * (ny + 1 - abs(dy)) for dx, dy in GRID_NEIGHBOURS)
    data.setflags(write=False)
    return DiaMatrix(n, n, np.array(offsets), data, nnz)

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


def grid_diffusion(A: DiaMatrix) -> tuple[float, float]:
    """(dxx, dyy) = (-(A[1,0] + A[1,1]), -(A[0,1] + A[1,1])) of a grid
    operator A, its couplings to the neighbours (dx, dy) of GRID_NEIGHBOURS:
    D00 and D11 of a constant tensor D, bit for bit.  Read off the interior
    class of ``A.classes``, else the mean over the interior rows (over all
    rows along an axis of one cell)."""
    m = _grid_line(A)
    grid = A.classes if A.classes is not None else A.data.reshape(7, A.nrows // m, m)
    inner = [slice(1, -1) if size > 2 else slice(None) for size in grid.shape[1:]]
    c = grid[:, inner[0], inner[1]].mean(axis=(1, 2))
    return -(c[4] + c[6]), -(c[5] + c[6])


class FastDiag:
    """z = P^-1 r, the fast-diagonalisation preconditioner (Lynch, Rice and
    Thomas, Numer. Math. 6, 1964) for S = M + k A on the grid of nx x ny
    cells of side h.  P = (W (x) W) C L C^-1: C is the 2-D DCT-I, W =
    diag(1/2, 1, ..., 1, 1/2) on each axis, and L = h^2 f + k (dxx (2 - 2 cx)
    + dyy (2 - 2 cy)) are the eigenvalues, cx and cy the cosines of the
    frequencies and f = (3 + cx + cy + cx cy) / 6 the symbol of the P1 mass
    stencil with its (1, 1) coupling averaged with (1, -1).  dxx and dyy
    are clamped at 0, so P is SPD.  With E the real part of ``np.fft.rfft``
    of the even extension along an axis, E u = 2 C W u on it, so
    P^-1 r = E L^-1 E W^-1 r / (4 nx ny): four 1-D passes.
    """

    def __init__(self, nx: int, ny: int, h: float, k: float, dxx: float, dyy: float):
        cx = np.cos(np.pi * np.arange(nx + 1) / nx)
        cy = np.cos(np.pi * np.arange(ny + 1) / ny)[:, None]
        eig = h * h * (3 + cx + cy + cy * cx) / 6 + k * (max(dxx, 0.0) * (2 - 2 * cx)
                                                          + max(dyy, 0.0) * (2 - 2 * cy))
        self.cells = nx, ny
        # 1 / (4 nx ny L) by x frequency, then y: the layout of the middle passes.
        self._scale = (1 / (4 * nx * ny * eig)).T.copy()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        (nx, ny), fft = self.cells, np.fft  # numpy.fft is loaded on first use
        buffer, z = np.empty(2 * max((ny + 1) * nx, (nx + 1) * ny)), r.reshape(ny + 1, nx + 1)
        # Passes along x, y, y and x, each over the lines of z (lines, n + 1):
        # W^-1 on the first two, P's eigenvalues between the middle two.  The
        # even extension is made in ``buffer`` and z dropped before its rfft,
        # so at most 4 n floats live.
        for i, n in enumerate((nx, ny, ny, nx)):
            even = buffer[: 2 * n * len(z)].reshape(-1, 2 * n)
            even[:, : n + 1], even[:, n + 1 :] = z, z[:, n - 1 : 0 : -1]
            if i < 2:
                even[:, ::n] *= 2
            del z
            z = fft.rfft(even).real
            if i == 1:
                z *= self._scale
            elif i != 3:
                z = z.T
        del buffer, even
        return z.ravel()
