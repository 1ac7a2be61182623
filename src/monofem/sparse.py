"""Minimal sparse matrices and conjugate-gradient kernel.

Just enough linear algebra for the implicit diffusion step.  Matrices are
assembled in CSR form (triplet assembly with duplicate summation) and
multiplied in diagonal (DIA) form: the P1 operators on the uniform mesh
have seven diagonals, so a product is seven shifted-slice multiply-adds.
CG is plain (unpreconditioned), for symmetric positive definite systems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
class CsrMatrix:
    """Sparse matrix in CSR form, with a diagonal form for products.

    The first ``spmv`` builds ``diagonals``: every distinct diagonal
    (column - row) that holds a stored entry, as a zero-padded row of
    length nrows.  That costs distinct diagonals x nrows floats: 7 n for
    every matrix monofem assembles, but (nrows + ncols - 1) x nrows for a
    dense one.
    """

    nrows: int
    ncols: int
    row_offsets: np.ndarray  # (nrows+1,) int64, non-decreasing
    col_indices: np.ndarray  # (nnz,) int64, strictly increasing within a row
    values: np.ndarray  # (nnz,) float64
    _diagonals: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "row_offsets", np.asarray(self.row_offsets, dtype=np.int64))
        object.__setattr__(self, "col_indices", np.asarray(self.col_indices, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        for a in (self.row_offsets, self.col_indices, self.values):
            a.setflags(write=False)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def _row_of_nnz(self) -> np.ndarray:
        return np.repeat(np.arange(self.nrows), np.diff(self.row_offsets))

    @property
    def diagonals(self) -> tuple:
        """``(offset, lo, hi, d)`` per distinct diagonal, offsets ascending.

        Row i in [lo, hi) holds ``d[i - lo]`` in column i + offset; entries
        that are not stored are 0.  Built once, on first use.
        """
        if self._diagonals is None:
            n = self.nrows
            rows = self._row_of_nnz()
            key = self.col_indices - rows + (n - 1)  # offset + nrows - 1 >= 0
            present = np.flatnonzero(np.bincount(key, minlength=n + self.ncols))
            slot = np.empty(n + self.ncols, dtype=np.int64)
            slot[present] = np.arange(len(present))
            data = np.zeros((len(present), n))
            data[slot[key], rows] = self.values
            data.setflags(write=False)
            diagonals = []
            for d, offset in zip(data, (present - (n - 1)).tolist()):
                lo, hi = max(0, -offset), min(n, self.ncols - offset)
                diagonals.append((offset, lo, hi, d[lo:hi]))
            object.__setattr__(self, "_diagonals", tuple(diagonals))
        return self._diagonals

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        out[self._row_of_nnz(), self.col_indices] = self.values
        return out


def from_triplets(nrows, ncols, rows, cols, vals) -> CsrMatrix:
    """Build a CsrMatrix from parallel COO arrays, summing duplicate (row, col) pairs."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if not (len(rows) == len(cols) == len(vals)):
        raise DimensionMismatch("triplet arrays must have equal length")
    if len(rows) and (
        rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols
    ):
        raise IndexOutOfRange(f"triplet index outside {nrows} x {ncols}")

    keys = rows * ncols + cols
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    summed = np.bincount(inverse, weights=vals, minlength=len(unique_keys))
    urows = unique_keys // ncols
    ucols = unique_keys % ncols
    row_offsets = np.zeros(nrows + 1, dtype=np.int64)
    np.add.at(row_offsets, urows + 1, 1)
    np.cumsum(row_offsets, out=row_offsets)
    return CsrMatrix(nrows, ncols, row_offsets, ucols, summed)


def spmv(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """y = A @ x.

    Diagonals are added in ascending offset order, i.e. each row's products
    in ascending column order starting from 0.0, so for finite x the result
    is bit-identical to summing the CSR row in order.  A zero-padded entry
    adds 0 * x = +-0, which leaves every sum unchanged.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (A.ncols,):
        raise DimensionMismatch(f"expected vector of length {A.ncols}, got shape {x.shape}")
    y = np.zeros(A.nrows)
    for offset, lo, hi, d in A.diagonals:
        y[lo:hi] += d * x[lo + offset : hi + offset]
    return y


def cg_solve(
    A: CsrMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    rel_tol: float = DEFAULT_CG_TOL,
    max_iter: int | None = None,
) -> tuple[np.ndarray, int]:
    """Solve A x = b for SPD A by conjugate gradients.

    Stops when the true residual satisfies ||b - A x|| <= rel_tol * ||b||.

    Returns:
        (x, iterations)

    Raises:
        ValueError: rel_tol is not finite and positive.
        NoConvergence: tolerance not met within max_iter iterations, ||b|| not
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
    bnorm = np.linalg.norm(b)
    if not np.isfinite(bnorm):
        raise NoConvergence(f"right-hand side norm is {bnorm}", residual=float(bnorm), iterations=0)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - spmv(A, x)
    p = r.copy()
    rr = r @ r
    tol = rel_tol * bnorm
    if np.sqrt(rr) <= tol:
        return x, 0
    for it in range(1, max_iter + 1):
        Ap = spmv(A, p)
        pAp = p @ Ap
        if not 0 < pAp < math.inf:
            raise NoConvergence(f"CG breakdown in iteration {it}: p.Ap = {pAp}",
                                residual=float(np.sqrt(rr)), iterations=it)
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr_new = r @ r
        if np.sqrt(rr_new) <= tol:
            # Recurrence residual can drift; confirm with the true residual.
            r = b - spmv(A, x)
            rr_new = r @ r
            if np.sqrt(rr_new) <= tol:
                return x, it
            p = r.copy()
            rr = rr_new
            continue
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise NoConvergence(
        f"CG did not converge in {max_iter} iterations (residual {np.sqrt(rr):.3e}, "
        f"target {tol:.3e})",
        residual=float(np.sqrt(rr)),
        iterations=max_iter,
    )
