"""Minimal CSR sparse matrix and conjugate-gradient kernel.

Just enough linear algebra for the implicit diffusion step: triplet
assembly with duplicate summation, matrix-vector products, and plain
(unpreconditioned) CG for symmetric positive definite systems.
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
    """CG failed to meet the residual tolerance within max_iter."""

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class CsrMatrix:
    nrows: int
    ncols: int
    row_offsets: np.ndarray  # (nrows+1,) int64, non-decreasing
    col_indices: np.ndarray  # (nnz,) int64, strictly increasing within a row
    values: np.ndarray  # (nnz,) float64
    _row_of_nnz: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "row_offsets", np.asarray(self.row_offsets, dtype=np.int64))
        object.__setattr__(self, "col_indices", np.asarray(self.col_indices, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        for a in (self.row_offsets, self.col_indices, self.values):
            a.setflags(write=False)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def row_of_nnz(self) -> np.ndarray:
        """Row index of each stored entry (cached, for bincount-based spmv)."""
        if self._row_of_nnz is None:
            r = np.repeat(np.arange(self.nrows), np.diff(self.row_offsets))
            r.setflags(write=False)
            object.__setattr__(self, "_row_of_nnz", r)
        return self._row_of_nnz

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        out[self.row_of_nnz, self.col_indices] = self.values
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
    """y = A @ x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.ncols,):
        raise DimensionMismatch(f"expected vector of length {A.ncols}, got shape {x.shape}")
    if A.nnz == 0:
        return np.zeros(A.nrows)
    return np.bincount(A.row_of_nnz, weights=A.values * x[A.col_indices], minlength=A.nrows)


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
        NoConvergence: tolerance not met within max_iter iterations, or ||b|| not finite.
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
        alpha = rr / (p @ Ap)
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
