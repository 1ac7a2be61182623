"""Minimal sparse matrices and conjugate-gradient kernel.

Just enough linear algebra for the implicit diffusion step.  Matrices are
stored by diagonals (DIA): the P1 operators on the uniform mesh have seven
diagonals, so assembly is one keyed sum and a product is seven
shifted-slice multiply-adds.  CG is plain (unpreconditioned), for
symmetric positive definite systems.
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
        offsets = np.asarray(self.offsets, dtype=np.int64)
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


def from_triplets(nrows, ncols, rows, cols, vals) -> DiaMatrix:
    """Build a DiaMatrix from parallel COO arrays, summing duplicate (row, col) pairs.

    Duplicates are added in input order, starting from 0.0.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if not (len(rows) == len(cols) == len(vals)):
        raise DimensionMismatch("triplet arrays must have equal length")
    if len(rows) and (
        rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols
    ):
        raise IndexOutOfRange(f"triplet index outside {nrows} x {ncols}")

    diagonal = cols - rows
    diagonal += nrows - 1  # offset + nrows - 1 >= 0
    present = np.flatnonzero(np.bincount(diagonal, minlength=nrows + ncols - 1))
    slot = np.empty(nrows + ncols - 1, dtype=np.int64)
    slot[present] = np.arange(len(present))
    key = slot[diagonal]  # (diagonal slot, row) -> slot * nrows + row
    key *= nrows
    key += rows
    size = len(present) * nrows
    data = np.bincount(key, weights=vals, minlength=size).reshape(len(present), nrows)
    nnz = int(np.count_nonzero(np.bincount(key, minlength=size)))
    return DiaMatrix(nrows, ncols, present - (nrows - 1), data, nnz)


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


def cg_solve(
    A: DiaMatrix,
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
