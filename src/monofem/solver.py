"""Time integration of the monodomain system.

Linearized backward-Euler Galerkin scheme: diffusion is implicit, the
reaction pair is evaluated at the previous time level, so each step is one
SPD solve with the fixed operator S = M + k A.  The gating update reduces
to a nodal ODE because the consistent mass matrix appears on both sides
and cancels.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import (
    IDENTITY_DIFFUSION,
    DiffusionTensor,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
)
from .mesh import TriMesh, whole_count
from .sparse import DiaMatrix, FastDiag, cg_solve, grid_diffusion, spmv


class InvalidConfig(ValueError):
    pass


class NonFiniteState(RuntimeError):
    """A step produced non-finite nodal values."""


@dataclass(frozen=True, eq=False)
class SolverState:
    """One time level; compares and hashes by identity, as it holds arrays."""

    v: np.ndarray  # nodal action potential
    w: np.ndarray  # nodal gating variable
    t: float
    n: int


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Run configuration for a single monodomain solve.

    ``v0`` and ``w0`` are functions of (x, y), arrays of nodal values or
    scalar constants.  ``source``, used only by manufactured-solution runs,
    maps t to the nodal sources (i_app, w_source) added to (i_ion, g) at
    that time level.  Every step's CG solve stops at the relative residual
    ``monofem.sparse.DEFAULT_CG_TOL``, read when the solve starts.

    Checked when made: ``n_steps`` = t_final / k, and InvalidConfig unless
    it is a positive whole number.  Compares and hashes by identity.
    """

    k: float
    t_final: float
    ionic: Callable  # (v, w) -> (i_ion, g)
    diffusion: DiffusionTensor = IDENTITY_DIFFUSION
    v0: object = 0.0
    w0: object = 0.0
    source: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None
    n_steps: int = field(init=False)

    def __post_init__(self):
        if not (self.k > 0 and self.t_final > 0):
            raise InvalidConfig(f"need k > 0 and t_final > 0, got k={self.k}, T={self.t_final}")
        n = whole_count(self.t_final, self.k)
        if not n:
            raise InvalidConfig(f"t_final={self.t_final} is not an integer multiple of k={self.k}")
        object.__setattr__(self, "n_steps", n)


class MonodomainSolver:
    """Holds the assembled system and the discrete trajectory for one run.

    M and A come from ``mesh.operators`` (see there for when they are
    assembled and dropped); only S = M + k A and its preconditioner are per
    solver.  S is summed entry by entry, of M's and A's class tables where
    both have one (``DiaMatrix.classes``): S then stores its table, with the
    bits of the sum of their data.  ``precondition`` is the ``FastDiag``
    that preconditions CG on S where the mesh is a grid and k >= 4 h^2, or
    None: for k < 4 h^2, S is dominated by the mass matrix and plain CG
    needs few iterations on it.
    """

    def __init__(self, mesh: TriMesh, cfg: SolverConfig):
        self.cfg = cfg
        # M and A are scattered from the same triangles: they share their diagonals.
        ops = mesh.operators
        if cfg.diffusion not in ops:
            ops[cfg.diffusion] = assemble_mass(mesh), assemble_stiffness(mesh, cfg.diffusion)
        M, A = ops[cfg.diffusion]
        tables = M.classes is not None and A.classes is not None
        data = cfg.k * (A.classes if tables else A.data)
        data += M.classes if tables else M.data  # without a second temporary
        data.setflags(write=False)  # so that DiaMatrix need not copy it
        self.mass, self.system = M, DiaMatrix(M.nrows, M.ncols, M.offsets, data, M.nnz)
        self.precondition = _preconditioner(mesh, A, cfg.k)
        v = interpolate_nodal(mesh, cfg.v0)
        w = interpolate_nodal(mesh, cfg.w0)
        self.state = SolverState(v=v, w=w, t=0.0, n=0)

    def step(self) -> SolverState:
        """Advance one time level; returns the new state."""
        cfg, s = self.cfg, self.state
        k = cfg.k
        i_ion, g = cfg.ionic(s.v, s.w)
        f = np.asarray(i_ion, dtype=float)
        g = np.broadcast_to(np.asarray(g, dtype=float), s.w.shape)
        if cfg.source is not None:
            i_app, w_source = cfg.source(s.t)
            f, g = f + i_app, g + w_source
        rhs = spmv(self.mass, s.v + k * f)
        v_new, _ = cg_solve(self.system, rhs, x0=s.v, precondition=self.precondition)
        w_new = s.w + k * g
        if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(w_new))):
            raise NonFiniteState(f"non-finite nodal values after step {s.n + 1} (t={s.t + k})")
        self.state = SolverState(v=v_new, w=w_new, t=(s.n + 1) * k, n=s.n + 1)
        return self.state

    def run(self) -> SolverState:
        """Apply exactly t_final / k steps."""
        for _ in range(self.cfg.n_steps):
            self.step()
        return self.state


def _preconditioner(mesh: TriMesh, A: DiaMatrix, k: float) -> FastDiag | None:
    """``FastDiag`` for S = M + k A if the mesh is a grid and k >= 4 h^2,
    its coefficients read off A (``grid_diffusion``), else None."""
    if mesh.grid is None or k < 4 * mesh.h * mesh.h:
        return None
    return FastDiag(*mesh.grid, mesh.h, k, *grid_diffusion(A))
