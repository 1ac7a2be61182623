"""Time integration of the monodomain system.

Linearized backward-Euler Galerkin scheme: diffusion is implicit, the
reaction pair is evaluated at the previous time level, so each step is one
SPD solve with the fixed operator S = M + k A.  The gating update reduces
to a nodal ODE because the consistent mass matrix appears on both sides
and cancels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import (
    IDENTITY_DIFFUSION,
    DiffusionTensor,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
)
from .mesh import NonDivisibleSpacing, TriMesh, grid_cells
from .sparse import DEFAULT_CG_TOL, DiaMatrix, VCycle, cg_solve, grid_offsets, spmv


class InvalidConfig(ValueError):
    pass


class NonFiniteState(RuntimeError):
    """A step produced non-finite nodal values."""


@dataclass(frozen=True)
class SolverState:
    v: np.ndarray  # nodal action potential
    w: np.ndarray  # nodal gating variable
    t: float
    n: int


@dataclass(frozen=True)
class SolverConfig:
    """Run configuration for a single monodomain solve.

    ``v0`` and ``w0`` are functions of (x, y) or scalar constants.
    ``i_app`` and ``w_source`` are space-time callables (x, y, t) -> value;
    w_source is only nonzero in manufactured-solution runs.
    """

    k: float
    t_final: float
    ionic: Callable  # (v, w) -> (i_ion, g)
    diffusion: DiffusionTensor = IDENTITY_DIFFUSION
    v0: object = 0.0
    w0: object = 0.0
    i_app: Callable | None = None
    w_source: Callable | None = None
    cg_rel_tol: float = DEFAULT_CG_TOL

    def n_steps(self) -> int:
        """t_final / k; raises InvalidConfig unless it is a positive whole number."""
        if not (self.k > 0 and self.t_final > 0):
            raise InvalidConfig(f"need k > 0 and t_final > 0, got k={self.k}, T={self.t_final}")
        ratio = self.t_final / self.k
        n = round(ratio) if ratio < np.inf else 0
        if n < 1 or abs(ratio - n) > 1e-9:
            raise InvalidConfig(f"t_final={self.t_final} is not an integer multiple of k={self.k}")
        return n


class MonodomainSolver:
    """Holds the assembled system and the discrete trajectory for one run.

    ``multigrid`` is the V-cycle that preconditions CG on S, or None.  Its
    list of grids, built once by ``_multigrid``, starts at the cells of the
    uniform mesh and halves them while both cell counts are even and
    k / H^2 >= 1 on the coarse spacing H.  A coarser S is dominated by the
    mass matrix and plain CG needs few iterations on it, so the hierarchy
    has more than one level only for k >= 4 h^2; at k = h^2 CG stays plain.
    """

    def __init__(self, mesh: TriMesh, cfg: SolverConfig):
        cfg.n_steps()  # validate k, T
        self.mesh = mesh
        self.cfg = cfg
        self.mass = assemble_mass(mesh)
        # M and A are scattered from the same triangles, so they share their
        # diagonals and S = M + k A is a sum of data arrays.  A is needed
        # for nothing else, so it is not kept.
        A = assemble_stiffness(mesh, cfg.diffusion)
        M = self.mass
        self.system = DiaMatrix(M.nrows, M.ncols, M.offsets, M.data + cfg.k * A.data, M.nnz)
        self.multigrid = _multigrid(mesh, self.system, cfg.k)
        v = interpolate_nodal(mesh, cfg.v0)
        w = interpolate_nodal(mesh, cfg.w0)
        self.state = SolverState(v=v, w=w, t=0.0, n=0)
        self._x = mesh.nodes[:, 0]
        self._y = mesh.nodes[:, 1]

    def step(self) -> SolverState:
        """Advance one time level; returns the new state."""
        cfg, s = self.cfg, self.state
        k = cfg.k
        i_ion, g = cfg.ionic(s.v, s.w)
        f = np.asarray(i_ion, dtype=float)
        g = np.broadcast_to(np.asarray(g, dtype=float), s.w.shape)
        if cfg.i_app is not None:
            f = f + cfg.i_app(self._x, self._y, s.t)
        if cfg.w_source is not None:
            g = g + cfg.w_source(self._x, self._y, s.t)
        rhs = spmv(self.mass, s.v + k * f)
        v_new, _ = cg_solve(self.system, rhs, x0=s.v, rel_tol=cfg.cg_rel_tol,
                            precondition=self.multigrid)
        w_new = s.w + k * g
        if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(w_new))):
            raise NonFiniteState(f"non-finite nodal values after step {s.n + 1} (t={s.t + k})")
        self.state = SolverState(v=v_new, w=w_new, t=(s.n + 1) * k, n=s.n + 1)
        return self.state

    def run(self) -> SolverState:
        """Apply exactly t_final / k steps."""
        for _ in range(self.cfg.n_steps()):
            self.step()
        return self.state


def _multigrid(mesh: TriMesh, S: DiaMatrix, k: float) -> VCycle | None:
    """V-cycle for S on the grids nested below ``mesh``, or None when the
    hierarchy has one level (or the mesh is not a uniform grid)."""
    try:
        nx, ny = grid_cells(mesh.bounds, mesh.h)
    except NonDivisibleSpacing:
        return None
    if S.nrows != (nx + 1) * (ny + 1) or S.offsets.tolist() != grid_offsets(nx):
        return None
    grids, H = [(nx, ny)], 2 * mesh.h
    while nx % 2 == 0 and ny % 2 == 0 and k >= H * H:
        nx, ny, H = nx // 2, ny // 2, 2 * H
        grids.append((nx, ny))
    return VCycle(S, grids) if len(grids) > 1 else None
