"""Time integration of the monodomain system.

Linearized backward-Euler Galerkin scheme: diffusion is implicit, the
reaction pair is evaluated at the previous time level, so each step is one
SPD solve with the fixed operator S = M + k A.  The gating update reduces
to a nodal ODE because the consistent mass matrix appears on both sides
and cancels.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from .sparse import DiaMatrix, VCycle, cg_solve, spmv


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
    assembled and dropped); only S = M + k A and its V-cycle are per solver.

    ``multigrid`` is the V-cycle that preconditions CG on S, or None.  S is
    its finest level; ``_multigrid`` hands it the coarse grids, which halve
    the cells of the uniform mesh while both cell counts are even and
    k / H^2 >= 1 on the coarse spacing H.  A coarser S is dominated by the
    mass matrix and plain CG needs few iterations on it, so the hierarchy
    has more than one level only for k >= 4 h^2; at k = h^2 CG stays plain.
    """

    def __init__(self, mesh: TriMesh, cfg: SolverConfig):
        self.cfg = cfg
        # M and A are scattered from the same triangles, so they share their
        # diagonals and S = M + k A is a sum of data arrays.
        ops = mesh.operators
        if cfg.diffusion not in ops:
            ops[cfg.diffusion] = assemble_mass(mesh), assemble_stiffness(mesh, cfg.diffusion)
        self.mass, A = ops[cfg.diffusion]
        data = cfg.k * A.data
        data += self.mass.data  # M + k A, without a second temporary
        data.setflags(write=False)  # so that DiaMatrix need not copy it
        self.system = replace(self.mass, data=data)
        self.multigrid = _multigrid(mesh, self.system, cfg.k)
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
        v_new, _ = cg_solve(self.system, rhs, x0=s.v, precondition=self.multigrid)
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


def _multigrid(mesh: TriMesh, S: DiaMatrix, k: float) -> VCycle | None:
    """V-cycle for S on the grids nested below ``mesh``, or None when the
    hierarchy has one level (or the mesh is not the uniform grid)."""
    if mesh.grid is None:
        return None
    (nx, ny), H = mesh.grid, 2 * mesh.h
    cells = []
    while nx % 2 == 0 and ny % 2 == 0 and k >= H * H:
        nx, ny, H = nx // 2, ny // 2, 2 * H
        cells.append((nx, ny))
    return VCycle(S, cells) if cells else None
