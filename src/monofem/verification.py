"""Reference solutions, error rates, and the refinement study driver.

Two verification routes:

* homogeneous mode: uniform initial data makes the diffusion term vanish
  identically, so the exact PDE solution is the cell ODE solved to high
  accuracy (classical RK4).  This is the experiment behind the published
  rate table.
* manufactured mode: an analytic space-time solution with zero Neumann
  flux; source terms are obtained by substitution.  Used to measure the
  spatial and temporal orders independently.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assembly import (
    IDENTITY_DIFFUSION,
    DiffusionTensor,
    NonFiniteValue,
    interpolate_nodal,
    l2_norm,
)
from .ionic import IonicModel, spectral_radius
from .mesh import DEFAULT_BOUNDS, build_uniform_mesh, grid_cells
from .sparse import DEFAULT_CG_TOL
from .solver import MonodomainSolver, SolverConfig

# Uniform initial data (v0, w0) of the homogeneous mode.
HOMOGENEOUS_V0 = 0.2
HOMOGENEOUS_W0 = 0.1


class NonPositiveError(ValueError):
    pass


class InvalidWavenumber(ValueError):
    pass


@dataclass(frozen=True)
class ConvergenceRecord:
    """One refinement level of a study: mesh size, step size, error, rates.

    ``sroc``/``troc`` are None at the first level, and also whenever the
    corresponding resolution did not change between levels.
    """

    level: int
    h: float
    dt: float
    steps: int
    l2_error: float
    sroc: float | None = None
    troc: float | None = None


def ode_reference(
    model: IonicModel, v0: float, w0: float, t_final: float, dt_ref: float
) -> tuple[float, float]:
    """Cell ODE v' = i_ion, w' = g solved by classical RK4.

    With spatially uniform initial data this is the exact monodomain
    solution at every point of the domain.
    """
    if dt_ref <= 0 or t_final < 0:
        raise ValueError("need dt_ref > 0 and t_final >= 0")
    n = max(1, round(t_final / dt_ref))
    dt = t_final / n

    v, w, t = float(v0), float(w0), 0.0
    for _ in range(n):
        k1v, k1w = model(v, w)
        k2v, k2w = model(v + dt / 2 * k1v, w + dt / 2 * k1w)
        k3v, k3w = model(v + dt / 2 * k2v, w + dt / 2 * k2w)
        k4v, k4w = model(v + dt * k3v, w + dt * k3w)
        v += dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        w += dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        t += dt
        if not (math.isfinite(v) and math.isfinite(w)):
            raise NonFiniteValue(f"cell ODE blew up at t={t}")
    return v, w


def discrete_cell_trajectory(
    model: IonicModel, v0: float, w0: float, k: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar recursion v_n = v_{n-1} + k i_ion, w_n = w_{n-1} + k g.

    This is exactly what the full scheme reduces to for spatially uniform
    states (the stiffness term annihilates constants), so it doubles as an
    independent oracle for the PDE solver.  Returns arrays of length
    n_steps + 1 including the initial values.
    """
    v = np.empty(n_steps + 1)
    w = np.empty(n_steps + 1)
    v[0], w[0] = v0, w0
    for n in range(1, n_steps + 1):
        i_ion, g = model(v[n - 1], w[n - 1])
        v[n] = v[n - 1] + k * i_ion
        w[n] = w[n - 1] + k * g
    return v, w


class ManufacturedProblem:
    """Analytic solution with matching source terms for order measurement.

    ``ManufacturedProblem(m, model, diffusion)``: v(x, y, t) = exp(-t)
    cos(omega (x - xmin)) cos(omega (y - ymin)), w = 0.5 v, on the square
    ``DEFAULT_BOUNDS`` of side L with omega = m pi / L.  An integer m >= 0
    makes the conormal flux vanish on the boundary; the diffusion tensor
    must be constant diagonal for the same reason (else InvalidWavenumber).
    """

    def __init__(
        self,
        m: int,
        model: IonicModel = IonicModel("fhn"),
        diffusion: DiffusionTensor = IDENTITY_DIFFUSION,
    ):
        if not isinstance(m, numbers.Integral) or m < 0:
            raise InvalidWavenumber(f"wavenumber index must be a non-negative integer, got {m!r}")
        if diffusion.constant is None or abs(diffusion.constant[0, 1]) > 1e-14:
            raise InvalidWavenumber("manufactured mode needs a constant diagonal diffusion tensor")
        self.omega = m * math.pi / (DEFAULT_BOUNDS[2] - DEFAULT_BOUNDS[0])
        self.model = model
        self.diffusion = diffusion

    def v_exact(self, x, y, t):
        xmin, ymin = DEFAULT_BOUNDS[0], DEFAULT_BOUNDS[1]
        om = self.omega
        return np.exp(-t) * np.cos(om * (x - xmin)) * np.cos(om * (y - ymin))

    def w_exact(self, x, y, t):
        return 0.5 * self.v_exact(x, y, t)

    def i_app(self, x, y, t):
        # v_t - div(D grad v) - i_ion(v, w); each Laplacian direction
        # contributes -omega^2 v for the separable cosine product.
        v = self.v_exact(x, y, t)
        w = 0.5 * v
        dxx, dyy = self.diffusion.constant[0, 0], self.diffusion.constant[1, 1]
        i_ion, _ = self.model(v, w)
        return -v + (dxx + dyy) * self.omega**2 * v - i_ion

    def w_source(self, x, y, t):
        v = self.v_exact(x, y, t)
        w = 0.5 * v
        _, g = self.model(v, w)
        return -w - g


def compute_rates(
    errors: Sequence[float], spacings: Sequence[float], timesteps: Sequence[float]
) -> tuple[list, list]:
    """Observed convergence rates from consecutive refinement levels.

    sroc[n] = ln(e_{n-1}/e_n) / ln(h_{n-1}/h_n) and likewise troc against
    the time steps.  Entry 0 is None; an entry is also None when the
    corresponding resolution ratio is 1 (nothing was refined).
    """
    errors = [float(e) for e in errors]
    spacings = [float(s) for s in spacings]
    timesteps = [float(t) for t in timesteps]
    if not (len(errors) == len(spacings) == len(timesteps)):
        raise ValueError("errors, spacings and timesteps must have equal length")
    if len(errors) < 2:
        raise ValueError("need at least two refinement levels")
    if min(errors) <= 0 or min(spacings) <= 0 or min(timesteps) <= 0:
        raise NonPositiveError("errors, spacings and timesteps must all be positive")

    def rate(prev_e, cur_e, prev_x, cur_x):
        if prev_x == cur_x:
            return None
        return math.log(prev_e / cur_e) / math.log(prev_x / cur_x)

    sroc = [None] + [
        rate(errors[n - 1], errors[n], spacings[n - 1], spacings[n])
        for n in range(1, len(errors))
    ]
    troc = [None] + [
        rate(errors[n - 1], errors[n], timesteps[n - 1], timesteps[n])
        for n in range(1, len(errors))
    ]
    return sroc, troc


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to rebuild one block of the rate table.

    ``sweep`` selects how ``levels`` is read: "mesh" treats them as grid
    spacings (with dt from ``dt_rule``), "timestep" treats them as time
    steps on the fixed mesh ``fixed_h`` (manufactured mode only).  All
    inputs, every level included, are checked here before any compute,
    down to the stability of the explicit reaction step: along the whole
    trajectory in homogeneous mode, at the initial data in manufactured mode.
    """

    model: IonicModel
    mode: str = "homogeneous"  # homogeneous | manufactured
    levels: Sequence[float] = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    t_final: float = 0.25
    dt_rule: object = "h2"  # "h2" or a fixed time step
    diffusion: DiffusionTensor = IDENTITY_DIFFUSION
    wavenumber_index: int = 1  # manufactured: omega = m pi / side
    sweep: str = "mesh"  # mesh | timestep
    fixed_h: float = 1 / 64
    cg_rel_tol: float = DEFAULT_CG_TOL

    def __post_init__(self):
        if self.mode not in ("homogeneous", "manufactured"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.sweep not in ("mesh", "timestep"):
            raise ValueError(f"unknown sweep {self.sweep!r}")
        if self.sweep == "timestep" and self.mode != "manufactured":
            raise ValueError("a timestep sweep needs manufactured mode")
        if len(self.levels) == 0:
            raise ValueError("need at least one refinement level")
        if any(b >= a for a, b in zip(self.levels, list(self.levels)[1:])):
            raise ValueError("levels must be strictly decreasing")
        if not 0 < self.cg_rel_tol < math.inf:
            raise ValueError(f"CG tolerance must be finite and positive, got {self.cg_rel_tol!r}")
        problem = None
        if self.mode == "manufactured":  # checks m, D
            problem = ManufacturedProblem(self.wavenumber_index, self.model, self.diffusion)
        levels = []
        for h, dt in zip(*self.resolutions()):  # also rejects h, dt <= 0
            grid_cells(DEFAULT_BOUNDS, h)
            steps = SolverConfig(k=dt, t_final=self.t_final, ionic=self.model).n_steps()
            levels.append((h, dt, steps))
        # The reaction step is forward Euler, stable only while dt * rho(J) <= 2.
        # In homogeneous mode diffusion vanishes and the scheme's solution is
        # the cell recursion, so every state of it is checked; in manufactured
        # mode, the initial data on the level's nodes.
        with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as rho = inf
            for h, dt, steps in levels:
                if problem is None:
                    where = "along the homogeneous trajectory"
                    states = discrete_cell_trajectory(
                        self.model, HOMOGENEOUS_V0, HOMOGENEOUS_W0, dt, steps)
                else:
                    where = "at the initial data"
                    states = _initial_states(problem, h)
                rho = spectral_radius(self.model, *states)
                if dt * rho > 2:
                    raise ValueError(
                        f"dt={dt:g} makes the explicit reaction step unstable {where} "
                        f"(h={h:g}): dt * rho(J) = {dt * rho:.3g} > 2"
                    )

    def resolutions(self) -> tuple[list[float], list[float]]:
        """(h, dt) per level."""
        if self.sweep == "timestep":
            return [float(self.fixed_h)] * len(self.levels), [float(k) for k in self.levels]
        hs = [float(h) for h in self.levels]
        if self.dt_rule == "h2":
            return hs, [h * h for h in hs]
        return hs, [float(self.dt_rule)] * len(hs)


def _initial_states(problem: ManufacturedProblem, h: float):
    """Manufactured (v0, w0) on the nodes of the mesh of spacing h."""
    xmin, ymin, xmax, ymax = DEFAULT_BOUNDS
    nx, ny = grid_cells(DEFAULT_BOUNDS, h)
    x = np.linspace(xmin, xmax, nx + 1)[None, :]
    y = np.linspace(ymin, ymax, ny + 1)[:, None]
    return problem.v_exact(x, y, 0.0), problem.w_exact(x, y, 0.0)


def convergence_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Run every refinement level and attach observed rates."""
    hs, dts = cfg.resolutions()
    # Initial data and sources of every level, and the exact v at t_final.
    if cfg.mode == "manufactured":
        p = ManufacturedProblem(cfg.wavenumber_index, cfg.model, cfg.diffusion)
        data = dict(v0=lambda x, y: p.v_exact(x, y, 0.0), w0=lambda x, y: p.w_exact(x, y, 0.0),
                    i_app=p.i_app, w_source=p.w_source)
        v_final = lambda x, y: p.v_exact(x, y, cfg.t_final)
    else:
        data = dict(v0=HOMOGENEOUS_V0, w0=HOMOGENEOUS_W0)
        # RK4 error O(dt_ref^4) sits far below the O(k) error being measured;
        # the discontinuous MS gate is only located to dt_ref, so shrink it.
        dt_ref = min(dts) / (1000 if cfg.model.kind == "ms" else 100)
        v_final, _ = ode_reference(cfg.model, HOMOGENEOUS_V0, HOMOGENEOUS_W0, cfg.t_final, dt_ref)

    steps, errors = [], []
    for h, dt in zip(hs, dts):
        mesh = build_uniform_mesh(DEFAULT_BOUNDS, h)
        scfg = SolverConfig(k=dt, t_final=cfg.t_final, ionic=cfg.model, diffusion=cfg.diffusion,
                            cg_rel_tol=cfg.cg_rel_tol, **data)
        solver = MonodomainSolver(mesh, scfg)
        final = solver.run()
        steps.append(scfg.n_steps())
        errors.append(l2_norm(solver.mass, final.v - interpolate_nodal(mesh, v_final)))
        del mesh, solver, final  # free this level before the next one is assembled

    sroc, troc = compute_rates(errors, hs, dts) if len(errors) >= 2 else ([None], [None])
    return [
        ConvergenceRecord(level, *row, sroc[level], troc[level])
        for level, row in enumerate(zip(hs, dts, steps, errors))
    ]
