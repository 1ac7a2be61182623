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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .assembly import (
    IDENTITY_DIFFUSION,
    DiffusionTensor,
    NonFiniteValue,
    interpolate_nodal,
    l2_norm,
)
from .ionic import IonicModel
from .mesh import DEFAULT_BOUNDS, build_uniform_mesh
from .sparse import DEFAULT_CG_TOL
from .solver import MonodomainSolver, SolverConfig


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
    model: IonicModel,
    v0: float,
    w0: float,
    t_final: float,
    dt_ref: float,
    i_app: Callable[[float], float] | None = None,
) -> tuple[float, float]:
    """Cell ODE v' = i_ion + i_app(t), w' = g solved by classical RK4.

    With spatially uniform initial data and spatially constant i_app this
    is the exact monodomain solution at every point of the domain.
    """
    if dt_ref <= 0 or t_final < 0:
        raise ValueError("need dt_ref > 0 and t_final >= 0")
    n = max(1, round(t_final / dt_ref))
    dt = t_final / n
    src = (lambda t: 0.0) if i_app is None else i_app

    def rhs(t, v, w):
        i_ion, g = model(v, w)
        return i_ion + src(t), g

    v, w, t = float(v0), float(w0), 0.0
    for _ in range(n):
        k1v, k1w = rhs(t, v, w)
        k2v, k2w = rhs(t + dt / 2, v + dt / 2 * k1v, w + dt / 2 * k1w)
        k3v, k3w = rhs(t + dt / 2, v + dt / 2 * k2v, w + dt / 2 * k2w)
        k4v, k4w = rhs(t + dt, v + dt * k3v, w + dt * k3w)
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

    v(x, y, t) = exp(-t) cos(omega (x - xmin)) cos(omega (y - ymin)),
    w = 0.5 v.  The wavenumber must satisfy omega * side_length = m pi so
    that the conormal flux vanishes on the rectangle boundary; the
    diffusion tensor must be constant diagonal for the same reason.
    """

    def __init__(
        self,
        omega: float,
        model: IonicModel = IonicModel("fhn"),
        diffusion: DiffusionTensor = IDENTITY_DIFFUSION,
        bounds=DEFAULT_BOUNDS,
    ):
        xmin, ymin, xmax, ymax = bounds
        for side in (xmax - xmin, ymax - ymin):
            m = omega * side / math.pi
            if abs(m - round(m)) > 1e-9 or omega < 0:
                raise InvalidWavenumber(
                    f"omega={omega} does not give zero Neumann flux on a side of length {side}"
                )
        if diffusion.constant is None or abs(diffusion.constant[0, 1]) > 1e-14:
            raise InvalidWavenumber("manufactured mode needs a constant diagonal diffusion tensor")
        self.omega = float(omega)
        self.model = model
        self.diffusion = diffusion
        self.bounds = bounds

    def v_exact(self, x, y, t):
        xmin, ymin = self.bounds[0], self.bounds[1]
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
    steps on the fixed mesh ``fixed_h`` (manufactured mode only).
    """

    model: IonicModel
    mode: str = "homogeneous"  # homogeneous | manufactured
    levels: Sequence[float] = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    t_final: float = 0.25
    dt_rule: object = "h2"  # "h2" or a fixed time step
    diffusion: DiffusionTensor = IDENTITY_DIFFUSION
    bounds: tuple = DEFAULT_BOUNDS
    v0: float = 0.2
    w0: float = 0.1
    wavenumber_index: int = 1  # manufactured: omega = m pi / side
    sweep: str = "mesh"  # mesh | timestep
    fixed_h: float = 1 / 64
    cg_rel_tol: float = DEFAULT_CG_TOL

    def __post_init__(self):
        if self.mode not in ("homogeneous", "manufactured"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.sweep not in ("mesh", "timestep"):
            raise ValueError(f"unknown sweep {self.sweep!r}")
        if len(self.levels) == 0:
            raise ValueError("need at least one refinement level")
        if any(b >= a for a, b in zip(self.levels, list(self.levels)[1:])):
            raise ValueError("levels must be strictly decreasing")
        if not 0 < self.cg_rel_tol < math.inf:
            raise ValueError(f"CG tolerance must be finite and positive, got {self.cg_rel_tol!r}")

    def resolutions(self) -> tuple[list[float], list[float]]:
        """(h, dt) per level."""
        if self.sweep == "timestep":
            return [float(self.fixed_h)] * len(self.levels), [float(k) for k in self.levels]
        hs = [float(h) for h in self.levels]
        if self.dt_rule == "h2":
            return hs, [h * h for h in hs]
        return hs, [float(self.dt_rule)] * len(hs)


def convergence_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Run every refinement level and attach observed rates."""
    hs, dts = cfg.resolutions()
    manufactured = cfg.mode == "manufactured"

    if manufactured:
        side = cfg.bounds[2] - cfg.bounds[0]
        problem = ManufacturedProblem(
            cfg.wavenumber_index * math.pi / side, cfg.model, cfg.diffusion, cfg.bounds
        )
    else:
        v_ref = _homogeneous_reference(cfg, min(dts))

    rows = []
    for level, (h, dt) in enumerate(zip(hs, dts)):
        mesh = build_uniform_mesh(cfg.bounds, h)
        if manufactured:
            v0 = lambda x, y: problem.v_exact(x, y, 0.0)
            w0 = lambda x, y: problem.w_exact(x, y, 0.0)
            i_app, w_source = problem.i_app, problem.w_source
        else:
            v0, w0, i_app, w_source = cfg.v0, cfg.w0, None, None
        scfg = SolverConfig(
            k=dt,
            t_final=cfg.t_final,
            ionic=cfg.model,
            diffusion=cfg.diffusion,
            v0=v0,
            w0=w0,
            i_app=i_app,
            w_source=w_source,
            cg_rel_tol=cfg.cg_rel_tol,
        )
        solver = MonodomainSolver(mesh, scfg)
        final = solver.run()
        if manufactured:
            target = interpolate_nodal(mesh, lambda x, y: problem.v_exact(x, y, cfg.t_final))
        else:
            target = np.full(mesh.n_nodes, v_ref)
        err = l2_norm(solver.mass, final.v - target)
        rows.append((level, h, dt, scfg.n_steps(), err))

    errors = [r[4] for r in rows]
    if len(rows) >= 2:
        sroc, troc = compute_rates(errors, hs, dts)
    else:
        sroc = troc = [None]
    return [
        ConvergenceRecord(level, h, dt, steps, err, sroc[i], troc[i])
        for i, (level, h, dt, steps, err) in enumerate(rows)
    ]


def _homogeneous_reference(cfg: StudyConfig, k_finest: float) -> float:
    """Exact solution value at t_final for the uniform-initial-data runs."""
    # RK4 error O(dt_ref^4) sits far below the O(k) error being measured;
    # the discontinuous MS gate is only located to dt_ref, so shrink it.
    divisor = 1000 if cfg.model.kind == "ms" else 100
    v, _ = ode_reference(cfg.model, cfg.v0, cfg.w0, cfg.t_final, k_finest / divisor)
    return v
