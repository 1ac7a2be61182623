"""Reference solutions, error rates, and the refinement study driver.

Two verification routes:

* homogeneous mode: uniform initial data makes the diffusion term vanish
  identically, so the exact PDE solution is the cell ODE.  It is solved by
  classical RK4, with the step count doubled until two runs agree to a
  relative 1e-13 and any MS gate crossing located inside its step; the
  last gap is reported as the reference's error.  This is the experiment
  behind the published rate table.
* manufactured mode: an analytic space-time solution with zero Neumann
  flux; source terms are obtained by substitution.  Used to measure the
  spatial and temporal orders independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .assembly import (
    IDENTITY_DIFFUSION,
    NEGLIGIBLE_ENTRY,
    DiffusionTensor,
    NonFiniteValue,
    interpolate_nodal,
    l2_norm,
)
from .ionic import IonicModel, MsParams, eval_ms, spectral_radius
from .mesh import DEFAULT_BOUNDS, build_uniform_mesh, grid_cells
from .sparse import NoConvergence
from .solver import MonodomainSolver, SolverConfig

# Uniform initial data (v0, w0) of the homogeneous mode.
HOMOGENEOUS_V0 = 0.2
HOMOGENEOUS_W0 = 0.1

# converged_reference: two successive RK4 runs must agree to this relative
# tolerance.  Past about a million steps the round-off RK4 accumulates
# (about sqrt(n) * eps) reaches it, so doubling further cannot help.
REFERENCE_RTOL = 1e-13
REFERENCE_MAX_STEPS = 2**20


class NonPositiveError(ValueError):
    pass


@dataclass(frozen=True)
class ConvergenceRecord:
    """One refinement level of a study: mesh size, step size, error, rates.

    ``sroc``/``troc`` are None at the first level, whenever the
    corresponding resolution did not change between levels, and at every
    level once an error has underflowed to 0 (a rate needs two positive errors).
    ``reference_error`` is, in homogeneous mode, the L2 norm over the
    domain of the exact solution's self-estimated error (see
    ``converged_reference``), on the same scale as ``l2_error``; None in
    manufactured mode, whose exact solution is analytic.
    """

    level: int
    h: float
    dt: float
    steps: int
    l2_error: float
    sroc: float | None = None
    troc: float | None = None
    reference_error: float | None = None


def _rk4_step(f, v, w, dt):
    k1v, k1w = f(v, w)
    k2v, k2w = f(v + dt / 2 * k1v, w + dt / 2 * k1w)
    k3v, k3w = f(v + dt / 2 * k2v, w + dt / 2 * k2w)
    k4v, k4w = f(v + dt * k3v, w + dt * k3w)
    return v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v), w + dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)


def _ms_step_across_gate(p: MsParams, v, w, dt):
    """One RK4 step of length dt that starts on one side of the MS gate and
    ends on the other, split where v reaches u_gate.

    The first part stays on the branch of g that v starts on; its length is
    found by bisection, down to adjacent floats, as the shortest at which v
    has left that side.  The rest of the step is taken on the other branch.
    """
    below = v <= p.u_gate
    start_branch = partial(eval_ms, p=p, below=below)
    lo, hi = 0.0, dt
    mid = hi / 2
    while lo < mid < hi:
        if (_rk4_step(start_branch, v, w, mid)[0] <= p.u_gate) == below:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    v, w = _rk4_step(start_branch, v, w, hi)
    return _rk4_step(partial(eval_ms, p=p, below=not below), v, w, dt - hi)


def ode_reference(
    model: IonicModel, v0: float, w0: float, t_final: float, dt_ref: float
) -> tuple[float, float]:
    """Cell ODE v' = i_ion, w' = g solved by classical RK4 at a fixed step.

    With spatially uniform initial data this is the exact monodomain
    solution at every point of the domain.  The ms g jumps where v crosses
    u_gate, which would cut RK4 to first order; a step that carries v
    across the gate is split there (``_ms_step_across_gate``).  Every other
    step is the plain RK4 step.
    """
    if dt_ref <= 0 or t_final < 0:
        raise ValueError("need dt_ref > 0 and t_final >= 0")
    n = max(1, round(t_final / dt_ref))
    dt = t_final / n
    gate = model.params.u_gate if model.kind == "ms" else None

    v, w, t = float(v0), float(w0), 0.0
    for _ in range(n):
        v_next, w_next = _rk4_step(model, v, w, dt)
        if gate is not None and (v_next <= gate) != (v <= gate):
            v_next, w_next = _ms_step_across_gate(model.params, v, w, dt)
        v, w = v_next, w_next
        t += dt
        if not (math.isfinite(v) and math.isfinite(w)):
            raise NonFiniteValue(f"cell ODE blew up at t={t}")
    return v, w


def converged_reference(
    model: IonicModel, v0: float, w0: float, t_final: float, dt: float
) -> tuple[float, float, float]:
    """``ode_reference`` refined until it checks its own accuracy.

    Starts at ceil(t_final / dt) RK4 steps and doubles the count until v
    and w of two successive runs agree to REFERENCE_RTOL * max(1, |value|).
    Returns (v, w) of the finer run and the larger of the two gaps, an
    upper estimate of its error (RK4 makes the finer run's error about
    1/15 of the gap).

    Raises:
        NoConvergence: that would take more than REFERENCE_MAX_STEPS steps.
    """
    n = max(1, math.ceil(t_final / dt))
    v, w = ode_reference(model, v0, w0, t_final, t_final / n)
    gap = math.inf
    while 2 * n <= REFERENCE_MAX_STEPS:
        n *= 2
        v_fine, w_fine = ode_reference(model, v0, w0, t_final, t_final / n)
        gap_v, gap_w = abs(v_fine - v), abs(w_fine - w)
        gap = max(gap_v, gap_w)
        if (gap_v <= REFERENCE_RTOL * max(1.0, abs(v_fine))
                and gap_w <= REFERENCE_RTOL * max(1.0, abs(w_fine))):
            return v_fine, w_fine, gap
        v, w = v_fine, w_fine
    raise NoConvergence(
        f"cell ODE reference did not converge: RK4 runs still differ by {gap:.3g} "
        f"at {n} steps (cap {REFERENCE_MAX_STEPS})",
        residual=gap, iterations=n,
    )


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

    ``ManufacturedProblem(model, diffusion)``: v(x, y, t) = exp(-t)
    cos(omega (x - xmin)) cos(omega (y - ymin)), w = 0.5 v, on the square
    ``DEFAULT_BOUNDS`` of side L with omega = pi / L, so that the conormal
    flux vanishes on the boundary.  The diffusion tensor must be constant
    diagonal for the same reason (else ValueError).  The sources
    ``i_app(v)`` and ``w_source(v)`` take the exact nodal v.
    """

    def __init__(
        self,
        model: IonicModel = IonicModel("fhn"),
        diffusion: DiffusionTensor = IDENTITY_DIFFUSION,
    ):
        D = diffusion.constant
        if D is None or abs(D[0, 1]) > NEGLIGIBLE_ENTRY * np.abs(D).max():
            raise ValueError("manufactured mode needs a constant diagonal diffusion tensor")
        self.omega = math.pi / (DEFAULT_BOUNDS[2] - DEFAULT_BOUNDS[0])
        self.model = model
        self.diffusion = diffusion

    def v_on(self, x, y):
        """t -> v(x, y, t), with the cosines at (x, y) computed once."""
        xmin, ymin = DEFAULT_BOUNDS[0], DEFAULT_BOUNDS[1]
        om = self.omega
        cx, cy = np.cos(om * (x - xmin)), np.cos(om * (y - ymin))
        return lambda t: np.exp(-t) * cx * cy

    def i_app(self, v):
        # v_t - div(D grad v) - i_ion(v, w) at w = v / 2: v_t = -v, and each
        # Laplacian direction contributes -omega^2 v for the cosine product.
        dxx, dyy = self.diffusion.constant[0, 0], self.diffusion.constant[1, 1]
        i_ion, _ = self.model(v, 0.5 * v)
        return -v + (dxx + dyy) * self.omega**2 * v - i_ion

    def w_source(self, v):
        # w_t - g(v, w) at w = v / 2
        w = 0.5 * v
        _, g = self.model(v, w)
        return -w - g

    def sources(self, v):
        """(i_app(v), w_source(v)), the nodal sources of ``SolverConfig.source``."""
        return self.i_app(v), self.w_source(v)


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

    def rates(xs):
        return [None] + [
            None if xs[n - 1] == xs[n]
            else math.log(errors[n - 1] / errors[n]) / math.log(xs[n - 1] / xs[n])
            for n in range(1, len(errors))
        ]

    return rates(spacings), rates(timesteps)


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to rebuild one block of the rate table.

    ``sweep`` selects how ``levels`` is read: "mesh" treats them as grid
    spacings (with dt from ``dt_rule``), "timestep" treats them as time
    steps on the fixed mesh ``fixed_h`` (manufactured mode only).  The
    config keeps ``levels`` as the tuple of floats it checked.  All
    inputs, every level included, are checked here before any compute:
    each h must divide the domain's sides and each dt the final time into
    a whole number of parts (``mesh.whole_count``; a ratio that overflows
    to inf is not whole), down to the stability of the explicit reaction
    step along the whole trajectory.  The manufactured solution and CG's
    stopping rule are fixed (``ManufacturedProblem``,
    ``monofem.sparse.DEFAULT_CG_TOL``).
    """

    model: IonicModel
    mode: str = "homogeneous"  # homogeneous | manufactured
    levels: Sequence[float] = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    t_final: float = 0.25
    dt_rule: object = "h2"  # "h2" or a fixed time step
    diffusion: DiffusionTensor = IDENTITY_DIFFUSION
    sweep: str = "mesh"  # mesh | timestep
    fixed_h: float = 1 / 64

    def __post_init__(self):
        if self.mode not in ("homogeneous", "manufactured"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.sweep not in ("mesh", "timestep"):
            raise ValueError(f"unknown sweep {self.sweep!r}")
        if self.sweep == "timestep" and self.mode != "manufactured":
            raise ValueError("a timestep sweep needs manufactured mode")
        object.__setattr__(self, "levels", tuple(map(float, self.levels)))
        if len(self.levels) == 0:
            raise ValueError("need at least one refinement level")
        if any(b >= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly decreasing")
        if self.mode == "manufactured":  # checks D
            ManufacturedProblem(self.model, self.diffusion)
        # The reaction step is forward Euler, stable only while dt * rho(J) <= 2.
        # In homogeneous mode diffusion vanishes and the scheme's solution is
        # the cell recursion, so every state of it is checked.  In manufactured
        # mode the exact states are (u, u / 2) with u = exp(-t) C in [-1, 1],
        # which C fills already at t = 0: that interval is sampled, once for
        # all levels.
        rho = None
        with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as rho = inf
            for h, dt in zip(*self.resolutions()):  # also rejects h, dt <= 0
                grid_cells(DEFAULT_BOUNDS, h)
                steps = SolverConfig(k=dt, t_final=self.t_final, ionic=self.model).n_steps
                if self.mode == "homogeneous":
                    rho = spectral_radius(self.model, *discrete_cell_trajectory(
                        self.model, HOMOGENEOUS_V0, HOMOGENEOUS_W0, dt, steps))
                elif rho is None:
                    u = np.linspace(-1.0, 1.0, 2**14)
                    rho = spectral_radius(self.model, u, 0.5 * u)
                if dt * rho > 2:
                    raise ValueError(
                        f"dt={dt:g} makes the explicit reaction step unstable along the "
                        f"{self.mode} trajectory (h={h:g}): dt * rho(J) = {dt * rho:.3g} > 2"
                    )

    def resolutions(self) -> tuple[list[float], list[float]]:
        """(h, dt) per level."""
        if self.sweep == "timestep":
            return [float(self.fixed_h)] * len(self.levels), list(self.levels)
        hs = list(self.levels)
        if self.dt_rule == "h2":
            return hs, [h * h for h in hs]
        return hs, [float(self.dt_rule)] * len(hs)


def convergence_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Run every refinement level and attach observed rates.

    Consecutive levels with the same h (a timestep sweep) share one mesh
    and its cached set-up (``TriMesh.operators``).  A mesh is dropped as
    soon as h changes, before the next one is built, so a spatial ladder
    holds one level's mesh at a time.
    """
    hs, dts = cfg.resolutions()
    # Homogeneous initial data and the exact v at t_final; manufactured ones per level.
    if cfg.mode == "manufactured":
        p = ManufacturedProblem(cfg.model, cfg.diffusion)
        reference_error = None
    else:
        data = dict(v0=HOMOGENEOUS_V0, w0=HOMOGENEOUS_W0)
        v_final, _, gap = converged_reference(
            cfg.model, HOMOGENEOUS_V0, HOMOGENEOUS_W0, cfg.t_final, min(dts))
        xmin, ymin, xmax, ymax = DEFAULT_BOUNDS
        reference_error = gap * math.sqrt((xmax - xmin) * (ymax - ymin))  # same gap at every node

    steps, errors = [], []
    mesh = None
    for h, dt in zip(hs, dts):
        if mesh is None or mesh.h != h:
            mesh = None  # free the previous mesh and its operators first
            mesh = build_uniform_mesh(DEFAULT_BOUNDS, h)
        if cfg.mode == "manufactured":
            v_at = p.v_on(*mesh.nodes.T)  # the cosines of this level, computed once
            v0, v_final = v_at(0.0), v_at(cfg.t_final)
            data = dict(v0=v0, w0=0.5 * v0, source=lambda t: p.sources(v_at(t)))
        scfg = SolverConfig(k=dt, t_final=cfg.t_final, ionic=cfg.model, diffusion=cfg.diffusion,
                            **data)
        solver = MonodomainSolver(mesh, scfg)
        final = solver.run()
        steps.append(scfg.n_steps)
        errors.append(l2_norm(solver.mass, final.v - interpolate_nodal(mesh, v_final)))
        del solver, final  # free this level's S and V-cycle before the next ones are built

    measurable = len(errors) >= 2 and min(errors) > 0
    sroc, troc = compute_rates(errors, hs, dts) if measurable else ([None] * len(errors),) * 2
    return [
        ConvergenceRecord(level, *row, sroc[level], troc[level], reference_error)
        for level, row in enumerate(zip(hs, dts, steps, errors))
    ]
