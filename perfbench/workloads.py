"""The four workloads: inputs, the timed call into monofem, and its check.

Each study workload is an acceptance configuration with the level list
kept and only the final time shortened, so that a pass fits several
times into one run.  ``sweep_dt`` keeps T = 3/40 rather than the
shortest 1/40: with 7 solves per pass its fixed set-up (0.5 s of
assembly) would push CG below 85% of the wall time.  The studies are
fixed by the acceptance criteria and ignore the seed; the seed picks the
uniform initial states of ``fine_mesh``, whose CG iteration count varies
by 50% across them.
"""
import math

import numpy as np

import monofem
import monofem.mesh
import monofem.solver
import monofem.sparse
import monofem.verification

# l2_error of every level as computed by the unmodified package; a pass
# whose errors move by more than REL_TOL relative is wrong, not slow.
REL_TOL = 1e-6


class Study:
    def __init__(self, rate_check, reference_errors, model, **config):
        self.rate_check = rate_check
        self.reference_errors = reference_errors
        self.model = model
        self.config = config

    def make_inputs(self, rng):
        return monofem.StudyConfig(model=monofem.make_model(self.model), **self.config)

    def solve(self, cfg):
        return monofem.verification.convergence_study(cfg)

    def check(self, cfg, records):
        """(ok, finest error, reason if not ok)."""
        errors = [r.l2_error for r in records]
        if len(errors) != len(self.reference_errors):
            return False, math.nan, f"{len(errors)} levels, expected {len(self.reference_errors)}"
        for level, (got, want) in enumerate(zip(errors, self.reference_errors)):
            if not abs(got - want) <= REL_TOL * want:
                return False, errors[-1], f"level {level} l2_error {got!r}, stored {want!r}"
        bad = self.rate_check(records)
        if bad:
            return False, errors[-1], bad
        return True, errors[-1], ""


def criterion_1(records):
    sroc, troc = records[-1].sroc, records[-1].troc
    if abs(sroc - 2) <= 0.15 and abs(troc - 1) <= 0.08:
        return ""
    return f"finest transition sroc={sroc:.5f} troc={troc:.5f} outside criterion 1"


def criterion_7_spatial(records):
    orders = [r.sroc for r in records[1:]]
    return "" if all(1.8 <= s <= 2.2 for s in orders) else f"spatial orders {orders}"


def criterion_7_temporal(records):
    orders = [r.troc for r in records[1:]]
    return "" if all(0.8 <= t <= 1.2 for t in orders) else f"temporal orders {orders}"


class FineMesh:
    """The quick-start path: mesh, solver and run() at h = 1/128.

    A uniform state stays uniform under the scheme, so the scalar
    recursion ``discrete_cell_trajectory`` is an exact oracle.
    """

    h = 1 / 128
    steps = 16
    gap_tol = 1e-7

    def make_inputs(self, rng):
        return rng.uniform(0.15, 0.25), rng.uniform(0.05, 0.15)

    def solve(self, state0):
        v0, w0 = state0
        k = self.h**2
        mesh = monofem.mesh.build_uniform_mesh(h=self.h)
        cfg = monofem.SolverConfig(
            k=k, t_final=self.steps * k, ionic=monofem.make_model("ap"), v0=v0, w0=w0
        )
        return monofem.solver.MonodomainSolver(mesh, cfg).run()

    def check(self, state0, state):
        v0, w0 = state0
        v_ref, w_ref = monofem.discrete_cell_trajectory(
            monofem.make_model("ap"), v0, w0, self.h**2, self.steps
        )
        gap = max(np.abs(state.v - v_ref[-1]).max(), np.abs(state.w - w_ref[-1]).max())
        if state.n == self.steps and gap <= self.gap_tol:
            return True, float(gap), ""
        return False, float(gap), f"{state.n} steps, max gap to the cell recursion {gap:.3e}"


WORKLOADS = {
    "ladder_ms": Study(
        criterion_1,
        [4.856463780394718e-07, 1.2136690659771974e-07, 3.033911882317629e-08,
         7.5914017119204e-09],
        model="ms", levels=(1 / 8, 1 / 16, 1 / 32, 1 / 64), t_final=1 / 64,
    ),
    "sweep_dt": Study(
        criterion_7_temporal,
        [0.004948364907119232, 0.0024858159833046297, 0.0012381047897945241],
        model="fhn", mode="manufactured", sweep="timestep", levels=(1 / 40, 1 / 80, 1 / 160),
        fixed_h=1 / 64, t_final=3 / 40,
    ),
    "sweep_h": Study(
        criterion_7_spatial,
        [0.00024436150911870966, 6.425709572573129e-05, 1.621436922590013e-05],
        model="fhn", mode="manufactured", levels=(1 / 8, 1 / 16, 1 / 32), dt_rule=1e-5,
        t_final=0.002,
    ),
    "fine_mesh": FineMesh(),
}


def solver_failures():
    """Exceptions that mark a pass as failed rather than stop the run."""
    found = [getattr(monofem.sparse, "NoConvergence", None),
             getattr(monofem.solver, "NonFiniteState", None)]
    return tuple(e for e in found if e is not None)
