import math
import weakref
from collections import Counter

import numpy as np
import pytest

import monofem.mesh
import monofem.solver
import monofem.verification
from monofem.assembly import DiffusionTensor, l2_norm
from monofem.ionic import MODEL_NAMES, SingularDenominator, eval_ms, make_model, spectral_radius
from monofem.mesh import DEFAULT_BOUNDS, build_uniform_mesh
from monofem.solver import MonodomainSolver, SolverConfig
from monofem.verification import (
    REFERENCE_RTOL,
    ManufacturedProblem,
    NonPositiveError,
    StudyConfig,
    compute_rates,
    convergence_study,
    converged_reference,
    discrete_cell_trajectory,
    ode_reference,
)

OMEGA = math.pi / 2.5
LD = np.longdouble


class NullModel:
    kind = "null"

    def __call__(self, v, w):
        return 0.0 * v, 0.0 * w


class LinearDecay:
    kind = "lin"

    def __call__(self, v, w):
        return -v, 0.0 * w


def test_ode_reference_zero_reaction():
    v, w = ode_reference(NullModel(), 0.2, 0.1, 1.0, 1e-3)
    assert (v, w) == (0.2, 0.1)


def test_ode_reference_exponential():
    v, _ = ode_reference(LinearDecay(), 1.0, 0.0, 1.0, 1e-3)
    assert v == pytest.approx(math.exp(-1), abs=1e-10)


def test_ode_reference_richardson_self_consistency():
    model = make_model("fhn")
    coarse = ode_reference(model, 0.2, 0.1, 0.25, 1e-4)
    fine = ode_reference(model, 0.2, 0.1, 0.25, 5e-5)
    assert abs(coarse[0] - fine[0]) < 1e-10
    assert abs(coarse[1] - fine[1]) < 1e-10


def test_ode_reference_blowup():
    from monofem.assembly import NonFiniteValue

    class Explode:
        kind = "boom"

        def __call__(self, v, w):
            return v * v * 1e6, 0.0 * w

    with pytest.raises(NonFiniteValue):
        ode_reference(Explode(), 1.0, 0.0, 10.0, 0.01)


def plain_rk4(f, v, w, t_final, n):
    """n RK4 steps of f in the precision of the arguments.  On floats this is
    ode_reference as it was before gate location; on np.longdouble, the
    extended-precision oracle."""
    dt = t_final / n
    for _ in range(n):
        k1v, k1w = f(v, w)
        k2v, k2w = f(v + dt / 2 * k1v, w + dt / 2 * k1w)
        k3v, k3w = f(v + dt / 2 * k2v, w + dt / 2 * k2w)
        k4v, k4w = f(v + dt * k3v, w + dt * k3w)
        v += dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        w += dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
    return v, w


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_ode_reference_off_the_gate_is_plain_rk4(name):
    # Bit for bit: steps that do not carry v across the ms gate are the
    # plain RK4 step.  ms from v0 = 0.135 stays above u_gate = 0.13 until
    # t = 0.29, and from 0.2 never reaches it.
    model = make_model(name)
    for v0, t_final, n in ((0.2, 0.25, 1000), (0.135, 0.25, 64)):
        assert ode_reference(model, v0, 0.1, t_final, t_final / n) == plain_rk4(model, v0, 0.1, t_final, n)


def test_ms_reference_converges_across_the_gate():
    ms = make_model("ms")
    u_gate = ms.params.u_gate
    # The trajectory from (0.135, 0.1) crosses the gate at t = 0.29.  With
    # the crossing located, the gap between successive doublings shrinks
    # like RK4's h^4 (16x); without it, about 2x, and 1e-13 is never met.
    n, prev, last_gap = 4, ode_reference(ms, 0.135, 0.1, 0.5, 0.5 / 4), None
    while True:
        n *= 2
        cur = ode_reference(ms, 0.135, 0.1, 0.5, 0.5 / n)
        gap = max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1]))
        if last_gap is not None:
            assert gap <= last_gap / 10, (n, gap, last_gap)
        if gap <= REFERENCE_RTOL:
            break
        assert n < 64
        prev, last_gap = cur, gap
    v, w, err = converged_reference(ms, 0.135, 0.1, 0.5, 1 / 8)
    assert v < u_gate and err <= REFERENCE_RTOL
    # Oracle: RK4 in extended precision on the branch above the gate up to
    # the crossing time t*, found by Newton's method on v(t*) = u_gate,
    # then on the branch below it from that state to T = 0.5.
    above = lambda a, b: eval_ms(a, b, ms.params, below=False)
    below = lambda a, b: eval_ms(a, b, ms.params, below=True)
    v0, w0, t_cross = LD(0.135), LD(0.1), LD(0.3)
    for _ in range(6):
        v_cross, w_cross = plain_rk4(above, v0, w0, t_cross, 1024)
        t_cross -= (v_cross - u_gate) / above(v_cross, w_cross)[0]
    v_cross, w_cross = plain_rk4(above, v0, w0, t_cross, 1024)
    assert abs(v_cross - u_gate) < 1e-17 and 0.28 < t_cross < 0.30
    v_ld, w_ld = plain_rk4(below, v_cross, w_cross, 0.5 - t_cross, 1024)
    assert abs(v - v_ld) <= 1e-12 and abs(w - w_ld) <= 1e-12


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_converged_reference_matches_longdouble_oracle(name):
    # The oracle steps at 1/16384, where halving its step moves it by under
    # 1e-18.  eval_ms returns g as a float, so the ms oracle's w is
    # double-accurate only.
    model = make_model(name)
    for t_final in (1 / 64, 1 / 16, 0.25):
        v_ld, w_ld = plain_rk4(model, LD(0.2), LD(0.1), LD(t_final), round(t_final * 16384))
        # Started at the finest criterion-1 step (1/64)^2, as a study does.
        v, w, err = converged_reference(model, 0.2, 0.1, t_final, (1 / 64) ** 2)
        assert abs(v - v_ld) <= 1e-15 and abs(w - w_ld) <= 1e-15, (t_final, v - v_ld, w - w_ld)
        assert err <= 1e-13
        # Started at one step, the doubling must reach the tolerance itself,
        # and the reported gap must bound the true error.
        v, w, err = converged_reference(model, 0.2, 0.1, t_final, t_final)
        assert max(abs(v - v_ld), abs(w - w_ld)) <= err <= 1e-13, (t_final, v - v_ld, w - w_ld, err)


def test_discrete_cell_trajectory_hand_step():
    v, w = discrete_cell_trajectory(make_model("fhn"), 0.2, 0.1, 1 / 64, 1)
    assert v[1] == pytest.approx(0.1986875, abs=1e-15)
    assert w[1] == pytest.approx(0.1)


def test_manufactured_wavenumber_validation():
    assert ManufacturedProblem().omega == OMEGA
    for D in (DiffusionTensor(lambda x, y: np.eye(2)), DiffusionTensor([[2.0, 0.5], [0.5, 2.0]])):
        with pytest.raises(ValueError, match="constant diagonal"):
            ManufacturedProblem(diffusion=D)


def test_manufactured_diagonal_check_is_relative_to_scale():
    # Off-diagonal entries at 10 % of the diagonal, below an absolute 1e-14.
    with pytest.raises(ValueError, match="constant diagonal"):
        ManufacturedProblem(diffusion=DiffusionTensor([[1e-20, 1e-21], [1e-21, 1e-20]]))
    ManufacturedProblem(diffusion=DiffusionTensor([[1e3, 1e-13], [1e-13, 1e3]]))


def test_manufactured_corner_value():
    prob = ManufacturedProblem()
    assert prob.v_on(-1.25, -1.25)(0.0) == pytest.approx(1.0)


def test_manufactured_divergence_term():
    # -div(grad v) at (0,0), t=0 equals 2 omega^2 cos^2(1.25 omega);
    # i_app isolates it after removing v_t and i_ion.
    prob = ManufacturedProblem()
    v = prob.v_on(0.0, 0.0)(0.0)
    i_ion, _ = prob.model(v, 0.5 * v)
    div_term = prob.i_app(v) + v + i_ion
    assert div_term == pytest.approx(2 * OMEGA**2 * math.cos(OMEGA * 1.25) ** 2, rel=1e-12)


def test_manufactured_source_consistency_finite_differences():
    # Independent check of both sources: substitute the exact v into the PDE
    # with FD approximations of the derivatives.
    prob = ManufacturedProblem()

    def v_exact(x, y, t):
        return prob.v_on(x, y)(t)

    x, y, t, d = 0.3, -0.7, 0.2, 1e-5
    v = v_exact(x, y, t)
    w = 0.5 * v
    v_t = (v_exact(x, y, t + d) - v_exact(x, y, t - d)) / (2 * d)
    lap = (
        v_exact(x + d, y, t) + v_exact(x - d, y, t)
        + v_exact(x, y + d, t) + v_exact(x, y - d, t) - 4 * v
    ) / d**2
    i_ion, g = prob.model(v, w)
    assert prob.i_app(v) == pytest.approx(v_t - lap - i_ion, abs=1e-5)
    w_t = -0.5 * v
    assert prob.w_source(v) == pytest.approx(w_t - g, abs=1e-12)


def test_compute_rates_paper_first_transition():
    sroc, troc = compute_rates(
        [0.0153718, 0.00418786], [1 / 8, 1 / 16], [1 / 64, 1 / 256]
    )
    assert sroc[0] is None and troc[0] is None
    assert sroc[1] == pytest.approx(1.876, abs=5e-4)
    assert troc[1] == pytest.approx(0.938, abs=5e-4)


def test_compute_rates_second_transition():
    sroc, troc = compute_rates(
        [0.00418786, 0.0010467], [1 / 16, 1 / 32], [1 / 256, 1 / 1024]
    )
    assert sroc[1] == pytest.approx(2.00037, abs=5e-4)
    assert troc[1] == pytest.approx(1.00018, abs=5e-4)


def test_compute_rates_exact_geometric():
    e = 0.32
    sroc, troc = compute_rates([e, e / 4], [0.2, 0.1], [0.04, 0.01])
    assert sroc[1] == pytest.approx(2.0, abs=1e-14)
    assert troc[1] == pytest.approx(1.0, abs=1e-14)


def test_compute_rates_troc_is_half_sroc_under_dt_h2():
    rng = np.random.default_rng(4)
    errors = np.exp(rng.standard_normal(4)).cumprod() * 1e-2
    errors = np.sort(errors)[::-1]
    hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    sroc, troc = compute_rates(errors, hs, [h * h for h in hs])
    for s, t in zip(sroc[1:], troc[1:]):
        assert t == pytest.approx(s / 2, rel=1e-12)


def test_compute_rates_validation():
    with pytest.raises(NonPositiveError):
        compute_rates([1.0, 0.0], [1, 0.5], [1, 0.5])
    with pytest.raises(ValueError):
        compute_rates([1.0], [1.0], [1.0])
    sroc, troc = compute_rates([1.0, 0.5], [1.0, 1.0], [1.0, 0.5])
    assert sroc[1] is None  # no spatial refinement happened
    assert troc[1] == pytest.approx(1.0)


def test_study_config_validation():
    model = make_model("fhn")
    with pytest.raises(ValueError):
        StudyConfig(model=model, mode="bogus")
    with pytest.raises(ValueError):
        StudyConfig(model=model, levels=[1 / 16, 1 / 8])
    with pytest.raises(ValueError):
        StudyConfig(model=model, levels=[])
    # Every level is checked on construction, before any compute.
    bad = [
        dict(levels=[1 / 8, 1 / 16, 1 / 129]),  # h does not divide the side 2.5
        dict(levels=[1 / 8, 0.0]),
        dict(levels=[1 / 8, -1 / 16]),
        dict(t_final=0.3),  # not a whole number of dt = 1/64
        dict(t_final=0.0),
        dict(levels=[1 / 8], dt_rule=0.03, t_final=0.1),
        dict(sweep="timestep", levels=[1 / 20]),  # needs manufactured mode
        dict(mode="manufactured", sweep="timestep", levels=[1 / 20], fixed_h=0.3),
        dict(mode="manufactured", sweep="timestep", levels=[1 / 20, 1 / 30], t_final=0.25),
        dict(mode="manufactured", diffusion=DiffusionTensor(lambda x, y: np.eye(2))),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            StudyConfig(model=model, **kwargs)
    cfg = StudyConfig(model=model, mode="manufactured", sweep="timestep", levels=[1 / 20, 1 / 40])
    assert cfg.resolutions() == ([1 / 64] * 2, [1 / 20, 1 / 40])


def test_study_config_keeps_the_levels_it_checked():
    # A level appended to the caller's list afterwards was once run unchecked
    # (1/9.7 does not divide the side), after the checked levels had run.
    levels = [1 / 4, 1 / 8]
    cfg = StudyConfig(model=make_model("fhn"), levels=levels, t_final=1 / 16)
    levels.append(1 / 9.7)
    assert cfg.levels == (1 / 4, 1 / 8)
    assert hash(cfg) == hash(cfg)
    assert [r.h for r in convergence_study(cfg)] == [1 / 4, 1 / 8]


def test_study_config_rejects_unstable_reaction_step():
    # fhn at the homogeneous data (0.2, 0.1): rho(J) = 1.3718, so the
    # forward-Euler reaction step is stable up to dt = 2 / rho = 1.458.
    fhn = make_model("fhn")
    StudyConfig(model=fhn, levels=[1 / 4], dt_rule=1.45, t_final=2.9)
    for dt in (1.5, 10.0):
        with pytest.raises(ValueError, match="unstable"):
            StudyConfig(model=fhn, levels=[1 / 4], dt_rule=dt, t_final=2 * dt)
    # Homogeneous mode checks every state of the cell recursion, which is
    # the scheme's solution: ms at dt = 20 passes at (0.2, 0.1) with
    # dt * rho = 1.47, but the trajectory reaches 5e21.
    ms = make_model("ms")
    assert 20 * spectral_radius(ms, 0.2, 0.1) < 2
    with pytest.raises(ValueError, match="unstable along the homogeneous trajectory"):
        StudyConfig(model=ms, levels=[1 / 4], dt_rule=20, t_final=100)
    # Manufactured states are checked over the exact solution's range: v spans
    # [-1, 1] with w = v / 2, and rho(J) = 4.96 at v = -1, so dt must be <= 0.403.
    manufactured = dict(model=fhn, mode="manufactured", levels=[1 / 4], t_final=2.0)
    StudyConfig(dt_rule=0.4, **manufactured)
    with pytest.raises(ValueError, match="unstable"):
        StudyConfig(dt_rule=0.5, **manufactured)
    with pytest.raises(ValueError, match="unstable"):  # only the coarsest step is unstable
        StudyConfig(model=fhn, mode="manufactured", sweep="timestep", fixed_h=1 / 4,
                    levels=[0.5, 0.25, 0.125], t_final=1.0)
    # A model that cannot be evaluated at the initial data fails here too.
    with pytest.raises(SingularDenominator):
        StudyConfig(model=make_model("ap", mu2=-0.2), levels=[1 / 8], t_final=1 / 64)


def test_homogeneous_errors_independent_of_diffusion():
    model = make_model("fhn")
    base = dict(model=model, levels=[1 / 8, 1 / 16], t_final=0.25)
    a = convergence_study(StudyConfig(**base))
    b = convergence_study(StudyConfig(diffusion=DiffusionTensor.diagonal(5.0, 5.0), **base))
    for ra, rb in zip(a, b):
        assert abs(ra.l2_error - rb.l2_error) <= 10 * 1e-10


def test_homogeneous_rates_and_monotone_errors():
    records = convergence_study(
        StudyConfig(model=make_model("fhn"), levels=[1 / 8, 1 / 16, 1 / 32], t_final=0.25)
    )
    errs = [r.l2_error for r in records]
    assert errs == sorted(errs, reverse=True)
    # One reference for the study: its gap, as an L2 norm over the 2.5 x 2.5 square.
    _, _, gap = converged_reference(make_model("fhn"), 0.2, 0.1, 0.25, (1 / 32) ** 2)
    assert {r.reference_error for r in records} == {2.5 * gap}
    assert records[-1].sroc == pytest.approx(2.0, abs=0.25)
    assert records[-1].troc == pytest.approx(records[-1].sroc / 2, rel=1e-12)


def test_fine_reference_agrees_with_ode_reference():
    # A uniform run is the cell recursion at step k, so a level's error is
    # |v_k - v_ref|.  Measured against the recursion at k_finest / 256
    # instead of RK4, every level's error moves by under 5%.
    model, t_final = make_model("fhn"), 0.25
    k_finest = (1 / 16) ** 2
    v_ode, _ = ode_reference(model, 0.2, 0.1, t_final, k_finest / 100)
    n = math.ceil(t_final / (k_finest / 256))
    v_fine = discrete_cell_trajectory(model, 0.2, 0.1, t_final / n, n)[0][-1]
    for h in (1 / 8, 1 / 16):
        k = h * h
        v_level = discrete_cell_trajectory(model, 0.2, 0.1, k, round(t_final / k))[0][-1]
        assert abs(v_level - v_ode) == pytest.approx(abs(v_level - v_fine), rel=0.05)


def test_manufactured_timestep_sweep_has_no_sroc():
    records = convergence_study(
        StudyConfig(
            model=make_model("fhn"),
            mode="manufactured",
            sweep="timestep",
            levels=[1 / 20, 1 / 40],
            fixed_h=1 / 16,
            t_final=0.25,
        )
    )
    assert records[1].sroc is None
    assert records[1].troc == pytest.approx(1.0, abs=0.3)
    assert {r.reference_error for r in records} == {None}  # the exact solution is analytic


# Assembly computes the triangle geometry by blocks, once per matrix, so
# it is not counted here.  Calls per mesh: grid_triangles makes the mesh's
# triangles, and makes one block of them when assembly first asks whether
# the mesh is the grid.
SET_UP = [(monofem.verification, "build_uniform_mesh", 1), (monofem.mesh, "grid_triangles", 2),
          (monofem.solver, "assemble_mass", 1), (monofem.solver, "assemble_stiffness", 1)]


@pytest.mark.parametrize("sweep,levels,per_name", [
    ("timestep", [1 / 20, 1 / 40, 1 / 80], 1),  # one mesh, h = 1/16
    ("mesh", [1 / 4, 1 / 8, 1 / 16], 3),  # one mesh per level
])
def test_study_builds_and_assembles_each_mesh_once(monkeypatch, sweep, levels, per_name):
    calls = Counter()
    for module, name, _ in SET_UP:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    convergence_study(StudyConfig(model=make_model("fhn"), mode="manufactured", sweep=sweep,
                                  levels=levels, fixed_h=1 / 16, dt_rule=1 / 80, t_final=1 / 20))
    assert calls == {name: per_mesh * per_name for _, name, per_mesh in SET_UP}


def test_spatial_ladder_frees_each_mesh_before_the_next_solver(monkeypatch):
    meshes, alive = [], []

    def solver(mesh, cfg):
        alive.append([ref() is not None for ref in meshes])
        meshes.append(weakref.ref(mesh))
        return MonodomainSolver(mesh, cfg)

    monkeypatch.setattr(monofem.verification, "MonodomainSolver", solver)
    convergence_study(StudyConfig(model=make_model("fhn"), levels=[1 / 4, 1 / 8, 1 / 16],
                                  t_final=1 / 16))
    assert alive == [[], [False], [False, False]]


def test_timestep_sweep_on_one_mesh_matches_fresh_meshes():
    # Multigrid at dt = 1/20 and 1/40 (>= 4 h^2), plain CG at 1/80.
    model, h, t_final, dts = make_model("fhn"), 1 / 16, 0.25, [1 / 20, 1 / 40, 1 / 80]
    records = convergence_study(StudyConfig(model=model, mode="manufactured", sweep="timestep",
                                            levels=dts, fixed_h=h, t_final=t_final))
    p = ManufacturedProblem(model)
    fresh = []
    for dt in dts:
        mesh = build_uniform_mesh(DEFAULT_BOUNDS, h)
        v_at = p.v_on(*mesh.nodes.T)
        v0 = v_at(0.0)
        solver = MonodomainSolver(mesh, SolverConfig(
            k=dt, t_final=t_final, ionic=model, v0=v0, w0=0.5 * v0,
            source=lambda t, v_at=v_at: p.sources(v_at(t))))
        assert (solver.multigrid is not None) == (dt >= 4 * h * h)
        fresh.append(l2_norm(solver.mass, solver.run().v - v_at(t_final)))
    assert [r.l2_error for r in records] == fresh
