import numpy as np
import pytest

from monofem.assembly import (
    DiffusionTensor,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_norm,
)
from monofem.ionic import make_model
from monofem.mesh import build_uniform_mesh
from monofem.solver import (
    InvalidConfig,
    MonodomainSolver,
    NonFiniteState,
    SolverConfig,
)
from monofem.sparse import cg_solve, spmv
from monofem.verification import ManufacturedProblem, discrete_cell_trajectory

BOUNDS = (-1.25, -1.25, 1.25, 1.25)


class ZeroReaction:
    kind = "zero"

    def __call__(self, v, w):
        return np.zeros_like(v), np.zeros_like(w)


def paper_config(model=None, h=1 / 8, **kw):
    k = h * h
    defaults = dict(k=k, t_final=0.25, ionic=model or make_model("fhn"), v0=0.2, w0=0.1)
    defaults.update(kw)
    return SolverConfig(**defaults)


def test_init_uniform_initial_data():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    solver = MonodomainSolver(mesh, paper_config())
    state, M, S = solver.state, solver.mass, solver.system
    np.testing.assert_array_equal(state.v, 0.2)
    np.testing.assert_array_equal(state.w, 0.1)
    assert state.t == 0.0 and state.n == 0
    assert M.nrows == mesh.n_nodes and S.nrows == mesh.n_nodes


def test_init_coordinate_initial_data():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    state = MonodomainSolver(mesh, paper_config(v0=lambda x, y: x)).state
    np.testing.assert_array_equal(state.v, mesh.nodes[:, 0])


def test_system_shares_mass_pattern():
    # S = M + k A is built on M's sparsity pattern; pin that the values are
    # exactly the sum and that the pattern is M's (and A's).
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    varying = DiffusionTensor(lambda x, y: np.diag([2.0 + x, 2.0 + y]))
    solver = MonodomainSolver(mesh, paper_config(diffusion=varying))
    M, S, k = solver.mass, solver.system, solver.cfg.k
    A = assemble_stiffness(mesh, varying)
    for mat in (A, S):
        np.testing.assert_array_equal(mat.row_offsets, M.row_offsets)
        np.testing.assert_array_equal(mat.col_indices, M.col_indices)
    assert np.array_equal(S.values, M.values + k * A.values)
    assert np.array_equal(S.to_dense(), M.to_dense() + k * A.to_dense())


def first_step_cg_iterations(monkeypatch, mesh, cfg):
    import monofem.solver

    counts = []

    def counted(*args, **kwargs):
        x, iterations = cg_solve(*args, **kwargs)
        counts.append(iterations)
        return x, iterations

    monkeypatch.setattr(monofem.solver, "cg_solve", counted)
    MonodomainSolver(mesh, cfg).step()
    return counts


def test_cg_iteration_counts_pinned(monkeypatch):
    # Exact counts, so that a change of CG's stopping point (tolerance,
    # preconditioner, a wrong product) fails here and not in a long study.
    # Round-off-level changes leave them alone; test_sparse pins spmv's bits.
    h = 1 / 64
    mesh = build_uniform_mesh(BOUNDS, h)
    homogeneous = paper_config(make_model("ap"), h=h, t_final=h * h)
    assert first_step_cg_iterations(monkeypatch, mesh, homogeneous) == [20]
    p = ManufacturedProblem(1, make_model("fhn"))
    manufactured = SolverConfig(
        k=1 / 40, t_final=1 / 40, ionic=p.model, i_app=p.i_app, w_source=p.w_source,
        v0=lambda x, y: p.v_exact(x, y, 0.0), w0=lambda x, y: p.w_exact(x, y, 0.0),
    )
    assert first_step_cg_iterations(monkeypatch, mesh, manufactured) == [230]


def test_non_integer_step_count_rejected():
    with pytest.raises(InvalidConfig):
        SolverConfig(k=0.3, t_final=1.0, ionic=make_model("fhn")).n_steps()
    with pytest.raises(InvalidConfig):
        SolverConfig(k=-0.1, t_final=1.0, ionic=make_model("fhn")).n_steps()
    inf, nan = float("inf"), float("nan")
    for k, t_final in ((nan, 1.0), (0.1, nan), (inf, 1.0), (0.1, inf), (1e-300, 1e300), (0.5, 0.25)):
        with pytest.raises(InvalidConfig):
            SolverConfig(k=k, t_final=t_final, ionic=make_model("fhn")).n_steps()


def test_single_step_uniform_fhn():
    # A annihilates constants, so the step reduces to the scalar recursion:
    # v1 = 0.2 + (1/64) * i_ion(0.2, 0.1) = 0.1986875, w1 = 0.1.
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    solver = MonodomainSolver(mesh, paper_config(k=1 / 64, t_final=1 / 64))
    state = solver.step()
    np.testing.assert_allclose(state.v, 0.1986875, atol=1e-11)
    np.testing.assert_allclose(state.w, 0.1, atol=1e-14)
    assert state.n == 1
    assert state.t == pytest.approx(1 / 64)


def test_mass_conservation_single_step():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    cfg = paper_config(ionic=ZeroReaction(), v0=lambda x, y: np.cos(np.pi * (x + 1.25) / 2.5))
    solver = MonodomainSolver(mesh, cfg)
    ones = np.ones(mesh.n_nodes)
    before = ones @ spmv(solver.mass, solver.state.v)
    after = ones @ spmv(solver.mass, solver.step().v)
    assert abs(after - before) <= 10 * cfg.cg_rel_tol


def test_tiny_step_changes_little():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    cfg = paper_config(k=1e-12, t_final=1e-12)
    solver = MonodomainSolver(mesh, cfg)
    v0 = solver.state.v.copy()
    state = solver.step()
    assert np.abs(state.v - v0).max() <= 1e-10


def test_run_single_step_equals_step():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    k = 1 / 64
    a = MonodomainSolver(mesh, paper_config(k=k, t_final=k))
    b = MonodomainSolver(mesh, paper_config(k=k, t_final=k))
    np.testing.assert_array_equal(a.run().v, b.step().v)


@pytest.mark.parametrize("name", ["fhn", "rm", "ap", "ms"])
def test_matches_scalar_recursion_oracle(name):
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    model = make_model(name)
    solver = MonodomainSolver(mesh, paper_config(model))
    v_ref, w_ref = discrete_cell_trajectory(model, 0.2, 0.1, solver.cfg.k, 16)
    for n in range(1, 17):
        state = solver.step()
        noise = 1e-12 + n * 10 * solver.cfg.cg_rel_tol  # accumulated CG tolerance
        assert np.abs(state.v - v_ref[n]).max() <= noise
        assert np.abs(state.w - w_ref[n]).max() <= noise


def test_uniformity_preserved():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    solver = MonodomainSolver(mesh, paper_config())
    final = solver.run()
    tol = 10 * solver.cfg.cg_rel_tol
    assert final.v.max() - final.v.min() <= tol
    assert final.w.max() - final.w.min() <= tol


def test_pure_diffusion_energy_decay():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    cfg = paper_config(ionic=ZeroReaction(), v0=lambda x, y: np.cos(np.pi * (x + 1.25) / 2.5))
    solver = MonodomainSolver(mesh, cfg)
    norms = [l2_norm(solver.mass, solver.state.v)]
    for _ in range(cfg.n_steps()):
        norms.append(l2_norm(solver.mass, solver.step().v))
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("factor", [1, 10, 100])
def test_unconditional_stability_probe(factor):
    h = 1 / 8
    k = factor * h * h
    mesh = build_uniform_mesh(BOUNDS, h)
    cfg = SolverConfig(
        k=k, t_final=4 * k, ionic=ZeroReaction(),
        v0=lambda x, y: np.cos(np.pi * (x + 1.25) / 2.5),
    )
    solver = MonodomainSolver(mesh, cfg)
    before = l2_norm(solver.mass, solver.state.v)
    for _ in range(4):
        after = l2_norm(solver.mass, solver.step().v)
        assert after <= before + 1e-12
        before = after


def test_diffusion_independent_in_uniform_case():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    a = MonodomainSolver(mesh, paper_config()).run().v
    b = MonodomainSolver(mesh, paper_config(diffusion=DiffusionTensor.diagonal(5.0, 5.0))).run().v
    assert np.abs(a - b).max() <= 10 * 1e-10


def test_non_finite_state_detected():
    class Exploding:
        kind = "boom"

        # gating blows past the float range on the second step
        def __call__(self, v, w):
            return np.zeros_like(v), w * w * 1e300 + 1e200

    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    solver = MonodomainSolver(mesh, SolverConfig(k=1.0, t_final=2.0, ionic=Exploding()))
    solver.step()
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
        solver.step()


def test_manufactured_source_hooks():
    # i_app and w_source enter at the previous time level
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    cfg = SolverConfig(
        k=1 / 64, t_final=1 / 64, ionic=ZeroReaction(),
        v0=0.0, w0=0.0,
        i_app=lambda x, y, t: np.ones_like(x),
        w_source=lambda x, y, t: 2.0 * np.ones_like(x),
    )
    state = MonodomainSolver(mesh, cfg).step()
    np.testing.assert_allclose(state.v, 1 / 64, atol=1e-11)
    np.testing.assert_allclose(state.w, 2 / 64, atol=1e-14)
