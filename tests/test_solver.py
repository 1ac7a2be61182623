import tracemalloc

import numpy as np
import pytest

import monofem.mesh
from monofem.assembly import (
    DiffusionTensor,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_norm,
)
from monofem.ionic import make_model
from monofem.mesh import DegenerateTriangle, TriMesh, build_uniform_mesh
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
    # S = M + k A is built on M's diagonals; pin that the data is exactly
    # the sum and that the diagonals are M's (and A's).
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    varying = DiffusionTensor(lambda x, y: np.diag([2.0 + x, 2.0 + y]))
    solver = MonodomainSolver(mesh, paper_config(diffusion=varying))
    M, S, k = solver.mass, solver.system, solver.cfg.k
    A = assemble_stiffness(mesh, varying)
    for mat in (A, S):
        np.testing.assert_array_equal(mat.offsets, M.offsets)
        assert mat.nnz == M.nnz
    assert np.array_equal(S.data, M.data + k * A.data)
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
    homogeneous = paper_config(make_model("ap"), h=h, t_final=h * h)  # one level: plain CG
    assert first_step_cg_iterations(monkeypatch, mesh, homogeneous) == [20]
    p = ManufacturedProblem(1, make_model("fhn"))
    v_at = p.v_on(*mesh.nodes.T)
    manufactured = SolverConfig(
        k=1 / 40, t_final=1 / 40, ionic=p.model, v0=v_at(0.0), w0=0.5 * v_at(0.0),
        source=lambda t: p.sources(v_at(t)),
    )
    # Stiff (k / h^2 = 102): multigrid-preconditioned, 4 levels; plain CG took 230.
    assert first_step_cg_iterations(monkeypatch, mesh, manufactured) == [12]


@pytest.mark.parametrize("factor,levels", [(1, 1), (3.9, 1), (4, 2), (100, 3)])
def test_multigrid_levels(factor, levels):
    # The 20 x 20 grid is halved while both cell counts are even and
    # k / H^2 >= 1; at k = 100 h^2 it stops at 5 x 5 cells, an odd count.
    h = 1 / 8
    k = factor * h * h
    multigrid = MonodomainSolver(build_uniform_mesh(BOUNDS, h), paper_config(k=k, t_final=k)).multigrid
    assert (1 if multigrid is None else len(multigrid.operators)) == levels


@pytest.mark.parametrize("h", [0.5, 0.3])
def test_multigrid_only_on_the_uniform_grid(h):
    # A hand-made mesh that is not the node grid of its bounds and h (or
    # whose h does not divide them) gets plain CG, however stiff the step.
    tri = TriMesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  triangles=np.array([[0, 1, 2]]), h=h, bounds=(0, 0, 1, 1))
    solver = MonodomainSolver(tri, SolverConfig(k=10.0, t_final=10.0, ionic=ZeroReaction(), v0=1.0))
    assert solver.multigrid is None
    np.testing.assert_allclose(solver.step().v, 1.0, atol=1e-9)


@pytest.mark.parametrize("apex", [(1.0, -1.0), (2.0, 0.0)], ids=["clockwise", "collinear"])
def test_degenerate_triangle_rejected_at_construction(apex):
    # Both once failed only inside CG, at p.Ap < 0 or p.Ap = nan after a
    # divide-by-zero warning (the suite turns RuntimeWarning into an error).
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], apex])
    tri = TriMesh(nodes=nodes, triangles=np.array([[0, 1, 2], [0, 1, 3]]), h=1.0,
                  bounds=(0, 0, 2, 1))
    with pytest.raises(DegenerateTriangle, match="triangle 1 "):
        MonodomainSolver(tri, SolverConfig(k=0.1, t_final=0.1, ionic=make_model("fhn")))


def test_set_up_computes_geometry_and_layout_once_per_mesh(monkeypatch):
    calls = {}

    def counted(name):
        original = getattr(monofem.mesh, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(monofem.mesh, name, wrapper)

    counted("_triangle_geometry")
    counted("TripletLayout")
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    MonodomainSolver(mesh, paper_config())
    assemble_mass(mesh)
    assemble_stiffness(mesh, DiffusionTensor.diagonal(2.0, 1.0))
    assert calls == {"_triangle_geometry": 1, "TripletLayout": 1}
    MonodomainSolver(build_uniform_mesh(BOUNDS, 1 / 8), paper_config())
    assert calls == {"_triangle_geometry": 2, "TripletLayout": 2}


def test_set_up_memory_peak():
    # tracemalloc counts numpy's buffers, so the peak of building the h = 1/64
    # mesh and solver repeats to a few kB: 18.5 MB, bounded here at 20 MB
    # (8 % margin).  Building the geometry and the DIA layout once per
    # matrix, with a three-operand einsum, peaked at 27.7 MB.
    h = 1 / 64
    tracemalloc.start()
    try:
        MonodomainSolver(build_uniform_mesh(BOUNDS, h), paper_config(h=h))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20.0e6


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
    # Step n + 1 adds source(t_n), the sources of the previous time level.
    # They grow with t, so a source taken at t_{n+1} would give other sums.
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    ones = np.ones(mesh.n_nodes)
    times = []

    def source(t):
        times.append(t)
        return (1 + 64 * t) * ones, 2 * (1 + 64 * t) * ones

    k = 1 / 64
    cfg = SolverConfig(k=k, t_final=2 * k, ionic=ZeroReaction(), source=source)
    solver = MonodomainSolver(mesh, cfg)
    state = solver.step()  # uniform sources keep v uniform: A 1 = 0
    np.testing.assert_allclose(state.v, k * 1, atol=1e-11)
    np.testing.assert_allclose(state.w, k * 2, atol=1e-14)
    state = solver.step()
    np.testing.assert_allclose(state.v, k * (1 + 2), atol=1e-11)
    np.testing.assert_allclose(state.w, k * (2 + 4), atol=1e-14)
    assert times == [0.0, k]
