import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monofem.mesh
import monofem.solver
from monofem.assembly import (
    DiffusionTensor,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_norm,
)
from monofem.ionic import MODELS, make_model
from monofem.mesh import DegenerateTriangle, TriMesh, build_uniform_mesh
from monofem.solver import (
    InvalidConfig,
    MonodomainSolver,
    NonFiniteState,
    SolverConfig,
)
from monofem.sparse import DEFAULT_CG_TOL, NoConvergence, cg_solve, spmv
from monofem.verification import ManufacturedProblem, discrete_cell_trajectory

from test_sparse import dense

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
    assert np.array_equal(dense(S), dense(M) + k * dense(A))


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
    p = ManufacturedProblem(make_model("fhn"))
    v_at = p.v_on(*mesh.nodes.T)
    manufactured = SolverConfig(
        k=1 / 40, t_final=1 / 40, ionic=p.model, v0=v_at(0.0), w0=0.5 * v_at(0.0),
        source=lambda t: p.sources(v_at(t)),
    )
    # Stiff (k / h^2 = 102): multigrid-preconditioned, 4 levels; plain CG took 230.
    assert first_step_cg_iterations(monkeypatch, mesh, manufactured) == [12]


def test_cg_tolerance_is_read_from_sparse(monkeypatch):
    # monofem.sparse.DEFAULT_CG_TOL is the one tolerance: step passes none,
    # so patching it moves where every step's CG stops.
    assert not hasattr(monofem.solver, "DEFAULT_CG_TOL")
    mesh = build_uniform_mesh(BOUNDS, 1 / 16)
    cfg = paper_config(h=1 / 16, ionic=ZeroReaction(),
                       v0=lambda x, y: np.cos(np.pi * (x + 1.25) / 2.5) * np.cos(np.pi * y))
    iterations = []
    for tol in (1e-3, 1e-6, 1e-9, 1e-12):
        monkeypatch.setattr(monofem.sparse, "DEFAULT_CG_TOL", tol)
        iterations += first_step_cg_iterations(monkeypatch, mesh, cfg)
        solver = MonodomainSolver(mesh, cfg)
        rhs = spmv(solver.mass, solver.state.v)  # no reaction: b = M v
        residual = np.linalg.norm(rhs - spmv(solver.system, solver.step().v))
        assert residual <= tol * np.linalg.norm(rhs)
    assert iterations == sorted(iterations) and len(set(iterations)) == 4


def stiff_first_step(multigrid):
    """The solver of the first manufactured fhn step at h = 1/64, k = 1/40,
    with its V-cycle or with plain CG."""
    mesh = build_uniform_mesh(BOUNDS, 1 / 64)
    p = ManufacturedProblem(make_model("fhn"))
    v_at = p.v_on(*mesh.nodes.T)
    solver = MonodomainSolver(mesh, SolverConfig(
        k=1 / 40, t_final=1 / 40, ionic=p.model, v0=v_at(0.0), w0=0.5 * v_at(0.0),
        source=lambda t: p.sources(v_at(t)),
    ))
    assert solver.multigrid is not None
    if not multigrid:
        solver.multigrid = None
    return solver


@pytest.mark.parametrize("multigrid", [True, False], ids=["v-cycle", "plain"])
def test_cg_stops_when_it_stalls(monkeypatch, multigrid):
    # 1e-15 is below the attainable accuracy of this stiff first step (the
    # true residual stalls near 1e-15 of ||b||), so each true-residual check
    # fails and CG once restarted until 10 n = 259,210 iterations.  It now
    # raises at the first check that does not halve the true residual:
    # after 21 iterations with the V-cycle, 455 without.
    solver = stiff_first_step(multigrid)
    monkeypatch.setattr(monofem.sparse, "DEFAULT_CG_TOL", 1e-15)
    with pytest.raises(NoConvergence, match=r"CG did not converge in \d+ iterations \(stalled") as info:
        solver.step()
    assert info.value.iterations <= 1000


@pytest.mark.parametrize("tol", [1e-13, 5e-14])
def test_cg_restart_converges(monkeypatch, tol):
    # Above the attainable accuracy, plain CG's recurrence residual meets
    # the tolerance before the true one does: a true-residual check fails,
    # at least halves the true residual of the check before, and CG
    # restarts from it and converges (once at 1e-13, after 311 iterations;
    # twice at 5e-14).  A product that is not an iteration's is a check.
    solver = stiff_first_step(multigrid=False)
    monkeypatch.setattr(monofem.sparse, "DEFAULT_CG_TOL", tol)
    products, solves = [], []

    def counted(*args, _original=monofem.sparse.spmv, **kwargs):
        products.append(None)
        return _original(*args, **kwargs)

    def recorded(S, b, **kwargs):
        x, iterations = cg_solve(S, b, **kwargs)
        solves.append((S, b, x, iterations))
        return x, iterations

    monkeypatch.setattr(monofem.sparse, "spmv", counted)
    monkeypatch.setattr(monofem.solver, "cg_solve", recorded)
    solver.step()
    [(S, b, x, iterations)] = solves
    assert np.linalg.norm(b - spmv(S, x)) <= tol * np.linalg.norm(b)
    checks = len(products) - iterations - 1  # the first product is x0's residual
    assert checks >= 2


def _tensor(kind, a, b, rho):
    c = rho * np.sqrt(a * b)
    if kind == "constant":
        return DiffusionTensor([[a, c], [c, b]])
    return DiffusionTensor(lambda x, y: [[a * (1 + x * x), c], [c, b * (1 + y * y)]])


@settings(max_examples=40)
@given(
    nx=st.sampled_from([2, 4, 6]), ny=st.sampled_from([2, 4, 8]),
    h=st.sampled_from([1 / 4, 1 / 8]), factor=st.sampled_from([1, 10]),
    kind=st.sampled_from(["constant", "variable"]),
    a=st.floats(0.1, 10), b=st.floats(0.1, 10), rho=st.floats(-0.9, 0.9),
    model=st.sampled_from(sorted(MODELS)), seed=st.integers(0, 2**32 - 1),
)
def test_step_matches_dense_solve(nx, ny, h, factor, kind, a, b, rho, model, seed):
    # One full step on non-uniform (v, w) against a dense solve of
    # S v' = M (v + k f): k = h^2 runs plain CG, k = 10 h^2 the V-cycle.
    # v in [0, 1] keeps ap's v + mu2 clear of 0.
    mesh = build_uniform_mesh((0.0, 0.0, nx * h, ny * h), h)
    rng = np.random.default_rng(seed)
    v, w = rng.uniform(0, 1, mesh.n_nodes), rng.uniform(0, 1, mesh.n_nodes)
    ionic, k = make_model(model), factor * h * h
    cfg = SolverConfig(k=k, t_final=k, ionic=ionic, diffusion=_tensor(kind, a, b, rho), v0=v, w0=w)
    solver = MonodomainSolver(mesh, cfg)
    assert (solver.multigrid is None) == (factor == 1)
    f, g = ionic(v, w)
    S = dense(solver.system)
    expect = np.linalg.solve(S, dense(solver.mass) @ (v + k * f))
    state = solver.step()
    bound = np.linalg.cond(S) * (monofem.sparse.DEFAULT_CG_TOL + 8 * np.finfo(float).eps)
    assert np.linalg.norm(state.v - expect) <= bound * np.linalg.norm(expect)
    assert np.array_equal(state.w, w + k * np.asarray(g))


def test_records_holding_arrays_compare_by_identity():
    # A generated __eq__ compared the arrays and raised; hash raised too.
    mesh, other = build_uniform_mesh(BOUNDS, 1 / 4), build_uniform_mesh(BOUNDS, 1 / 4)
    solver = MonodomainSolver(mesh, paper_config(h=1 / 4))
    for x, y in ((mesh, other), (solver.mass, solver.system), (solver.state, solver.step())):
        assert x == x and x != y
        assert hash(x) == hash(x)
    assert len({mesh, other, mesh}) == 2


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


def test_degenerate_triangle_named_by_its_index_in_the_mesh(monkeypatch):
    # The message names the bad triangle with the lowest index in the mesh,
    # on a mesh that is not the grid and on the grid, where geometry is
    # computed by blocks of cell rows in mesh order.
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    tri = TriMesh(nodes=nodes, triangles=np.array([[0, 1, 2], [0, 1, 3]]), h=1.0,
                  bounds=(0, 0, 2, 1))
    with pytest.raises(DegenerateTriangle, match="triangle 1 "):
        MonodomainSolver(tri, SolverConfig(k=0.1, t_final=0.1, ionic=make_model("fhn")))
    with pytest.raises(DegenerateTriangle, match="triangle 1 "):
        assemble_stiffness(tri)
    # Node (0, 5) of the 20 x 20 grid moved far right turns clockwise the
    # type-1 triangle 161 of cell (0, 4) and the type-0 triangle 200 of
    # cell (0, 5), both in the third block of two cell rows.
    monkeypatch.setattr(monofem.mesh, "BLOCK_TRIANGLES", 2 * 20 * 2)
    grid = build_uniform_mesh(BOUNDS, 1 / 8)
    nodes = grid.nodes.copy()
    nodes[5 * 21, 0] = 100.0
    moved = TriMesh(nodes, grid.triangles, grid.h, grid.bounds)
    assert moved.grid == (20, 20)
    for build in (assemble_mass, assemble_stiffness,
                  lambda mesh: MonodomainSolver(mesh, paper_config())):
        with pytest.raises(DegenerateTriangle, match="triangle 161 "):
            build(moved)


def test_tensor_not_spd_in_the_last_block_stores_nothing(monkeypatch):
    # Only the two triangles of the top-right cell (the last two of the
    # mesh, in the last of 20 blocks of one cell row) see a tensor that is
    # not SPD.
    monkeypatch.setattr(monofem.mesh, "BLOCK_TRIANGLES", 40)
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    D = DiffusionTensor(lambda x, y: -np.eye(2) if x + y > 2.3 else np.eye(2))
    for build in (lambda: assemble_stiffness(mesh, D),
                  lambda: MonodomainSolver(mesh, paper_config(diffusion=D))):
        with pytest.raises(ValueError, match="symmetric positive definite"):
            build()
    assert len(mesh.operators) == 0


def test_set_up_keeps_nothing_per_triangle_on_the_mesh(monkeypatch):
    # Besides nodes, triangles and the operators, the mesh keeps only
    # whether it is the grid, found once by comparing its triangles with
    # the grid's, block by block, and whether its cells are congruent;
    # assembly computes the geometry and element values by blocks, or of
    # one cell, and adds them into DIA storage by slices.  A triplet layout
    # kept one byte per element-matrix entry (9 per triangle), and triplet
    # keys with the geometry 14 bytes per entry.
    calls = []

    def counted(*args, _original=monofem.mesh.grid_triangles):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(monofem.mesh, "grid_triangles", counted)
    # The product buffers that spmv keeps belong to the process, not the
    # mesh: start with none, so that a test run alone counts the same.
    monkeypatch.setattr(monofem.sparse, "_BUFFERS", [])
    h, D = 1 / 64, DiffusionTensor.diagonal(2.0, 1.0)
    tracemalloc.start()
    try:
        mesh = build_uniform_mesh(BOUNDS, h)
        for k in (h * h, 1 / 16):
            MonodomainSolver(mesh, paper_config(h=h, k=k, diffusion=D))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Built, then compared once, by blocks of 25 cell rows (8,000 triangles).
    assert calls == [(160, 160), (160, 25)]
    M, A = mesh.operators[D]
    arrays = (mesh.nodes, mesh.triangles, M.data, A.data)
    buffers = [t.base for t in monofem.sparse._BUFFERS]
    own = held - sum(a.nbytes for a in (*arrays, *buffers))
    assert own <= 16_000  # 4-7 kB of Python objects; M and A build no plan until multiplied
    MonodomainSolver(build_uniform_mesh(BOUNDS, 1 / 8), paper_config())
    assert calls[2:] == [(20, 20)] * 2


def test_operators_cached_per_mesh_and_per_tensor(monkeypatch):
    calls = []
    for name in ("assemble_mass", "assemble_stiffness"):
        def counted(*args, _name=name, _original=getattr(monofem.solver, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(monofem.solver, name, counted)
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    D = DiffusionTensor.diagonal(2.0, 1.0)
    for k in (1 / 64, 1 / 16):
        MonodomainSolver(mesh, paper_config(k=k, diffusion=D))
    assert calls == ["assemble_mass", "assemble_stiffness"]
    # An equal tensor is another key: (M, A) is cached by tensor identity,
    # so a second tensor on one mesh assembles M again.
    E = DiffusionTensor.diagonal(2.0, 1.0)
    MonodomainSolver(mesh, paper_config(diffusion=E))
    assert calls == ["assemble_mass", "assemble_stiffness"] * 2
    assert len(mesh.operators) == 2
    # A tensor's (M, A) goes with it.
    del D
    gc.collect()
    assert len(mesh.operators) == 1 and E in mesh.operators
    MonodomainSolver(mesh, paper_config(diffusion=E))
    assert calls == ["assemble_mass", "assemble_stiffness"] * 2


def set_up_peak(h, **kw):
    """tracemalloc peak of building the mesh and solver at spacing h."""
    tracemalloc.start()
    try:
        MonodomainSolver(build_uniform_mesh(BOUNDS, h), paper_config(h=h, **kw))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_set_up_memory_peak():
    # tracemalloc counts numpy's buffers, so the peak repeats to a few kB:
    # 6.45 MB at h = 1/64, bounded here with an 8 % margin.  The cells are
    # congruent, so M and A are built from one cell's element matrices and
    # assembly holds no block buffers; with blocks of 25 cell rows (8,000
    # triangles) the peak was 6.86 MB.  With the triplet keys, the geometry
    # and three (3, 3, triangles) arrays made whole, it was 18.5 MB.
    assert set_up_peak(1 / 64) <= 7.0e6
    # At k = 1/40 the solver also builds a V-cycle over four grids: 7.21 MB.
    # Its Galerkin operators are probed on a model grid of 2 x 2 coarse
    # cells; probed on the whole grid of each level, the peak was 9.01 MB.
    assert set_up_peak(1 / 64, k=1 / 40) <= 7.8e6


def test_set_up_memory_peak_fine_mesh():
    # 25.7 MB at h = 1/128; 27.5 MB with a one-byte triplet layout on the
    # mesh, and 73.8 MB with whole-mesh arrays.
    assert set_up_peak(1 / 128) <= 29.7e6


def test_non_integer_step_count_rejected():
    with pytest.raises(InvalidConfig):
        SolverConfig(k=0.3, t_final=1.0, ionic=make_model("fhn"))
    with pytest.raises(InvalidConfig):
        SolverConfig(k=-0.1, t_final=1.0, ionic=make_model("fhn"))
    inf, nan = float("inf"), float("nan")
    for k, t_final in ((nan, 1.0), (0.1, nan), (inf, 1.0), (0.1, inf), (1e-300, 1e300), (0.5, 0.25)):
        with pytest.raises(InvalidConfig):
            SolverConfig(k=k, t_final=t_final, ionic=make_model("fhn"))


def test_config_is_checked_when_made():
    # The constructor checks k and T once and keeps the step count; the
    # solver and the study read it and check nothing again.
    with pytest.raises(InvalidConfig):
        SolverConfig(k=0.3, t_final=1.0, ionic=make_model("fhn"))
    cfg = paper_config()
    assert cfg.n_steps == 16 and MonodomainSolver(build_uniform_mesh(BOUNDS, 1 / 8), cfg).run().n == 16
    with pytest.raises(TypeError):
        SolverConfig(k=0.5, t_final=1.0, ionic=make_model("fhn"), n_steps=3)


def test_configs_holding_arrays_compare_by_identity():
    # A generated __eq__ compared the v0 arrays and raised; hash raised too.
    v0 = np.zeros(4)
    a, b = (SolverConfig(k=0.5, t_final=1.0, ionic=make_model("fhn"), v0=v0, w0=v0) for _ in "ab")
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("k", [1 / 128**2, 1 / 40], ids=["plain", "v-cycle"])
def test_first_step_meets_1e_12_at_the_finest_mesh(monkeypatch, k):
    # First manufactured fhn step at h = 1/128.  With the V-cycle (k = 1/40)
    # the true relative residual stalls near 1.5e-13 (a 1e-13 stop raises,
    # at 1.59e-15 against 1.03e-15), so a 1e-12 stop has about 6x margin;
    # plain CG (k = h^2) still reaches 1e-14.
    mesh = build_uniform_mesh(BOUNDS, 1 / 128)
    p = ManufacturedProblem(make_model("fhn"))
    v_at = p.v_on(*mesh.nodes.T)
    v0 = v_at(0.0)
    solver = MonodomainSolver(mesh, SolverConfig(
        k=k, t_final=k, ionic=p.model, v0=v0, w0=0.5 * v0, source=lambda t: p.sources(v_at(t)),
    ))
    assert (solver.multigrid is not None) == (k == 1 / 40)
    monkeypatch.setattr(monofem.sparse, "DEFAULT_CG_TOL", 1e-12)
    rhs = spmv(solver.mass, v0 + k * (p.model(v0, 0.5 * v0)[0] + p.sources(v0)[0]))
    residual = np.linalg.norm(rhs - spmv(solver.system, solver.step().v))
    assert residual <= 1e-12 * np.linalg.norm(rhs)


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
    assert abs(after - before) <= 10 * DEFAULT_CG_TOL


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
        noise = 1e-12 + n * 10 * DEFAULT_CG_TOL  # accumulated CG tolerance
        assert np.abs(state.v - v_ref[n]).max() <= noise
        assert np.abs(state.w - w_ref[n]).max() <= noise


def test_uniformity_preserved():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    solver = MonodomainSolver(mesh, paper_config())
    final = solver.run()
    tol = 10 * DEFAULT_CG_TOL
    assert final.v.max() - final.v.min() <= tol
    assert final.w.max() - final.w.min() <= tol


def test_pure_diffusion_energy_decay():
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    cfg = paper_config(ionic=ZeroReaction(), v0=lambda x, y: np.cos(np.pi * (x + 1.25) / 2.5))
    solver = MonodomainSolver(mesh, cfg)
    norms = [l2_norm(solver.mass, solver.state.v)]
    for _ in range(cfg.n_steps):
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
