import functools
import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monofem.assembly
import monofem.mesh
import monofem.solver
import monofem.sparse
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
from monofem.sparse import DEFAULT_CG_TOL, DiaMatrix, NoConvergence, cg_solve, spmv
from monofem.verification import ManufacturedProblem, discrete_cell_trajectory

from test_sparse import ASSEMBLY_TENSORS, dense

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
    # Stiff (k / h^2 = 102): preconditioned by FastDiag, 3 iterations (12
    # with a four-level V-cycle); plain CG took 230.
    assert first_step_cg_iterations(monkeypatch, mesh, manufactured) == [3]


IDENTITY, ROTATED, VARIABLE = ASSEMBLY_TENSORS


def jittered(mesh):
    jitter = np.random.default_rng(0).uniform(-0.2, 0.2, mesh.nodes.shape) * mesh.h
    return TriMesh(mesh.nodes + jitter, mesh.triangles, mesh.h, mesh.bounds)


# name: (mesh, k, tensor, CG iterations of the first step with FastDiag,
# with the four-or-fewer-level V-cycle it replaced).
STIFF_STEPS = {
    "identity": (lambda: build_uniform_mesh(BOUNDS, 1 / 64), 1 / 40, IDENTITY, 4, 14),
    "diag-3.7-0.2": (lambda: build_uniform_mesh(BOUNDS, 1 / 64), 1 / 40,
                     DiffusionTensor.diagonal(3.7, 0.2), 4, 36),
    "rotated": (lambda: build_uniform_mesh(BOUNDS, 1 / 64), 1 / 40, ROTATED, 14, 15),
    "variable": (lambda: build_uniform_mesh(BOUNDS, 1 / 64), 1 / 40, VARIABLE, 17, 19),
    "k-10": (lambda: build_uniform_mesh(BOUNDS, 1 / 64), 10.0, IDENTITY, 3, 19),
    "80x40-variable": (lambda: build_uniform_mesh((-1.25, -0.625, 1.25, 0.625), 1 / 32), 1.0,
                       VARIABLE, 19, 22),
    "h-1/20": (lambda: build_uniform_mesh(BOUNDS, 1 / 20), 1 / 40, IDENTITY, 5, 17),
    "jittered": (lambda: jittered(build_uniform_mesh(BOUNDS, 1 / 16)), 1.0, IDENTITY, 19, 18),
    "h-1/128": (lambda: build_uniform_mesh(BOUNDS, 1 / 128), 1 / 40, IDENTITY, 3, 15),
}


@pytest.mark.parametrize("case", STIFF_STEPS, ids=STIFF_STEPS)
def test_first_stiff_step_needs_no_more_iterations_than_the_v_cycle(monkeypatch, case):
    # The first fhn step from v = 0.2 + 0.1 cos(pi x) cos(2 pi y), x0 = v.
    # Each count is pinned and at most the V-cycle's, except on jittered
    # nodes (19 against 18): P is built for the uniform grid and its cells
    # there differ by up to 40 % in area.  Plain CG took 291 on the first.
    make_mesh, k, D, iterations, v_cycle = STIFF_STEPS[case]
    mesh = make_mesh()
    x, y = mesh.nodes.T
    cfg = SolverConfig(k=k, t_final=k, ionic=make_model("fhn"), diffusion=D, w0=0.0,
                       v0=0.2 + 0.1 * np.cos(np.pi * x) * np.cos(2 * np.pi * y))
    assert first_step_cg_iterations(monkeypatch, mesh, cfg) == [iterations]
    assert iterations <= v_cycle + (case == "jittered")


def test_numpy_fft_loaded_only_to_precondition():
    # Importing numpy.fft takes 0.26 MB of RSS.  A process whose solves are
    # all plain leaves it as numpy left it (numpy 1.x imports it itself),
    # and the first preconditioned step loads it.
    code = """if True:
        import sys
        import numpy
        before = "numpy.fft" in sys.modules
        from monofem.ionic import make_model
        from monofem.mesh import build_uniform_mesh
        from monofem.solver import MonodomainSolver, SolverConfig
        mesh = build_uniform_mesh((0.0, 0.0, 1.0, 1.0), 1 / 8)
        for k in (1 / 64, 1 / 16):
            MonodomainSolver(mesh, SolverConfig(k=k, t_final=k, ionic=make_model("fhn"),
                                                v0=lambda x, y: x)).run()
            print(before, "numpy.fft" in sys.modules)
    """
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    plain, preconditioned = (line.split() for line in proc.stdout.splitlines())
    assert plain[1] == plain[0] and preconditioned[1] == "True"


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


def stiff_first_step(preconditioned):
    """The solver of the first manufactured fhn step at h = 1/64, k = 1/40,
    with its FastDiag or with plain CG."""
    mesh = build_uniform_mesh(BOUNDS, 1 / 64)
    p = ManufacturedProblem(make_model("fhn"))
    v_at = p.v_on(*mesh.nodes.T)
    solver = MonodomainSolver(mesh, SolverConfig(
        k=1 / 40, t_final=1 / 40, ionic=p.model, v0=v_at(0.0), w0=0.5 * v_at(0.0),
        source=lambda t: p.sources(v_at(t)),
    ))
    assert solver.precondition is not None
    if not preconditioned:
        solver.precondition = None
    return solver


@pytest.mark.parametrize("preconditioned", [True, False], ids=["preconditioned", "plain"])
def test_cg_stops_when_it_stalls(monkeypatch, preconditioned):
    # 1e-15 is below the attainable accuracy of this stiff first step (the
    # true residual stalls near 1e-15 of ||b||), so each true-residual check
    # fails and CG once restarted until 10 n = 259,210 iterations.  It now
    # raises at the first check that does not halve the true residual:
    # after 6 iterations with FastDiag (21 with a V-cycle), 455 without.
    solver = stiff_first_step(preconditioned)
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
    solver = stiff_first_step(preconditioned=False)
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
    # S v' = M (v + k f): k = h^2 runs plain CG, k = 10 h^2 FastDiag.
    # v in [0, 1] keeps ap's v + mu2 clear of 0.
    mesh = build_uniform_mesh((0.0, 0.0, nx * h, ny * h), h)
    rng = np.random.default_rng(seed)
    v, w = rng.uniform(0, 1, mesh.n_nodes), rng.uniform(0, 1, mesh.n_nodes)
    ionic, k = make_model(model), factor * h * h
    cfg = SolverConfig(k=k, t_final=k, ionic=ionic, diffusion=_tensor(kind, a, b, rho), v0=v, w0=w)
    solver = MonodomainSolver(mesh, cfg)
    assert (solver.precondition is None) == (factor == 1)
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


@pytest.mark.parametrize("cells", [(20, 20), (25, 25), (20, 5)], ids=["20x20", "25x25", "20x5"])
@pytest.mark.parametrize("factor", [1, 3.9, 4, 100])
def test_preconditioned_only_when_stiff(cells, factor):
    # FastDiag preconditions CG on the grid iff k >= 4 h^2, whatever the
    # parity of the cell counts (a V-cycle once needed both even).
    h = 1 / 8
    k = factor * h * h
    mesh = build_uniform_mesh((0.0, 0.0, cells[0] * h, cells[1] * h), h)
    precondition = MonodomainSolver(mesh, paper_config(k=k, t_final=k)).precondition
    assert (precondition is not None) == (factor >= 4)
    if precondition is not None:
        assert precondition.cells == cells


@pytest.mark.parametrize("h", [0.5, 0.3])
def test_multigrid_only_on_the_uniform_grid(h):
    # A hand-made mesh that is not the node grid of its bounds and h (or
    # whose h does not divide them) gets plain CG, however stiff the step:
    # neither FastDiag nor, before it, a multigrid V-cycle.
    tri = TriMesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  triangles=np.array([[0, 1, 2]]), h=h, bounds=(0, 0, 1, 1))
    solver = MonodomainSolver(tri, SolverConfig(k=10.0, t_final=10.0, ionic=ZeroReaction(), v0=1.0))
    assert solver.precondition is None
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
    # A build_uniform_mesh set-up builds no whole triangle array and holds
    # no (7, n) operator array.  The mesh keeps its nodes, its grid (known
    # when made), whether its cells are congruent and the operators; on
    # congruent cells assembly builds the first cell's two triangles for
    # each matrix, and M, A and S hold only their class tables.  A triplet layout kept one byte per
    # element-matrix entry (9 per triangle), and the mesh's triangle array
    # 24 bytes per triangle.
    sizes = []

    def counted(nx, ids, _original=monofem.mesh.grid_triangles):
        sizes.append(len(ids))
        return _original(nx, ids)

    for module in (monofem.mesh, monofem.assembly):
        monkeypatch.setattr(module, "grid_triangles", counted)
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
    assert sizes == [2, 2]
    assert set(vars(mesh)) == {"nodes", "h", "bounds", "grid", "congruent", "operators"}
    M, A = mesh.operators[D]
    buffers = [t.base for t in monofem.sparse._BUFFERS]
    own = held - sum(a.nbytes for a in (mesh.nodes, *buffers))
    assert own <= 16_000  # 6 kB of Python objects and class tables
    solver = MonodomainSolver(mesh, paper_config(h=h, k=1 / 16, diffusion=D))
    assert solver.precondition is not None
    for op in (M, A, solver.system):
        assert "data" not in vars(op) and op.classes.shape == (7, 3, 3)
    MonodomainSolver(build_uniform_mesh(BOUNDS, 1 / 8), paper_config())
    assert sizes == [2] * 4


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
    # 0.86 MB at h = 1/64, bounded here with a 10 % margin.  The mesh stores
    # its nodes and no triangles, and M, A and S their class tables; with
    # (7, n) operator arrays and a triangle array the peak was 6.45 MB, and
    # with the triplet keys, the geometry and three (3, 3, triangles)
    # arrays made whole, 18.5 MB.
    assert set_up_peak(1 / 64) <= 0.95e6
    # At k = 1/40 the solver also builds FastDiag, whose eigenvalues are
    # n floats: 1.07 MB (1.15 MB with a V-cycle over four grids, 7.21 MB
    # with (7, n) arrays).
    assert set_up_peak(1 / 64, k=1 / 40) <= 1.26e6


def test_set_up_memory_peak_fine_mesh():
    # 3.41 MB at h = 1/128, half of it the nodes and half the initial v and
    # w; 25.6 MB with (7, n) operator arrays and a triangle array, and
    # 73.8 MB with whole-mesh arrays.
    assert set_up_peak(1 / 128) <= 3.75e6


def test_run_memory_peak_fine_mesh(monkeypatch):
    # One 16-step run() at h = 1/128, k = h^2, with the mesh held as the
    # fine_mesh workload holds it: 12.2 MB, the nodes, v, w, CG's vectors
    # and the step's temporaries at n = 103,041.  With (7, n) operator
    # arrays and a triangle array it was 34.4 MB.
    monkeypatch.setattr(monofem.sparse, "_BUFFERS", [])
    h = 1 / 128
    cfg = paper_config(make_model("ap"), h=h, t_final=16 * h * h, v0=0.21, w0=0.12)
    tracemalloc.start()
    try:
        mesh = build_uniform_mesh(BOUNDS, h)
        state = MonodomainSolver(mesh, cfg).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.n == 16 and peak <= 13.0e6


@pytest.mark.parametrize("h,k,steps", [(1 / 128, 1 / 128**2, 1), (1 / 64, 1 / 40, 1)],
                         ids=["fine_mesh", "sweep_dt"])
def test_no_operator_made_from_a_table_is_scanned(monkeypatch, h, k, steps):
    # M and A come from one cell's element matrices and S from their class
    # tables, so none of them needs DiaMatrix.classes to scan its data: not
    # in set-up, nor in the products of a step, nor where FastDiag (at
    # k = 1/40 and h = 1/64) reads A's interior class.  Scanning S and M
    # once took 0.71 ms at h = 1/128.
    scans = []

    def counted(A, _scan=DiaMatrix.classes.func):
        scans.append(A.nrows)
        return _scan(A)

    classes = functools.cached_property(counted)
    classes.__set_name__(DiaMatrix, "classes")
    monkeypatch.setattr(DiaMatrix, "classes", classes)
    cfg = paper_config(make_model("ap"), h=h, k=k, t_final=steps * k, v0=lambda x, y: 0.2 + 0.1 * x)
    solver = MonodomainSolver(build_uniform_mesh(BOUNDS, h), cfg)
    assert solver.run().n == steps
    assert (solver.precondition is None) == (k < 4 * h * h)
    assert scans == []


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


@pytest.mark.parametrize("k", [1 / 128**2, 1 / 40], ids=["plain", "preconditioned"])
def test_first_step_meets_1e_12_at_the_finest_mesh(monkeypatch, k):
    # First manufactured fhn step at h = 1/128.  With FastDiag (k = 1/40)
    # the true relative residual stalls near 1.5e-13 (a 1e-13 stop raises,
    # at 1.53e-15 against 1.03e-15), so a 1e-12 stop has about 6x margin
    # (it ends at 1.99e-13); plain CG (k = h^2) still reaches 1e-14.
    mesh = build_uniform_mesh(BOUNDS, 1 / 128)
    p = ManufacturedProblem(make_model("fhn"))
    v_at = p.v_on(*mesh.nodes.T)
    v0 = v_at(0.0)
    solver = MonodomainSolver(mesh, SolverConfig(
        k=k, t_final=k, ionic=p.model, v0=v0, w0=0.5 * v0, source=lambda t: p.sources(v_at(t)),
    ))
    assert (solver.precondition is not None) == (k == 1 / 40)
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
