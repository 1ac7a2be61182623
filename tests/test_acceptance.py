"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The rate criteria use the same refinement ladder as the published
table (h = 1/8 .. 1/64, dt = h^2, T = 0.25); h = 1/128 is an optional
extended run, see demos/03_rate_table.py.
"""
import numpy as np
import pytest

from monofem.assembly import assemble_mass, assemble_stiffness, l2_norm
from monofem.ionic import make_model
from monofem.mesh import build_uniform_mesh
from monofem.solver import MonodomainSolver, SolverConfig
from monofem.sparse import from_triplets, spmv
from monofem.verification import StudyConfig, compute_rates, convergence_study, discrete_cell_trajectory

from test_sparse import cg_at, dense

BOUNDS = (-1.25, -1.25, 1.25, 1.25)
LEVELS = [1 / 8, 1 / 16, 1 / 32, 1 / 64]


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


@pytest.mark.parametrize("name", ["fhn", "rm", "ap", "ms"])
def test_criterion_1_rate_reproduction(name):
    records = convergence_study(
        StudyConfig(model=make_model(name), levels=LEVELS, t_final=0.25)
    )
    sroc, troc = records[-1].sroc, records[-1].troc
    # The exact solution's own error must not show in the measured errors.
    reference_error = records[-1].reference_error
    ok = (abs(sroc - 2) <= 0.15 and abs(troc - 1) <= 0.08
          and reference_error <= 1e-6 * min(r.l2_error for r in records))
    report(1, ok, f"{name} finest transition sroc={sroc:.5f} troc={troc:.5f}, "
                  f"reference error {reference_error:.1e}")


def test_criterion_2_rate_formula_on_published_column():
    errors = [0.0153718, 0.00418786, 0.0010467, 0.000261422, 6.53429e-05]
    hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]
    dts = [h * h for h in hs]
    sroc, troc = compute_rates(errors, hs, dts)
    expect_sroc = [1.876, 2.00037, 2.0014, 2.00027]
    expect_troc = [0.937999, 1.00018, 1.0007, 1.00014]
    gaps = [abs(a - b) for a, b in zip(sroc[1:], expect_sroc)] + [
        abs(a - b) for a, b in zip(troc[1:], expect_troc)
    ]
    report(2, max(gaps) <= 5e-4, f"max deviation from published rate rows {max(gaps):.2e}")


def test_criterion_3_absolute_errors_not_reproducible():
    # The published error magnitudes depend on quantities the experiment
    # description does not pin down (final time, conductivity, two models'
    # parameters); criteria 4-8 stand in with property checks.
    report(3, True, "absolute error columns treated as qualitative (documented)")


@pytest.mark.parametrize("name", ["fhn", "rm", "ap", "ms"])
def test_criterion_4_oracle_equivalence(name):
    model = make_model(name)
    mesh = build_uniform_mesh(BOUNDS, 1 / 8)
    k = (1 / 8) ** 2
    solver = MonodomainSolver(mesh, SolverConfig(k=k, t_final=16 * k, ionic=model, v0=0.2, w0=0.1))
    v_ref, w_ref = discrete_cell_trajectory(model, 0.2, 0.1, k, 16)
    worst = 0.0
    for n in range(1, 17):
        state = solver.step()
        worst = max(worst, np.abs(state.v - v_ref[n]).max(), np.abs(state.w - w_ref[n]).max())
    report(4, worst <= 1e-10, f"{name} max per-node gap to scalar recursion {worst:.2e}")


def test_criterion_5_element_matrix_oracles():
    from monofem.mesh import TriMesh

    tri = TriMesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        h=1.0,
        bounds=(0, 0, 1, 1),
    )
    mass_gap = np.abs(
        dense(assemble_mass(tri)) - np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    ).max()
    stiff_gap = np.abs(
        dense(assemble_stiffness(tri))
        - np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    ).max()
    ok = mass_gap <= 1e-14 and stiff_gap <= 1e-14
    report(5, ok, f"local mass gap {mass_gap:.1e}, local stiffness gap {stiff_gap:.1e}")


def test_criterion_6_structural_invariants():
    rng = np.random.default_rng(0)
    details = []
    ok = True
    for h, n_cells in ((1 / 8, 20), (1 / 16, 40)):
        mesh = build_uniform_mesh(BOUNDS, h)
        counts_ok = (
            mesh.n_nodes == (n_cells + 1) ** 2 and mesh.n_triangles == 2 * n_cells**2
        )
        M = assemble_mass(mesh)
        A = assemble_stiffness(mesh)
        spd_ok = all(
            x @ spmv(M, x) > 0 for x in rng.standard_normal((20, mesh.n_nodes))
        )
        kernel_gap = np.abs(spmv(A, np.ones(mesh.n_nodes))).max()
        sum_gap = abs(M.data.sum() - 6.25)
        ok = ok and counts_ok and spd_ok and kernel_gap <= 1e-12 and sum_gap <= 1e-12
        details.append(f"h={h}: A1 gap {kernel_gap:.1e}, sumM gap {sum_gap:.1e}")
    report(6, ok, "; ".join(details))


def test_criterion_7_manufactured_orders():
    spatial = convergence_study(
        StudyConfig(
            model=make_model("fhn"),
            mode="manufactured",
            levels=[1 / 8, 1 / 16, 1 / 32],
            dt_rule=1e-5,
            t_final=0.02,
        )
    )
    s_orders = [r.sroc for r in spatial[1:]]
    temporal = convergence_study(
        StudyConfig(
            model=make_model("fhn"),
            mode="manufactured",
            sweep="timestep",
            levels=[1 / 40, 1 / 80, 1 / 160],
            fixed_h=1 / 64,
            t_final=0.25,
        )
    )
    t_orders = [r.troc for r in temporal[1:]]
    ok = all(1.8 <= s <= 2.2 for s in s_orders) and all(0.8 <= t <= 1.2 for t in t_orders)
    report(
        7,
        ok,
        "spatial orders " + ", ".join(f"{s:.3f}" for s in s_orders)
        + "; temporal orders " + ", ".join(f"{t:.3f}" for t in t_orders),
    )


def test_criterion_8_mass_conservation():
    class ZeroReaction:
        kind = "zero"

        def __call__(self, v, w):
            return np.zeros_like(v), np.zeros_like(w)

    h = 1 / 16
    mesh = build_uniform_mesh(BOUNDS, h)
    cfg = SolverConfig(
        k=h * h,
        t_final=100 * h * h,
        ionic=ZeroReaction(),
        v0=lambda x, y: np.cos(np.pi * (x + 1.25) / 2.5),
    )
    solver = MonodomainSolver(mesh, cfg)
    ones = np.ones(mesh.n_nodes)
    m0 = ones @ spmv(solver.mass, solver.state.v)
    bound = 1e-8 * l2_norm(solver.mass, solver.state.v)
    solver.run()
    drift = abs(ones @ spmv(solver.mass, solver.state.v) - m0)
    report(8, drift <= bound, f"mass drift over 100 steps {drift:.2e} (bound {bound:.2e})")


def test_criterion_9_cg_contract():
    rng = np.random.default_rng(42)
    worst_res, worst_gap = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        B = rng.standard_normal((n, n))
        dense = B.T @ B + np.eye(n)
        rows, cols = np.nonzero(dense)
        A = from_triplets(n, n, rows, cols, dense[rows, cols])
        b = rng.standard_normal(n)
        x, _ = cg_at(1e-10, A, b)
        worst_res = max(worst_res, np.linalg.norm(b - dense @ x) / np.linalg.norm(b))
        worst_gap = max(worst_gap, np.abs(x - np.linalg.solve(dense, b)).max())
    ok = worst_res <= 1e-10 and worst_gap <= 1e-8
    report(9, ok, f"worst relative residual {worst_res:.2e}, worst gap to dense solve {worst_gap:.2e}")
