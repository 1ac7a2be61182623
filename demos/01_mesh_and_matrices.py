"""Walkthrough: uniform triangulations and the P1 Galerkin matrices.

Builds meshes of the default square domain, checks the bookkeeping you
would want to trust before running anything time-dependent, and prints the
nodes and triangles of a tiny mesh.
"""
import numpy as np

from monofem import assemble_mass, assemble_stiffness, build_uniform_mesh, spmv

print("== mesh counts ==")
for h in (1 / 8, 1 / 16, 1 / 32):
    mesh = build_uniform_mesh(h=h)
    n = round(2.5 / h)
    print(f"h={h:<8g} nodes={mesh.n_nodes:>6} (expect {(n + 1) ** 2}),"
          f" triangles={mesh.n_triangles:>6} (expect {2 * n * n})")

print("\n== matrix sanity on h=1/16 ==")
mesh = build_uniform_mesh(h=1 / 16)
M = assemble_mass(mesh)
A = assemble_stiffness(mesh)
ones = np.ones(mesh.n_nodes)
print(f"sum of mass entries      : {M.data.sum():.12f}  (domain area 6.25)")
print(f"max |A @ 1|              : {np.abs(spmv(A, ones)).max():.2e}  (Neumann kernel)")
rng = np.random.default_rng(0)
x = rng.standard_normal(mesh.n_nodes)
print(f"x^T M x for random x     : {x @ spmv(M, x):.4f}  (> 0, SPD)")
print(f"x^T A x for random x     : {x @ spmv(A, x):.4f}  (>= 0, PSD)")

print("\n== the single-cell mesh ==")
cell = build_uniform_mesh((0, 0, 1, 1), 1.0)
print("nodes:\n", cell.nodes)
print("triangles:\n", cell.triangles)
