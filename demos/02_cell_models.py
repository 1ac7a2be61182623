"""Walkthrough: the four reduced ionic models at the cell level.

Integrates each reaction pair as a plain ODE from the (0.2, 0.1) initial
state and prints where the cell ends up, with the integrator's own error
estimate, plus the reaction values at a few probe points.  The ms cell
crosses its gate (v = 0.13) on the way to T = 5.
"""
from monofem import converged_reference, make_model

probes = [(0.0, 0.0), (0.2, 0.1), (1.0, 0.5)]

for name in ("fhn", "rm", "ap", "ms"):
    model = make_model(name)
    print(f"== {name} ==")
    for v, w in probes:
        i_ion, g = model(v, w)
        print(f"  (v={v:4g}, w={w:4g}) -> i_ion={i_ion:+.6f}  g={float(g):+.6f}")
    for t_final in (0.25, 5.0, 50.0):
        v, w, err = converged_reference(model, 0.2, 0.1, t_final, dt=1e-2)
        print(f"  cell state at T={t_final:>5g}: v={v:+.6f}  w={w:+.6f}  (error <= {err:.1e})")
    print()
