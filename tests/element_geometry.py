"""Whole-mesh P1 geometry for the tests, written apart from assembly.

``test_mesh::test_vectorized_matches_single`` checks it against a
per-triangle matrix inverse.
"""
import numpy as np


def element_geometry(mesh):
    """Areas (T,) and basis gradients (T, 3, 2) of every triangle of
    ``mesh``: grads[t, i] is the gradient of the basis function at vertex i
    of triangle t.  Twice the signed area and the gradients are formed as
    det = (p1 - p0) x (p2 - p0) and grad_i = (y_{i+1} - y_{i+2},
    x_{i+2} - x_{i+1}) / det, so the values are those assembly uses, bit
    for bit."""
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    x, y = p[..., 0], p[..., 1]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    ahead, behind = [1, 2, 0], [2, 0, 1]
    grads = np.stack([y[:, ahead] - y[:, behind], x[:, behind] - x[:, ahead]], axis=2)
    return 0.5 * det, grads / det[:, None, None]
