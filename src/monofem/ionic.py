"""Reduced ionic cell models: reaction pair (I_ion, g).

Four two-variable models: FitzHugh-Nagumo (fhn), Roger-McCulloch (rm),
Aliev-Panfilov (ap) and Mitchell-Schaeffer (ms), all in the one table
``MODELS``.  The evaluators work elementwise on scalars or numpy arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

class SingularDenominator(ZeroDivisionError):
    """Aliev-Panfilov epsilon' blows up when v + mu2 ~ 0."""


@dataclass(frozen=True)
class ApParams:
    # Standard literature values; all overridable from the run config.
    k: float = 8.0
    a: float = 0.15
    eps0: float = 0.002
    mu1: float = 0.2
    mu2: float = 0.3


@dataclass(frozen=True)
class MsParams:
    tau_in: float = 0.3
    tau_out: float = 6.0
    tau_open: float = 120.0
    tau_close: float = 150.0
    u_gate: float = 0.13

    def __post_init__(self):
        if not all(t > 0 for t in (self.tau_in, self.tau_out, self.tau_open, self.tau_close)):
            raise ValueError(f"ms time constants must be positive, got {self}")


def eval_fhn(v, w):
    """i_ion = v(v-0.1)(1-v) - w,  g = v - 2w."""
    return v * (v - 0.1) * (1 - v) - w, v - 2 * w


def eval_rm(v, w):
    """i_ion = v(v-0.1)(1-v) - v*w,  g = v - 2w."""
    return v * (v - 0.1) * (1 - v) - v * w, v - 2 * w


def eval_ap(v, w, p: ApParams = ApParams()):
    """i_ion = -k v(v-a)(v-1) - v*w,  g = eps'(v,w) * (-k v(v-1-a) - w).

    eps'(v, w) = eps0 + mu1 w / (v + mu2).

    Raises:
        SingularDenominator: if |v + mu2| < 1e-12 anywhere.
    """
    denom = v + p.mu2
    if np.any(np.abs(denom) < 1e-12):
        raise SingularDenominator(f"v + mu2 vanishes (mu2={p.mu2})")
    eps = p.eps0 + p.mu1 * w / denom
    i_ion = -p.k * v * (v - p.a) * (v - 1) - v * w
    g = eps * (-p.k * v * (v - 1 - p.a) - w)
    return i_ion, g


def eval_ms(v, w, p: MsParams = MsParams(), below=None):
    """i_ion = -(w/tau_in) v^2 (v-1) - v/tau_out.

    g switches at the gate: (1-w)/tau_open for v <= u_gate, else -w/tau_close.
    A bool ``below`` holds g on one branch (True: the v <= u_gate one)
    whatever v is.
    """
    i_ion = -(w / p.tau_in) * v * v * (v - 1) - v / p.tau_out
    if below is None:
        below = v <= p.u_gate
    g = np.where(below, (1 - w) / p.tau_open, -w / p.tau_close)
    if np.isscalar(v) or np.ndim(v) == 0:
        g = float(g)
    return i_ion, g


# name -> (evaluator, default parameter record; None where the model has none).
MODELS = {
    "fhn": (eval_fhn, None),
    "rm": (eval_rm, None),
    "ap": (eval_ap, ApParams()),
    "ms": (eval_ms, MsParams()),
}
MODEL_NAMES = tuple(MODELS)


@dataclass(frozen=True)
class IonicModel:
    """Named reaction pair with its parameter record.

    ``kind`` names an entry of ``MODELS`` and ``params`` has the type of its
    default, else ValueError.  Called with nodal vectors (v, w), returns (i_ion, g).
    """

    kind: str
    params: ApParams | MsParams | None = None

    def __post_init__(self):
        if self.kind not in MODELS or type(self.params) is not type(MODELS[self.kind][1]):
            raise ValueError(f"no ionic model {self.kind!r} with parameters {self.params!r} in MODELS")

    def __call__(self, v, w):
        evaluate = MODELS[self.kind][0]
        return evaluate(v, w) if self.params is None else evaluate(v, w, self.params)


def spectral_radius(model: IonicModel, v, w) -> float:
    """Largest |eigenvalue| of the Jacobian of (i_ion, g) over the states (v, w).

    The 2x2 Jacobian [[a, b], [c, d]] is taken by central differences, so
    no model needs derivative code.  Its eigenvalues are m +- sqrt(m^2 - det)
    with m = (a + d) / 2.  Returns inf if the Jacobian is not finite.
    """
    v, w = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(w, dtype=float))
    dv = 1e-6 * np.maximum(1.0, np.abs(v))
    dw = 1e-6 * np.maximum(1.0, np.abs(w))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as inf below
        (fvp, gvp), (fvm, gvm) = model(v + dv, w), model(v - dv, w)
        (fwp, gwp), (fwm, gwm) = model(v, w + dw), model(v, w - dw)
        a, b = (fvp - fvm) / (2 * dv), (fwp - fwm) / (2 * dw)
        c, d = (gvp - gvm) / (2 * dv), (gwp - gwm) / (2 * dw)
        m = (a + d) / 2
        det = a * d - b * c
        disc = m * m - det
        # Real pair: |m| + sqrt(disc); complex pair: both of modulus sqrt(det).
        rho = np.where(disc >= 0, np.abs(m) + np.sqrt(np.abs(disc)), np.sqrt(np.abs(det)))
    return float(rho.max()) if np.all(np.isfinite(rho)) else math.inf


def make_model(name: str, **overrides) -> IonicModel:
    """Build an IonicModel by short name, with optional parameter overrides.

    Overrides are fields of the model's parameter record in ``MODELS``.
    Unknown names or parameters raise ValueError.
    """
    name = name.lower()
    if name not in MODELS:
        raise ValueError(f"unknown ionic model {name!r}; valid: {', '.join(MODEL_NAMES)}")
    params = MODELS[name][1]
    valid = set() if params is None else {f.name for f in fields(params)}
    unknown = set(overrides) - valid
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for model {name!r}; valid: {sorted(valid)}"
        )
    return IonicModel(name, None if params is None else replace(params, **overrides))
