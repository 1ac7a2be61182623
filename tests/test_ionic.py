import numpy as np
import pytest

from monofem.ionic import (
    MODEL_NAMES,
    MODELS,
    ApParams,
    IonicModel,
    MsParams,
    SingularDenominator,
    eval_ap,
    eval_fhn,
    eval_ms,
    eval_rm,
    make_model,
    spectral_radius,
)


def test_fhn_hand_values():
    assert eval_fhn(0.2, 0.1) == pytest.approx((-0.084, 0.0), abs=1e-15)
    assert eval_fhn(0.0, 0.0) == (0.0, 0.0)
    assert eval_fhn(1.0, 0.5) == pytest.approx((-0.5, 0.0), abs=1e-15)


def test_rm_hand_values():
    assert eval_rm(0.2, 0.1) == pytest.approx((-0.004, 0.0), abs=1e-15)
    for w in (0.0, 0.3, 1.7):
        assert eval_rm(0.0, w) == pytest.approx((0.0, -2 * w))
    assert eval_rm(1.0, 1.0) == pytest.approx((-1.0, -1.0))


def test_ap_hand_values():
    i_ion, g = eval_ap(0.2, 0.1)
    assert i_ion == pytest.approx(0.044, abs=1e-15)
    assert g == pytest.approx(0.05964, abs=1e-15)
    assert eval_ap(0.0, 0.0) == (0.0, 0.0)


def test_ap_singular_denominator():
    with pytest.raises(SingularDenominator):
        eval_ap(-0.3, 0.1, ApParams(mu2=0.3))
    with pytest.raises(SingularDenominator):
        eval_ap(np.array([0.2, -0.3]), np.array([0.1, 0.1]))


def test_ms_hand_values():
    i_ion, g = eval_ms(0.2, 0.1)
    assert i_ion == pytest.approx(-0.0226667, abs=1e-7)
    assert g == pytest.approx(-6.6667e-4, rel=1e-4)
    assert eval_ms(0.0, 1.0) == pytest.approx((0.0, 0.0))


def test_ms_gate_discontinuity():
    p = MsParams()
    w = 0.4
    _, g_below = eval_ms(p.u_gate, w, p)
    _, g_above = eval_ms(p.u_gate + 1e-12, w, p)
    assert g_below == pytest.approx((1 - w) / p.tau_open)
    assert g_above == pytest.approx(-w / p.tau_close)


def test_fhn_equals_rm_at_zero_gating():
    for v in np.linspace(-0.5, 1.5, 21):
        assert eval_fhn(v, 0.0) == eval_rm(v, 0.0)


def test_finite_on_evaluation_box():
    vs = np.linspace(-0.5, 1.5, 41)
    ws = np.linspace(0.0, 2.0, 41)
    V, W = np.meshgrid(vs, ws)
    for fn in (eval_fhn, eval_rm, eval_ms):
        i_ion, g = fn(V, W)
        assert np.all(np.isfinite(i_ion)) and np.all(np.isfinite(g))
    # APM: stay off the singular line v = -mu2
    mask = np.abs(V + ApParams().mu2) > 1e-3
    i_ion, g = eval_ap(V[mask], W[mask])
    assert np.all(np.isfinite(i_ion)) and np.all(np.isfinite(g))


@pytest.mark.parametrize("name", ["fhn", "rm", "ap"])
def test_lipschitz_audit(name):
    # Bounded finite-difference slopes on a 101x101 grid over the box
    # (APM sampled above the singular line).
    model = make_model(name)
    vs = np.linspace(-0.5 if name != "ap" else -0.25, 1.5, 101)
    ws = np.linspace(0.0, 2.0, 101)
    V, W = np.meshgrid(vs, ws)
    i_ion, g = model(V, W)
    g = np.broadcast_to(g, V.shape)
    dv = vs[1] - vs[0]
    dw = ws[1] - ws[0]
    slopes = [
        np.abs(np.diff(i_ion, axis=1)).max() / dv,
        np.abs(np.diff(i_ion, axis=0)).max() / dw,
        np.abs(np.diff(g, axis=1)).max() / dv,
        np.abs(np.diff(g, axis=0)).max() / dw,
    ]
    assert all(np.isfinite(s) for s in slopes)
    assert max(slopes) < 1e4  # loose; AP slopes grow near the singular line


def test_make_model_validation():
    model = make_model("ap", mu2=0.4)
    assert model.params.mu2 == 0.4
    with pytest.raises(ValueError):
        make_model("bogus")
    with pytest.raises(ValueError):
        make_model("fhn", a=1.0)
    with pytest.raises(ValueError):
        make_model("ms", mu2=0.3)
    for name in ("tau_in", "tau_out", "tau_open", "tau_close"):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                make_model("ms", **{name: bad})


@pytest.mark.parametrize("kind,params", [("FHN", None), ("ap", None), ("bogus", None),
                                         ("fhn", ApParams())])
def test_ionic_model_rejects_what_the_table_lacks(kind, params):
    # Each once fell through to an evaluator without its parameters and
    # ended in an AttributeError at the first call.
    with pytest.raises(ValueError):
        IonicModel(kind, params)


EVALUATORS = {"fhn": eval_fhn, "rm": eval_rm, "ap": eval_ap, "ms": eval_ms}


@pytest.mark.parametrize("name", EVALUATORS)
def test_model_table_drives_make_model(name):
    assert MODEL_NAMES == tuple(MODELS) == tuple(EVALUATORS)
    rng = np.random.default_rng(3)
    v, w = rng.uniform(-0.2, 1.2, 50), rng.uniform(0.0, 2.0, 50)
    for got, want in zip(make_model(name)(v, w), EVALUATORS[name](v, w)):
        assert np.array_equal(got, want)


def test_models_vectorized_matches_scalar():
    v = np.array([0.0, 0.2, 1.0])
    w = np.array([0.0, 0.1, 0.5])
    for name in ("fhn", "rm", "ap", "ms"):
        model = make_model(name)
        i_vec, g_vec = model(v, w)
        g_vec = np.broadcast_to(g_vec, v.shape)
        for j in range(len(v)):
            i_s, g_s = model(v[j], w[j])
            assert i_vec[j] == pytest.approx(i_s)
            assert g_vec[j] == pytest.approx(g_s)


class Linear:
    """i_ion = a v + b w, g = c v + d w: the Jacobian is [[a, b], [c, d]]."""

    kind = "linear"

    def __init__(self, a, b, c, d):
        self.J = np.array([[a, b], [c, d]], dtype=float)

    def __call__(self, v, w):
        return self.J[0, 0] * v + self.J[0, 1] * w, self.J[1, 0] * v + self.J[1, 1] * w


@pytest.mark.parametrize("J", [(-3.0, 1.0, 0.0, -0.5), (0.0, -2.0, 2.0, 0.0), (0.22, -1.0, 1.0, -2.0)])
def test_spectral_radius_of_linear_reaction(J):
    model = Linear(*J)
    expect = np.abs(np.linalg.eigvals(model.J)).max()
    got = spectral_radius(model, np.linspace(-1, 1, 5), 0.3)
    assert got == pytest.approx(expect, rel=1e-8)


def test_spectral_radius_of_models():
    # fhn at (0.2, 0.1): J = [[0.22, -1], [1, -2]] by hand.
    expect = np.abs(np.linalg.eigvals([[0.22, -1.0], [1.0, -2.0]])).max()
    assert spectral_radius(make_model("fhn"), 0.2, 0.1) == pytest.approx(expect, rel=1e-8)
    # The largest radius over several states wins.
    fhn = make_model("fhn")
    both = spectral_radius(fhn, np.array([0.2, -1.0]), np.array([0.1, -0.5]))
    assert both == spectral_radius(fhn, -1.0, -0.5) > spectral_radius(fhn, 0.2, 0.1)
    # A Jacobian that is not finite counts as unbounded.
    assert spectral_radius(fhn, 1e200, 0.0) == np.inf
