"""The benchmark's hooks still find, and still see calls to, the names they
wrap in the package.

``perfbench/spans.py`` replaces functions by name and skips a name that
no longer exists, so a renamed function would silently drop its per-layer
metrics; a name that exists but is no longer called reads 0.  The module
is stdlib-only and is loaded here by path.
"""
import importlib.util
from pathlib import Path

import pytest

import monofem.verification
from monofem.ionic import make_model
from monofem.verification import StudyConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
SITES = [site for _, sites, _, _ in spans.HOOKS for site in sites] + [spans.IONIC_SITE]


@pytest.mark.parametrize("site", SITES)
def test_hooked_site_resolves(site):
    assert spans._resolve(site) is not None, f"{site} no longer exists in monofem"


def test_every_hook_fires():
    # One homogeneous study, a manufactured timestep sweep whose steps use
    # the V-cycle, and a manufactured mesh sweep: between them they reach
    # every hooked layer but sparse.csr_build, whose from_triplets set-up
    # no longer calls.
    studies = [
        StudyConfig(model=make_model("ms"), levels=[1 / 4, 1 / 8], t_final=1 / 16),
        StudyConfig(model=make_model("fhn"), mode="manufactured", sweep="timestep",
                    fixed_h=1 / 8, levels=[1 / 4, 1 / 8]),
        StudyConfig(model=make_model("fhn"), mode="manufactured", levels=[1 / 4, 1 / 8],
                    dt_rule=1e-3, t_final=2e-3),
    ]
    tracer = spans.Tracer()
    with spans.hooks(tracer, full=True) as installed:
        for cfg in studies:
            monofem.verification.convergence_study(cfg)
    assert installed >= {name for name, _, _, _ in spans.HOOKS}
    assert installed - set(tracer.totals()) == {"sparse.csr_build"}
