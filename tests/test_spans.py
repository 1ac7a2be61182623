"""The benchmark's hooks still find the names they wrap in the package.

``perfbench/spans.py`` replaces functions by name and skips a name that
no longer exists, so a renamed function would silently drop its per-layer
metrics.  The module is stdlib-only and is loaded here by path.
"""
import importlib.util
from pathlib import Path

import pytest

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
