"""The benchmark's traced call sites must keep resolving in gpbo.

``perfbench/spans.py`` patches gpbo functions and methods by name; renaming
or removing one would silently drop its layer metric.  The span table is
loaded from its file and only read.
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


SPANS = _load_spans()


@pytest.mark.parametrize(
    "owner, attribute", [(path, attr) for path, attr, _, _ in SPANS.CALL_SITES]
)
def test_call_site_resolves_to_a_gpbo_callable(owner, attribute):
    assert owner.startswith("gpbo.")
    assert callable(getattr(SPANS._owner(owner), attribute))
