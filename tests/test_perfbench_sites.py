"""The benchmark's traced call sites must keep resolving in gpbo.

``perfbench/spans.py`` patches gpbo functions and methods by name; renaming
or removing one would silently drop its layer metric.  The span table is
loaded from its file and only read.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from gpbo import loop
from gpbo.gp import ObservationSet, fit_posterior
from gpbo.kernels import KernelSpec

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


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


def test_predict_note_counts_the_test_points():
    # spans.py notes ``len(a[1])`` for each gp.predict call
    assert list(inspect.signature(loop.predict).parameters)[1] == "X_star"
    note = next(n for _, _, name, n in SPANS.CALL_SITES if name == "gp.predict")
    obs = ObservationSet([[0.0, 0.0], [1.0, 0.5]], [0.0, 1.0])
    post = fit_posterior(obs, KernelSpec("sq_exp_iso"), 0.1)
    X_star = np.zeros((5, 2))
    assert note((post, X_star), loop.predict(post, X_star)) == 5


def test_imports_kept_for_the_span_table_are_in_it():
    """An import kept alive only for the span table (``# noqa: F401``) must name
    a traced call site, so it goes when the table stops patching it there."""
    sites = {(path, attr) for path, attr, _, _ in SPANS.CALL_SITES}
    kept = []
    for source in sorted((ROOT / "src" / "gpbo").glob("*.py")):
        text = source.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                kept += [
                    (f"gpbo.{source.stem}", alias.asname or alias.name)
                    for alias in node.names
                    if "# noqa: F401" in lines[alias.lineno - 1]
                ]
    assert kept
    assert [site for site in kept if site not in sites] == []
