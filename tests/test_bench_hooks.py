"""The names the benchmark in certbench/ hooks and calls, checked against the
package, so that removing one fails here and not only in a traced run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import contact_noether

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def certbench():
    """certbench's run.py and tracing.py, loaded without running anything; the
    sys.path entry and the sibling modules run.py imports are taken back afterwards."""
    path, here = list(sys.path), ROOT / "certbench"
    spec = importlib.util.spec_from_file_location("certbench_run", here / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    yield run, run.tracing
    sys.path[:] = path
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == here:
            del sys.modules[name]


def test_every_traced_name_resolves(certbench):
    _, tracing = certbench
    targets = tracing._targets(contact_noether)
    assert len(targets) >= 20
    for owner, attr, name in targets:
        assert callable(vars(owner).get(attr)), (owner, attr, name)


def test_eval_cross_check_over_the_scenarios_agrees(certbench):
    run, _ = certbench
    compared, differing = run.cross_check_eval(
        contact_noether, sorted((ROOT / "scenarios").glob("*.json")), seed=1)
    assert compared > 0 and differing == 0
