import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from contact_noether import expr
from contact_noether.expr import compile_bundle
from contact_noether.geometry import ExtendedPoint
from contact_noether.scaling import solve_scaling_explained
from contact_noether.systems import make_harmonic_dissipative, make_kepler


@pytest.fixture(autouse=True)
def no_kept_runs():
    """Each test starts and ends with no run's work kept (`expr.derivatives_kept`),
    so counts of derivatives and compiles do not depend on the tests before it."""
    expr._RUNS.clear()
    yield
    expr._RUNS.clear()


@pytest.fixture
def kepler():
    return make_kepler(m=1.0, eps=0.25)


@pytest.fixture
def damped_oscillator():
    return make_harmonic_dissipative(m=1.0, f_spec=1.0, g0=0.2)


@pytest.fixture
def free_oscillator():
    return make_harmonic_dissipative(m=1.0, f_spec=1.0, g0=0.0)


def point(q, p, S=0.0, t=0.0) -> ExtendedPoint:
    return ExtendedPoint(np.atleast_1d(q), np.atleast_1d(p), S, t)


def states(traj) -> list[ExtendedPoint]:
    """The trajectory's states, each row with its time, as points."""
    n = traj.n
    return [ExtendedPoint(y[:n], y[n:2 * n], y[2 * n], t) for t, y in zip(traj.times, traj.rows)]


def values(fields, env) -> tuple[float, ...]:
    """Each field at a name->value environment, through one compiled bundle."""
    return compile_bundle(list(fields), list(env))(*env.values())


def value(field, env) -> float:
    return values([field], env)[0]


def tally():
    """A reader of the package's tally `expr.work`: each call returns the work
    counted since `tally()` was called, by key."""
    start = dict(expr.work)
    return lambda: {k: v - start[k] for k, v in expr.work.items()}


def case_invariant(system, tag, k):
    """The invariant of the case-table row `tag` for f constant, no S-term and
    a potential of degree k, with the placeholder h replaced by `system.h`."""
    solutions, _ = solve_scaling_explained(k, "constant", "zero", n=system.n)
    return next(s for s in solutions if s.case_tag == tag).invariant_for(system)


def certbench_workloads():
    """certbench's scenario generators (`certbench/workloads.py`, only read),
    loaded under a name of their own and taken out of `sys.modules` again."""
    spec = importlib.util.spec_from_file_location(
        "certbench_workloads", Path(__file__).resolve().parent.parent / "certbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads
