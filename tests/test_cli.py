import gc
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_noether import cli, dynamics, expr
from contact_noether.dynamics import contact_field, extended_field
from contact_noether.expr import DomainError, parse
from contact_noether.geometry import ContactSystem, lie_bracket, point_bundle
from contact_noether.noether import (DegeneratePoint, build_residual, closure_check,
                                     dissipation_field, sample_points, similarity_test,
                                     symmetry_test)
from contact_noether.scaling import ScalingAnsatz, scaling_generator
from conftest import certbench_workloads, point, tally
from oracles import dual_bracket, dual_lie_derivative, dual_residual

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return path


FREE_PARTICLE = {
    "name": "fp",
    "system": {"expression": "p0^2/2", "dimension": 1},
    "initial": {"q": [0.0], "p": [2.0]},
    "t_end": 3.0,
    "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-12},
    "seed": 5,
    "sample_count": 20,
    "invariants": [{"label": "mom", "expression": "p0"}],
    "checks": [{"type": "drift", "invariant": "mom", "tol": 1e-12}],
}


class TestBundledScenarios:
    def test_kepler_scaling_passes(self, tmp_path):
        report, code = cli.run(SCENARIOS / "kepler-scaling.json", tmp_path, quiet=True)
        assert code == 0
        assert report["passed"]
        drift = next(c for c in report["checks"]
                     if c["type"] == "drift" and c["target"] == "Q_K")
        assert drift["value"] <= 1e-7

    def test_dissipative_oscillator_passes(self, tmp_path):
        report, code = cli.run(SCENARIOS / "dissipative-oscillator.json", tmp_path, quiet=True)
        assert code == 0
        assert report["passed"]

    def test_td_kepler_passes(self, tmp_path):
        report, code = cli.run(SCENARIOS / "td-kepler.json", tmp_path, quiet=True)
        assert code == 0

    def test_free_particle_passes(self, tmp_path):
        report, code = cli.run(SCENARIOS / "free-particle.json", tmp_path, quiet=True)
        assert code == 0

    def test_kepler_scaling_reports_the_integrator_stats(self, tmp_path):
        report, code = cli.run(SCENARIOS / "kepler-scaling.json", tmp_path, quiet=True)
        traj = report["trajectory"]
        assert code == 0 and list(traj) == ["samples", "accepted", "rejected", "rhs_calls",
                                            "max_error_estimate", "smallest_step",
                                            "largest_step", "error_tag"]
        assert traj["rhs_calls"] == 2 + 12 * (traj["accepted"] + traj["rejected"])
        assert 0.0 < traj["max_error_estimate"] <= 1.0
        assert 0.0 < traj["smallest_step"] < traj["largest_step"]
        text = (tmp_path / "kepler-scaling" / "report.txt").read_text()
        for key in ("rhs_calls", "max_error_estimate", "smallest_step", "largest_step"):
            assert f"trajectory.{key}: {traj[key]!r}\n" in text

    def test_kepler_scaling_closure_brackets_distinct_symmetries(self):
        # [Y, Y] = 0 identically, so a closure check of Y with itself cannot fail
        sc = cli.load_scenario(SCENARIOS / "kepler-scaling.json")
        closure = next(c for c in sc.checks if c.type == "closure")
        bracket = lie_bracket(*(sc.symmetries[label].field for label in closure.refs))
        at = point_bundle(bracket.components(), sc.system.params)
        assert max(max(map(abs, at(pt))) for pt in sample_points(sc.system, 10, sc.seed)) > 1e-2

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a float closure near the Kepler singularity reads above its "
                              "tol though the bracket is exact (ROADMAP item 2)")
    def test_kepler_scaling_closure_passes_near_the_singularity(self):
        # an admissible point at |q| = 0.0244, where the closure reads 1.19e-8
        # against tol 1e-8
        sc = cli.load_scenario(SCENARIOS / "kepler-scaling.json")
        closure = next(c for c in sc.checks if c.type == "closure")
        s1, s2 = (sc.symmetries[label] for label in closure.refs)
        pt = point([-0.016433680246755955, 0.013182822389461446, 0.01228019830622662],
                   [1.2830486028682437, -0.9810055570835785, 1.5091726139745947],
                   -0.16205815884457997, 3.944960328639521)
        system = sc.system.with_params(sc.point_params)
        assert closure_check(system, s1.field, s2.field, [pt], closure.tol,
                             s1.factor, s2.factor).passed


def test_a_long_sum_in_the_largest_dimension_runs(tmp_path):
    # a sum nests once per term, so h's 600 terms are a tree 600 levels deep,
    # which every pass of `expr` walks on a stack of its own
    n = cli.MAX_DIMENSION
    h = " + ".join(f"{'pq'[k % 2]}{k // 2 % n}^2/2" for k in range(600))
    path = write_scenario(tmp_path, "long-sum", {
        "system": {"expression": h, "dimension": n}, "seed": 3, "sample_count": 10,
        "invariants": [{"label": "H", "expression": h}],
        "checks": [{"type": "residual", "invariant": "H", "tol": 1e-9}]})
    start = time.perf_counter()
    report, code = cli.run(path, tmp_path / "out", quiet=True)
    assert (code, report["checks"][0]["passed"]) == (0, True)
    assert time.perf_counter() - start < 1.0


def test_a_sum_of_3000_quotients_compiles(tmp_path):
    # a bundle checks its `/` and `^` results by isfinite tests on their sums, each of
    # at most 256 terms, as one sum of 3,000 nests too deep for CPython's compiler
    h = "p0^2/2 + " + " + ".join(f"q0/{k + 2}" for k in range(3000))
    path = write_scenario(tmp_path, "quotients", {
        "system": {"expression": h, "dimension": 1}, "seed": 3, "sample_count": 10,
        "invariants": [{"label": "H", "expression": h}],
        "checks": [{"type": "residual", "invariant": "H", "tol": 1e-9}]})
    start = time.perf_counter()
    report, code = cli.run(path, tmp_path / "out", quiet=True)
    assert (code, report["checks"][0]["passed"]) == (0, True)
    assert time.perf_counter() - start < 2.0


def test_pointwise_checks_compile_one_bundle_each(tmp_path, monkeypatch):
    # one bundle for the sampler's h and one for the fields of every residual,
    # symmetry, similarity and closure check together, whatever the sample count;
    # nothing goes through an env dict
    evals, real_eval = [], expr.ScalarField.eval_env
    monkeypatch.setattr(expr.ScalarField, "eval_env",
                        lambda self, env: evals.append(self) or real_eval(self, env))
    checks = [
        {"type": "residual", "invariant": "Q_K", "tol": 1e-10},
        {"type": "symmetry", "symmetry": "noether-of-QK"},
        {"type": "similarity", "symmetry": "scaling", "expect_Lambda": -3.0},
        {"type": "closure", "first": "noether-of-QK", "second": "noether-of-QK-gauged",
         "tol": 1e-8},
    ]
    counts = []
    for samples in (5, 50):
        expr._RUNS.clear()  # each alone: the first's kept bundles would serve the second
        gc.collect()
        path = write_scenario(tmp_path, f"pointwise-{samples}", {
            "system": {"builtin": "kepler"},
            "sample_count": samples,
            "invariants": [{"label": "Q_K", "builtin": "Q_K"}],
            "symmetries": [
                {"label": "scaling",
                 "ansatz": {"alpha": 2.0, "beta": -1.0, "gamma": 1.0, "sigma": 3.0}},
                {"label": "noether-of-QK", "from_invariant": "Q_K", "Yt": "3*t"},
                {"label": "noether-of-QK-gauged", "from_invariant": "Q_K",
                 "Yt": "t + 0.05*t^2"},
            ],
            "checks": checks,
        })
        done = tally()
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert code == 0 and len(report["checks"]) == len(checks)
        counts.append(done()["bundles"])
    assert counts == [1 + 1] * 2
    assert evals == []


def _alone(sc, c, tol, samples):
    """The values that the public function of pointwise check `c` gives alone
    at `samples`, in the order `_reported` lists a report entry's."""
    system = sc.system.with_params(sc.point_params)
    if c.type == "residual":
        return [build_residual(system, sc.invariants[c.refs[0]].field).run(samples, system.params)]
    if c.type == "closure":
        s1, s2 = (sc.symmetries[label] for label in c.refs)
        rep = closure_check(system, s1.field, s2.field, samples, tol, s1.factor, s2.factor)
        return [rep.residual, *rep.lambda_at_samples, rep.lambda_defect]
    Y = sc.symmetries[c.refs[0]].field
    if c.type == "symmetry":
        rep = symmetry_test(system, Y, samples, tol)
        return [rep.residual, *rep.lambda_at_samples]
    X = (extended_field if c.against == "extended" else contact_field)(system)
    rep = similarity_test(Y, X, samples, tol, c.Lambda_tol, system)
    return [rep.residual, *rep.Lambda_at_samples]


def _reported(entry):
    table = entry.get("lambda_table", entry.get("Lambda_table", []))
    defect = [entry.get("lambda_defect")] if entry["type"] == "closure" else []
    return [entry["value"], *table, *defect]


def _hexes(values):
    return [None if v is None else float(v).hex() for v in values]


def _coords(pt):
    """A sample's coordinates as a runtime error names them."""
    return ", ".join(f"{name}={v!r}" for name, v in pt.env().items())


def _first_error(sc, c, samples):
    """The error that pointwise check `c` raises alone at `samples`, if any."""
    try:
        _alone(sc, c, c.tol, samples)
    except (DomainError, DegeneratePoint) as e:
        return e
    return None


def _kepler_ln():
    """The bundled kepler-scaling file with one more symmetry check, of a field
    that reads ln(q0), which leaves the domain at about half the samples."""
    scenario = json.loads((SCENARIOS / "kepler-scaling.json").read_text())
    scenario["symmetries"].append({"label": "bad", "Yq": ["ln(q0)", "0", "0"],
                                   "Yp": ["0", "0", "0"], "YS": "0", "Yt": "0"})
    scenario["checks"].append({"type": "symmetry", "symmetry": "bad"})
    return scenario


def _kepler_gauge_ln(gauge="ln(q0 - 2.0)"):
    """The bundled kepler-scaling file with one more symmetry check, of Q_K's symmetry at
    a gauge that reads ln(q0 - 2.0), which leaves the domain at every sample, or `gauge`."""
    scenario = json.loads((SCENARIOS / "kepler-scaling.json").read_text())
    scenario["symmetries"].append({"label": "bad-gauge", "from_invariant": "Q_K",
                                   "Yt": gauge})
    scenario["checks"].append({"type": "symmetry", "symmetry": "bad-gauge"})
    return scenario


OSCILLATOR = {"system": {"expression": "p0^2/2 + q0^2/2", "dimension": 1}, "sample_count": 20}
VANISHING = {"system": {"expression": "(q0 - q0)*p0", "dimension": 1}, "sample_count": 20}


def _field(label, Yq, Yp="0"):
    return {"label": label, "Yq": [Yq], "Yp": [Yp], "YS": "0", "Yt": "0"}


# scenarios whose runs fail in a pointwise check, with every pointwise type the one to fail
ERROR_ROWS = {
    "kepler-ln-symmetry": _kepler_ln,
    "gauge-domain": _kepler_gauge_ln,
    "gauge-product-domain": lambda: _kepler_gauge_ln("ln(q0 - 2.0*q1)"),
    "residual-after-a-symmetry": lambda: {
        **OSCILLATOR, "invariants": [{"label": "F", "expression": "sqrt(q0 - 1)"}],
        "symmetries": [_field("Y", "p0", "-q0")],
        "checks": [{"type": "symmetry", "symmetry": "Y"}, {"type": "residual", "invariant": "F"}]},
    "similarity-domain": lambda: {
        **OSCILLATOR, "symmetries": [_field("Y", "sqrt(q0)")],
        "checks": [{"type": "similarity", "symmetry": "Y"}]},
    "similarity-degenerate": lambda: {
        **VANISHING, "symmetries": [_field("Y", "q0")],
        "checks": [{"type": "similarity", "symmetry": "Y", "against": "contact"}]},
    "degenerate-before-domain": lambda: {
        **VANISHING, "symmetries": [_field("Y", "q0"), _field("Z", "ln(q0)")],
        "checks": [{"type": "similarity", "symmetry": "Y", "against": "contact"},
                   {"type": "symmetry", "symmetry": "Z"}]},
    "closure-domain": lambda: {
        **OSCILLATOR, "symmetries": [_field("Y", "q0", "-p0"), _field("Z", "ln(q0 + 1)"),
                                     _field("W", "ln(q0 - 1)")],  # W fails at an earlier sample
        "checks": [{"type": "closure", "first": "Y", "second": "Z"},
                   {"type": "symmetry", "symmetry": "W"}]},
}


def _sweep_cases(flip=False):
    """Round 0 of certbench's symbolic sweep at three seeds, each gauge's sign flipped if `flip`."""
    workloads = certbench_workloads()
    return [pytest.param(_flipped(case) if flip else case,
                         id=f"seed{seed}-{case.name}" + "-flipped" * flip)
            for seed in (2, 5, 11) for case in workloads.symbolic_sweep_round(seed, 0)]


def _flipped(case):
    """A copy of the sweep file `case` whose gauges `a*t +/- b*t^2` have the other sign."""
    spec = json.loads(json.dumps(case.spec))
    for s in spec["symmetries"]:
        if "Yt" in s:
            s["Yt"] = " - ".join(part.replace(" - ", " + ") for part in s["Yt"].split(" + "))
    return replace(case, name=f"{case.name}-flipped", spec=spec)


def _kepler_minus():
    """kepler-scaling with the gauges `3*t - 2.5` and `t - 0.05*t^2`, where it has
    `3*t` and `t + 0.05*t^2`."""
    spec = json.loads((SCENARIOS / "kepler-scaling.json").read_text())
    spec["symmetries"][2]["Yt"], spec["symmetries"][3]["Yt"] = "3*t - 2.5", "t - 0.05*t^2"
    return certbench_workloads().Case("kepler-minus", spec)


def _kepler_explicit():
    """kepler-scaling with a residual check of its `expression` invariant H and the
    checks of an explicit field, the scaling field written out with numbers that the
    literal trees fold (`1*S`), negate (`-1*p0`) or subtract (`4*t - 1*t`)."""
    spec = json.loads((SCENARIOS / "kepler-scaling.json").read_text())
    spec["symmetries"].append({"label": "explicit", "Yq": [f"2*q{i}" for i in range(3)],
                               "Yp": [f"-1*p{i}" for i in range(3)], "YS": "1*S",
                               "Yt": "4*t - 1*t"})
    spec["checks"] += [{"type": "residual", "invariant": "H"},
                       {"type": "symmetry", "symmetry": "explicit"},
                       {"type": "closure", "first": "explicit", "second": "noether-of-QK-gauged"}]
    return certbench_workloads().Case("kepler-explicit", spec)


def _string_roots(sc, spec):
    """The roots of the fields that `sc` read from strings of `spec`, its file: the h of
    an `expression` system or of an `f` source, `expression` invariants, gauges and
    explicit fields."""
    system = spec["system"]
    roots = [sc.system.h.ast] if "expression" in system or isinstance(
        system.get("params", {}).get("f"), str) else []
    roots += [sc.invariants[i["label"]].field.ast for i in spec["invariants"] if "expression" in i]
    for s in spec.get("symmetries", []):
        Y = sc.symmetries[s["label"]].field
        roots += [] if "ansatz" in s else [Y.Yt.ast] if "from_invariant" in s else \
            [c.ast for c in Y.components()]
    return roots


def _holds_a_number(root):
    """Whether the tree `root` holds a nonzero number outside an exponent."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, expr.Num) and node.value != 0.0:
            return True
        stack += expr._operands(node)[:1] if isinstance(node, expr.Pow) else expr._operands(node)
    return False


class TestOneBundlePerScenario:
    """Every pointwise check of a scenario is judged from the columns of one
    bundle; the values and the first error are those of the checks alone."""

    @pytest.mark.parametrize("source", [
        *sorted(SCENARIOS.glob("*.json")),
        *_sweep_cases(),
    ], ids=lambda s: getattr(s, "stem", None))
    def test_columns_are_bit_equal_to_each_check_alone(self, tmp_path, source):
        path = source if isinstance(source, Path) else source.write(tmp_path)
        sc = cli.load_scenario(path)
        report, _ = cli.run_checks(sc)
        samples = sample_points(sc.system.with_params(sc.point_params), sc.sample_count, sc.seed,
                                margin=sc.integrator.guard_margin)
        compared = 0
        for c, entry in zip(sc.checks, report["checks"]):
            if cli.CHECKS[c.type].pointwise:
                alone = _alone(sc, c, entry["tol"], samples)
                assert _hexes(_reported(entry)) == _hexes(alone), (path.stem, c)
                compared += 1
        assert compared > 0

    @pytest.mark.parametrize("source", [SCENARIOS / "kepler-scaling.json", *_sweep_cases()],
                             ids=lambda s: getattr(s, "stem", None))
    def test_ansatz_columns_are_those_of_the_literal_fields(self, tmp_path, source):
        # an ansatz field reads its nonzero rates as bound parameters, one per rate;
        # every column of the fused bundle, its symmetry, similarity and closure
        # columns among them, is bit for bit that of the same checks on the field
        # that `scaling_generator` writes with its rates as numbers
        path = source if isinstance(source, Path) else source.write(tmp_path)
        sc, spec = cli.load_scenario(path), json.loads(path.read_text())
        zero = dict.fromkeys(("alpha", "beta", "gamma", "sigma"), 0.0)
        ansatz = {s["label"]: ScalingAnsatz(**{**zero, **s["ansatz"]})
                  for s in spec["symmetries"] if "ansatz" in s}
        literal = replace(sc, symmetries={**sc.symmetries, **{
            label: cli.Symmetry(scaling_generator(a, sc.system.n)) for label, a in ansatz.items()}})
        assert all([c.ast for c in sc.symmetries[label].field.components()]
                   != [c.ast for c in literal.symmetries[label].field.components()]
                   for label in ansatz)
        assert any(set(c.refs) & ansatz.keys() for c in sc.checks if c.type != "symmetry")
        samples = sample_points(sc.bound, sc.sample_count, sc.seed,
                                margin=sc.integrator.guard_margin)
        (_, ours), (_, theirs) = sc.fused, literal.fused
        assert [_hexes(ours(pt)) for pt in samples] == [_hexes(theirs(pt)) for pt in samples]

    @pytest.mark.parametrize("source", [SCENARIOS / "kepler-scaling.json",
                                        SCENARIOS / "free-particle.json", _kepler_minus(),
                                        _kepler_explicit(), *_sweep_cases(),
                                        *_sweep_cases(flip=True)],
                             ids=lambda s: getattr(s, "stem", getattr(s, "name", None)))
    def test_lifted_columns_are_those_of_the_literal_fields(self, tmp_path, monkeypatch, source):
        # every string of a file (a system's expression or f, an invariant, a gauge, an
        # explicit field) reads its nonzero numbers outside an exponent as bound
        # parameters, `x - c*y` and `x - c` as `x + c'*y` and `x + c'` with c' = -c
        # bound: every string that holds such a number has another tree, and
        # every column of the fused bundle, and the report, is bit for bit that of the
        # same file loaded with its numbers written into the trees, for gauges of both
        # signs (a sign rule that binds c, not -c, fails here)
        path = source if isinstance(source, Path) else source.write(tmp_path)
        spec, sc, real = json.loads(path.read_text()), cli.load_scenario(path), cli.parse
        monkeypatch.setattr(cli, "parse", lambda text, n, numbers=None, place="": real(text, n))
        literal = cli.load_scenario(path)
        lifted = [ours is not theirs for ours, theirs in zip(_string_roots(sc, spec),
                                                             _string_roots(literal, spec))
                  if _holds_a_number(theirs)]
        assert lifted and all(lifted)
        samples = sample_points(sc.bound, sc.sample_count, sc.seed,
                                margin=sc.integrator.guard_margin)
        assert samples == sample_points(literal.bound, sc.sample_count, sc.seed,
                                        margin=sc.integrator.guard_margin)
        (_, ours), (_, theirs) = sc.fused, literal.fused
        assert [_hexes(ours(pt)) for pt in samples] == [_hexes(theirs(pt)) for pt in samples]
        assert json.dumps(cli.run_checks(sc)[0]) == json.dumps(cli.run_checks(literal)[0])

    def test_a_later_check_failing_at_an_earlier_sample_raises_second(self, tmp_path):
        # the residual of sqrt(p0 - a1) first fails at sample i > 0, the symmetry
        # that reads sqrt(q0 - a2) fails at sample 0: the residual's error wins
        h, seed = "p0^2/2 + q0^2/2", 3
        samples = sample_points(ContactSystem(1, parse(h, 1)), 20, seed)
        p0, q0 = [pt.p[0] for pt in samples], [pt.q[0] for pt in samples]
        i = next(j for j in range(1, 20) if p0[j] < p0[0])
        path = write_scenario(tmp_path, "late", {
            "system": {"expression": h, "dimension": 1,
                       "params": {"a1": (p0[0] + p0[i]) / 2, "a2": q0[0] + 0.5}},
            "seed": seed, "sample_count": 20,
            "invariants": [{"label": "F", "expression": "sqrt(p0 - a1)"}],
            "symmetries": [{"label": "Y", "Yq": ["sqrt(q0 - a2)"], "Yp": ["0"], "YS": "0",
                            "Yt": "0"}],
            "checks": [{"type": "residual", "invariant": "F"},
                       {"type": "symmetry", "symmetry": "Y"}],
        })
        sc = cli.load_scenario(path)
        with pytest.raises(DomainError) as first:
            build_residual(sc.system, sc.invariants["F"].field).run(samples, sc.system.params)
        with pytest.raises(DomainError) as early:
            symmetry_test(sc.system, sc.symmetries["Y"].field, samples[:1])
        assert first.value.where != early.value.where
        assert str(first.value).startswith(f"sample {i} ({_coords(samples[i])}): ")
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert (code, report["error"]) == (3, f"check[0] residual F: {first.value}")

    @pytest.mark.parametrize("name", sorted(ERROR_ROWS))
    def test_a_failing_check_is_named_before_the_error_it_raises_alone(self, tmp_path, name):
        # the first pointwise check, in scenario order, that raises when each runs
        # alone through the library gives the error: its message, which names the
        # first sample a DomainError is raised at, after the check's index, type and target
        path = write_scenario(tmp_path, name, ERROR_ROWS[name]())
        sc = cli.load_scenario(path)
        samples = sample_points(sc.bound, sc.sample_count, sc.seed,
                                margin=sc.integrator.guard_margin)
        i, c, error = next((i, c, e) for i, c in enumerate(sc.checks)
                           if cli.CHECKS[c.type].pointwise
                           and (e := _first_error(sc, c, samples)) is not None)
        named = f"check[{i}] {c.type} {cli.CHECKS[c.type].target.format(*c.refs)}: "
        if isinstance(error, DomainError):
            k = next(k for k in range(len(samples))
                     if _first_error(sc, c, samples[:k + 1]) is not None)
            assert str(error).startswith(f"sample {k} ({_coords(samples[k])}): ")
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert (code, report["error"]) == (3, named + str(error))

    def test_the_kepler_ln_case_names_its_check_sample_and_subexpression(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "kepler-ln", _kepler_ln())
        sc = cli.load_scenario(path)
        first = sample_points(sc.bound, sc.sample_count, sc.seed)[0]
        _, code = cli.run(path, tmp_path / "out")
        assert code == 3 and capsys.readouterr().err == (
            f"runtime error: DomainError: check[7] symmetry bad: sample 0 ({_coords(first)}): "
            "ln of non-positive value in `ln(q0)`\n")

    def test_a_gauge_error_names_the_numbers_the_file_wrote(self, tmp_path):
        # the gauge reads its 2.0 as a bound parameter, and the error names the
        # subexpression as the file wrote it
        path = write_scenario(tmp_path, "gauge-ln", _kepler_gauge_ln())
        sc = cli.load_scenario(path)
        assert "ln(q0 - 2.0)" not in sc.symmetries["bad-gauge"].field.Yt.source()
        first = sample_points(sc.bound, sc.sample_count, sc.seed)[0]
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert (code, report["error"]) == (
            3, f"check[7] symmetry bad-gauge: sample 0 ({_coords(first)}): "
               "ln of non-positive value in `ln(q0 - 2.0)`")

    def test_a_similarity_judge_error_names_its_check(self, tmp_path):
        path = write_scenario(tmp_path, "vanishing", ERROR_ROWS["similarity-degenerate"]())
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert (code, report["error"]) == (
            3, "check[0] similarity Y: reference field vanishes at sample 0")

    def test_a_build_error_propagates_from_the_fused_checks(self, tmp_path, monkeypatch):
        # `Scenario.fused` is never None: what building raises is the run's error,
        # named by its check; no checks that earlier tests built are alive to be found
        def refuse(sc, c):
            raise RuntimeError(f"cannot build {c.type}")

        gc.collect()
        monkeypatch.setattr(cli, "_build", refuse)
        path = write_scenario(tmp_path, "refused", ERROR_ROWS["similarity-degenerate"]())
        with pytest.raises(RuntimeError, match="cannot build similarity"):
            cli.load_scenario(path).fused
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert (code, report["error"]) == (3, "check[0] similarity Y: cannot build similarity")

    def test_a_ratio_between_pointwise_checks_still_exits_two(self, tmp_path, capsys):
        # the last check fails at every sample, after the ratio's config error
        path = write_scenario(tmp_path, "ratio", {
            **FREE_PARTICLE,
            "invariants": [{"label": "mom", "expression": "p0"},
                           {"label": "zero", "expression": "0*p0"}],
            "symmetries": [{"label": "Y", "Yq": ["sqrt(q0 - 10)"], "Yp": ["0"], "YS": "0",
                            "Yt": "0"}],
            "checks": [{"type": "residual", "invariant": "mom"},
                       {"type": "ratio", "numerator": "mom", "denominator": "zero"},
                       {"type": "symmetry", "symmetry": "Y"}],
        })
        report, code = cli.run(path, tmp_path / "out")
        assert code == 2 and report["error"] == "fp: ratio denominator vanishes everywhere"
        assert "config error" in capsys.readouterr().err


def test_dissipation_compensation_is_computed_once_per_run(tmp_path, monkeypatch):
    # the bundled oscillator has three drift checks on dissipated quantities
    sc = cli.load_scenario(SCENARIOS / "dissipative-oscillator.json")
    dissipated = [c for c in sc.checks if c.type == "drift"
                  and sc.invariants[c.refs[0]].expected == "dissipated"]
    assert len(dissipated) == 3
    calls = []
    real = cli.dissipation_compensation
    monkeypatch.setattr(cli, "dissipation_compensation",
                        lambda *args: calls.append(args) or real(*args))
    report, code = cli.run(SCENARIOS / "dissipative-oscillator.json", tmp_path, quiet=True)
    assert code == 0 and report["passed"]
    assert len(calls) == 1


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        path = write_scenario(tmp_path, "fp", FREE_PARTICLE)
        _, code = cli.run(path, tmp_path / "out", quiet=True)
        assert code == 0

    def test_failing_check_is_one(self, tmp_path):
        bad = json.loads(json.dumps(FREE_PARTICLE))
        bad["invariants"] = [{"label": "pos", "expression": "q0"}]
        bad["checks"] = [{"type": "drift", "invariant": "pos", "tol": 1e-12}]
        path = write_scenario(tmp_path, "fp-bad", bad)
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert code == 1
        assert report["checks"][0]["value"] > 1.0  # q grows linearly to 6

    @pytest.mark.parametrize("checks", [True, False], ids=["check", "simulate"])
    def test_a_tracked_field_that_raises_names_its_label(self, tmp_path, checks):
        # an unused invariant reading ln(q0), evaluated after the flow, as q0 swings below 0
        path = write_scenario(tmp_path, "tracked-ln", {
            "system": {"expression": "p0^2/2 + q0^2/2", "dimension": 1},
            "initial": {"q": [1.0], "p": [0.0]}, "t_end": 3.0,
            "invariants": [{"label": "E", "expression": "p0^2/2 + q0^2/2"},
                           {"label": "L", "expression": "ln(q0) + p0^2/2 + q0^2/2"}],
            "checks": [{"type": "drift", "invariant": "E"}]})
        report, code = cli.run(path, tmp_path / "out", quiet=True, checks=checks)
        assert code == 3 and report["error"].startswith("tracked 'L' at t=")
        assert report["error"].endswith("]: ln of non-positive value in `ln(q0)`")

    @pytest.mark.parametrize("checks", [True, False], ids=["check", "simulate"])
    def test_a_flow_that_ends_with_a_tag_is_named_by_it_over_a_tracked_field(self, tmp_path,
                                                                            checks):
        # h leaves its domain at the start, and so does the tracked L that reads it:
        # the flow's tag names the failure, and the written L reads NaN
        energy = "p0^2/2 + ln(q0)"
        path = write_scenario(tmp_path, "ln-start", {
            "system": {"expression": energy, "dimension": 1},
            "initial": {"q": [-1.0], "p": [0.0]}, "t_end": 3.0,
            "invariants": [{"label": "L", "expression": energy}],
            "checks": [{"type": "drift", "invariant": "L"}]})
        report, code = cli.run(path, tmp_path / "out", quiet=True, checks=checks)
        if checks:
            assert (code, report["error"]) == (3, "integration aborted: DomainViolation after "
                                                  "t=0.0, state [-1.0, 0.0, 0.0]")
        else:
            assert (code, report["passed"]) == (3, False)
            assert (tmp_path / "out" / "ln-start" / "trajectory.csv").read_text() == \
                "t,q0,p0,S,L\n0.0,-1.0,0.0,0.0,nan\n"

    def test_nan_residual_is_a_failure(self, tmp_path):
        # F is inf - inf where |q0| > 1.34, at the third and fifth of the five samples
        path = write_scenario(tmp_path, "nan-residual", {
            "system": {"builtin": "kepler"},
            "seed": 0,
            "sample_count": 5,
            "invariants": [{"label": "F", "expression":
                            "(1e154*q0)*(1e154*q0) - (1e154*q0)*(1e154*q0)"}],
            "checks": [{"type": "residual", "invariant": "F", "tol": 1e-9}],
        })
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert code == 1
        assert np.isnan(report["checks"][0]["value"]) and not report["checks"][0]["passed"]

    def test_nan_residual_report_is_strict_json(self, tmp_path):
        path = write_scenario(tmp_path, "nan-residual", {
            "system": {"builtin": "kepler"},
            "seed": 0,
            "sample_count": 5,
            "invariants": [{"label": "F", "expression":
                            "(1e154*q0)*(1e154*q0) - (1e154*q0)*(1e154*q0)"}],
            "checks": [{"type": "residual", "invariant": "F", "tol": 1e-9}],
        })
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert code == 1 and np.isnan(report["checks"][0]["value"])

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        text = (tmp_path / "out" / "nan-residual" / "report.json").read_text()
        written = json.loads(text, parse_constant=reject)
        assert written["checks"][0]["value"] == "NaN" and written["checks"][0]["passed"] is False

    def test_nan_ratio_denominator_is_a_failure(self, tmp_path):
        # G is p0 + (inf - inf) once q0 = 1 + t/2 passes 1.34: at the last two of
        # the flow's seven states.  Only a denominator below 1e-12 in size is masked
        big = "(1e154*q0)*(1e154*q0)"
        path = write_scenario(tmp_path, "nan-ratio", {
            "system": {"expression": "p0^2/2", "dimension": 1},
            "initial": {"q": [1.0], "p": [0.5]},
            "t_end": 2.0,
            "invariants": [{"label": "P", "expression": "p0"},
                           {"label": "G", "expression": f"p0 + ({big} - {big})"}],
            "checks": [{"type": "ratio", "numerator": "P", "denominator": "G", "tol": 1e-6}],
        })
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        column = (tmp_path / "out" / "nan-ratio" / "trajectory.csv").read_text().splitlines()
        assert [row.rsplit(",", 1)[1] for row in column[1:]].count("nan") == 2
        assert code == 1 and report["trajectory"]["samples"] == 7
        assert np.isnan(report["checks"][0]["value"]) and not report["checks"][0]["passed"]

    def test_config_error_is_two(self, tmp_path):
        _, code = cli.run(tmp_path / "missing.json", tmp_path, quiet=True)
        assert code == 2
        bad = write_scenario(tmp_path, "bad", {"system": {"builtin": "nonsense"}})
        _, code = cli.run(bad, tmp_path, quiet=True)
        assert code == 2
        unparsable = tmp_path / "unparsable.json"
        unparsable.write_text("{not json")
        _, code = cli.run(unparsable, tmp_path, quiet=True)
        assert code == 2

    def test_missing_and_unparsable_files_name_the_path(self, tmp_path, capsys):
        missing, unparsable = tmp_path / "missing.json", tmp_path / "unparsable.json"
        unparsable.write_text('{"name":\n  not json}')
        (utf16 := tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")
        (directory := tmp_path / "directory.json").mkdir()
        for path, message in ((missing, ": no such scenario file"),
                              (unparsable, ":2: invalid JSON (Expecting value)"),
                              (utf16, ": not UTF-8 text (invalid start byte, byte offset 0)"),
                              (directory, ": cannot read the scenario file (Is a directory)")):
            assert cli.run(path, tmp_path)[1] == 2
            assert capsys.readouterr().err == f"config error: {path}{message}\n"

    def test_a_run_reads_the_scenario_file_once(self, tmp_path, monkeypatch):
        path, opened, real = write_scenario(tmp_path, "fp", FREE_PARTICLE), [], Path.open

        def counted(self, *args, **kwargs):
            opened.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counted)
        for k in range(3):
            assert cli.run(path, tmp_path / "out", quiet=True)[1] == 0
            assert opened.count(path) == k + 1

    def test_non_finite_literal_is_config_error(self, tmp_path):
        bad = json.loads(json.dumps(FREE_PARTICLE))
        bad["invariants"] = [{"label": "huge", "expression": "1e400*p0"}]
        bad["checks"] = [{"type": "drift", "invariant": "huge", "tol": 1e-12}]
        path = write_scenario(tmp_path, "huge", bad)
        _, code = cli.run(path, tmp_path, quiet=True)
        assert code == 2

    def test_unknown_builtin_invariant_is_config_error(self, tmp_path):
        bad = json.loads(json.dumps(FREE_PARTICLE))
        bad["system"] = {"builtin": "kepler"}
        bad["initial"] = {"q": [1, 0, 0], "p": [0, 1.2, 0]}
        bad["invariants"] = [{"label": "x", "builtin": "no-such-label"}]
        path = write_scenario(tmp_path, "bad-label", bad)
        _, code = cli.run(path, tmp_path, quiet=True)
        assert code == 2

    def test_undamped_invariant_on_a_damped_oscillator_is_config_error(self, tmp_path, capsys):
        # F_LR solves the equation of the undamped oscillator only
        path = write_scenario(tmp_path, "damped-lr", {
            "system": {"builtin": "harmonic-dissipative", "params": {"g0": 0.2}},
            "invariants": [{"label": "F_LR", "builtin": "F_LR"}]})
        _, code = cli.run(path, tmp_path / "out")
        assert code == 2
        assert "unknown builtin invariant 'F_LR' (available: ['F0', 'F_EM', 'F_GLR'])" \
            in capsys.readouterr().err

    # a time-dependent, damped oscillator with its auxiliary functions frozen as
    # point values: the checks take d/dt through the system's rates for them
    AUX_POINT_PARAMS = {
        "name": "aux-point-params",
        "system": {"builtin": "harmonic-dissipative",
                   "params": {"m": 1.0, "f": "1 + 0.3*sin(t)", "g0": 0.2}},
        "seed": 3,
        "sample_count": 40,
        "point_params": {"a": 1.2, "a_dot": -0.3, "a0": 0.9, "b": 0.8, "b_dot": 0.4},
        "invariants": [{"label": "F_GLR", "builtin": "F_GLR"}, {"label": "F_EM", "builtin": "F_EM"}],
        "symmetries": [{"label": "glr", "from_invariant": "F_GLR"}],
        "checks": [{"type": "residual", "invariant": "F_GLR", "tol": 1e-12},
                   {"type": "residual", "invariant": "F_EM", "tol": 1e-12},
                   {"type": "symmetry", "symmetry": "glr", "tol": 1e-12}],
    }

    def test_rated_parameters_given_as_point_params_pass(self, tmp_path):
        path = write_scenario(tmp_path, "aux", self.AUX_POINT_PARAMS)
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert code == 0, report["checks"]
        assert [c["passed"] for c in report["checks"]] == [True] * 3

    @pytest.mark.parametrize("gauges", [({}, {"Yt": "1"}), ({"Yt": "a*t"}, {"Yt": "b + t"})])
    def test_closure_of_symmetries_of_rated_invariants_passes(self, tmp_path, gauges):
        # the bracket, and Y1(lambda2) - Y2(lambda1) when the gauges read rated
        # parameters, take d/dt through the rates of a, a_dot, b, b_dot too
        path = write_scenario(tmp_path, "aux-closure", {
            **self.AUX_POINT_PARAMS,
            "invariants": [{"label": "F_GLR", "builtin": "F_GLR"},
                           {"label": "F0", "builtin": "F0"}],
            "symmetries": [{"label": "glr", "from_invariant": "F_GLR", **gauges[0]},
                           {"label": "f0", "from_invariant": "F0", **gauges[1]}],
            "checks": [{"type": "symmetry", "symmetry": "glr", "tol": 1e-12},
                       {"type": "symmetry", "symmetry": "f0", "tol": 1e-12},
                       {"type": "closure", "first": "glr", "second": "f0", "tol": 1e-10}]})
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert code == 0, report["checks"]
        assert [c["passed"] for c in report["checks"]] == [True] * 3

    def test_duplicate_invariant_label_is_config_error(self, tmp_path):
        bad = json.loads(json.dumps(FREE_PARTICLE))
        bad["invariants"] = [{"label": "mom", "expression": "p0"},
                             {"label": "mom", "expression": "q0"}]
        path = write_scenario(tmp_path, "dup", bad)
        _, code = cli.run(path, tmp_path, quiet=True)
        assert code == 2

    @pytest.mark.parametrize("key, value", [("seed", -1), ("seed", "x"), ("seed", 1.7),
                                            ("sample_count", 0), ("sample_count", -3)])
    def test_bad_scenario_number_is_config_error(self, tmp_path, capsys, key, value):
        path = write_scenario(tmp_path, "numbers", {**FREE_PARTICLE, key: value})
        _, code = cli.run(path, tmp_path / "out")
        assert code == 2 and f"'{key}' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, "x",
                                       None, 10**400],
                             ids=["nan", "inf", "-inf", "bool", "string", "null", "huge-int"])
    def test_bad_t_end_is_config_error(self, tmp_path, capsys, value):
        path = write_scenario(tmp_path, "horizon", {**FREE_PARTICLE, "t_end": value})
        _, code = cli.run(path, tmp_path / "out")
        assert code == 2 and "'t_end' must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end", [2.0, 1.0], ids=["at-start", "before-start"])
    def test_t_end_not_after_the_initial_t_is_config_error(self, tmp_path, capsys, t_end):
        initial = {**FREE_PARTICLE["initial"], "t": 2.0}
        path = write_scenario(tmp_path, "horizon", {**FREE_PARTICLE, "initial": initial,
                                                    "t_end": t_end})
        _, code = cli.run(path, tmp_path / "out")
        assert code == 2
        assert f"'t_end' must exceed the initial 't' 2.0, got {t_end}" in capsys.readouterr().err

    # a squeeze of q0 on the free particle is no symmetry: its check fails with value 1.0
    SQUEEZE = {**FREE_PARTICLE, "checks": [{"type": "symmetry", "symmetry": "squeeze"}],
               "symmetries": [{"label": "squeeze", "Yq": ["q0"], "Yp": ["0"], "YS": "0", "Yt": "0"}]}

    @staticmethod
    def on_kepler(params):
        """An edit that makes the scenario a Kepler flow with no checks and `params`."""
        return lambda s: s.update(system={"builtin": "kepler", "params": params},
                                  initial={"q": [1.0, 0.0, 0.0], "p": [0.0, 1.2, 0.0]},
                                  invariants=[], symmetries=[], checks=[])

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s["checks"][0].update(tol=float("inf")), "check 'tol' must be a finite number"),
        (lambda s: s["checks"][0].update(tol="abc"), "check 'tol' must be a finite number"),
        (lambda s: s["checks"][0].update(tol=-1e-9), "check 'tol' must be >= 0"),
        (lambda s: s["checks"][0].update(type="similarity", Lambda_tol="x"),
         "check 'Lambda_tol' must be a finite number"),
        (lambda s: s["checks"][0].update(type="similarity", expect_Lambda=float("nan")),
         "check 'expect_Lambda' must be a finite number"),
        (lambda s: s.update(point_params={"a": "1.0"}), "point_params 'a' must be a finite number"),
        (lambda s: s["symmetries"].append({"label": "Z", "ansatz": {"alpha": "2"}}),
         "symmetry 'Z' ansatz 'alpha' must be a finite number"),
        (lambda s: s.update(point_params=[1, 2]), "'point_params' must be a JSON object"),
        (lambda s: s["symmetries"].append({"label": "Z", "ansatz": [1, 2]}),
         "symmetry 'Z' 'ansatz' must be a JSON object"),
        (lambda s: s.update(integrator=[1, 2]), "'integrator' must be a JSON object"),
        (lambda s: s["system"].update(params=[1, 2]), "system 'params' must be a JSON object"),
        (lambda s: s["checks"].append({"type": "drift", "invariant": "momentum"}),
         "drift check 'invariant' references unknown invariant 'momentum'"),
        (lambda s: s["checks"][0].update(symmetry="squash"),
         "symmetry check 'symmetry' references unknown symmetry 'squash'"),
        (lambda s: s["checks"].append({"type": "ratio", "numerator": "p", "denominator": "mom"}),
         "ratio check 'numerator' references unknown invariant 'p'"),
        (lambda s: s["checks"].append({"type": "ratio", "numerator": "mom", "denominator": "p"}),
         "ratio check 'denominator' references unknown invariant 'p'"),
        (lambda s: s["checks"].append({"type": "closure", "first": "Z", "second": "squeeze"}),
         "closure check 'first' references unknown symmetry 'Z'"),
        (lambda s: s["checks"].append({"type": "closure", "first": "squeeze", "second": "Z"}),
         "closure check 'second' references unknown symmetry 'Z'"),
        (lambda s: s["checks"][0].update(type="similarity", against="extnded"),
         "check 'against' must be 'extended' or 'contact', got 'extnded'"),
        (lambda s: s["symmetries"].append({"label": "squeeze", "ansatz": {}}),
         "duplicate symmetry label 'squeeze'"),
        (lambda s: s["system"].update(dimension=1.9), "system 'dimension' must be an integer >= 1"),
        (lambda s: s["system"].update(dimension=True),
         "system 'dimension' must be an integer >= 1"),
        (lambda s: s.update(invariants=5), "'invariants' must be a list, got 5"),
        (lambda s: s["invariants"][0].update(expected="dissipatd"),
         "invariant 'mom' 'expected' must be 'conserved' or 'dissipated', got 'dissipatd'"),
        (lambda s: s["invariants"][0].update(label="mom,entum"),
         "invariant label 'mom,entum' names a CSV column and may hold no comma, double quote"),
        (lambda s: s["invariants"][0].update(label="mom\n"),
         "invariant label 'mom\\n' names a CSV column"),
        (lambda s: s["checks"][0].update(expect_symmetry="no"),
         "check 'expect_symmetry' must be true or false, got 'no'"),
        (lambda s: s["checks"][0].update(type="similarity", expect_verdict="Similarty"),
         "check 'expect_verdict' must be 'Similarity', 'DynamicalSymmetry' or 'Neither', "
         "got 'Similarty'"),
        (lambda s: s["symmetries"].append({"label": "Z", "from_invariant": ["mom"]}),
         "symmetry 'Z' 'from_invariant' references unknown invariant ['mom']"),
        (lambda s: s["invariants"].append({"label": "Q", "builtin": ["Q_K"]}),
         "unknown builtin invariant ['Q_K']"),
        (lambda s: s.update(name=["fp"]), "'name' must be a string, got ['fp']"),
        (lambda s: s.update(name=".."), "'name' must be one plain path component, got '..'"),
        (lambda s: s.update(name="."), "'name' must be one plain path component, got '.'"),
        (lambda s: s.update(name="../escaped"),
         "'name' must be one plain path component, got '../escaped'"),
        (lambda s: s.update(name="sub/fp"), "'name' must be one plain path component, got 'sub/fp'"),
        (lambda s: s.update(name=os.path.abspath("escaped")),
         "'name' must be one plain path component, got '/"),
        (lambda s: s.update(auxiliary={"use_a": "false"}),
         "auxiliary 'use_a' must be true or false, got 'false'"),
        (lambda s: s.update(auxiliary={"a": True}), "auxiliary 'a' must be a finite number"),
        (lambda s: s.update(auxiliary={"a": "x"}), "auxiliary 'a' must be a finite number"),
        (lambda s: s.update(auxiliary={"a": float("inf")}),
         "auxiliary 'a' must be a finite number"),
        (lambda s: s.update(auxiliary=[1]), "'auxiliary' must be a JSON object, got [1]"),
        (on_kepler({"m": 1.0, "esp": 0.3}), "builtin 'kepler' does not read params ['esp']"),
        (on_kepler({"k_grav": 1.0}), "builtin 'kepler' does not read params ['k_grav']"),
        (on_kepler({"eps": "0.25"}), "system params 'eps' must be a finite number, got '0.25'"),
        (on_kepler({"m": float("nan")}), "system params 'm' must be a finite number, got nan"),
        (on_kepler({"m": True}), "system params 'm' must be a finite number, got True"),
        (lambda s: s["system"].update(params={"c": "0.5"}),
         "system params 'c' must be a finite number, got '0.5'"),
        (lambda s: s["initial"].update(S="0.5"), "initial 'S' must be a finite number, got '0.5'"),
        (lambda s: s["initial"].update(t=None), "initial 't' must be a finite number, got None"),
        (lambda s: s["initial"].update(q=["1.0"]), "initial 'q'[0] must be a finite number, got '1.0'"),
        (lambda s: s["initial"].update(p=[True]), "initial 'p'[0] must be a finite number, got True"),
        (lambda s: s["integrator"].update(rel_tol="1e-10"),
         "integrator 'rel_tol' must be a finite number, got '1e-10'"),
        (lambda s: s.update(system={"expression": "(p0^2 + p1^2)/2", "dimension": 2},
                            initial={"q": [0.0, 0.0], "p": [2.0, 0.0]})
         or s["symmetries"][0].update(Yq="q0", Yp=["0", "0"]),
         "symmetry 'squeeze' 'Yq' must be a list, got 'q0'"),
        (lambda s: s["symmetries"][0].update(Yq={"q0": 1}),
         "symmetry 'squeeze' 'Yq' must be a list, got {'q0': 1}"),
        (lambda s: s["invariants"][0].update(expression="(" * 400 + "q0" + ")" * 400),
         "invariant 'mom': expression nests too deeply (byte offset "),
    ], ids=["inf-tol", "string-tol", "negative-tol", "string-Lambda_tol", "nan-expect_Lambda",
            "string-point_param", "string-exponent", "list-point_params", "list-ansatz",
            "list-integrator", "list-system-params", "unknown-invariant", "unknown-symmetry",
            "unknown-numerator", "unknown-denominator", "unknown-first", "unknown-second",
            "bad-against", "duplicate-symmetry", "fractional-dimension", "bool-dimension",
            "number-invariants", "bad-expected", "comma-label", "newline-label",
            "string-expect_symmetry",
            "misspelt-expect_verdict", "list-from_invariant", "list-builtin", "list-name",
            "dotdot-name", "dot-name", "parent-name", "nested-name", "absolute-name",
            "string-use_a", "bool-aux-value", "string-aux-value", "inf-aux-value",
            "list-auxiliary", "unread-builtin-param", "k_grav-param", "string-builtin-param",
            "nan-builtin-param", "bool-builtin-param", "string-system-param", "string-S",
            "null-t", "string-q", "bool-p", "string-rel_tol", "string-Yq-2d", "object-Yq",
            "too-deep-invariant"])
    def test_bad_check_number_is_config_error(self, tmp_path, capsys, monkeypatch, edit, message):
        monkeypatch.chdir(tmp_path)  # so an absolute name made by an edit is inside tmp_path
        scenario = json.loads(json.dumps(self.SQUEEZE))
        path = write_scenario(tmp_path, "squeeze", scenario)
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert code == 1 and report["checks"][0]["value"] == 1.0
        edit(scenario)
        path = write_scenario(tmp_path, "squeeze", scenario)
        files = sorted(tmp_path.rglob("*"))
        _, code = cli.run(path, tmp_path / "out")
        assert code == 2 and message in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == files  # a refused scenario writes nothing

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_bad_tol_override_is_config_error(self, tmp_path, capsys, value):
        path = write_scenario(tmp_path, "fp", FREE_PARTICLE)
        code = cli.main(["--out", str(tmp_path / "out"), f"--tol-override={value}", "check", str(path)])
        assert code == 2 and "--tol-override must be" in capsys.readouterr().err

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "fp", FREE_PARTICLE)
        code = cli.main(["--out", str(tmp_path / "out"), "--seed", "-1", "check", str(path)])
        assert code == 2 and "--seed must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("rel_tol", float("nan")), ("abs_tol", float("inf")),
                                            ("guard_margin", float("nan"))])
    def test_non_finite_integrator_setting_is_config_error(self, tmp_path, capsys, key, value):
        path = write_scenario(tmp_path, "settings", {
            **FREE_PARTICLE, "integrator": {**FREE_PARTICLE["integrator"], key: value}})
        _, code = cli.run(path, tmp_path / "out")
        assert code == 2 and f"integrator '{key}' must be a finite number" in capsys.readouterr().err

    # a radial fall into the Kepler singularity: the flow aborts
    PLUNGE = {
        "name": "plunge",
        "system": {"builtin": "kepler"},
        "initial": {"q": [1.0, 0.0, 0.0], "p": [-1.0, 0.0, 0.0]},
        "t_end": 5.0,
        "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10, "guard_margin": 0.5},
        "invariants": [{"label": "Q_K", "builtin": "Q_K"}],
        "checks": [{"type": "drift", "invariant": "Q_K", "tol": 1e-6}],
    }

    @pytest.mark.parametrize("check", [{"type": "drift", "invariant": "Q_K", "tol": 1e-6},
                                       {"type": "residual", "invariant": "Q_K", "tol": 1e-9}],
                             ids=["drift", "residual"])
    def test_auxiliary_block_without_auxiliary_equations_is_config_error(self, tmp_path, capsys,
                                                                           check):
        # kepler rates no auxiliary function: refused at load, a flow or not
        path = write_scenario(tmp_path, "aux", {**self.PLUNGE, "auxiliary": {"use_a": True},
                                                "initial": {"q": [1, 0, 0], "p": [0, 1, 0]},
                                                "checks": [check]})
        _, code = cli.run(path, tmp_path / "out")
        assert code == 2
        assert "'auxiliary' needs a system with auxiliary equations, got 'kepler'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("a", [2e6, -1.0, 1e-9, 0.0])
    def test_auxiliary_start_outside_its_box_is_three(self, tmp_path, capsys, a):
        scenario = json.loads((SCENARIOS / "dissipative-oscillator.json").read_text())
        scenario["auxiliary"]["a"] = a
        _, code = cli.run(write_scenario(tmp_path, "osc", scenario), tmp_path / "out")
        assert code == 3
        assert f"auxiliary 'a' starts at {a!r}, outside its box (1e-06, 1000000.0)" \
            in capsys.readouterr().err

    def test_a_tracked_label_naming_an_auxiliary_is_three(self, tmp_path, capsys):
        # the co-integrated `a` would write its column over the tracked one's
        scenario = json.loads((SCENARIOS / "dissipative-oscillator.json").read_text())
        scenario["invariants"].append({"label": "a", "expression": "q0*p0 + 5"})
        scenario["checks"].append({"type": "drift", "invariant": "a", "tol": 1.0})
        _, code = cli.run(write_scenario(tmp_path, "osc", scenario), tmp_path / "out")
        assert code == 3
        assert "tracked label 'a' names a state column" in capsys.readouterr().err

    # the contact scaling generator is a similarity of Kepler's contact field, Lambda = -3
    @pytest.mark.parametrize("expect, passed", [
        ({"expect_Lambda": 5.0}, False),
        ({"expect_Lambda": 5.0, "expect_verdict": "Similarity"}, False),
        ({"expect_Lambda": -3.0, "expect_verdict": "Similarity"}, True),
        ({"expect_Lambda": -3.0, "expect_verdict": "Neither"}, False),
        ({"expect_verdict": "Similarity"}, True),
    ], ids=["Lambda-off", "Lambda-off-verdict-on", "both-on", "verdict-off", "verdict-on"])
    def test_a_similarity_check_passes_only_when_every_expectation_holds(self, tmp_path, expect,
                                                                           passed):
        scenario = json.loads((SCENARIOS / "kepler-scaling.json").read_text())
        check = next(c for c in scenario["checks"] if c["type"] == "similarity")
        del check["expect_Lambda"]
        scenario["checks"] = [{**check, **expect}]
        report, code = cli.run(write_scenario(tmp_path, "ks", scenario), tmp_path / "out",
                               quiet=True)
        assert report["checks"][0]["verdict"] == "Similarity"
        assert (code, report["checks"][0]["passed"]) == (0 if passed else 1, passed)

    def test_domain_violation_is_three(self, tmp_path):
        path = write_scenario(tmp_path, "plunge", self.PLUNGE)
        report, code = cli.run(path, tmp_path, quiet=True)
        assert code == 3
        traj = cli._run_flow(cli.load_scenario(path))  # the error names its last accepted row
        assert report["error"] == (f"integration aborted: DomainViolation after t="
                                   f"{traj.times[-1]!r}, state {list(traj.rows[-1])!r}")

    def test_a_bad_reference_is_refused_before_the_flow(self, tmp_path, capsys, monkeypatch):
        # the same aborting flow with a check naming no invariant: a config error
        # found at load, so the flow is never integrated
        calls = []
        for module in (cli, dynamics):
            monkeypatch.setattr(module, "integrate", lambda *args: calls.append(args))
        bad = {**self.PLUNGE, "checks": [{"type": "drift", "invariant": "Q_k", "tol": 1e-6}]}
        _, code = cli.run(write_scenario(tmp_path, "plunge", bad), tmp_path)
        assert code == 2 and calls == []
        assert "references unknown invariant 'Q_k'" in capsys.readouterr().err


@pytest.mark.parametrize("source", [*sorted(SCENARIOS.glob("*.json")), "aux-point-params"],
                         ids=lambda s: getattr(s, "stem", s))
def test_each_residual_matches_its_dual_number_oracle(tmp_path, source):
    # the compiled residual X_h^t(F) + (dh/dS) F + rate terms at every sample,
    # against the same sum built from forward-mode gradients of h, F and the
    # rates (`oracles.dual_residual`), which share no code with `partial`,
    # `dissipation_field` or code generation.  Both routes take each gradient
    # alike, so they differ by the rounding of the products and sums: within
    # 4 * 2^-52 of the sum of the products' magnitudes (0.66 of it measured)
    path = source if isinstance(source, Path) else write_scenario(
        tmp_path, source, TestExitCodes.AUX_POINT_PARAMS)
    sc = cli.load_scenario(path)
    system = sc.bound
    samples = sample_points(system, sc.sample_count, sc.seed, margin=sc.integrator.guard_margin)
    residuals = [sc.invariants[c.refs[0]].field for c in sc.checks if c.type == "residual"]
    assert residuals
    for F in residuals:
        at = point_bundle([dissipation_field(system, F)], system.params)
        for pt in samples:
            value, scale = dual_residual(system, F, {**system.params, **pt.env()})
            assert abs(at(pt)[0] - value) <= 4 * 2**-52 * scale, (F, pt)


# the rated oscillator's from_invariant symmetries, with point values of the rated parameters
RATED_SYMMETRIES = {
    **TestExitCodes.AUX_POINT_PARAMS,
    "name": "rated-symmetries",
    "symmetries": [{"label": "glr", "from_invariant": "F_GLR", "Yt": "a*t"},
                   {"label": "em", "from_invariant": "F_EM", "Yt": "b + t"}],
    "checks": [{"type": "symmetry", "symmetry": "glr"}, {"type": "symmetry", "symmetry": "em"}],
}


@pytest.mark.parametrize("source", [*(p for p in sorted(SCENARIOS.glob("*.json"))
                                      if '"symmetry"' in p.read_text()),
                                    *_sweep_cases(), "rated-symmetries"],
                         ids=lambda s: getattr(s, "stem", None) or getattr(s, "name", s))
def test_each_symmetry_form_matches_its_dual_number_oracle(tmp_path, source):
    # the first 2n+2 compiled roots of every symmetry check, L_Y eta_E, at every
    # sample, against the coordinate formula from forward-mode gradients of Y's
    # components and h (`oracles.dual_lie_derivative`), which does not share the
    # Cartan formula that builds it: within the residual oracle's 4 * 2^-52 of the
    # scale of the products' rounding (3.0 of the 4 at worst).  That scale takes each
    # factor's value, or, where that bound fails (5 of the 550 samples, measured),
    # its magnitude with nothing cancelling
    if isinstance(source, Path):
        path = source
    elif source == "rated-symmetries":
        path = write_scenario(tmp_path, source, RATED_SYMMETRIES)
    else:
        path = source.write(tmp_path)
    sc = cli.load_scenario(path)
    system, built = sc.bound, sc.fused[0]
    m = 2 * system.n + 2
    samples = sample_points(system, sc.sample_count, sc.seed, margin=sc.integrator.guard_margin)
    checks = [(i, c) for i, c in enumerate(sc.checks) if c.type == "symmetry"]
    assert checks
    for i, c in checks:
        Y = sc.symmetries[c.refs[0]].field
        at = point_bundle(built[i].fields[:m], system.params)
        for pt in samples:
            got, env = at(pt), {**system.params, **pt.env()}
            for magnitudes in (False, True):
                oracle, scales = dual_lie_derivative(system, Y, env, magnitudes)
                if all(abs(g - v) <= 4 * 2**-52 * s for g, v, s in zip(got, oracle, scales)):
                    break
            else:
                raise AssertionError((path.stem, c.refs, pt, got, oracle, scales))


# the rated oscillator's from_invariant symmetries against its extended field: d/dt of the
# brackets moves the rated parameters that the fields read
RATED_SIMILARITIES = {
    **RATED_SYMMETRIES,
    "name": "rated-similarities",
    "checks": [{"type": "similarity", "symmetry": label, "expect_verdict": "Neither"}
               for label in ("glr", "em")],
}


def _assert_brackets_match_the_oracle(sc):
    """The [Y, X] columns of every similarity check of `sc`, built and bound as a run reads
    them, at every sample, against `oracles.dual_bracket` of the scenario's own fields."""
    system, built = sc.bound, sc.fused[0]
    m = 2 * system.n + 2
    samples = sample_points(system, sc.sample_count, sc.seed, margin=sc.integrator.guard_margin)
    checks = [(i, c) for i, c in enumerate(sc.checks) if c.type == "similarity"]
    assert checks
    for i, c in checks:
        Y = sc.symmetries[c.refs[0]].field
        X = (extended_field if c.against == "extended" else contact_field)(system)
        at = point_bundle(built[i].fields[m:], system.params)
        for pt in samples:
            got = at(pt)
            oracle, scales = dual_bracket(system, Y, X, {**system.params, **pt.env()})
            assert all(abs(g - v) <= 4 * 2**-52 * s for g, v, s in zip(got, oracle, scales)), \
                (sc.name, c.refs, pt, got, oracle, scales)


@pytest.mark.parametrize("source", [*(p for p in sorted(SCENARIOS.glob("*.json"))
                                      if '"similarity"' in p.read_text()),
                                    *_sweep_cases(), "rated-similarities"],
                         ids=lambda s: getattr(s, "stem", None) or getattr(s, "name", s))
def test_each_bracket_matches_its_dual_number_oracle(tmp_path, source):
    # the [Y, X] columns of every similarity check (`geometry.lie_bracket`), at every
    # sample, against Y^j d_j X^i - X^j d_j Y^i from forward-mode gradients of the
    # fields' components (`oracles.dual_bracket`), which shares no code with it:
    # within 4 * 2^-52 of the scale of the products' rounding (0.99 of it at worst
    # over the 360 samples, measured)
    if isinstance(source, Path):
        path = source
    elif source == "rated-similarities":
        path = write_scenario(tmp_path, source, RATED_SIMILARITIES)
    else:
        path = source.write(tmp_path)
    _assert_brackets_match_the_oracle(cli.load_scenario(path))


def test_the_brackets_of_a_second_file_of_a_kept_skeleton_match_the_oracle(tmp_path,
                                                                           monkeypatch):
    # a Kepler file with new m, eps and wrong-sigma rate finds the kept file's built
    # checks by its skeleton and binds its own numbers: its [Y, X] columns are those
    # of its own fields
    first = certbench_workloads().symbolic_sweep_round(7, 0)[0]
    spec = json.loads(json.dumps(first.spec))
    spec["system"]["params"] = {"m": 1.7, "eps": 0.3}
    spec["symmetries"][2]["ansatz"]["sigma"] += 0.125
    for _ in range(2):
        assert cli.run(first.write(tmp_path), tmp_path / "first", quiet=True)[1] == 0
    builds = _builds(monkeypatch)
    sc = cli.load_scenario(write_scenario(tmp_path, "second", spec))
    _assert_brackets_match_the_oracle(sc)
    assert builds == []


def _builds(monkeypatch):
    """The checks that `cli._build` builds from now on, appended as it builds them; no
    checks that earlier tests built are alive to be found instead."""
    gc.collect()
    calls, real = [], cli._build
    monkeypatch.setattr(cli, "_build", lambda sc, c: calls.append(c) or real(sc, c))
    return calls


def _alone_run(path, out, builds):
    """`cli.run` of `path` with no kept run and no built checks alive (it builds them all)."""
    expr._RUNS.clear()
    gc.collect()
    del builds[:]
    done = cli.run(path, out, quiet=True)
    assert builds
    return done


# a run of the command line in an interpreter of its own
FRESH = "import sys; from contact_noether.cli import main; sys.exit(main(sys.argv[1:]))"


def _outputs(out, name):
    return [(out / name / f).read_bytes() for f in ("report.json", "trajectory.csv")
            if (out / name / f).exists()]


class TestRecurringRuns:
    """A recurring file runs its kept scenario, with the checks it built and their
    fused bundle, on its system's kept X_h: from its second run on in a process
    only numeric work is done again, and the bytes written never change."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
    def test_the_third_run_builds_nothing_and_writes_the_first_runs_bytes(self, tmp_path, name):
        # X_h^t's d/dt, one node per flow, is all it makes
        outputs = []
        for k in range(3):
            done = tally()
            assert cli.run(SCENARIOS / f"{name}.json", tmp_path / str(k), quiet=True)[1] == 0
            outputs.append(_outputs(tmp_path / str(k), name))
        work = done()
        assert [work[k] for k in ("bundles", "derive", "emitted")] == [0, 0, 0]
        assert work["nodes"] <= 20
        assert outputs[2] == outputs[0] and outputs[0]

    def test_overrides_after_kept_runs_match_a_fresh_interpreter(self, tmp_path):
        # a plan built for one tolerance never judges another, and the samples
        # follow the overriding seed; a plain run after them is the first run again
        path, name = SCENARIOS / "kepler-scaling.json", "kepler-scaling"
        overrides = {"tol": (["--tol-override", "1e-300"], {"tol_override": 1e-300}, 1),
                     "seed": (["--seed", "5"], {"seed": 5}, 0)}
        for label, (argv, _, code) in overrides.items():
            done = subprocess.run([sys.executable, "-c", FRESH, "--quiet",
                                   "--out", str(tmp_path / f"fresh-{label}"), *argv, "check",
                                   str(path)], capture_output=True, text=True, timeout=120,
                                  env={**os.environ, "PYTHONPATH": str(SCENARIOS.parent / "src")})
            assert (done.returncode, done.stderr) == (code, "")
        for k in range(2):
            assert cli.run(path, tmp_path / f"plain-{k}", quiet=True)[1] == 0
        for label, (_, kwargs, code) in overrides.items():
            assert cli.run(path, tmp_path / label, quiet=True, **kwargs)[1] == code
            assert _outputs(tmp_path / label, name) == _outputs(tmp_path / f"fresh-{label}", name)
        assert cli.run(path, tmp_path / "again", quiet=True)[1] == 0
        assert _outputs(tmp_path / "again", name) == _outputs(tmp_path / "plain-0", name)

    def test_the_third_run_of_a_failing_check_builds_nothing_and_reads_the_same(self, tmp_path,
                                                                                  capsys):
        # the failing check replays the fields it built, kept with the scenario
        path = write_scenario(tmp_path, "kepler-ln", _kepler_ln())
        seen = []
        for _ in range(3):
            done = tally()
            report, code = cli.run(path, tmp_path / "out")
            seen.append((code, report["error"], capsys.readouterr().err))
        work = done()
        assert [work[k] for k in ("bundles", "derive")] == [0, 0] and work["nodes"] <= 20
        assert seen[2] == seen[1] == seen[0] and seen[0][0] == 3

    def test_a_seed_run_of_a_kept_scenario_builds_nothing(self, tmp_path, monkeypatch):
        # the built checks and their bundle read no seed, so the seeded copy finds
        # them, by its skeleton and by its bound values, and draws and judges its
        # own samples: it derives, emits and builds nothing
        path, name = SCENARIOS / "kepler-scaling.json", "kepler-scaling"
        done = subprocess.run([sys.executable, "-c", FRESH, "--quiet", "--out",
                               str(tmp_path / "fresh"), "--seed", "5", "check", str(path)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SCENARIOS.parent / "src")})
        assert (done.returncode, done.stderr) == (0, "")
        for k in range(2):
            assert cli.run(path, tmp_path / f"plain-{k}", quiet=True)[1] == 0
        builds = _builds(monkeypatch)
        done = tally()
        assert cli.run(path, tmp_path / "seeded", quiet=True, seed=5)[1] == 0
        work = done()
        assert [work[k] for k in ("bundles", "derive", "emitted")] == [0, 0, 0] and builds == []
        assert work["nodes"] <= 20
        assert _outputs(tmp_path / "seeded", name) == _outputs(tmp_path / "fresh", name)
        assert _outputs(tmp_path / "seeded", name) != _outputs(tmp_path / "plain-0", name)

    def test_a_file_that_takes_over_a_kept_run_keeps_its_work_for_the_system(self, tmp_path):
        # a later run builds nothing, but it replaces the earlier one under the
        # file's key, so it must hold the earlier one's derivatives: a sweep Kepler
        # file derives as much after three runs of kepler-scaling as after two
        kepler = SCENARIOS.parent / "certbench" / "bundled" / "kepler-scaling.json"
        sweep = certbench_workloads().symbolic_sweep_round(7, 5)[0]
        assert sweep.spec["system"]["builtin"] == "kepler"
        derived = []
        for runs in (2, 3):
            expr._RUNS.clear()
            gc.collect()
            for _ in range(runs):
                assert cli.run(kepler, tmp_path, quiet=True)[1] == 0
            done = tally()
            assert cli.run(sweep.write(tmp_path), tmp_path, quiet=True)[1] == 0
            derived.append(done()["derive"])
        assert derived[0] == derived[1] > 0

    def test_a_new_gauge_on_a_kept_system_derives_only_its_own_partials(self, tmp_path):
        # after two runs of one sweep Kepler file, its system keeps the derivatives of
        # its checks, each built whole by the Cartan formula, and a gauge's numbers and
        # sign are bound parameters: a file with a new m, eps, gauge and wrong-sigma
        # ansatz of the same shapes derives 0 rules, measured (a gauge of a new shape,
        # such as `1.5*t^3`, derives its whole field's partials: 437)
        first, second = (certbench_workloads().symbolic_sweep_round(7, k)[0] for k in (0, 1))
        assert first.spec["system"]["builtin"] == second.spec["system"]["builtin"] == "kepler"
        assert first.spec["symmetries"][3]["Yt"] != second.spec["symmetries"][3]["Yt"]
        for _ in range(2):
            assert cli.run(first.write(tmp_path), tmp_path / "first", quiet=True)[1] == 0
        done = tally()
        report, code = cli.run(second.write(tmp_path), tmp_path / "second", quiet=True)
        assert code == 0 and done()["derive"] <= 40

    def test_a_td_kepler_file_with_new_numbers_derives_only_its_gauges_partials(self, tmp_path):
        # td-kepler's h and F_TDK read m, eps and Lambda as parameters, and an ansatz
        # field reads its rates, so after two runs of one sweep td-kepler file, a file
        # with new m, eps, Lambda, ansatz rates and gauge finds its system's kept
        # derivatives, the gauge's numbers being parameters too: no rule derived, where
        # 903 were when the numbers were written into the trees
        first, second = (certbench_workloads().symbolic_sweep_round(7, k)[1] for k in (0, 1))
        assert first.spec["system"]["builtin"] == second.spec["system"]["builtin"] == "td-kepler"
        params = [case.spec["system"]["params"] for case in (first, second)]
        assert all(params[0][k] != params[1][k] for k in ("m", "eps", "Lambda"))
        for k in range(3):
            assert first.spec["symmetries"][k] != second.spec["symmetries"][k]
        for _ in range(2):
            assert cli.run(first.write(tmp_path), tmp_path / "first", quiet=True)[1] == 0
        done = tally()
        report, code = cli.run(second.write(tmp_path), tmp_path / "second", quiet=True)
        assert code == 0 and done()["derive"] <= 40

    def test_a_new_ansatz_rate_on_a_kept_system_derives_nothing(self, tmp_path):
        # a Kepler file whose wrong-sigma field has a new sigma, on new m and eps,
        # finds that field's derivatives under its kept shape and derives no rule
        first = certbench_workloads().symbolic_sweep_round(7, 0)[0]
        spec = json.loads(json.dumps(first.spec))
        spec["system"]["params"] = {"m": 1.7, "eps": 0.3}
        assert spec["symmetries"][2]["label"] == "wrong-sigma"
        spec["symmetries"][2]["ansatz"]["sigma"] += 0.125
        for _ in range(2):
            assert cli.run(first.write(tmp_path), tmp_path / "first", quiet=True)[1] == 0
        done = tally()
        report, code = cli.run(write_scenario(tmp_path, "new-sigma", spec), tmp_path, quiet=True)
        assert code == 0 and done()["derive"] == 0

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["kepler", "td-kepler", "oscillator"])
    def test_a_file_of_a_kept_shape_with_new_numbers_derives_and_emits_nothing(self, tmp_path,
                                                                               index):
        # a gauge's nonzero numbers and the oscillator's f's are parameters named by
        # their place (`_Y<position>t_<k>`, `_f_<k>`), and a bundle's program is kept
        # by its roots, argnames and bound names: after two runs of one sweep file, a
        # later file of its system whose gauges have the same signs, with new numbers
        # everywhere, derives no rule and emits no program (the oscillator derived
        # 134 rules, and every file emitted all its statements, when these were literals)
        workloads = certbench_workloads()

        def shape(case):
            return [" - " in s["Yt"] for s in case.spec["symmetries"] if "Yt" in s]

        first = workloads.symbolic_sweep_round(7, 0)[index]
        second = next(case for k in range(1, 20)
                      if shape(case := workloads.symbolic_sweep_round(7, k)[index]) == shape(first))
        assert first.spec["system"]["builtin"] == second.spec["system"]["builtin"]
        old, new = (case.spec["system"]["params"] for case in (first, second))
        assert all(old[k] != new[k] for k in old)
        assert [s.get("Yt") for s in first.spec["symmetries"]] != \
            [s.get("Yt") for s in second.spec["symmetries"]]
        for _ in range(2):
            assert cli.run(first.write(tmp_path), tmp_path / "first", quiet=True)[1] == 0
        done = tally()
        report, code = cli.run(second.write(tmp_path), tmp_path / "second", quiet=True)
        work = done()
        assert code == 0 and [work[k] for k in ("bundles", "derive", "emitted")] == [0, 0, 0]

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["kepler", "td-kepler", "oscillator"])
    def test_a_file_whose_gauges_have_the_other_sign_derives_emits_and_builds_nothing(
            self, tmp_path, monkeypatch, index):
        # `x - c*y` reads `x + c'*y` with c' = -c bound, so both signs of the sweep's
        # gauge `a*t +/- b*t^2` are one tree: after two runs of a sweep file, the same
        # file with its gauges' sign flipped derives no rule, writes no statement and
        # builds no check (it emitted its whole fused bundle when the sign was a shape)
        first = certbench_workloads().symbolic_sweep_round(7, 0)[index]
        for _ in range(2):
            assert cli.run(first.write(tmp_path), tmp_path / "first", quiet=True)[1] == 0
        builds = _builds(monkeypatch)
        done = tally()
        report, code = cli.run(_flipped(first).write(tmp_path), tmp_path / "second", quiet=True)
        work = done()
        assert code == 0 and [work[k] for k in ("derive", "emitted")] == [0, 0] and builds == []

    def test_a_file_that_differs_only_in_a_tol_builds_its_own_judges(self, tmp_path, monkeypatch):
        # the judges read each check's tol, so the built checks are kept under the
        # checks with their tolerances: a copy of a kept sweep file whose wrong-sigma
        # symmetry check has tol 1e3 builds its checks again and judges that field a
        # symmetry (with the checks kept by their nodes alone it would find the file's)
        first = certbench_workloads().symbolic_sweep_round(7, 0)[0]
        spec = json.loads(json.dumps(first.spec))
        assert spec["checks"][3]["symmetry"] == "wrong-sigma"
        spec["checks"][3]["tol"] = 1e3
        for _ in range(2):
            report, code = cli.run(first.write(tmp_path), tmp_path / "first", quiet=True)
        builds = _builds(monkeypatch)
        loose, loose_code = cli.run(write_scenario(tmp_path, "loose", spec), tmp_path / "loose",
                                    quiet=True)
        assert len(builds) == sum(cli.CHECKS[c["type"]].pointwise for c in spec["checks"])
        assert (code, report["checks"][3]["verdict"]) == (0, "NotSymmetry")
        assert (loose_code, loose["checks"][3]["verdict"]) == (1, "GeneralizedNoether")

    def test_a_file_whose_ansatz_rate_becomes_zero_builds_anew(self, tmp_path, monkeypatch):
        # a zero rate stays the number 0, which folds its terms away, so a kept sweep
        # file with its wrong-sigma field's sigma set to 0 is another skeleton: its
        # checks are built again, and it reports what it reports with nothing kept
        first = certbench_workloads().symbolic_sweep_round(7, 0)[0]
        spec = json.loads(json.dumps(first.spec))
        spec["symmetries"][2]["ansatz"]["sigma"] = 0.0
        path = write_scenario(tmp_path, "zero-sigma", spec)
        for _ in range(2):
            assert cli.run(first.write(tmp_path), tmp_path / "first", quiet=True)[1] == 0
        builds = _builds(monkeypatch)
        kept = cli.run(path, tmp_path / "kept", quiet=True)
        assert len(builds) == sum(cli.CHECKS[c["type"]].pointwise for c in spec["checks"])
        assert kept == _alone_run(path, tmp_path / "alone", builds)

    def test_a_tol_override_copy_builds_its_own_checks(self, tmp_path, monkeypatch):
        # a `--tol-override` copy's judges read its tolerance, so it does not find the
        # kept file's built checks, which judge by the file's
        path = SCENARIOS / "kepler-scaling.json"
        for _ in range(2):
            assert cli.run(path, tmp_path / "plain", quiet=True)[1] == 0
        builds = _builds(monkeypatch)
        report, code = cli.run(path, tmp_path / "tight", quiet=True, tol_override=1e-300)
        pointwise = [c for c in cli.load_scenario(path).checks if cli.CHECKS[c.type].pointwise]
        assert code == 1 and [replace(c, tol=1e-300) for c in pointwise] == builds

    def test_two_wrong_sigma_files_of_one_skeleton_report_their_own_values(self, tmp_path,
                                                                          monkeypatch):
        # a Kepler file whose wrong-sigma field has another nonzero sigma has the kept
        # file's skeleton, so it builds nothing, but it binds its own numbers into its
        # own bundle: it reports its own residual, the one it reports with nothing kept
        first = certbench_workloads().symbolic_sweep_round(7, 0)[0]
        spec = json.loads(json.dumps(first.spec))
        spec["symmetries"][2]["ansatz"]["sigma"] += 0.125
        path = write_scenario(tmp_path, "new-sigma", spec)
        for _ in range(2):
            report, code = cli.run(first.write(tmp_path), tmp_path / "first", quiet=True)
        builds = _builds(monkeypatch)
        kept = cli.run(path, tmp_path / "kept", quiet=True)
        assert builds == [] and kept[1] == code == 0
        assert kept[0]["checks"][3]["value"] != report["checks"][3]["value"]
        assert kept == _alone_run(path, tmp_path / "alone", builds)

    def test_a_warm_sweep_file_prints_nothing(self, tmp_path, monkeypatch):
        # a run is kept under its file's key alone, which reads no tree, so a new
        # file of a recently run system prints none
        workloads = certbench_workloads()
        for case in workloads.symbolic_sweep_round(7, 0) * 2:
            assert cli.run(case.write(tmp_path), tmp_path, quiet=True)[1] == 0
        printed, real = [], expr.to_source
        monkeypatch.setattr(expr, "to_source", lambda *a: printed.append(a) or real(*a))
        for case in workloads.symbolic_sweep_round(7, 1):
            assert cli.run(case.write(tmp_path), tmp_path, quiet=True)[1] == 0
        assert printed == []

    def test_expression_files_that_differ_only_in_numbers_share_their_programs(self, tmp_path):
        # a system's expression, an invariant and an explicit field read their nonzero
        # numbers as bound parameters, so after a file's runs, a file that differs from
        # it only in these numbers has its trees: it derives no rule and emits no
        # program (it wrote every statement anew when they were literals)
        def spec(c):
            energy = f"p0^2/2 + {c!r}*q0^2/2 - {c / 4!r}*q0^4"
            return {"system": {"expression": energy, "dimension": 1}, "sample_count": 10,
                    "invariants": [{"label": "E", "expression": energy}],
                    "symmetries": [{"label": "Y", "Yq": [f"{c!r}*p0"], "Yp": ["0"], "YS": "0",
                                    "Yt": "1.5"}],
                    "checks": [{"type": "residual", "invariant": "E"},
                               {"type": "symmetry", "symmetry": "Y", "expect_symmetry": False}]}

        first, second = (write_scenario(tmp_path, f"quartic-{k}", spec(c))
                         for k, c in enumerate((1.25, 0.75)))
        for _ in range(2):
            assert cli.run(first, tmp_path, quiet=True)[1] == 0
        done = tally()
        assert cli.run(second, tmp_path, quiet=True)[1] == 0
        work = done()
        assert [work[k] for k in ("bundles", "derive", "emitted")] == [0, 0, 0]

    def test_the_kept_work_of_a_file_does_not_grow(self, tmp_path):
        path = SCENARIOS / "kepler-scaling.json"
        key, sizes = (path.read_bytes(), path.stem), []
        for _ in range(50):
            assert cli.run(path, tmp_path, quiet=True)[1] == 0
            sizes.append(len(expr._RUNS[key].work))
        assert set(sizes) == {sizes[0]}


def _read_back(sc):
    """All that a loaded scenario's checks and flow read of its system and fields: its
    numbers, the nodes of h, of each invariant and of each symmetry, and what each
    invariant is expected to do."""
    system = sc.system
    return (system.params, system.h.ast, system.label,
            {k: (v.field.ast, v.expected) for k, v in system.invariants.items()},
            {k: (v.field.ast, v.expected) for k, v in sc.invariants.items()},
            {k: cli._nodes(v.field, v.factor) for k, v in sc.symmetries.items()})


def _sweep_spec(index, **params):
    """Round 0's sweep file of system `index` at seed 7, `params` over its system's."""
    spec = json.loads(json.dumps(certbench_workloads().symbolic_sweep_round(7, 0)[index].spec))
    spec["system"]["params"].update(params)
    return spec


def _with_sigma(spec, position, sigma):
    """`spec` with the ansatz of its symmetry at `position` given the rate `sigma`."""
    spec["symmetries"][position]["ansatz"]["sigma"] = sigma
    return spec


def _builders(monkeypatch):
    """The builders of the loader's kept systems and fields, by name, as they are called
    from now on."""
    calls = []
    for owner, name in ((cli, "make_builtin"), (cli, "symmetry_from_invariant"),
                        (cli.scaling, "scaling_generator")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _name=name, _real=real:
                            calls.append(_name) or _real(*a))
    return calls


class TestKeptLoad:
    """`cli._load` keeps the systems and fields it builds under the nodes and names they
    read (`cli._kept`) and binds each file's numbers afterwards: a file whose skeleton is
    kept builds no tree, and it reads as it does with nothing kept."""

    @pytest.mark.parametrize("first, second, built", [
        (_sweep_spec(2, g0=0.3), _sweep_spec(2, g0=0.0), ["make_builtin"]),
        (_sweep_spec(2, g0=0.0), _sweep_spec(2, g0=0.3), ["make_builtin"]),
        (_sweep_spec(2, f=1.0), _sweep_spec(2, f=2.0), ["make_builtin", "symmetry_from_invariant"]),
        (_sweep_spec(0), _with_sigma(_sweep_spec(0), 0, 3.0 + 1e-10), []),
        (_sweep_spec(0), _with_sigma(_sweep_spec(0), 2, 0.0), ["scaling_generator"])],
        ids=["g0-zero-after-nonzero", "g0-nonzero-after-zero", "number-f", "sigma-off-three",
             "zero-rate"])
    def test_a_file_loaded_after_another_reads_as_it_does_alone(self, tmp_path, monkeypatch,
                                                                first, second, built):
        # whether g0 is 0 picks the oscillator's invariants; a JSON-number f is a literal
        # of h; a rate of 3 + 1e-10 is bound like a rate of 3, and a zero rate stays 0,
        # which folds its terms away: each file builds what its own skeleton needs
        paths = [write_scenario(tmp_path, f"file-{k}", s) for k, s in enumerate((first, second))]
        expr._RUNS.clear()
        gc.collect()
        alone = []
        for path in paths:  # with nothing kept: a read-back holds no kept system or field
            alone.append(_read_back(cli.load_scenario(path)))
            gc.collect()
        key, in_turn, builds = object(), [], []
        with expr.derivatives_kept(key):
            for path in paths:
                builds = _builders(monkeypatch)
                in_turn.append(_read_back(cli.load_scenario(path)))
        del expr._RUNS[key]
        assert in_turn == alone and builds == built
        if "g0" in second["system"]["params"]:
            conserved = second["system"]["params"]["g0"] == 0.0
            assert ("F_LR" in in_turn[1][3]) == conserved
            assert in_turn[1][4]["F0"][1] == ("conserved" if conserved else "dissipated")

    @pytest.mark.parametrize("params, message", [
        ({"m": -1.0}, "m must be positive"),
        ({"f": "t + q0"}, "f must be a function of t only"),
        ({"eps": 0.2}, "builtin 'harmonic-dissipative' does not read params ['eps']")],
        ids=["m", "f", "key"])
    def test_a_bad_builtin_value_is_refused_after_its_skeleton_is_kept(self, tmp_path, params,
                                                                       message):
        good = write_scenario(tmp_path, "good", _sweep_spec(2))
        for _ in range(2):
            assert cli.run(good, tmp_path / "out", quiet=True)[1] == 0
        bad = write_scenario(tmp_path, "bad", _sweep_spec(2, **params))
        assert cli.run(bad, tmp_path / "out", quiet=True) == (
            {"error": f"{bad}: bad system spec: {message}"}, 2)

    def test_warm_files_of_kept_skeletons_write_a_fresh_interpreters_bytes(self, tmp_path,
                                                                           monkeypatch):
        # round 1's files have new m, eps, Lambda, f coefficients, g0 and gauges: run
        # after round 0's, they build no system and no field, and write the bytes that
        # they write in an interpreter of their own
        firsts, seconds = (certbench_workloads().symbolic_sweep_round(7, k) for k in (0, 1))
        for first, second in zip(firsts, seconds):
            old, new = (case.spec["system"]["params"] for case in (first, second))
            assert old.keys() == new.keys() and all(old[k] != new[k] for k in old)
            assert [s.get("Yt") for s in first.spec["symmetries"]] != \
                [s.get("Yt") for s in second.spec["symmetries"]]
        (tmp_path / "in").mkdir()
        paths = [case.write(tmp_path / "in") for case in seconds]
        done = subprocess.run([sys.executable, "-c", FRESH, "--quiet", "--out",
                               str(tmp_path / "fresh"), "check", *map(str, paths)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SCENARIOS.parent / "src")})
        assert (done.returncode, done.stderr) == (0, "")
        for case in firsts * 2:
            assert cli.run(case.write(tmp_path), tmp_path / "first", quiet=True)[1] == 0
        builds = _builders(monkeypatch)
        for path in paths:
            assert cli.run(path, tmp_path / "warm", quiet=True)[1] == 0
        assert builds == []
        for case in seconds:
            assert _outputs(tmp_path / "warm", case.name) == _outputs(tmp_path / "fresh", case.name)


class TestArtifacts:
    def test_output_layout(self, tmp_path):
        path = write_scenario(tmp_path, "fp", FREE_PARTICLE)
        cli.run(path, tmp_path / "out", quiet=True)
        base = tmp_path / "out" / "fp"
        assert (base / "trajectory.csv").exists()
        assert (base / "report.txt").exists()
        assert (base / "report.json").exists()
        header = (base / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,q0,p0,S,mom"

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        report_bytes = []
        for sub in ("run1", "run2"):
            cli.run(SCENARIOS / "kepler-scaling.json", tmp_path / sub, quiet=True)
            base = tmp_path / sub / "kepler-scaling"
            report_bytes.append(((base / "report.txt").read_bytes(),
                                 (base / "report.json").read_bytes(),
                                 (base / "trajectory.csv").read_bytes()))
        assert report_bytes[0] == report_bytes[1]

    # sha256 of each of FILES, as scripts/report_digests.py prints them
    FILES = ("report.json", "report.txt", "trajectory.csv")
    PINNED_DIGESTS = {
        "dissipative-oscillator": (
            "e15cce6547c89a8b0701c3a36e959c9294c45ab1372b65c10c311d2d42bdba5d",
            "43ad8e1e90390f2c0219d151509b4f0e18d702b31d5d29ce6ec15d88749f5ceb",
            "6c8fb25cffe4b123c55ea983185d24ca39d1dfde155dde731cc6820225ade79b"),
        "free-particle": (
            "03c7109c2f9a5276dcea5941c761d4fc47fa41126ca40e2ff9684599e07350c5",
            "969217c7571afe1aba3717f935dea1badd79b8860e71079117f4b89ad0f1af7a",
            "d203330944584d41a648ca2b4acddfe72266a2f4153dc3e1069e9a5c62299acb"),
        "kepler-scaling": (
            "c8bafbe4c5b00e58182b08586e351464b1adc3450e682ef20383b2cc2c0c24d7",
            "7f862589c16910261916e499512f3dff0b24d84d8d76ea1acd143ff1cf7a0e38",
            "efad186f09cda0eb1e2ec6966d9356865bd46048f738dd74388baf1e7eed1093"),
        "td-kepler": (
            "98ffc1507a89f0efbb33f9f9c67262d37f3fb3285b825389d1956dd614bfc6c7",
            "c159cf5341efa36b60fe920513d844bc4b274056ad6ea4acd685252f23118fea",
            "91f40214ad1110e7aeb6cae3e682f5faaaaf2ce9d5d509a8b9ec92d2275294b2"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_bundled_scenario_digests_are_pinned(self, tmp_path, name):
        """report.json, report.txt and trajectory.csv of each bundled scenario,
        at its own seed, are byte for byte the pinned ones.  The digests belong to
        CPython 3.11.7 on x86_64 Linux with glibc 2.36's libm (`math.exp` in
        the compensation, `sin`, `sqrt` and friends in the fields): another
        libm or float formatting may move a last bit and so every digest."""
        report, code = cli.run(SCENARIOS / f"{name}.json", tmp_path, quiet=True)
        assert code == 0 and report["passed"]
        got = tuple(hashlib.sha256((tmp_path / name / fname).read_bytes()).hexdigest()
                    for fname in self.FILES)
        assert got == self.PINNED_DIGESTS[name]

    def test_digests_do_not_depend_on_what_ran_before(self, tmp_path):
        """Generated code is compiled once per shape and shared by every later
        scenario of the process: two passes over the bundled scenarios, the
        second in reverse order, both write the pinned bytes."""
        names = sorted(self.PINNED_DIGESTS)
        for k, order in enumerate((names, names[::-1])):
            for name in order:
                report, code = cli.run(SCENARIOS / f"{name}.json", tmp_path / str(k), quiet=True)
                assert code == 0 and report["passed"]
                got = tuple(hashlib.sha256((tmp_path / str(k) / name / fname).read_bytes())
                            .hexdigest() for fname in self.FILES)
                assert got == self.PINNED_DIGESTS[name], (k, name)

    def test_report_digests_names_a_scenario_whose_second_pass_differs(self, monkeypatch,
                                                                       capsys):
        spec = importlib.util.spec_from_file_location(
            "report_digests", SCENARIOS.parent / "scripts" / "report_digests.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        runs = []

        def fake_run(path, out, quiet):
            runs.append(path)
            (out / path).mkdir(parents=True, exist_ok=True)
            (out / path / "report.json").write_text(str(runs.count(path)) if path == "b" else "")
            return {"scenario": path}, 0

        monkeypatch.setattr(tool, "run", fake_run)
        assert tool.main(["a", "b"]) == 1 and runs == ["a", "b", "b", "a"]
        assert capsys.readouterr().err == "b: the reverse-order second pass wrote different files\n"

    def test_seed_override_recorded(self, tmp_path):
        path = write_scenario(tmp_path, "fp", FREE_PARTICLE)
        report, _ = cli.run(path, tmp_path / "out", seed=999, quiet=True)
        assert report["seed"] == 999

    def test_tol_override(self, tmp_path):
        bad = json.loads(json.dumps(FREE_PARTICLE))
        bad["invariants"] = [{"label": "pos", "expression": "q0"}]
        bad["checks"] = [{"type": "drift", "invariant": "pos", "tol": 1e-12}]
        path = write_scenario(tmp_path, "fp2", bad)
        _, code = cli.run(path, tmp_path / "out", tol_override=100.0, quiet=True)
        assert code == 0

    def test_simulate_writes_trajectory_only(self, tmp_path):
        path = write_scenario(tmp_path, "fp", FREE_PARTICLE)
        code = cli.main(["--out", str(tmp_path / "sim"), "--quiet", "simulate", str(path)])
        assert code == 0
        base = tmp_path / "sim" / "fp"
        assert (base / "trajectory.csv").exists()
        assert not (base / "report.txt").exists()

    def test_out_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.DEFAULT_OUT_ENV, str(tmp_path / "envout"))
        path = write_scenario(tmp_path, "fp", FREE_PARTICLE)
        code = cli.main(["--quiet", "check", str(path)])
        assert code == 0
        assert (tmp_path / "envout" / "fp" / "report.txt").exists()


def _strict(obj):
    """The pass the report writer made before `json.dumps`: each non-finite float
    as the string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return {k: _strict(v) for k, v in obj.items()} if isinstance(obj, dict) else obj


def _encoded(value) -> str:
    """`value` as the report writer encoded it with the `json` module: the oracle."""
    return json.dumps(_strict(value), sort_keys=True, indent=2, allow_nan=False)


_LEAVES = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, -2.5e-310, math.nan, math.inf, -math.inf]),
    st.integers(-2**200, 2**200), st.booleans(), st.none(),
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ü", "\u2028", "\U0001f4a1"]))
_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4)), max_leaves=30)


class TestReportEncoding:
    """report.json is written by `cli._json`, byte for byte as `json.dumps` wrote it."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_VALUES)
    def test_the_writer_gives_the_json_modules_text(self, value):
        assert cli._json(value) == _encoded(value)

    def test_a_value_json_cannot_write_is_refused(self):
        for value in ([1.0, {2}], {"a": object()}):
            with pytest.raises(TypeError):
                _encoded(value)
            with pytest.raises(TypeError):
                cli._json(value)

    @pytest.mark.parametrize("source", ["scenarios", "bundled", "long-flow", "symbolic-sweep"])
    def test_every_report_of_a_round_is_the_json_modules_bytes(self, tmp_path, source):
        # the scenarios/ files, and round 1 of each certbench workload at seed 7
        if source == "scenarios":
            paths = sorted(SCENARIOS.glob("*.json"))
        else:
            workloads = certbench_workloads()
            cases = {"bundled": workloads.bundled, "long-flow": workloads.long_flow}.get(
                source, lambda seed: workloads.symbolic_sweep_round(seed, 1))(7)
            paths = [case.write(tmp_path) for case in cases]
        for path in paths:
            report, code = cli.run(path, tmp_path / "out", quiet=True)
            assert code in (0, 1)
            written = (tmp_path / "out" / report["scenario"] / "report.json").read_bytes()
            assert written == (_encoded(report) + "\n").encode(), path.name


class TestOutputsInPlace:
    """A run writes each output file over its old bytes and cuts it after the new
    ones; a run leaves in out/<name>/ only the files it wrote."""

    def test_a_short_run_over_a_long_one_leaves_exactly_its_bytes(self, tmp_path, monkeypatch):
        long = {**FREE_PARTICLE, "t_end": 30.0, "checks": [
            {"type": "drift", "invariant": "mom", "tol": 1e-12},
            {"type": "residual", "invariant": "mom", "tol": 1e-12},
            {"type": "drift", "invariant": "mom", "tol": 1e-11}]}
        out, base = tmp_path / "out", tmp_path / "out" / "fp"
        assert cli.run(write_scenario(tmp_path, "long", long), out, quiet=True)[1] == 0
        sizes = [(base / name).stat().st_size for name in TestArtifacts.FILES]
        opened, real = [], os.open
        monkeypatch.setattr(os, "open", lambda name, flags, *rest:
                            opened.append((Path(name).name, flags)) or real(name, flags, *rest))
        short = write_scenario(tmp_path, "fp", FREE_PARTICLE)
        assert cli.run(short, out, quiet=True)[1] == 0
        monkeypatch.undo()
        assert cli.run(short, tmp_path / "fresh", quiet=True)[1] == 0
        for name, size in zip(TestArtifacts.FILES, sizes):
            fresh = (tmp_path / "fresh" / "fp" / name).read_bytes()
            assert len(fresh) < size and (base / name).read_bytes() == fresh, name
        written = [flags for name, flags in opened if name in TestArtifacts.FILES]
        assert len(written) == 3 and not any(flags & os.O_TRUNC for flags in written)

    LN_START = {"name": "fp", "system": {"expression": "p0^2/2 + ln(q0)", "dimension": 1},
                "initial": {"q": [-1.0], "p": [0.0]}, "t_end": 3.0,
                "invariants": [{"label": "L", "expression": "p0^2/2 + ln(q0)"}],
                "checks": [{"type": "drift", "invariant": "L"}]}
    POINTWISE = {"name": "fp", "system": {"expression": "p0^2/2", "dimension": 1},
                 "invariants": [{"label": "mom", "expression": "p0"}],
                 "checks": [{"type": "residual", "invariant": "mom"}]}

    @pytest.mark.parametrize("spec, options, code, left", [
        (LN_START, {}, 3, ()),
        (FREE_PARTICLE, {"seed": -1}, 2, ()),
        (POINTWISE, {}, 0, ("report.json", "report.txt")),
        (LN_START, {"checks": False}, 3, ("trajectory.csv",)),
        (POINTWISE, {"checks": False}, 2, ())],
        ids=["domain-error", "config-error", "no-flow", "simulate", "simulate-fails"])
    def test_a_run_leaves_no_earlier_runs_outputs(self, tmp_path, spec, options, code, left):
        # after a passing run of fp: a run that fails after its name is known removes
        # all three files, one with no flow an earlier trajectory.csv, and a simulate
        # run the reports; a simulate run's tagged partial trajectory is its output
        out, base = tmp_path / "out", tmp_path / "out" / "fp"
        assert cli.run(write_scenario(tmp_path, "first", FREE_PARTICLE), out, quiet=True)[1] == 0
        report, got = cli.run(write_scenario(tmp_path, "second", spec), out, quiet=True, **options)
        assert got == code
        assert sorted(p.name for p in base.iterdir()) == list(left)
        if "trajectory.csv" in left:
            assert (base / "trajectory.csv").read_text() == "t,q0,p0,S,L\n0.0,-1.0,0.0,0.0,nan\n"
        elif left:
            assert json.loads((base / "report.json").read_text())["checks"][0]["type"] == "residual"


class TestSolveScalingCommand:
    def test_kepler_row(self, capsys):
        code = cli.main(["solve-scaling", "--k", "-1", "--f", "const"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GenericK_F2" in out
        # coefficients 2/3, 1, 1/3
        assert "0.6666666666666666" in out and "0.3333333333333333" in out

    def test_dissipative_row(self, capsys):
        code = cli.main(["solve-scaling", "--k", "2", "--g", "homogeneous",
                         "--kappa", "1", "--g0", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Dissipative_F0" in out
        assert "g0*S" in out

    def test_kappa_required(self, capsys):
        code = cli.main(["solve-scaling", "--k", "2", "--g", "homogeneous"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--k", "2", "--dimension", "0"],
        ["--k", "2", "--dimension", "129"],  # above cli.MAX_DIMENSION: memory grows as n^2
        ["--k", "inf"],
        ["--k", "2", "--g", "homogeneous", "--kappa", "1", "--g0", "nan"],
        ["--k", "2", "--g", "homogeneous", "--kappa", "nan"],
    ], ids=["dimension", "dimension-over-the-bound", "k", "g0", "kappa"])
    def test_bad_number_is_a_usage_error(self, argv, capsys):
        assert cli.main(["solve-scaling", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and argv[-2] in err

    def test_json_output(self, capsys):
        # the report writer's encoding, which is json.dumps(sort_keys=True, indent=2)'s
        code = cli.main(["solve-scaling", "--k", "2", "--f", "const", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        tags = [s["case_tag"] for s in payload["solutions"]]
        assert "K2_F0" in tags

    def test_power_law(self, capsys):
        code = cli.main(["solve-scaling", "--k", "-1", "--f", "power-law", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        case3 = next(s for s in payload["solutions"]
                     if s["case_tag"] == "TimeDependent_Case3")
        assert case3["f_required"] is not None


class TestListSystems:
    def test_three_builtins(self, capsys):
        code = cli.main(["list-systems"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 3
        assert sorted(l.split(":")[0] for l in lines) == \
            ["harmonic-dissipative", "kepler", "td-kepler"]
