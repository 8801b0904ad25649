import hashlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from contact_noether import cli, dynamics, expr
from contact_noether.dynamics import contact_field, extended_field
from contact_noether.expr import DomainError, parse
from contact_noether.geometry import ContactSystem, lie_bracket, nan_max, point_bundle
from contact_noether.noether import (closure_check, dissipation_field, sample_points,
                                     similarity_test, symmetry_test)
from conftest import certbench_workloads, tally

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
        residual = point_bundle([dissipation_field(system, sc.invariants[c.refs[0]].field)],
                                system.params)
        return [nan_max(abs(residual(pt)[0]) for pt in samples)]
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


def _sweep_cases():
    """Round 0 of certbench's symbolic sweep at three seeds."""
    workloads = certbench_workloads()
    return [pytest.param(case, id=f"seed{seed}-{case.name}")
            for seed in (2, 5, 11) for case in workloads.symbolic_sweep_round(seed, 0)]


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
        residual = point_bundle([dissipation_field(sc.system, sc.invariants["F"].field)],
                                sc.system.params)
        with pytest.raises(DomainError) as first:
            [residual(pt) for pt in samples]
        with pytest.raises(DomainError) as early:
            symmetry_test(sc.system, sc.symmetries["Y"].field, samples[:1])
        assert first.value.where != early.value.where
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert (code, report["error"]) == (3, str(first.value))

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
        for path, message in ((missing, ": no such scenario file"),
                              (unparsable, ":2: invalid JSON (Expecting value)")):
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
            "null-t", "string-q", "bool-p", "string-rel_tol", "string-Yq-2d", "object-Yq"])
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
        _, code = cli.run(path, tmp_path, quiet=True)
        assert code == 3

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
            "8c0b4ddc439bce9a1d2479dd0e794a7e1c6e437b296ef05155b9c6fcecc6b473",
            "5201058336bc82c2b0df1d256c3027bf53fd271bffe6c882ec1d740aa48daf57",
            "6c8fb25cffe4b123c55ea983185d24ca39d1dfde155dde731cc6820225ade79b"),
        "free-particle": (
            "03c7109c2f9a5276dcea5941c761d4fc47fa41126ca40e2ff9684599e07350c5",
            "969217c7571afe1aba3717f935dea1badd79b8860e71079117f4b89ad0f1af7a",
            "d203330944584d41a648ca2b4acddfe72266a2f4153dc3e1069e9a5c62299acb"),
        "kepler-scaling": (
            "6cd624f8260ee62e3223d31fc88c2373a1a149598fde33c70efacf64cb7cef07",
            "64ff3c07190225143e5280fdfc4059e77ac738f8047f5b87cd78a4651987386f",
            "efad186f09cda0eb1e2ec6966d9356865bd46048f738dd74388baf1e7eed1093"),
        "td-kepler": (
            "d5dbda17cf72e5a443e43d027fb5f49fa5b02d7c7318082aa17dc2f176314372",
            "bf6625c9be50ed7ba4cfa7cad343e78e9f15eae13a919af507f81e41b470a10a",
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
        ["--k", "inf"],
        ["--k", "2", "--g", "homogeneous", "--kappa", "1", "--g0", "nan"],
        ["--k", "2", "--g", "homogeneous", "--kappa", "nan"],
    ], ids=["dimension", "k", "g0", "kappa"])
    def test_bad_number_is_a_usage_error(self, argv, capsys):
        assert cli.main(["solve-scaling", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and argv[-2] in err

    def test_json_output(self, capsys):
        code = cli.main(["solve-scaling", "--k", "2", "--f", "const", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
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
