import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from contact_noether import cli, expr
from contact_noether.geometry import lie_bracket
from contact_noether.noether import sample_points

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

    def test_kepler_scaling_closure_brackets_distinct_symmetries(self):
        # [Y, Y] = 0 identically, so a closure check of Y with itself cannot fail
        sc = cli.load_scenario(SCENARIOS / "kepler-scaling.json")
        closure = next(c for c in sc.checks if c["type"] == "closure")
        bracket = lie_bracket(sc.symmetries[closure["first"]]["field"],
                              sc.symmetries[closure["second"]]["field"])
        pts = sample_points(sc.system, 10, sc.seed)
        assert max(np.max(np.abs(bracket.eval(sc.system.env(pt)))) for pt in pts) > 1e-2


def test_pointwise_checks_compile_one_bundle_each(tmp_path, monkeypatch):
    # one bundle for the sampler's h and one per residual, symmetry, similarity
    # and closure check, whatever the sample count; nothing goes through an env dict
    codegens, evals = [], []
    real_codegen, real_eval = expr._codegen, expr.ScalarField.eval_env
    monkeypatch.setattr(expr, "_codegen", lambda *a: codegens.append(a) or real_codegen(*a))
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
        codegens.clear()
        report, code = cli.run(path, tmp_path / "out", quiet=True)
        assert code == 0 and len(report["checks"]) == len(checks)
        counts.append(len(codegens))
    assert counts == [1 + len(checks)] * 2
    assert evals == []


def test_dissipation_compensation_is_computed_once_per_run(tmp_path, monkeypatch):
    # the bundled oscillator has three drift checks on dissipated quantities
    sc = cli.load_scenario(SCENARIOS / "dissipative-oscillator.json")
    dissipated = [c for c in sc.checks if c["type"] == "drift"
                  and sc.invariants[c["invariant"]].expected == "dissipated"]
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

    def test_duplicate_invariant_label_is_config_error(self, tmp_path):
        bad = json.loads(json.dumps(FREE_PARTICLE))
        bad["invariants"] = [{"label": "mom", "expression": "p0"},
                             {"label": "mom", "expression": "q0"}]
        path = write_scenario(tmp_path, "dup", bad)
        _, code = cli.run(path, tmp_path, quiet=True)
        assert code == 2

    def test_domain_violation_is_three(self, tmp_path):
        plunge = {
            "name": "plunge",
            "system": {"builtin": "kepler"},
            "initial": {"q": [1.0, 0.0, 0.0], "p": [-1.0, 0.0, 0.0]},
            "t_end": 5.0,
            "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10, "guard_margin": 0.5},
            "invariants": [{"label": "Q_K", "builtin": "Q_K"}],
            "checks": [{"type": "drift", "invariant": "Q_K", "tol": 1e-6}],
        }
        path = write_scenario(tmp_path, "plunge", plunge)
        _, code = cli.run(path, tmp_path, quiet=True)
        assert code == 3


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

    # sha256 of (report.json, trajectory.csv), as scripts/report_digests.py prints them
    PINNED_DIGESTS = {
        "dissipative-oscillator": (
            "81118fb49d9659c80f34d14f94375163730fa51d9df09052397ab61b9bdef1b8",
            "887be2debaea751c561dacced19d7cb3d94d91bb780789f5c7c69bce20b5f6cb"),
        "free-particle": (
            "6b24d3a9eda4f8719fc85211a20024692d5dc9ad154f3be591b8dbb5213f5a6b",
            "2bc6e892858c6422d47c4873c6fe225abeea154eb7d0bdc392c74e3ab3b34bb6"),
        "kepler-scaling": (
            "1c7fa65ba3cab13fbeb306719063f0464af96e4171ef216c00a9ab5a59295512",
            "6d8f159b1198d02904d4952491c13199587f9803827d5e21f6f5bca1315e47c1"),
        "td-kepler": (
            "1c66372c5c8036b60d257bf2bdab989e3f133e29dcf6f1bf6f64e7967a27a7f9",
            "b0045fc83417993e2b369081ab6d9d24a1ef2237a20f7743cb9cbd5905e60ddf"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_bundled_scenario_digests_are_pinned(self, tmp_path, name):
        """report.json and trajectory.csv of each bundled scenario, at its own
        seed, are byte for byte the pinned ones.  The digests belong to
        CPython 3.11.7 with numpy 2.4.6 on x86_64 Linux (glibc 2.36): another
        libm or float formatting may move a last bit and so every digest."""
        report, code = cli.run(SCENARIOS / f"{name}.json", tmp_path, quiet=True)
        assert code == 0 and report["passed"]
        got = tuple(hashlib.sha256((tmp_path / name / fname).read_bytes()).hexdigest()
                    for fname in ("report.json", "trajectory.csv"))
        assert got == self.PINNED_DIGESTS[name]

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
