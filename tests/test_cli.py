import json
from pathlib import Path

import numpy as np

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


def test_residual_check_compiles_independently_of_sample_count(tmp_path, monkeypatch):
    compiled = []
    real = expr._compile

    def counting(node, names):
        compiled.append(node)
        return real(node, names)

    monkeypatch.setattr(expr, "_compile", counting)
    counts = []
    for samples in (5, 50):
        path = write_scenario(tmp_path, f"residual-{samples}", {
            "system": {"builtin": "kepler"},
            "sample_count": samples,
            "invariants": [{"label": "Q_K", "builtin": "Q_K"}],
            "checks": [{"type": "residual", "invariant": "Q_K", "tol": 1e-10}],
        })
        compiled.clear()
        _, code = cli.run(path, tmp_path / "out", quiet=True)
        assert code == 0
        counts.append(len(compiled))
    assert counts[0] == counts[1]


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
