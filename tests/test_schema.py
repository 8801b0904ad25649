"""The scenario schema: every key of every scenario object is one of the table's
(`cli.SCHEMA`, `cli.CHECKS`), each object gives exactly one of its forms, the
loaded records are frozen, and no scenario a user or the benchmark ships is
refused.  A hypothesis fuzzer mutates the bundled scenarios and runs them."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contact_noether import cli, noether
from conftest import certbench_workloads

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _scenario(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def _run(tmp_path, spec, name="edited"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return cli.run(path, tmp_path / "out", quiet=True)


def _check(spec, ctype):
    return next(c for c in spec["checks"] if c["type"] == ctype)


def _symmetry(spec, label):
    return next(s for s in spec["symmetries"] if s["label"] == label)


# each edit of kepler-scaling, which passes as shipped, and the message it is refused with
REFUSED = {
    "misspelt-expect_Lambda": (
        lambda s: _check(s, "similarity").update(expect_lambda=5.0),
        "similarity check has unknown key 'expect_lambda' (did you mean 'expect_Lambda'?); "
        "allowed: ['Lambda_tol', 'against', 'expect_Lambda', 'expect_verdict', 'symmetry', "
        "'tol', 'type']"),
    "misspelt-tol": (
        lambda s: _check(s, "symmetry").update(tolerence=1e-9),
        "symmetry check has unknown key 'tolerence'; allowed: ['expect_symmetry', 'symmetry', "
        "'tol', 'type']"),
    "misspelt-sample_count": (
        lambda s: s.update(sample_cout=5),
        "scenario has unknown key 'sample_cout' (did you mean 'sample_count'?)"),
    "misspelt-sigma": (
        lambda s: _symmetry(s, "scaling-generator")["ansatz"].update(sigmaa=3.0),
        "symmetry 'scaling-generator' ansatz has unknown key 'sigmaa' (did you mean 'sigma'?); "
        "allowed: ['alpha', 'beta', 'gamma', 'sigma']"),
    "against-on-a-symmetry-check": (
        lambda s: _check(s, "symmetry").update(against="contact"),
        "symmetry check has unknown key 'against'; "
        "allowed: ['expect_symmetry', 'symmetry', 'tol', 'type']"),
    "unrelated-key": (
        lambda s: s["system"].update(colour="blue"),
        "system has unknown key 'colour'; allowed: ['builtin', 'dimension', 'expression', "
        "'params']"),
    "object-check-type": (
        lambda s: _check(s, "drift").update(type={"a": 1}),
        "check 'type' must be 'drift', 'residual', 'ratio', 'symmetry', 'similarity' or "
        "'closure', got {'a': 1}"),
    "list-check-type": (
        lambda s: _check(s, "drift").update(type=["drift"]),
        "check 'type' must be 'drift', 'residual', 'ratio', 'symmetry', 'similarity' or "
        "'closure', got ['drift']"),
    "missing-check-type": (
        lambda s: _check(s, "drift").pop("type"),
        "check 'type' must be 'drift', 'residual', 'ratio', 'symmetry', 'similarity' or "
        "'closure', got None"),
    "builtin-and-expression-system": (
        lambda s: s["system"].update(expression="p0^2/2"),
        "system must give exactly one of builtin or expression+dimension, "
        "got ['builtin', 'expression']"),
    "builtin-and-dimension-system": (
        lambda s: s["system"].update(dimension=3),
        "system must give exactly one of builtin or expression+dimension, "
        "got ['builtin', 'dimension']"),
    "expression-without-dimension": (
        lambda s: s.update(system={"expression": "p0^2/2"}),
        "system must give exactly one of builtin or expression+dimension, got ['expression']"),
    "builtin-and-expression-invariant": (
        lambda s: s["invariants"][0].update(expression="q0"),
        "invariant 'Q_K' must give exactly one of builtin or expression, "
        "got ['builtin', 'expression']"),
    "ansatz-and-from_invariant-symmetry": (
        lambda s: _symmetry(s, "noether-of-QK").update(
            ansatz={"alpha": 2.0, "beta": -1.0, "gamma": 1.0, "sigma": 3.0}),
        "symmetry 'noether-of-QK' must give exactly one of ansatz or from_invariant or "
        "from_invariant+Yt or Yq+Yp+YS+Yt, got ['Yt', 'ansatz', 'from_invariant']"),
    "ansatz-with-Yt": (
        lambda s: _symmetry(s, "scaling-generator").update(Yt="t"),
        "symmetry 'scaling-generator' must give exactly one of"),
    "partial-explicit-symmetry": (
        lambda s: s["symmetries"].append({"label": "Z", "Yq": ["q0", "q1", "q2"]}),
        "symmetry 'Z' must give exactly one of ansatz or from_invariant or from_invariant+Yt "
        "or Yq+Yp+YS+Yt, got ['Yq']"),
    "unbounded-sample_count": (
        lambda s: s.update(sample_count=2**70),
        "'sample_count' must be an integer >= 1 and <= 100000, got 1180591620717411303424"),
    "sample_count-over-the-bound": (
        lambda s: s.update(sample_count=cli.MAX_SAMPLES + 1),
        "'sample_count' must be an integer >= 1 and <= 100000, got 100001"),
    "dimension-over-the-bound": (
        lambda s: s.update(system={"expression": "p0^2/2", "dimension": 2**70}),
        "system 'dimension' must be an integer >= 1 and <= 128, got 1180591620717411303424"),
    "missing-label": (
        lambda s: s["invariants"].append({"expression": "q0"}),
        "invariant None needs 'label'"),
    "missing-reference": (
        lambda s: _check(s, "closure").pop("second"),
        "closure check needs 'second'"),
    "null-integrator": (
        lambda s: s.update(integrator=None), "'integrator' must be a JSON object, got None"),
}


class TestRefusals:
    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_an_edit_of_a_passing_scenario_is_refused_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, name):
        edit, message = REFUSED[name]
        drawn = []
        monkeypatch.setattr(cli, "sample_points", lambda *args, **kw: drawn.append(args))
        spec = _scenario("kepler-scaling")
        edit(spec)
        path = tmp_path / "ks.json"
        path.write_text(json.dumps(spec))
        report, code = cli.run(path, tmp_path / "out")
        assert code == 2, report
        assert message in capsys.readouterr().err
        assert drawn == [] and not (tmp_path / "out").exists()

    def test_the_unedited_scenario_passes(self, tmp_path):
        assert _run(tmp_path, _scenario("kepler-scaling"))[1] == 0

    def test_each_object_allows_only_its_tables_keys(self, tmp_path, capsys):
        spec = _scenario("kepler-scaling")
        spec["initial"]["s"] = 0.0
        report, code = _run(tmp_path, spec)
        assert code == 2 and "initial has unknown key 's'; allowed: ['S', 'p', 'q', 't']" \
            in report["error"]

    def test_a_key_read_only_by_another_check_type_is_refused(self, tmp_path):
        # before, a drift check validated and dropped a similarity's expect_verdict
        spec = _scenario("kepler-scaling")
        _check(spec, "drift")["expect_verdict"] = "Similarity"
        report, code = _run(tmp_path, spec)
        assert code == 2 and "drift check has unknown key 'expect_verdict'" in report["error"]


class TestRecords:
    def test_loaded_records_are_frozen(self):
        sc = cli.load_scenario(SCENARIOS / "kepler-scaling.json")
        records = [sc, sc.checks[0], next(iter(sc.symmetries.values()))]
        for record, attr in zip(records, ("seed", "tol", "field")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, attr, None)
        assert isinstance(sc.checks, tuple)

    def test_defaults_come_from_the_table(self):
        sc = cli._load(Path("d.json"), json.dumps({
            "system": {"builtin": "kepler"},
            "symmetries": [{"label": "Y", "ansatz": {"alpha": 2.0}}],
            "checks": [{"type": "similarity", "symmetry": "Y"},
                       {"type": "symmetry", "symmetry": "Y"}]}).encode())
        similarity, symmetry = sc.checks
        assert (sc.name, sc.seed, sc.sample_count, sc.point_params) == ("d", 0, 100, {})
        assert similarity == cli.Check("similarity", ("Y",), noether.SYMBOLIC_THRESHOLD,
                                       against="extended", Lambda_tol=noether.SYMBOLIC_THRESHOLD)
        assert symmetry == cli.Check("symmetry", ("Y",), 1e-9, expect_symmetry=True)

    def test_overrides_replace_records_and_leave_the_loaded_ones(self, tmp_path, monkeypatch):
        loaded, real = [], cli._load
        monkeypatch.setattr(cli, "_load", lambda *args: loaded.append(real(*args)) or loaded[-1])
        path = tmp_path / "fp.json"
        path.write_text((SCENARIOS / "free-particle.json").read_text())
        report, code = cli.run(path, tmp_path / "out", seed=99, tol_override=0.5, quiet=True)
        assert code == 0 and report["seed"] == 99
        assert [c["tol"] for c in report["checks"]] == [0.5, 0.5]
        assert loaded[0].seed == 3 and [c.tol for c in loaded[0].checks] == [1e-12, 1e-12]


def _census():
    """Every scenario that is shipped or that the benchmark generates: the
    files of `scenarios/` and `certbench/bundled/`, and certbench's workloads."""
    workloads = certbench_workloads()
    docs = [(p.parent.name + "/" + p.stem, p.read_bytes())
            for d in (SCENARIOS, ROOT / "certbench" / "bundled") for p in sorted(d.glob("*.json"))]
    for seed in (1, 2, 7):
        cases = workloads.bundled(seed) + workloads.long_flow(seed)
        cases += [c for k in range(8) for c in workloads.symbolic_sweep_round(seed, k)]
        docs += [(f"seed{seed}/{c.name}", json.dumps(c.spec).encode()) for c in cases]
    return docs


def test_no_shipped_or_benchmark_scenario_is_refused():
    docs = _census()
    assert len(docs) == 8 + 3 * (4 + 3 + 8 * 3)
    for name, data in docs:
        sc = cli._load(Path(f"{name}.json"), data)
        assert len(sc.checks) == len(json.loads(data)["checks"]), name


def _readme_rows():
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| (`?\w+`?(?: check)?) \| ((?:`\w+`(?:, )?)+) \|", readme, re.M)
    return [(name.replace("`", ""), re.findall(r"`(\w+)`", keys)) for name, keys in rows]


def test_readme_names_exactly_the_tables_keys():
    table = {name: list(shape.keys) for name, shape in cli.SCHEMA.items()}
    table |= {f"{ctype} check": list(shape.keys) for ctype, shape in cli.CHECKS.items()}
    rows = _readme_rows()
    assert sorted(name for name, _ in rows) == sorted(table)
    for name, keys in rows:
        assert sorted(keys) == sorted(table[name]), name


# ---------------------------------------------------------------------------
# the fuzzer: one or two edits of a bundled scenario, run twice


def _small(spec):
    """`spec` with few samples and, for a flow, a short horizon."""
    spec["sample_count"] = 3
    if "t_end" in spec:
        spec["t_end"] = spec["initial"].get("t", 0.0) + 0.25
    return spec


BASES = {p.stem: _small(json.loads(p.read_text())) for p in sorted(SCENARIOS.glob("*.json"))}
KEYS = sorted({k for shape in (*cli.SCHEMA.values(), *cli.CHECKS.values()) for k in shape.keys}
              | {"expect_lambda", "tolerence", "colour", "Label", ""})
# small values only, so that no edit makes a run long: finite numbers at most 3 in size
VALUES = st.sampled_from([None, True, False, 0, 1, -1, 2, 3, 0.5, -0.25, 1e-3, math.nan,
                          math.inf, "", "x", "q0", "p0^2/2", "t", "drift", "symmetry",
                          "closure", "Q_K", "F0", "kepler", "harmonic-dissipative", "extended",
                          "Similarity", [], [1.0], [0.5, 0.5, 0.5], ["q0"], {}, {"alpha": 1.0},
                          {"label": "Z"}, {"type": "drift"}]).map(copy.deepcopy)


def _places(node, path=()):
    """The path of every value below `node`, and whether it is an object."""
    if path:
        yield path, isinstance(node, dict)
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _at(spec, path):
    for key in path:
        spec = spec[key]
    return spec


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    spec = json.loads(json.dumps(BASES[name]))
    for _ in range(draw(st.integers(1, 2))):
        places = list(_places(spec))
        path, is_object = draw(st.sampled_from(places))
        op = draw(st.sampled_from(["replace", "delete", "add"] if is_object
                                  else ["replace", "delete"]))
        parent, key = _at(spec, path[:-1]), path[-1]
        if op == "replace":
            parent[key] = draw(VALUES)
        elif op == "delete":
            del parent[key]
        else:
            _at(spec, path)[draw(st.sampled_from(KEYS))] = draw(VALUES)
    return name, json.dumps(spec).encode()


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
def test_fuzzed_scenarios_exit_cleanly_and_repeat(mutant):
    name, data = mutant
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / f"{name}.json"
        path.write_bytes(data)
        outcomes = []
        for k in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                report, code = cli.run(path, tmp / f"out{k}")
            assert code in (0, 1, 2, 3)
            assert not re.match(r"runtime error: (TypeError|KeyError|AttributeError|IndexError)",
                                err.getvalue()), err.getvalue()
            files = _files(tmp / f"out{k}") if (tmp / f"out{k}").exists() else []
            if code in (0, 1):
                assert files and all(f.parts[:-1] == (report["scenario"],) for f in files)
                written = (tmp / f"out{k}" / report["scenario"] / "report.json").read_bytes()
            else:
                assert files == []
                written = report["error"].encode()
            outcomes.append((code, files, written))
        assert outcomes[0] == outcomes[1]
