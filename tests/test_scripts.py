"""Every script under scripts/ answers -h and --help with its usage and starts
no work: no scenario, no flow and no pytest run.  `report_digests.py` prints a
failing run's error, `symbolic_counts.py` the counts of `expr.work` that a
workload adds, and `phase_times.py` the time of each phase of a round, and
`paired_rounds.py` names the largest relative difference of a float between
two reports, reads each moved check value as a share of its tol, and names
each scenario whose output files differ in bytes.
`symbolic_counts.py --by-file` splits each round's counts by file.
README's quick tour runs."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# runs the script named by argv[1] with argv[2], as `python script flag` would,
# after replacing each entry point of a run by one that exits 1 naming it
DRIVER = """
import os, runpy, subprocess, sys
sys.path[0:1] = [os.path.dirname(sys.argv[1]), sys.argv[3]]
from contact_noether import cli, systems

def refuse(name):
    def refused(*args, **kwargs):
        raise SystemExit(f"started {name}")
    return refused

for owner, name in ((cli, "run"), (cli, "main"), (systems, "co_integrate"), (subprocess, "Popen")):
    setattr(owner, name, refuse(name))
sys.argv = sys.argv[1:3]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_help_prints_usage_and_runs_nothing(script, flag):
    done = subprocess.run([sys.executable, "-c", DRIVER, str(ROOT / "scripts" / script), flag,
                           str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert "usage" in done.stdout.lower()


@pytest.mark.parametrize("workload, first, second", [
    ("bundled", (0, 0, 23, 0, 4), (0, 0, 23, 0, 4)),
    ("long-flow", (0, 0, 22, 0, 3), (0, 0, 22, 0, 3)),
    ("symbolic-sweep", (0, 0, 61, 0, 6), (0, 0, 61, 0, 9))],
    ids=["bundled", "long-flow", "symbolic-sweep"])
def test_symbolic_counts_prints_the_tally(workload, first, second):
    # at seed 7, the warm-up round derives and compiles the files' work, which each
    # run keeps from its first run on, under its file's key, with the loaded
    # scenario, its built checks and its system's X_h, so round 1 already derives,
    # emits and loads nothing; it makes only the nodes of X_h^t's d/dt, of each
    # compensation chain and of a co-integrated binding's X_h, built again from live
    # nodes.  The sweep's files are new in every round, but their trees are not, as
    # every number of theirs is a bound parameter: the last 16 runs are kept, and
    # with them the derivatives and programs of every system, and the checks built
    # under the files' skeleton, which recurs, so each round derives, emits and
    # builds nothing; the loader keeps its systems and fields by the nodes and
    # names they read, so the round makes only the nodes of its files' strings
    # and lifted rates; the kept runs grow by its three.  A fresh interpreter:
    # nodes that earlier tests keep alive keep their derivatives, and would lower
    # the counts
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "symbolic_counts.py"),
                           "--workload", workload, "--rounds", "2", "--seed", "7"],
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    rounds = [tuple(int(kv.split()[1]) for kv in line.split(": ")[1].split(", "))
              for line in done.stdout.splitlines()[:2]]
    assert rounds == [first, second]


def test_symbolic_counts_by_file_splits_each_rounds_tally():
    # each round's line, then one line per file of the round, whose counts sum to
    # the round's; the warm td-kepler file, on its kept system, derives no rule
    # at seed 7 (its gauge's numbers are parameters), and no warm file builds a
    # system or field, so each makes at most 50 nodes (17-23 at seed 7)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "symbolic_counts.py"),
                           "--workload", "symbolic-sweep", "--rounds", "2", "--seed", "7",
                           "--by-file"], capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert [line.split(": ")[0] for line in lines[:8]] == [
        "round 1", *(f"  sweep-{k:05d}" for k in (3, 4, 5)),
        "round 2", *(f"  sweep-{k:05d}" for k in (6, 7, 8))]
    counts = [[int(kv.split()[1]) for kv in line.split(": ")[1].split(", ")[:4]]
              for line in lines[:8]]
    for r in (0, 4):
        assert counts[r] == [sum(column) for column in zip(*counts[r + 1:r + 4])]
    assert counts[6][1] <= 40
    assert all(counts[r][2] <= 50 for r in (1, 2, 3, 5, 6, 7))


def test_report_digests_prints_the_error_of_a_failing_run(tmp_path):
    # a passing run's exit line and digests, and a failing run's exit line with its error
    failing = tmp_path / "sqrt.json"
    failing.write_text(json.dumps({
        "system": {"expression": "p0^2/2 + q0^2/2", "dimension": 1},
        "invariants": [{"label": "F", "expression": "sqrt(q0 - 100)"}],
        "checks": [{"type": "residual", "invariant": "F"}]}))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digests.py"),
                           str(ROOT / "scenarios" / "free-particle.json"), str(failing)],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0] == "exit 0  free-particle"
    assert [line.split("  ")[1] for line in lines[1:4]] == [
        f"free-particle/{name}" for name in ("report.json", "report.txt", "trajectory.csv")]
    assert len(lines) == 5 and lines[4].startswith("exit 3  sqrt  check[0] residual F: sample 0 (")
    assert lines[4].endswith("): sqrt of negative value in `sqrt(q0 - 100.0)`")


def test_phase_times_prints_every_phase_within_the_round():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "phase_times.py"),
                           "--workload", "bundled", "--rounds", "1", "--seed", "7"],
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    ms = {line[:26].strip(): float(line[26:]) for line in done.stdout.splitlines()[1:]}
    phases = ["cli._load", "cli._fields", "cli._build", "expr._codegen", "cli._run_flow",
              "noether.sample_points", "cli._write_report", "Trajectory.to_csv",
              "cli.run_checks rest"]
    assert list(ms) == [*phases, "round", "rest of round"]
    assert all(ms[p] >= 0.0 for p in phases) and ms["cli._run_flow"] > 0.0
    assert sum(ms[p] for p in phases) <= ms["round"]


PAIRED = """
import math, sys
sys.path.insert(0, sys.argv[1])
from paired_rounds import float_differences, moved_shares
a = {"passed": True, "seed": 3, "checks": [
    {"value": 1.5e-15, "tol": 3e-15, "verdict": "x",
     "lambda_table": [0.5, 2.0, math.nan, 0.0, 1.0]},
    {"value": math.nan, "tol": 1e-9}, {"value": 0.25, "tol": 0.5}, {"value": 0.0, "tol": 0.0}]}
b = {"passed": False, "seed": 4, "checks": [
    {"value": 3.0e-15, "tol": 3e-15, "verdict": "y",
     "lambda_table": [0.5, 2.0 + 2**-51, math.nan, -0.0, math.inf]},
    {"value": math.nan, "tol": 1e-9}, {"value": 0.75, "tol": 0.5}, {"value": 1e-300, "tol": 0.0}]}
for rel, where in float_differences(a, b):
    print(repr(rel), where)
for shares, where in moved_shares(a, b):
    print(*map(repr, shares), where)
"""


def test_paired_rounds_finds_each_float_that_moved():
    # only floats count; two NaNs and the two zeros do not differ, an infinity is inf;
    # a check whose value moved is also read as a share of its tol on each side, inf
    # for a tol of 0, which a relative difference of about 0.5 to 1 does not tell
    done = subprocess.run([sys.executable, "-c", PAIRED, str(ROOT / "scripts")],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "2.2204460492503126e-16 checks[0].lambda_table[1]", "inf checks[0].lambda_table[4]",
        "0.5 checks[0].value", "0.6666666666666666 checks[2].value", "1.0 checks[3].value",
        "0.5 1.0 checks[0]", "0.5 1.5 checks[2]", "inf inf checks[3]"]


def test_paired_rounds_names_each_scenario_whose_output_bytes_differ(tmp_path):
    # a change whose report.txt gains a last newline keeps every report dict, and so
    # every outcome: only the byte comparison sees it, and the exit code stays 0;
    # two identical trees write identical bytes
    change = tmp_path / "src"
    shutil.copytree(ROOT / "src", change, ignore=shutil.ignore_patterns("__pycache__"))
    with open(change / "contact_noether" / "cli.py", "a") as fh:
        fh.write("\n_unchanged_write = _write_report\n\n\n"
                 "def _write_report(report, out_dir):\n"
                 "    _unchanged_write(report, out_dir)\n"
                 "    with open(out_dir / 'report.txt', 'a') as fh:\n"
                 "        fh.write('\\n')\n")
    stderr = {}
    for side in (ROOT / "src", change):
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / "paired_rounds.py"),
                               str(ROOT / "src"), str(side), "--workload", "bundled",
                               "--rounds", "1", "--seed", "7"],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        stderr[side] = done.stderr.splitlines()
    assert stderr[ROOT / "src"] == ["0 scenario(s) with reports that differ",
                                    "0 scenario(s) with output bytes that differ"]
    assert stderr[change] == ["0 scenario(s) with reports that differ",
                              "4 scenario(s) with output bytes that differ",
                              *(f"output bytes differ: {name}" for name in (
                                  "dissipative-oscillator", "free-particle", "kepler-scaling",
                                  "td-kepler"))]


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Library quick tour\n+```python\n(.*?)^```", readme, re.M | re.S)
    done = subprocess.run([sys.executable, "-c", tour.group(1)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[0] == "GeneralizedNoether"
