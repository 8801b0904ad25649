"""Certification benchmark for contact-noether.

Usage (from the repository root):

    python3 certbench/run.py --workload bundled --seed 1 --seconds 25 --trace 0

One process per run, one client, closed loop: this interpreter imports the
package from ``src/`` and feeds the workload's generated scenario files to
``cli.run`` back to back, in rounds, as ``contact-noether check a.json ...``
would.  Each run starts with an untimed warm-up round, which also yields the
report digests and the ``eval_env`` / ``eval_node`` cross-check.  Timed rounds
follow until ``--seconds`` have passed and at least ``min_rounds`` rounds ran.

End-to-end times are scaled to a reference machine speed measured between
rounds (see ``reference.py``); the detail line also gives them unscaled.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints per-layer
metrics from a separate run whose rounds alternate between untraced and traced
(see ``tracing.py``).  Per-layer times are self times summed over one round
(median over the traced rounds); counts are those of the first traced round.

The last line of standard output is the JSON result; the lines before it
record the environment and the details (tail percentile and sample count,
digests, per-scenario integrator counts).  Outputs go to
``certbench/results/`` and scratch files to ``certbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median
OVERRUN = 1.3  # the timed pass stops at this multiple of --seconds, even short of min_rounds


# minimum timed rounds per workload; the tail percentile leaves ten samples beyond it there
MIN_ROUNDS = {"bundled": 15, "symbolic-sweep": 40, "long-flow": 15}


class Workload:
    """A round source: `cases(k)` gives the scenarios of round k."""

    def __init__(self, name: str, seed: int) -> None:
        self.seed, self.min_rounds = seed, MIN_ROUNDS[name]
        self.fixed = {"bundled": workloads.bundled,
                      "long-flow": workloads.long_flow}.get(name, lambda _: None)(seed)

    def cases(self, k: int) -> list[workloads.Case]:
        """The same cases every round, or new ones (symbolic-sweep)."""
        if self.fixed is not None:
            return self.fixed
        return workloads.symbolic_sweep_round(self.seed, k)

    @property
    def tail_pct(self) -> float:
        return 1.0 - 10.0 / (self.min_rounds * len(self.cases(0)))


# ---------------------------------------------------------------------------
# set-up time and import breakdown


def _import_cmd(importtime: bool) -> list[str]:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import contact_noether"
    return [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]


def measure_setup(importtime: bool) -> tuple[list, list[float]]:
    """Fresh interpreters up to `import contact_noether` done.  Returns the
    wall seconds (or with `importtime` the per-package import seconds) and,
    per interpreter, the reference kernel time around it."""
    out, refs = [], []
    ref_before = reference.seconds()
    for i in range(SETUP_RUNS + 1):
        t0 = perf_counter()
        proc = subprocess.run(_import_cmd(importtime), capture_output=True, text=True,
                              timeout=60)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"import contact_noether failed: {proc.stderr.strip()}")
        ref_after = reference.seconds()
        if i > 0:  # the first interpreter may write bytecode caches
            out.append(_import_breakdown(proc.stderr) if importtime else elapsed)
            refs.append((ref_before + ref_after) / 2.0)
        ref_before = ref_after
    return out, refs


def _import_breakdown(stderr: str) -> dict[str, float]:
    """Self time of numpy.*, scipy.* modules and the cumulative time of
    contact_noether, from `-X importtime` lines (microseconds)."""
    sums = {"numpy": 0.0, "scipy": 0.0, "contact_noether": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = float(fields[0]), float(fields[1])
        except ValueError:
            continue
        module = fields[2].strip()
        top = module.split(".")[0]
        if module == "contact_noether":
            sums["contact_noether"] = cum_us * 1e-6
        elif top in ("numpy", "scipy"):
            sums[top] += self_us * 1e-6
    return sums


# ---------------------------------------------------------------------------
# correctness


def check_report(case: workloads.Case, report: dict, code: int) -> list[str]:
    """Reasons the scenario failed; empty when every outcome is as expected."""
    if code != 0:
        return [f"exit code {code}: {report.get('error', '')}"]
    problems = []
    traj = report.get("trajectory")
    if traj is not None and traj.get("error_tag") is not None:
        problems.append(f"error_tag {traj['error_tag']}")
    checks = report.get("checks", [])
    if len(checks) != len(case.verdicts):
        return problems + [f"{len(checks)} checks reported, {len(case.verdicts)} expected"]
    for i, (check, verdict) in enumerate(zip(checks, case.verdicts)):
        if check.get("verdict") != verdict:
            problems.append(f"check {i}: verdict {check.get('verdict')}, expected {verdict}")
        if check["passed"] is not True:
            problems.append(f"check {i} ({check['type']}) did not pass: {check.get('value')}")
    return problems


def cross_check_eval(cn, paths: list[Path], seed: int) -> tuple[int, int]:
    """Compare ScalarField.eval_env with the reference interpreter eval_node on
    each scenario's h and invariants at seeded points; (compared, differing).
    Values must agree bit for bit, and so must a raised DomainError."""
    rng = random.Random(f"cross-check:{seed}")
    compared = differing = 0
    for path in paths:
        sc = cn.cli.load_scenario(path)
        system = sc.system
        fields = [system.h] + [inv.field for inv in sc.invariants.values()]
        for _ in range(4):
            point = _admissible_point(cn, rng, system, sc.integrator.guard_margin)
            env = system.env(point, sc.point_params)
            for fld in fields:
                for name in sorted(fld.free_params - set(env)):
                    env[name] = rng.uniform(0.5, 1.5)  # auxiliary functions a, b, ...
            for fld in fields:
                compared += 1
                compiled = _outcome(cn, fld.eval_env, env)
                reference = _outcome(cn, lambda e, f=fld: cn.expr.eval_node(f.ast, e), env)
                differing += compiled != reference
    return compared, differing


def _admissible_point(cn, rng: random.Random, system, margin: float):
    box = system.sample_box or cn.geometry.SampleBox()
    for _ in range(1000):
        point = cn.geometry.ExtendedPoint(
            [rng.uniform(*box.q) for _ in range(system.n)],
            [rng.uniform(*box.p) for _ in range(system.n)],
            rng.uniform(*box.S), rng.uniform(*box.t))
        if system.admissible(point, margin):
            return point
    raise RuntimeError(f"no admissible point in the sample box of {system.label}")


def _outcome(cn, fn, env) -> str:
    try:
        return float(fn(env)).hex()
    except cn.expr.DomainError as e:
        return f"DomainError:{e}"


# ---------------------------------------------------------------------------
# rounds


class Runner:
    def __init__(self, cli, work: Path, workload: Workload) -> None:
        self.cli, self.work, self.workload = cli, work, workload
        self.out_root = work / "out"
        self.attempted = self.failed = self.reported = 0
        self.problems: list[str] = []
        self._written: dict[int, list[Path]] = {}

    def paths(self, k: int) -> list[Path]:
        cases = self.workload.cases(k)
        key = 0 if self.workload.fixed is not None else k
        if key not in self._written:
            self._written = {key: [c.write(self.work) for c in cases]}
        return self._written[key]

    def round(self, k: int, tracer=None) -> tuple[float, list[float]]:
        """Run round k; returns (wall seconds, per-scenario seconds)."""
        cases, paths = self.workload.cases(k), self.paths(k)
        times, results = [], []
        t0 = perf_counter()
        for case, path in zip(cases, paths):
            if tracer is not None:
                tracer.scenario = case.name
            s0 = perf_counter()
            report, code = self.cli.run(path, self.out_root, quiet=True)
            times.append(perf_counter() - s0)
            results.append((case, report, code))
        wall = perf_counter() - t0
        for case, report, code in results:
            self.attempted += 1
            self.reported += "checks" in report
            problems = check_report(case, report, code)
            if problems:
                self.failed += 1
                self.problems.extend(f"{case.name}: {p}" for p in problems[:3])
        return wall, times

    def digests(self, k: int) -> dict[str, str]:
        report_sha, csv_sha = hashlib.sha256(), hashlib.sha256()
        for case in self.workload.cases(k):
            for sha, fname in ((report_sha, "report.json"), (csv_sha, "trajectory.csv")):
                f = self.out_root / case.name / fname
                if f.is_file():
                    sha.update(case.name.encode() + b"\0" + f.read_bytes())
        return {"report_sha256": report_sha.hexdigest(), "csv_sha256": csv_sha.hexdigest()}


def tail(values: list[float], pct: float) -> tuple[float, float]:
    """Nearest-rank `pct` percentile, lowered (never below the median) until
    ten samples lie beyond it; returns (percentile, value)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(min(math.ceil(pct * n - 1e-9), n - 10), math.ceil(n / 2))
    return rank / n, ordered[rank - 1]


# ---------------------------------------------------------------------------
# environment record


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    src_sha = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src_sha.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "git_sha": _git_sha(), "src_sha256": src_sha.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def _git_sha() -> str | None:
    """HEAD of the enclosing git checkout, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# the two kinds of run


def measure_end_to_end(runner: Runner, seconds: float,
                       setup: list[float], setup_refs: list[float]) -> tuple[dict, dict]:
    """Timed rounds.  Every time is scaled by REF_SECONDS over the reference
    kernel time measured around it (before and after its round)."""
    wl = runner.workload
    n_slots = len(wl.cases(0))
    walls, times, raw_walls, raw_times, refs = [], [], [], [], []
    start, k = perf_counter(), 1
    ref_before = reference.seconds()
    while k <= wl.min_rounds or perf_counter() - start < seconds:
        if perf_counter() - start > OVERRUN * seconds:
            break
        wall, t = runner.round(k)
        ref_after = reference.seconds()
        scale = reference.REF_SECONDS / ((ref_before + ref_after) / 2.0)
        ref_before = ref_after
        raw_walls.append(wall)
        raw_times.extend(t)
        refs.append(ref_after)
        walls.append(wall * scale)
        times.extend(x * scale for x in t)
        k += 1

    def timings(walls: list[float], times: list[float]) -> tuple[float, float, float, float]:
        pct, tail_value = tail(times, wl.tail_pct)
        # median over the round's slots of each slot's median: the pooled median
        # would sit on the boundary between two kinds of scenario when their number is even
        p50 = statistics.median(statistics.median(times[j::n_slots]) for j in range(n_slots))
        return runner.reported / sum(walls), p50, tail_value, pct

    per_s, p50, tail_value, pct = timings(walls, times)
    raw_per_s, raw_p50, raw_tail, _ = timings(raw_walls, raw_times)
    setup_s = statistics.median(x * reference.REF_SECONDS / r for x, r in zip(setup, setup_refs))
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (per_s, "1/s"),
        "verdict_s.p50": (p50, "s"),
        "verdict_s.tail": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"rounds": len(walls), "samples": len(times), "tail_percentile": round(100 * pct, 2),
              "samples_beyond_tail": round(len(times) * (1.0 - pct)),
              "reference_s": statistics.median(refs + setup_refs),
              "unscaled": {"setup_s": statistics.median(setup), "verdicts_per_s": raw_per_s,
                           "verdict_s.p50": raw_p50, "verdict_s.tail": raw_tail}}
    return metrics, detail


LAYER_SELF = {
    "expr.parse.s": ["expr.parse"], "expr.partial.s": ["expr.partial"],
    "expr.compile.s": ["expr.compile"], "expr.eval.s": ["expr.eval"],
    "geometry.lie_bracket.s": ["geometry.lie_bracket"],
    "geometry.lie_derivative.build_s": ["geometry.lie_derivative.build"],
    "geometry.lie_derivative.eval_s": ["geometry.lie_derivative.eval"],
    "dynamics.rhs.s": ["dynamics.rhs"], "dynamics.integrate.s": ["dynamics.integrate",
                                                                 "dynamics.rk45"],
    "dynamics.to_csv.s": ["dynamics.to_csv"],
    "systems.co_integrate.s": ["systems.co_integrate"],
    "systems.make_builtin.s": ["systems.make_builtin"],
    "noether.sample_points.s": ["noether.sample_points"],
    "noether.residual.s": ["noether.residual"],
    "noether.symmetry_test.s": ["noether.symmetry_test"],
    "noether.similarity_test.s": ["noether.similarity_test"],
    "noether.closure_check.s": ["noether.closure_check"],
    "noether.compensation.s": ["noether.compensation"],
    "cli.load_scenario.s": ["cli.load_scenario"], "cli.run_checks.s": ["cli.run_checks"],
    "cli.write_report.s": ["cli.write_report"],
}
LAYER_CALLS = {
    "expr.parse.calls": "expr.parse", "expr.partial.calls": "expr.partial",
    "expr.compile.calls": "expr.compile", "expr.eval.calls": "expr.eval",
    "geometry.lie_derivative.calls": "geometry.lie_derivative.eval",
    "dynamics.rhs.calls": "dynamics.rhs", "noether.residual.calls": "noether.residual",
}
LAYER_COUNTERS = ("expr.tree_nodes", "expr.distinct_nodes", "dynamics.steps.accepted",
                  "dynamics.steps.rejected")


def measure_layers(runner: Runner, seconds: float, cn, setup: list[dict]):
    """Alternate untraced and traced rounds; per-layer numbers per round."""
    tracer = tracing.Tracer()
    hooks = tracing.Installation(tracer, cn)
    plain_walls, traced_walls, rounds = [], [], []
    start, k = perf_counter(), 1
    while len(rounds) < 2 or perf_counter() - start < seconds:
        if perf_counter() - start > OVERRUN * seconds:
            break
        wall, _ = runner.round(k)
        plain_walls.append(wall)
        tracer.reset()
        hooks.install()
        try:
            wall, _ = runner.round(k + 1, tracer)
        finally:
            hooks.uninstall()
        traced_walls.append(wall)
        rounds.append({"self": dict(tracer.self_s), "total": dict(tracer.total_s),
                       "calls": tracer.calls, "counts": tracer.counters,
                       "by_scenario": {s: dict(c) for s, c in tracer.per_scenario.items()}})
        k += 2

    med = statistics.median
    first_calls, first_counts = rounds[0]["calls"], rounds[0]["counts"]
    m: dict[str, tuple[float, str]] = {}
    for metric, names in LAYER_SELF.items():
        m[metric] = (med([sum(r["self"].get(n, 0.0) for n in names) for r in rounds]), "s")
    for metric, name in LAYER_CALLS.items():
        m[metric] = (first_calls[name], "count")
    for name in LAYER_COUNTERS:
        m[name] = (first_counts[name], "count")
    accepted = first_counts["dynamics.steps.accepted"]
    m["dynamics.rhs_per_step"] = (first_calls["dynamics.rhs"] / accepted if accepted else 0.0,
                                  "1")
    m["dynamics.step_us"] = (med([r["total"].get("dynamics.rk45", 0.0) for r in rounds])
                             / accepted * 1e6 if accepted else 0.0, "us")
    for key in ("numpy", "scipy", "contact_noether"):
        m[f"setup.import.{key}_s"] = (med([s[key] for s in setup]), "s")
    m["trace.overhead_s"] = (med(traced_walls) - med(plain_walls), "s")

    repeat = all(r["calls"] == first_calls and r["counts"] == first_counts for r in rounds)
    detail = {"rounds_traced": len(rounds), "untraced_round_s": med(plain_walls),
              "traced_round_s": med(traced_walls), "spans": len(tracer.spans),
              "counts_repeat_every_round": repeat if runner.workload.fixed else None,
              "integrator_counts": {s: c for s, c in rounds[0]["by_scenario"].items()
                                    if "dynamics.steps.accepted" in c}}
    return m, detail, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(MIN_ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "contact_noether" / "__init__.py").is_file():
        print(f"certbench: no package source at {SRC / 'contact_noether'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = HERE / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        return _run(args, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, results: Path) -> int:
    setup, setup_refs = measure_setup(importtime=bool(args.trace))
    origin = perf_counter()
    sys.path.insert(0, str(SRC))
    import contact_noether as cn
    from contact_noether import cli

    wl = Workload(args.workload, args.seed)
    runner = Runner(cli, work, wl)
    runner.round(0)  # warm-up: caches, digests, cross-check; not timed
    digests = runner.digests(0)
    compared, differing = cross_check_eval(cn, runner.paths(0), args.seed)

    if args.trace:
        metrics, detail, tracer = measure_layers(runner, args.seconds, cn, setup)
        trace_file = results / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_file, origin)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics, detail = measure_end_to_end(runner, args.seconds, setup, setup_refs)

    fail_ratio = runner.failed / runner.attempted
    detail.update(digests)
    detail.update({"workload": args.workload, "attempted": runner.attempted,
                   "failed": runner.failed, "fail_ratio": fail_ratio,
                   "eval_cross_check": {"compared": compared, "differing": differing},
                   "problems": runner.problems[:20]})
    env = environment(args.seed)
    correct = runner.failed == 0 and differing == 0
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, v, u in
                          ((k, v, u) for k, (v, u) in metrics.items())}}
    record = {"env": env, "detail": detail, "result": result, "trace": args.trace}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    if not args.trace:
        print(f"fail_ratio {fail_ratio!r} 1")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
