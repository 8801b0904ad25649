#!/usr/bin/env python3
"""Compare two checkouts' round times on one certbench workload, in one process.

Usage: python3 scripts/paired_rounds.py PARENT_SRC CHANGE_SRC --workload W --rounds N [--seed S]

PARENT_SRC and CHANGE_SRC are `src` directories that each hold a
`contact_noether` package.  Both are imported into this process, as
`cn_parent` and `cn_change`, and run the same scenario files of the certbench
workload W (generated by `certbench/workloads.py`, which is only read)
through `cli.run`.  After an untimed warm-up round on each tree, round k runs
the workload's round-k scenarios on one tree and then on the other, and the
tree that goes first alternates from round to round.  The two halves of a
pair run within the same second or so, which cancels most of the drift of a
shared host, where a lone run's time moves by up to a factor of two within a
minute.

Prints each round's two times and their ratio (change / parent), then the
median ratio with its quartiles; a ratio below 1 means the change is faster.
The number of scenarios whose reports differ between the trees goes to
stderr, with the largest relative difference of any reported float among
them and where it is, and the largest moved check `value` as a share of its
`tol` on each side, which says how near a moved value came to failing where a
relative difference of rounding-level residuals says nothing: a change that
moves values by design (step counts, drift values, last bits) differs there
and still exits 0.  A scenario whose outcome differs (the exit
code, the report's `passed`, or a check's `verdict` or `passed`) is named on
stderr, and the exit code is then 1.  After each round the two trees' output
files (report.json, report.txt and trajectory.csv) of each scenario are
compared byte for byte, a missing file differing from a present one; the
number of scenarios whose output bytes ever differed goes to stderr, and each
is named there.  This catches a writer change that keeps every report dict but
moves a byte; it does not change the exit code.
"""

import argparse
import importlib.util
import math
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "certbench"))

import workloads  # noqa: E402

FIXED = {"bundled": workloads.bundled, "long-flow": workloads.long_flow}


def load(src: str, name: str):
    """The `contact_noether` package under `src`, imported as `name`."""
    pkg = Path(src).resolve() / "contact_noether"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(workload: str, seed: int, k: int) -> list:
    if workload in FIXED:
        return FIXED[workload](seed)
    return workloads.symbolic_sweep_round(seed, k)


def run_round(cn, paths: list[Path], out: Path) -> tuple[float, list[tuple[dict, int]]]:
    """Seconds to run every scenario of `paths` through `cn.cli.run`, and the
    (report, exit code) pairs."""
    t0 = perf_counter()
    runs = [cn.cli.run(path, out, quiet=True) for path in paths]
    return perf_counter() - t0, runs


def outcome(run: tuple[dict, int]) -> tuple:
    """What a run decided: its exit code, `passed`, and each check's verdict and `passed`."""
    report, code = run
    return code, report.get("passed"), [(c.get("verdict"), c.get("passed"))
                                        for c in report.get("checks", [])]


OUTPUTS = ("report.json", "report.txt", "trajectory.csv")


def _bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def outputs_differ(a: Path, b: Path) -> bool:
    """Whether two output directories of one scenario differ in the bytes of any file
    of OUTPUTS, or in which of them exist."""
    return any(_bytes(a / name) != _bytes(b / name) for name in OUTPUTS)


def float_differences(a, b, where: str = ""):
    """(|a - b| / max(|a|, |b|), where) for each float that differs between two reports
    of one shape, inf where one is not finite; two NaNs do not differ."""
    if isinstance(a, float) and isinstance(b, float):
        if a != b and not (a != a and b != b):
            finite = math.isfinite(a) and math.isfinite(b)
            yield (abs(a - b) / max(abs(a), abs(b)) if finite else math.inf), where
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() & b.keys()):
            yield from float_differences(a[key], b[key], f"{where}.{key}".lstrip("."))
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from float_differences(x, y, f"{where}[{i}]")


def moved_shares(a: dict, b: dict):
    """((value / tol in a, in b), where) for each check whose `value` moved between two
    reports of one shape, as `float_differences` finds it; inf for a tol of 0."""
    for i, (x, y) in enumerate(zip(a.get("checks", []), b.get("checks", []))):
        if any(float_differences(x["value"], y["value"])):
            yield tuple(c["value"] / c["tol"] if c["tol"] else math.inf for c in (x, y)), \
                f"checks[{i}]"


def _rank(moved: tuple) -> float:
    """The larger share of a `moved_shares` item, NaN ranking above every number."""
    return max(math.inf if v != v else v for v in moved[0])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--workload", required=True, choices=[*FIXED, "symbolic-sweep"])
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    trees = {"parent": load(args.parent_src, "cn_parent"),
             "change": load(args.change_src, "cn_change")}
    differing, moved, largest, nearest = set(), set(), (0.0, ""), ((0.0, 0.0), "")
    byte_differing = set()
    ratios: list[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for k in range(args.rounds + 1):  # round 0 is the warm-up
            round_cases = cases(args.workload, args.seed, k)
            paths = [case.write(work) for case in round_cases]
            order = ["parent", "change"] if k % 2 else ["change", "parent"]
            seconds, reports = {}, {}
            for side in order:
                seconds[side], reports[side] = run_round(trees[side], paths, work / side)
            for case, a, b in zip(round_cases, reports["parent"], reports["change"]):
                if a[0] != b[0]:
                    moved.add(case.name)
                    largest = max([largest, *((rel, f"{case.name} {where}")
                                              for rel, where in float_differences(a[0], b[0]))])
                    nearest = max([nearest, *((shares, f"{case.name} {where}")
                                              for shares, where in moved_shares(a[0], b[0]))],
                                  key=_rank)
                if outcome(a) != outcome(b):
                    differing.add(case.name)
                if outputs_differ(work / "parent" / case.name, work / "change" / case.name):
                    byte_differing.add(case.name)
            if k:
                ratios.append(seconds["change"] / seconds["parent"])
                print(f"round {k} ({order[0]} first): parent {seconds['parent']:.4f} s, "
                      f"change {seconds['change']:.4f} s, ratio {ratios[-1]:.3f}")
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(r < 1.0 for r in ratios)
    print(f"{args.workload}: median change/parent round-time ratio {med:.3f} "
          f"(q1 {q1:.3f}, q3 {q3:.3f}); change faster in {wins}/{len(ratios)} rounds")
    print(f"{len(moved)} scenario(s) with reports that differ", file=sys.stderr)
    if largest[1]:
        print(f"largest relative difference of a reported float: {largest[0]:.3g} "
              f"({largest[1]})", file=sys.stderr)
    if nearest[1]:
        print(f"largest moved check value as a share of its tol: parent {nearest[0][0]:.3g}, "
              f"change {nearest[0][1]:.3g} ({nearest[1]})", file=sys.stderr)
    print(f"{len(byte_differing)} scenario(s) with output bytes that differ", file=sys.stderr)
    for name in sorted(byte_differing):
        print(f"output bytes differ: {name}", file=sys.stderr)
    for name in sorted(differing):
        print(f"outcome differs: {name}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
