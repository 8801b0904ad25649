#!/usr/bin/env python3
"""Time the phases of a warm round of one certbench workload, in one process.

Usage: python3 scripts/phase_times.py --workload W --rounds K [--seed S]

Runs the scenario files of workload W (generated by `certbench/workloads.py`,
which is only read, as in `paired_rounds.py`) through `cli.run` of the
`contact_noether` package under `src/` next to this script.  Rounds 0 and 1
warm the process up (a file's work is kept from its first run on, see
`symbolic_counts.py`); rounds 2..K+1 are timed.  Each phase below is a
function wrapped with `perf_counter`, and is timed by its self time: a phase
called inside another (a bundle compiled inside the flow, say) counts for
itself only, so the phases add up to at most the round.

- `cli._load`: parsing a scenario file into its records, less `cli._fields`;
- `cli._fields`: checking each object of the file against its schema;
- `cli._build`: building one pointwise check;
- `expr._codegen`: writing and compiling a bundle of fields;
- `cli._run_flow`: integrating the flow;
- `noether.sample_points`: drawing and screening the samples;
- `cli._write_report`: writing report.json and report.txt;
- `Trajectory.to_csv`: writing trajectory.csv;
- `cli.run_checks rest`: the rest of `cli.run_checks`, which covers the
  fused bundle's rows, the judges and the report entries.

Prints the mean milliseconds per timed round of each phase, of the whole
round, and of the rest of the round outside every phase.
"""

import argparse
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contact_noether import cli, dynamics, expr, noether  # noqa: E402
from paired_rounds import FIXED, cases  # noqa: E402

# (owner, attribute, phase): cli reads sample_points by its own name
PHASES = ((cli, "_load", "cli._load"), (cli, "_fields", "cli._fields"),
          (cli, "_build", "cli._build"), (expr, "_codegen", "expr._codegen"),
          (cli, "_run_flow", "cli._run_flow"),
          (noether, "sample_points", "noether.sample_points"),
          (cli, "sample_points", "noether.sample_points"),
          (cli, "_write_report", "cli._write_report"),
          (dynamics.Trajectory, "to_csv", "Trajectory.to_csv"),
          (cli, "run_checks", "cli.run_checks rest"))


class SelfTimer:
    """Self time per phase: entering a phase pauses the one it was called from."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(phase for *_, phase in PHASES)
        self.stack: list[list] = []  # [phase, time its current stretch began]

    def wrap(self, fn, phase: str):
        def timed(*args, **kwargs):
            now = perf_counter()
            if self.stack:
                outer = self.stack[-1]
                self.seconds[outer[0]] += now - outer[1]
            self.stack.append([phase, now])
            try:
                return fn(*args, **kwargs)
            finally:
                _, start = self.stack.pop()
                now = perf_counter()
                self.seconds[phase] += now - start
                if self.stack:
                    self.stack[-1][1] = now
        return timed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*FIXED, "symbolic-sweep"])
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    timer = SelfTimer()
    for owner, name, phase in PHASES:
        setattr(owner, name, timer.wrap(getattr(owner, name), phase))
    rows: list[dict[str, float]] = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for k in range(args.rounds + 2):  # rounds 0 and 1 are the warm-up
            paths = [case.write(work) for case in cases(args.workload, args.seed, k)]
            timer.seconds = dict.fromkeys(timer.seconds, 0.0)
            t0 = perf_counter()
            for path in paths:
                cli.run(path, work / "out", quiet=True)
            if k > 1:
                rows.append({**timer.seconds, "round": perf_counter() - t0})
    phases = [*timer.seconds, "round"]
    mean = {p: 1e3 * statistics.fmean(r[p] for r in rows) for p in phases}
    mean["rest of round"] = mean["round"] - sum(mean[p] for p in timer.seconds)
    print(f"{args.workload} seed {args.seed}, ms per warm round, "
          f"mean over rounds 2-{args.rounds + 1}:")
    for p, ms in mean.items():
        print(f"  {p:<24} {ms:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
