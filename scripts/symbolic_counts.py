#!/usr/bin/env python3
"""Count the symbolic work of each round of one certbench workload.

Usage: python3 scripts/symbolic_counts.py --workload W --rounds K [--seed S] [--by-file]

Runs the scenario files of workload W (generated by `certbench/workloads.py`,
which is only read, as in `paired_rounds.py`) through `cli.run` of the
`contact_noether` package under `src/` next to this script.  Round 0 warms
the process up; rounds 1..K are counted.  For each counted round it prints
what the round added to the package's tally `expr.work`:

- `bundles`: programs of bundles emitted (`expr._codegen`); a bundle whose
  program is live, whatever its bound values, emits none;
- `derive`: derivative rules applied to one node (`expr._derive`);
- `nodes`: node constructions, whether a node is made or found live;
- `emitted`: statements written into the generated bundles;

and `kept`, the runs whose work `expr.derivatives_kept` holds after the
round, each under its file's key.  With `--by-file`, the round's line is
followed by one line per file, indented, with the first four counts that the
file's run added.

A run's work is kept from its file's first run on, while it is among the
last 16 runs.  So a workload whose files recur (bundled, long-flow) counts 0
bundles, derive and emitted from round 1, and loads no file again; its nodes
are those of the compensation chains and bindings that each run builds
again from live nodes;
symbolic-sweep, whose files are new every round but whose trees are not (every
number of a file is a bound parameter), finds each system's derivatives and
programs in the kept runs of earlier files, and derives only what a new shape
adds; the loader finds its builtin systems, ansatz fields and symmetries of
invariants kept by the nodes and names they read, so a warm file's nodes are
those of its strings and of its lifted ansatz rates.  Then it prints the means of the first four counts over the counted
rounds.  The counts do not depend on timing, so a run repeats them exactly;
two checkouts that keep the same tally can be compared by copying this
script into each.
"""

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contact_noether import cli, expr  # noqa: E402
from paired_rounds import FIXED, cases  # noqa: E402

COUNTS = ("bundles", "derive", "nodes", "emitted")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*FIXED, "symbolic-sweep"])
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--by-file", action="store_true", help="also print each file's counts")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    rows: list[dict[str, int]] = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for k in range(args.rounds + 1):  # round 0 is the warm-up
            paths = [case.write(work) for case in cases(args.workload, args.seed, k)]
            before, files = dict(expr.work), []
            for path in paths:
                start = dict(expr.work)
                cli.run(path, work / "out", quiet=True)
                files.append((path.stem, {c: expr.work[c] - start[c] for c in COUNTS}))
            counts = {c: expr.work[c] - before[c] for c in COUNTS}
            if k:
                rows.append(counts)
                print(f"round {k}: " + ", ".join(f"{c} {counts[c]}" for c in COUNTS)
                      + f", kept {len(expr._RUNS)}")
                for stem, own in files if args.by_file else ():
                    print(f"  {stem}: " + ", ".join(f"{c} {own[c]}" for c in COUNTS))
    print(f"{args.workload} seed {args.seed}, mean over rounds 1-{args.rounds}: "
          + ", ".join(f"{c} {statistics.fmean(r[c] for r in rows):.1f}" for c in COUNTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
