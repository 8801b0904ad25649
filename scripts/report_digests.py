#!/usr/bin/env python3
"""Print the sha256 of each scenario's report.json, report.txt and trajectory.csv.

Usage: python3 scripts/report_digests.py scenarios/*.json
       python3 scripts/report_digests.py -h | --help

Each scenario runs through `cli.run` into a temporary directory.  Output is
one line per file, `<sha256>  <scenario>/<file>`, plus the exit code of each
run, so that two checkouts can be compared with `diff`.

The scenarios run twice in this one process, the second pass in reverse
order, so that every scenario also runs on code that earlier scenarios
compiled.  The lines printed are the first pass's; if a scenario's lines
differ between the passes, its file is named on stderr and the exit code is 1.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contact_noether.cli import run  # noqa: E402


def digest_lines(path: str, out: Path) -> list[str]:
    """The exit line and the digest lines of one run of `path` into `out`."""
    report, code = run(path, out, quiet=True)
    name = report.get("scenario", Path(path).stem)
    lines = [f"exit {code}  {name}"]
    for fname in ("report.json", "report.txt", "trajectory.csv"):
        target = out / name / fname
        if target.exists():
            lines.append(f"{hashlib.sha256(target.read_bytes()).hexdigest()}  {name}/{fname}")
    return lines


def main(paths: list[str]) -> int:
    if {"-h", "--help"} & set(paths):
        print(__doc__.strip())
        return 0
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as out:
        first = [digest_lines(path, Path(out) / "first") for path in paths]
        second = [digest_lines(path, Path(out) / "second") for path in reversed(paths)][::-1]
    for lines in first:
        print("\n".join(lines))
    differing = [path for path, a, b in zip(paths, first, second) if a != b]
    for path in differing:
        print(f"{path}: the reverse-order second pass wrote different files", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
