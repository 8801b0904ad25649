#!/usr/bin/env python3
"""Print the sha256 of each scenario's report.json and trajectory.csv.

Usage: python3 scripts/report_digests.py scenarios/*.json

Each scenario runs through `cli.run` into a temporary directory.  Output is
one line per file, `<sha256>  <scenario>/<file>`, plus the exit code of each
run, so that two checkouts can be compared with `diff`.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contact_noether.cli import run  # noqa: E402


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as out:
        for path in paths:
            report, code = run(path, out, quiet=True)
            name = report.get("scenario", Path(path).stem)
            print(f"exit {code}  {name}")
            for fname in ("report.json", "trajectory.csv"):
                target = Path(out) / name / fname
                if target.exists():
                    digest = hashlib.sha256(target.read_bytes()).hexdigest()
                    print(f"{digest}  {name}/{fname}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
