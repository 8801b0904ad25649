#!/usr/bin/env python3
"""Run the acceptance suite and show one PASS/FAIL line per criterion.

Usage: python3 scripts/run_acceptance.py
       python3 scripts/run_acceptance.py -h | --help

Runs `pytest -s -q tests/test_acceptance.py` from the repository root and
exits with pytest's exit code.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if {"-h", "--help"} & set(argv):
        print(__doc__.strip())
        return 0
    return subprocess.call(
        [sys.executable, "-m", "pytest", "-s", "-q", str(ROOT / "tests" / "test_acceptance.py")],
        cwd=ROOT,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
