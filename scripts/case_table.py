#!/usr/bin/env python3
"""Print the full scaling-symmetry case table for a sweep of potential
degrees, including the dissipative branch.

Usage: python3 scripts/case_table.py
       python3 scripts/case_table.py -h | --help

Each block is one `contact-noether solve-scaling` call: degrees k = 2, -2,
-1 and 0.5 with f constant, k = -1 with a forced power-law f(t), and
k = 2, 0 and 1 with the homogeneous dissipative term g(S) = g0 S.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contact_noether.cli import main as cli_main  # noqa: E402


def main(argv: list[str]) -> int:
    if {"-h", "--help"} & set(argv):
        print(__doc__.strip())
        return 0
    for k in (2.0, -2.0, -1.0, 0.5):
        print(f"=== V of degree k = {k}, f constant, no dissipative term ===")
        cli_main(["solve-scaling", "--k", str(k), "--f", "const"])
        print()
    print("=== V of degree k = -1, forced power-law f(t) ===")
    cli_main(["solve-scaling", "--k", "-1", "--f", "power-law"])
    print()
    for k in (2.0, 0.0, 1.0):
        print(f"=== V of degree k = {k}, homogeneous dissipative term (kappa = 1) ===")
        cli_main(["solve-scaling", "--k", str(k), "--g", "homogeneous",
                  "--kappa", "1", "--g0", "0.3"])
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
