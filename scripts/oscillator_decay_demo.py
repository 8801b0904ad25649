#!/usr/bin/env python3
"""Dissipative-oscillator demonstration: co-integrate the flow with its
auxiliary equations and show that the three dissipated quantities all decay
at exactly the rate g0 while their ratios stay constant.

Usage: python3 scripts/oscillator_decay_demo.py
       python3 scripts/oscillator_decay_demo.py -h | --help

Prints the step counts, each quantity's initial and final value with its
drift once compensated by exp(g0 t), and the drift of F_GLR/F0 and F_EM/F0.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contact_noether.dynamics import IntegratorConfig  # noqa: E402
from contact_noether.geometry import ExtendedPoint  # noqa: E402
from contact_noether.noether import max_relative_drift  # noqa: E402
from contact_noether.systems import AuxiliaryState, co_integrate, make_harmonic_dissipative  # noqa: E402


def main(argv: list[str]) -> int:
    if {"-h", "--help"} & set(argv):
        print(__doc__.strip())
        return 0
    g0 = 0.2
    system = make_harmonic_dissipative(m=1.0, f_spec=1.0, g0=g0)
    aux = AuxiliaryState(use_a=True, use_b=True)
    invariants = [system.invariants[k] for k in ("F0", "F_GLR", "F_EM")]
    traj = co_integrate(system, ExtendedPoint([1.0], [0.5], 0.0, 0.0), aux, 20.0,
                        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12), invariants)
    comp = [math.exp(g0 * t) for t in traj.times]
    print(f"steps: {traj.stats.accepted} accepted, {traj.stats.rejected} rejected")
    for label in ("F0", "F_GLR", "F_EM"):
        vals = traj.tracked[label]
        print(f"{label}:  initial {vals[0]: .6f}   final {vals[-1]: .6f}   "
              f"compensated drift {max_relative_drift([v * c for v, c in zip(vals, comp)]):.3e}")
    for label in ("F_GLR", "F_EM"):
        ratio = [a / b for a, b in zip(traj.tracked[label], traj.tracked["F0"])]
        print(f"{label}/F0 drift: {max_relative_drift(ratio):.3e} "
              f"(value {ratio[0]:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
