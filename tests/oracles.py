"""Closed forms and checks that the tests compare the package against.

None of these is used by the package: each restates a result of the paper
(an invariant implied by a scaling ansatz, the case-3 ansatz, the
Ermakov-Milne invariant with b(t) written out, the constant solutions of the
auxiliary equations) or an identity (Euler's for homogeneous potentials) so
that a test can check the package's own construction against it.
"""

from __future__ import annotations

import math
from typing import Sequence

from contact_noether.expr import (ScalarField, apply_intrinsic, eval_node, number, parameter,
                                  partial, variable)
from contact_noether.geometry import ContactSystem, ExtendedPoint, point_bundle
from contact_noether.scaling import ScalingAnsatz, _normalize, dot_qp
from contact_noether.systems import _harmonic_meta


def invariant_from_ansatz(ansatz: ScalingAnsatz, n: int) -> ScalarField:
    """The dissipated quantity alpha q.p - sigma t h - gamma S implied by a
    scaling generator (h left as a placeholder)."""
    h = parameter("h", n)
    return (ansatz.alpha * dot_qp(n)
            - ansatz.sigma * variable("t", n) * h
            - ansatz.gamma * variable("S", n))


def homogeneity_check(V: ScalarField, k: float, samples: Sequence[ExtendedPoint],
                      tol: float = 1e-9,
                      params: dict[str, float] | None = None) -> bool:
    """Euler-identity test q . grad V = k V at every sample (relative tol)."""
    n = V.n
    euler = number(0.0, n)
    for i in range(n):
        euler = euler + variable(f"q{i}", n) * partial(V, f"q{i}")
    at = point_bundle([euler, V], params or {})
    for pt in samples:
        lhs, v = at(pt)
        rhs = k * v
        if abs(lhs - rhs) > tol * max(1.0, abs(lhs), abs(rhs)):
            return False
    return True


def case3_ansatz(k: float, Lambda: float) -> ScalingAnsatz:
    """Numeric ansatz for a chosen Lambda = gamma/sigma (normalised)."""
    sigma = 1.0
    gamma = Lambda * sigma
    alpha = gamma / 2.0 + sigma / 2.0
    raw = ScalingAnsatz(alpha, gamma - alpha, gamma, sigma)
    return _normalize(raw)


def em_invariant_closed_form(system: ContactSystem, b0: float = 1.0,
                             bdot0: float = 0.0) -> ScalarField:
    """F_EM with b(t) written out in closed form; needs constant f(t) with
    f > g0^2/4 (underdamped auxiliary equation)."""
    f, g0 = _harmonic_meta(system)
    if f.free_vars:
        raise ValueError("closed-form b(t) requires constant f")
    f0 = eval_node(f.ast, system.params)
    disc = f0 - g0 * g0 / 4.0
    if disc <= 0.0:
        raise ValueError("need f > g0^2/4 for the oscillatory closed form")
    w = math.sqrt(disc)
    n = system.n
    t = variable("t", n)
    decay = apply_intrinsic("exp", (-g0 / 2.0) * t)
    c2 = (bdot0 + g0 * b0 / 2.0) / w
    b = decay * (b0 * apply_intrinsic("cos", w * t) + c2 * apply_intrinsic("sin", w * t))
    b_dot = partial(b, "t")
    return b * variable("p0", n) - parameter("m", n) * b_dot * variable("q0", n)


def lr_equilibrium(f0: float, rho0: float = 1.0) -> tuple[float, float]:
    """Constant solution of the rho equation at f = f0: rho = (rho0/f0)^(1/4)."""
    if f0 <= 0 or rho0 <= 0:
        raise ValueError("need f0 > 0 and rho0 > 0")
    return (rho0 / f0) ** 0.25, 0.0


def glr_equilibrium(f0: float, g0: float, a0: float = 1.0) -> tuple[float, float]:
    """Constant solution of the a equation at f = f0:
    a = (a0^3 (1 + 3 a0 g0^2/4) / (f0 - g0^2/4))^(1/4)."""
    denom = f0 - g0 * g0 / 4.0
    if denom <= 0 or a0 <= 0:
        raise ValueError("need f0 > g0^2/4 and a0 > 0")
    return (a0**3 * (1.0 + 0.75 * a0 * g0 * g0) / denom) ** 0.25, 0.0
