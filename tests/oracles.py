"""Closed forms and checks that the tests compare the package against.

None of these is used by the package: each restates a result of the paper
(an invariant implied by a scaling ansatz, the case-3 ansatz, the
Ermakov-Milne invariant with b(t) written out, the constant solutions of the
auxiliary equations, the invariant of a symmetry, the contact-level Noether
obstruction, the Poisson and Jacobi brackets) or an identity (Euler's for
homogeneous potentials, the action identity dS/dt = p.dh/dp - h) so that a
test can check the package's own construction against it.
"""

from __future__ import annotations

import math
from typing import Sequence

from contact_noether.dynamics import (Trajectory, contact_field, contact_field_of,
                                      cumulative_integral, extended_field)
from contact_noether.expr import (ScalarField, apply_intrinsic, eval_node, number, parameter,
                                  partial, variable)
from contact_noether.geometry import (ContactSystem, ExtendedPoint, VectorFieldSpec,
                                      interior_product_eta_E, lie_bracket, nan_max, point_bundle)
from contact_noether.scaling import _TOL, ScalingAnsatz, dot_qp
from contact_noether.systems import _harmonic_meta


def invariant_from_symmetry(system: ContactSystem, Y: VectorFieldSpec) -> ScalarField:
    """F = -iota_Y eta_E = p_a Y^a - Y^S - h Y^t."""
    return -interior_product_eta_E(system, Y)


def contact_bracket_defect(system: ContactSystem, Y: VectorFieldSpec,
                           samples: Sequence[ExtendedPoint]) -> float:
    """Contact-level Noether obstruction: max |iota_[X_h, Y] eta_E| over samples.

    For a t-independent Y this is |X_h^t(F) + R(h) F| with F = -iota_Y eta_E,
    so zero (to tolerance) is necessary for Y to generate a dissipated
    quantity.  When Y^t does not depend on (q, p, S), [X_h, Y] has no dt
    component and eta_E may be read as the contact form eta.
    """
    scalar = interior_product_eta_E(system, lie_bracket(contact_field(system), Y, system))
    at = point_bundle([scalar], system.params)
    return nan_max(abs(at(pt)[0]) for pt in samples)


def poisson_bracket(F: ScalarField, G: ScalarField) -> ScalarField:
    """{F, G} = sum_a dF/dq^a dG/dp_a - dF/dp_a dG/dq^a."""
    if F.n != G.n:
        raise ValueError("dimension mismatch")
    acc = number(0.0, F.n)
    for i in range(F.n):
        acc = acc + partial(F, f"q{i}") * partial(G, f"p{i}") \
                  - partial(F, f"p{i}") * partial(G, f"q{i}")
    return acc


def jacobi_bracket(system: ContactSystem, F: ScalarField, G: ScalarField) -> ScalarField:
    """{F, G}_J = iota_[X_F, X_G] eta, built definitionally from the contact
    Hamiltonian fields of F and G (inputs must be t-independent)."""
    for f in (F, G):
        if "t" in f.free_vars:
            raise ValueError("Jacobi bracket arguments must be t-independent")
    return interior_product_eta_E(
        system, lie_bracket(contact_field_of(F), contact_field_of(G)))


def action_consistency(system: ContactSystem, traj: Trajectory) -> float:
    """Quadrature diagnostic: max_i |S(t_i) - S(t_0) - integral of (p.dh/dp - h)|,
    the integral by `cumulative_integral` on the accepted sample grid; a
    consistency check on the action identity dS/dt = p.dh/dp - h, not an
    exactness claim."""
    quad = cumulative_integral(system, traj, extended_field(system).YS)
    S0 = traj.rows[0][2 * traj.n]
    return nan_max(abs(y[2 * traj.n] - S0 - v) for y, v in zip(traj.rows, quad))


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


def _normalize(a: ScalingAnsatz) -> ScalingAnsatz:
    if abs(a.gamma) > _TOL:
        return a.scaled(1.0 / a.gamma)
    if abs(a.sigma) > _TOL:
        return a.scaled(1.0 / a.sigma)
    if abs(a.alpha) > _TOL:
        return a.scaled(1.0 / a.alpha)
    return a


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
