"""Closed forms and checks that the tests compare the package against.

None of these is used by the package: each restates a result of the paper
(an invariant implied by a scaling ansatz, the case-3 ansatz, the
Ermakov-Milne invariant with b(t) written out, the constant solutions of the
auxiliary equations, the invariant of a symmetry, the contact-level Noether
obstruction, the Poisson and Jacobi brackets) or an identity (Euler's for
homogeneous potentials, the action identity dS/dt = p.dh/dp - h) so that a
test can check the package's own construction against it.  `dual_gradient`
differentiates a field's tree by forward-mode dual numbers, with rules of its
own, as a check on the structural derivatives; `dual_residual` builds the
dissipation residual from those gradients, `dual_lie_derivative` the
coefficients of L_Y eta_E and `dual_bracket` the components of [Y, X], each by
the coordinate formula.  `reference_nan_max` and
`reference_proportionality_residual` are the package's `nan_max` and
`proportionality_residual` as first written, one generator per call, as
references for their faster forms, and `literal_td_kepler` writes td-Kepler's
numbers into its trees, as the reference for the bits of the bound system.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from contact_noether.dynamics import Trajectory, contact_field, cumulative_integral, extended_field
from contact_noether.expr import (Add, Call, Div, Mul, Neg, Num, Param, Pow, ScalarField, Sub, Var,
                                  apply_intrinsic, number, parameter, partial, variable)
from contact_noether.geometry import (ContactSystem, ExtendedPoint, SampleBox, VectorFieldSpec,
                                      contact_field_of, coordinate_names, interior_product_eta_E,
                                      lie_bracket, nan_max, point_bundle)
from contact_noether.scaling import _TOL, ScalingAnsatz, dot_qp


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


def literal_td_kepler(m: float, eps: float, Lambda: float) -> tuple[ContactSystem, ScalarField]:
    """td-Kepler and its F_TDK with m, eps and Lambda written into the trees as numbers,
    by the float arithmetic that builds them in the package from parameters, in the
    same order: the reference for the bits of the parameter-bound system."""
    n, k, coupling = 3, -1.0, -4.0 * eps
    exponent = (2.0 - k) * Lambda / 2.0 - (2.0 + k) / 2.0
    qq = pp = number(0.0, n)
    for i in range(n):
        qq = qq + variable(f"q{i}", n) ** 2.0
        pp = pp + variable(f"p{i}", n) ** 2.0
    h = pp / (2.0 * m) + coupling * (variable("t", n) ** exponent) * (qq ** (k / 2.0))
    system = ContactSystem(n=n, h=h, guards=(variable("t", n), apply_intrinsic("sqrt", qq)),
                           sample_box=SampleBox(q=(0.3, 2.0), p=(-2.0, 2.0), S=(-1.0, 1.0),
                                                t=(0.5, 5.0)))
    return system, ((Lambda + 1.0) * dot_qp(n) - 2.0 * variable("t", n) * h
                    - 2.0 * Lambda * variable("S", n))


def em_invariant_closed_form(system: ContactSystem, f0: float, b0: float = 1.0,
                             bdot0: float = 0.0) -> ScalarField:
    """F_EM with b(t) written out in closed form for the oscillator built with
    the constant f = f0 > g0^2/4 (underdamped auxiliary equation)."""
    g0 = system.params["g0"]
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


# each intrinsic's value and first two derivatives at a: a -> (f(a), f'(a), f''(a))
_DUAL_INTRINSICS = {
    "sin": lambda a: (math.sin(a), math.cos(a), -math.sin(a)),
    "cos": lambda a: (math.cos(a), -math.sin(a), -math.cos(a)),
    "exp": lambda a: (math.exp(a),) * 3,
    "ln": lambda a: (math.log(a), 1.0 / a, -1.0 / a ** 2),
    "sqrt": lambda a: (math.sqrt(a), 1.0 / (2.0 * math.sqrt(a)), -0.25 / (a * math.sqrt(a))),
    "abs": lambda a: (abs(a), math.copysign(1.0, a), 0.0),
}


def dual_gradient(field: ScalarField, env: Mapping[str, float],
                  names: Sequence[str]) -> tuple[float, tuple[float, ...]]:
    """The value of `field` at `env` and its gradient by `names`, by forward-mode
    dual numbers: each distinct node's (value, gradient) follows from its
    operands' by the rules of calculus written out here, which share no code
    with the package's derivative rules, code generation or interpreter.  The
    products and quotients are in the order of the package's rules, so that
    the two round alike.  Outside the real domain it may raise or return
    nonsense (a negative base's fractional power is complex)."""
    zero = (0.0,) * len(names)
    memo: dict = {}

    def ev(node) -> tuple[float, tuple[float, ...]]:
        if node in memo:
            return memo[node]
        match node:
            case Num(v):
                out = v, zero
            case Var(name) | Param(name):
                out = env[name], tuple(float(name == nm) for nm in names)
            case Neg(a):
                u, du = ev(a)
                out = -u, tuple(-x for x in du)
            case Add(a, b):
                (u, du), (v, dv) = ev(a), ev(b)
                out = u + v, tuple(x + y for x, y in zip(du, dv))
            case Sub(a, b):
                (u, du), (v, dv) = ev(a), ev(b)
                out = u - v, tuple(x - y for x, y in zip(du, dv))
            case Mul(a, b):
                (u, du), (v, dv) = ev(a), ev(b)
                out = u * v, tuple(x * v + u * y for x, y in zip(du, dv))
            case Div(a, b):
                (u, du), (v, dv) = ev(a), ev(b)
                out = u / v, tuple(x / v - u * y / v ** 2 for x, y in zip(du, dv))
            case Pow(a, Num(k)):
                u, du = ev(a)
                out = u ** k, tuple(k * u ** (k - 1.0) * x for x in du)
            case Pow(a, b):  # along a name that the exponent does not move, as for a number
                (u, du), (v, dv) = ev(a), ev(b)
                w = u ** v
                out = w, tuple(v * u ** (v - 1.0) * x if y == 0.0
                               else w * (y * math.log(u) + v * (x / u)) for x, y in zip(du, dv))
            case Call(fn, a):
                u, du = ev(a)
                f, df, _ = _DUAL_INTRINSICS[fn](u)
                out = f, tuple(df * x for x in du)
            case _:
                raise TypeError(f"unknown node {node!r}")
        memo[node] = out
        return out

    result = ev(field.ast)
    del ev  # a recursive closure is a reference cycle, which would keep the nodes
    return result


def dual_residual(system: ContactSystem, F: ScalarField,
                  env: Mapping[str, float]) -> tuple[float, float]:
    """The dissipation residual X_h^t(F) + (dh/dS) F + sum of rate * dF/d(name),
    over the rated parameters F reads, at `env`, from the `dual_gradient`s of h,
    F and the rates with X_h^t written out:
    Yq = dh/dp, Yp = -(dh/dq + p dh/dS), YS = p.dh/dp - h, Yt = 1.  Returns the
    residual, summed exactly (`math.fsum`) from its products expanded one by
    one, and the sum of those products' magnitudes, the scale of its rounding."""
    n, names = system.n, coordinate_names(system.n)
    rated = [nm for nm in system.param_rates if nm in F.free_params]
    h, dh = dual_gradient(system.h, env, names)
    f, dF = dual_gradient(F, env, (*names, *rated))
    p, hS, FS = [env[f"p{i}"] for i in range(n)], dh[2 * n], dF[2 * n]
    terms = [dF[2 * n + 1], hS * f, -h * FS]
    for i in range(n):
        terms += [dh[n + i] * dF[i], -dh[i] * dF[n + i], -p[i] * hS * dF[n + i],
                  p[i] * dh[n + i] * FS]
    terms += [dual_gradient(system.param_rates[nm], env, ())[0] * dF[2 * n + 2 + k]
              for k, nm in enumerate(rated)]
    return math.fsum(terms), math.fsum(map(abs, terms))


def dual_magnitude(field: ScalarField, env: Mapping[str, float],
                   names: Sequence[str]) -> tuple[float, tuple[float, ...]]:
    """Bounds on the magnitudes that the value of `field` at `env` and its gradient by
    `names` sum, the scale of their rounding: `dual_gradient`'s rules with nothing
    cancelling, |a +- b| -> M(a) + M(b) and |a b| -> M(a) M(b), and to first order a
    relative change of the operand of a quotient, a power or an intrinsic moves it as much."""
    zero = (0.0,) * len(names)
    memo: dict = {}

    def ev(node) -> tuple[float, tuple[float, ...], float, tuple[float, ...]]:
        """(value, gradient, the value's magnitude, the gradient's magnitudes)."""
        if node in memo:
            return memo[node]
        match node:
            case Num(v):
                out = v, zero, abs(v), zero
            case Var(name) | Param(name):
                one = tuple(float(name == nm) for nm in names)
                out = env[name], one, abs(env[name]), one
            case Neg(a):
                u, du, U, dU = ev(a)
                out = -u, tuple(-x for x in du), U, dU
            case Add(a, b) | Sub(a, b):
                (u, du, U, dU), (v, dv, V, dV) = ev(a), ev(b)
                s = 1.0 if isinstance(node, Add) else -1.0
                out = (u + s * v, tuple(x + s * y for x, y in zip(du, dv)), U + V,
                       tuple(X + Y for X, Y in zip(dU, dV)))
            case Mul(a, b):
                (u, du, U, dU), (v, dv, V, dV) = ev(a), ev(b)
                out = (u * v, tuple(x * v + u * y for x, y in zip(du, dv)), U * V,
                       tuple(X * V + U * Y for X, Y in zip(dU, dV)))
            case Div(a, b):
                (u, du, U, dU), (v, dv, V, dV) = ev(a), ev(b)
                r = V / abs(v)  # the denominator's relative magnitude
                out = (u / v, tuple(x / v - u * y / v ** 2 for x, y in zip(du, dv)),
                       (U + abs(u) * r) / abs(v),
                       tuple((X + abs(x) * r) / abs(v) + (U * abs(y) + abs(u) * Y
                                                          + 2.0 * abs(u * y) * r) / v ** 2
                             for x, y, X, Y in zip(du, dv, dU, dV)))
            case Pow(a, Num(k)):
                u, du, U, dU = ev(a)
                c, c2 = k * u ** (k - 1.0), k * (k - 1.0) * u ** (k - 2.0) if k != 1.0 else 0.0
                out = (u ** k, tuple(c * x for x in du), abs(u ** k) + abs(c) * U,
                       tuple(abs(c) * X + abs(c2 * x) * U for x, X in zip(du, dU)))
            case Pow(a, b):
                (u, du, U, dU), (v, dv, V, dV) = ev(a), ev(b)
                w, lu = u ** v, math.log(u)
                W = abs(w) * (1.0 + abs(v) * U / abs(u) + abs(lu) * V)
                out = (w, tuple(w * (y * lu + v * (x / u)) for x, y in zip(du, dv)), W,
                       tuple(W * (abs(y * lu) + abs(v * x / u)) + abs(w) * (
                           Y * abs(lu) + abs(y) * U / abs(u) + V * abs(x / u) + abs(v) * X / abs(u)
                           + abs(v * x) * U / u ** 2) for x, y, X, Y in zip(du, dv, dU, dV)))
            case Call(fn, a):
                u, du, U, dU = ev(a)
                f, df, d2f = _DUAL_INTRINSICS[fn](u)
                out = (f, tuple(df * x for x in du), abs(f) + abs(df) * U,
                       tuple(abs(df) * X + abs(d2f * x) * U for x, X in zip(du, dU)))
            case _:
                raise TypeError(f"unknown node {node!r}")
        memo[node] = out
        return out

    _, _, magnitude, gradient = ev(field.ast)
    del ev  # a recursive closure is a reference cycle, which would keep the nodes
    return magnitude, gradient


def dual_lie_derivative(system: ContactSystem, Y: VectorFieldSpec, env: Mapping[str, float],
                        magnitudes: bool = False) -> tuple[list[float], list[float]]:
    """The 2n+2 coefficients of L_Y eta_E at `env`, in coordinate_names order, by the
    coordinate formula (L_Y eta)_i = Y^j d_j eta_i + eta_j d_i Y^j with
    eta_E = (-p, 0, 1, h), from the `dual_gradient`s of Y's components and of h; d_t
    also moves each rated parameter that they read, at its rate.  It does not share
    the Cartan formula by which `LieDerivativeEta` builds them.  Returns each
    coefficient, summed exactly (`math.fsum`) from its products expanded one by one,
    and the scale of its rounding: the sum of those products' magnitudes plus twice
    |Y^t d_i h|, a product that iota_Y d(eta_E) subtracts and d(iota_Y eta_E) adds
    back.  With `magnitudes`, each factor of the scale is its
    `dual_magnitude`, which bounds the cancellation within the factor too."""
    n, names = system.n, coordinate_names(system.n)
    m, comps = 2 * n + 2, Y.components()
    read = set().union(*(f.free_params for f in (system.h, *comps)))
    rated = [nm for nm in system.param_rates if nm in read]
    by = (*names, *rated)

    def products(ys, dys, h, dh, rates, p) -> list[tuple[list[float], list[float]]]:
        """Per slot i: the products that sum to (L_Y eta)_i, and the products Y^t d_i h."""
        eta = [*(-x for x in p), *[0.0] * n, 1.0, h]

        def slot(grad: Sequence[float], i: int) -> list[float]:
            """d_i by a gradient, expanded: d_t adds rate * d/d(name) per rated name."""
            return [grad[i], *(r * grad[m + k] for k, r in enumerate(rates))] if i == m - 1 \
                else [grad[i]]

        out = []
        for i in range(m):
            terms = [-ys[n + i]] if i < n else []  # Y^j d_j eta_i: d_j(-p_i) is -1 at j = p_i
            if i == m - 1:  # Y^j d_j h
                terms += [y * d for j, y in enumerate(ys) for d in slot(dh, j)]
            terms += [e * d for e, dy in zip(eta, dys) if e for d in slot(dy, i)]
            out.append((terms, [ys[-1] * d for d in slot(dh, i)]))
        return out

    p = [env[f"p{a}"] for a in range(n)]
    rates = [dual_gradient(system.param_rates[nm], env, ())[0] for nm in rated]
    h, dh = dual_gradient(system.h, env, by)
    ys, dys = zip(*(dual_gradient(c, env, by) for c in comps))
    exact = products(ys, dys, h, dh, rates, p)
    if magnitudes:
        rates = [dual_magnitude(system.param_rates[nm], env, ())[0] for nm in rated]
        h, dh = dual_magnitude(system.h, env, by)
        ys, dys = zip(*(dual_magnitude(c, env, by) for c in comps))
        p = list(map(abs, p))
    bounds = products(ys, dys, h, dh, rates, p) if magnitudes else exact
    return ([math.fsum(terms) for terms, _ in exact],
            [math.fsum(map(abs, terms)) + 2.0 * math.fsum(map(abs, extra))
             for terms, extra in bounds])


def dual_bracket(system: ContactSystem, Y: VectorFieldSpec, X: VectorFieldSpec,
                 env: Mapping[str, float]) -> tuple[list[float], list[float]]:
    """The 2n+2 components of [Y, X] at `env`, in coordinate_names order, by the coordinate
    formula [Y, X]^i = Y^j d_j X^i - X^j d_j Y^i, from the `dual_gradient` Jacobians of
    Y's and X's components; d_t also moves each rated parameter that they read, at its
    rate.  It shares no code with `lie_bracket`.  Returns each component, summed exactly
    (`math.fsum`) from its products expanded one by one, and the scale of its rounding,
    the sum of those products' magnitudes."""
    m, names = 2 * system.n + 2, coordinate_names(system.n)
    comps = (*Y.components(), *X.components())
    read = set().union(*(f.free_params for f in comps))
    rated = [nm for nm in system.param_rates if nm in read]
    rates = [dual_gradient(system.param_rates[nm], env, ())[0] for nm in rated]
    vs, grads = zip(*(dual_gradient(c, env, (*names, *rated)) for c in comps))

    def along(ws: Sequence[float], grad: Sequence[float]) -> list[float]:
        """The products of W^j d_j, d_t expanded per rated name."""
        return [*(w * g for w, g in zip(ws, grad)),
                *(ws[-1] * r * grad[m + k] for k, r in enumerate(rates))]

    terms = [along(vs[:m], grads[m + i]) + [-x for x in along(vs[m:], grads[i])]
             for i in range(m)]
    return [math.fsum(t) for t in terms], [math.fsum(map(abs, t)) for t in terms]


def reference_nan_max(values: Iterable[float]) -> float:
    """The largest of some magnitudes, 0.0 for none, and the first NaN when any is NaN."""
    values = list(values)
    return next((v for v in values if v != v), max(values, default=0.0))


def reference_proportionality_residual(omega: Sequence[float],
                                       eta: Sequence[float]) -> tuple[float, float]:
    """lambda from the dS slot of omega, and max |omega_i - lambda*eta_i| over the
    other slots, normalised by max(1, ||omega||_inf)."""
    s = len(omega) - 2
    lam = omega[s]
    mism = reference_nan_max(abs(w - lam * e) for i, (w, e) in enumerate(zip(omega, eta))
                             if i != s)
    return lam, mism / max(1.0, max(abs(w) for w in omega))
