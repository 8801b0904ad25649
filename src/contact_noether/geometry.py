"""Exterior calculus on the extended contact phase space.

Conventions (pinned by the test suite): the contact form is
``eta = dS - p_a dq^a`` with Reeb field ``d/dS``; the extended form is
``eta_E = dS - p_a dq^a + h dt`` and ``d(eta_E) = dq^a ^ dp_a + dh ^ dt``.

Vector fields and the one-forms ``iota_Y d(eta_E)`` and ``L_Y eta_E`` are
symbolic (ScalarFields per component, in coordinate_names order, with exact
structural derivatives); `point_bundle` compiles a set of fields once into
one function of a point.  OneFormValue is what one-point wrappers return.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import expr
from .expr import ScalarField, compile_bundle, number, partial, variable


@dataclass(frozen=True)
class ExtendedPoint:
    """A state (q, p, S, t) on the extended contact phase space."""

    q: np.ndarray
    p: np.ndarray
    S: float
    t: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "S", float(self.S))
        object.__setattr__(self, "t", float(self.t))
        if self.q.shape != self.p.shape or self.q.ndim != 1 or self.q.size < 1:
            raise ValueError("q and p must be 1-d arrays of equal length >= 1")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))
                and np.isfinite(self.S) and np.isfinite(self.t)):
            raise ValueError("non-finite state entries")

    @property
    def n(self) -> int:
        return self.q.size

    def env(self) -> dict[str, float]:
        env = {f"q{i}": float(self.q[i]) for i in range(self.n)}
        env.update({f"p{i}": float(self.p[i]) for i in range(self.n)})
        env["S"] = self.S
        env["t"] = self.t
        return env


@dataclass(frozen=True)
class OneFormValue:
    """Coefficients of a 1-form at a point, in the basis (dq^a, dp_a, dS, dt)."""

    dq: np.ndarray
    dp: np.ndarray
    dS: float
    dt: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "dq", np.asarray(self.dq, dtype=float))
        object.__setattr__(self, "dp", np.asarray(self.dp, dtype=float))
        object.__setattr__(self, "dS", float(self.dS))
        object.__setattr__(self, "dt", float(self.dt))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.dq, self.dp, [self.dS, self.dt]])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.as_array())))


@dataclass(frozen=True)
class VectorFieldSpec:
    """Symbolic components of a vector field on the extended space."""

    Yq: tuple[ScalarField, ...]
    Yp: tuple[ScalarField, ...]
    YS: ScalarField
    Yt: ScalarField

    def __post_init__(self) -> None:
        object.__setattr__(self, "Yq", tuple(self.Yq))
        object.__setattr__(self, "Yp", tuple(self.Yp))
        n = self.YS.n
        for c in (*self.Yq, *self.Yp, self.YS, self.Yt):
            if c.n != n:
                raise ValueError("vector field components disagree on dimension")
        if len(self.Yq) != n or len(self.Yp) != n:
            raise ValueError("expected n q-components and n p-components")

    @property
    def n(self) -> int:
        return self.YS.n

    def components(self) -> tuple[ScalarField, ...]:
        """All 2n+2 components ordered (Yq..., Yp..., YS, Yt)."""
        return (*self.Yq, *self.Yp, self.YS, self.Yt)

    def eval(self, env: Mapping[str, float]) -> np.ndarray:
        return np.array([c.eval_env(env) for c in self.components()])

    def __add__(self, other: "VectorFieldSpec") -> "VectorFieldSpec":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return VectorFieldSpec(
            tuple(a + b for a, b in zip(self.Yq, other.Yq)),
            tuple(a + b for a, b in zip(self.Yp, other.Yp)),
            self.YS + other.YS,
            self.Yt + other.Yt,
        )

    def __sub__(self, other: "VectorFieldSpec") -> "VectorFieldSpec":
        return self + other.scaled(-1.0)

    def scaled(self, factor: ScalarField | float) -> "VectorFieldSpec":
        return VectorFieldSpec(
            tuple(c * factor for c in self.Yq),
            tuple(c * factor for c in self.Yp),
            self.YS * factor,
            self.Yt * factor,
        )

    @staticmethod
    def zero(n: int) -> "VectorFieldSpec":
        z = number(0.0, n)
        return VectorFieldSpec((z,) * n, (z,) * n, z, z)


@lru_cache(maxsize=None)
def coordinate_names(n: int) -> tuple[str, ...]:
    """Coordinate order used for component arrays: q0.., p0.., S, t."""
    return tuple(f"q{i}" for i in range(n)) + tuple(f"p{i}" for i in range(n)) + ("S", "t")


def bindable_params(params: Mapping[str, float], state: Sequence[str]) -> dict[str, float]:
    """`params` less any parameter named like a state variable, so that none
    shadows one."""
    return {k: v for k, v in params.items() if k not in state}


def point_bundle(fields: Sequence[ScalarField],
                 params: Mapping[str, float]) -> Callable[[ExtendedPoint], tuple[float, ...]]:
    """Compile `fields` once, as one bundle, into a function of a point that
    returns one value per field.  `params` binds the parameters (pass
    ``{**system.params, **extra}``, so that `extra` wins) by `bindable_params`
    over the coordinates."""
    state = coordinate_names(fields[0].n)
    consts = bindable_params(params, state)
    fn = compile_bundle(fields, [*state, *consts])
    values = tuple(consts.values())
    return lambda pt: fn(*pt.q.tolist(), *pt.p.tolist(), pt.S, pt.t, *values)


@dataclass(eq=False)
class ContactSystem:
    """A contact Hamiltonian system: dimension, Hamiltonian, parameter bindings.

    `guards` mark the admissible region (e.g. a singularity exclusion zone):
    a point is admissible iff every guard value is >= the margin (a NaN value
    or a DomainError makes it inadmissible); no guards admit the whole space.
    `sample_box` documents the box used by seeded point generators.
    `meta` carries optional system-specific extras (auxiliary ODE data,
    registered invariants) and is not interpreted by this module.
    """

    n: int
    h: ScalarField
    params: dict[str, float] = dc_field(default_factory=dict)
    guards: tuple[ScalarField, ...] = ()
    sample_box: "SampleBox | None" = None
    label: str = ""
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.h.n != self.n:
            raise ValueError("Hamiltonian dimension disagrees with system dimension")
        unbound = self.h.free_params - set(self.params)
        if unbound:
            raise expr.UnboundParameter(f"system parameters {sorted(unbound)} unbound")

    @cached_property
    def h_q(self) -> tuple[ScalarField, ...]:
        return tuple(partial(self.h, f"q{i}") for i in range(self.n))

    @cached_property
    def h_p(self) -> tuple[ScalarField, ...]:
        return tuple(partial(self.h, f"p{i}") for i in range(self.n))

    @cached_property
    def h_S(self) -> ScalarField:
        return partial(self.h, "S")

    @cached_property
    def h_t(self) -> ScalarField:
        return partial(self.h, "t")

    def env(self, point: ExtendedPoint, extra: Mapping[str, float] | None = None) -> dict[str, float]:
        return {**point.env(), **self.params, **(extra or {})}

    def h_value(self, point: ExtendedPoint, extra: Mapping[str, float] | None = None) -> float:
        """h by its cached compiled function; a coordinate wins over a like-named parameter."""
        return self.h.eval_env({**self.params, **(extra or {}), **point.env()})

    def admissible(self, point: ExtendedPoint, margin: float = 1e-3) -> bool:
        env = {**self.params, **point.env()}
        try:
            return point.n == self.n and all(expr.eval_node(g.ast, env) >= margin for g in self.guards)
        except expr.DomainError:
            return False


@dataclass(frozen=True)
class SampleBox:
    """Per-coordinate uniform sampling ranges."""

    q: tuple[float, float] = (-2.0, 2.0)
    p: tuple[float, float] = (-2.0, 2.0)
    S: tuple[float, float] = (-1.0, 1.0)
    t: tuple[float, float] = (0.0, 5.0)


# ---------------------------------------------------------------------------
# 1-form evaluations


def eta_contact(point: ExtendedPoint) -> OneFormValue:
    """eta = dS - p_a dq^a at a point (dt coefficient zero)."""
    return OneFormValue(-point.p, np.zeros(point.n), 1.0, 0.0)


def eta_extended(system: ContactSystem, point: ExtendedPoint,
                 extra: Mapping[str, float] | None = None) -> OneFormValue:
    """eta_E = dS - p_a dq^a + h dt at a point."""
    return OneFormValue(-point.p, np.zeros(point.n), 1.0, system.h_value(point, extra))


def contract_d_eta_contact(Y: VectorFieldSpec, point: ExtendedPoint,
                           env: Mapping[str, float] | None = None) -> OneFormValue:
    """iota_Y (dq^a ^ dp_a) at a point."""
    e = dict(point.env()) if env is None else env
    yq = np.array([c.eval_env(e) for c in Y.Yq])
    yp = np.array([c.eval_env(e) for c in Y.Yp])
    return OneFormValue(-yp, yq, 0.0, 0.0)


def contract_d_eta_extended(system: ContactSystem, Y: VectorFieldSpec) -> tuple[ScalarField, ...]:
    """iota_Y d(eta_E) with d(eta_E) = dq^a ^ dp_a + dh ^ dt, exact partials of h,
    as 2n+2 fields in coordinate_names order."""
    n, Yt = system.n, Y.Yt
    # iota_Y(dh ^ dt) = Y(h) dt - Yt dh
    return (*(-Y.Yp[i] - Yt * system.h_q[i] for i in range(n)),
            *(Y.Yq[i] - Yt * system.h_p[i] for i in range(n)),
            -Yt * system.h_S,
            directional_derivative(Y, system.h) - Yt * system.h_t)


def interior_product_eta_extended(system: ContactSystem, Y: VectorFieldSpec) -> ScalarField:
    """iota_Y eta_E = Y^S - p_a Y^a + h Y^t as a symbolic field."""
    n = system.n
    acc = Y.YS
    for i in range(n):
        acc = acc - variable(f"p{i}", n) * Y.Yq[i]
    return acc + system.h * Y.Yt


class LieDerivativeEta:
    """L_Y eta_E = iota_Y d(eta_E) + d(iota_Y eta_E) (Cartan formula), written
    once per (system, Y) pair as 2n+2 fields in coordinate_names order."""

    def __init__(self, system: ContactSystem, Y: VectorFieldSpec):
        self.system = system
        self.Y = Y
        self.scalar = interior_product_eta_extended(system, Y)
        self.form = tuple(c + partial(self.scalar, nm) for c, nm in
                          zip(contract_d_eta_extended(system, Y), coordinate_names(system.n)))

    def bundle(self, extra: Mapping[str, float] | None = None,
               param_rates: Mapping[str, float] | None = None, *more: ScalarField):
        """One bundle of the form, `more`, and d(iota_Y eta_E)/d(param) for each
        parameter in `param_rates` (a function of t, so rate * that column is
        added to dt): maps a point to (the form's values, the values of `more`)."""
        rates = dict(param_rates or {})
        m, k = len(self.form), len(self.form) + len(more)
        at = point_bundle([*self.form, *more, *(partial(self.scalar, nm) for nm in rates)],
                          {**self.system.params, **(extra or {})})

        def values(point: ExtendedPoint) -> tuple[list[float], tuple[float, ...]]:
            v = at(point)
            omega = list(v[:m])
            for rate, column in zip(rates.values(), v[k:]):
                omega[-1] += rate * column
            return omega, v[m:k]

        return values

    def __call__(self, point: ExtendedPoint,
                 extra: Mapping[str, float] | None = None,
                 param_rates: Mapping[str, float] | None = None) -> OneFormValue:
        omega, _ = self.bundle(extra, param_rates)(point)
        n = self.system.n
        return OneFormValue(omega[:n], omega[n:2 * n], omega[2 * n], omega[2 * n + 1])


def lie_derivative_eta(system: ContactSystem, Y: VectorFieldSpec, point: ExtendedPoint,
                       extra: Mapping[str, float] | None = None,
                       param_rates: Mapping[str, float] | None = None) -> OneFormValue:
    """Cartan formula L_Y eta_E = iota_Y d(eta_E) + d(iota_Y eta_E) at a point.

    `param_rates` gives d(param)/dt for parameters standing in for
    time-dependent auxiliary functions; their contribution enters the dt
    component of the exact differential.  For evaluation at many points,
    compile :meth:`LieDerivativeEta.bundle` once instead.
    """
    return LieDerivativeEta(system, Y)(point, extra, param_rates)


def nan_max(values: Iterable[float]) -> float:
    """The largest of some magnitudes, 0.0 for none, and NaN when any is NaN
    (the builtin max drops a NaN unless it comes first)."""
    values = list(values)
    return next((v for v in values if v != v), max(values, default=0.0))


def proportionality_residual(omega: Sequence[float], eta: Sequence[float]) -> tuple[float, float]:
    """Decompose omega against eta_E, both given as 2n+2 coefficients in
    coordinate_names order: lambda from the dS slot (eta_E.dS == 1),
    residual = max over the remaining components of |omega_i - lambda*eta_i|,
    normalised by max(1, ||omega||_inf); NaN when any coefficient is NaN."""
    s = len(omega) - 2  # the dS slot defines lambda exactly
    lam = omega[s]
    mism = nan_max(abs(w - lam * e) for i, (w, e) in enumerate(zip(omega, eta)) if i != s)
    return lam, mism / max(1.0, max(abs(w) for w in omega))


# ---------------------------------------------------------------------------
# brackets


def lie_bracket(Y: VectorFieldSpec, X: VectorFieldSpec) -> VectorFieldSpec:
    """[Y, X] = (Y . grad) X - (X . grad) Y, componentwise on ASTs."""
    if Y.n != X.n:
        raise ValueError("dimension mismatch")
    n = Y.n
    names = coordinate_names(n)
    ycomps = Y.components()
    xcomps = X.components()

    def bracket_component(i: int) -> ScalarField:
        acc = number(0.0, n)
        xi, yi = xcomps[i], ycomps[i]
        for j, nm in enumerate(names):
            if nm in xi.free_vars:
                acc = acc + ycomps[j] * partial(xi, nm)
            if nm in yi.free_vars:
                acc = acc - xcomps[j] * partial(yi, nm)
        return acc

    out = [bracket_component(i) for i in range(2 * n + 2)]
    return VectorFieldSpec(tuple(out[:n]), tuple(out[n:2 * n]), out[2 * n], out[2 * n + 1])


def directional_derivative(Y: VectorFieldSpec, f: ScalarField) -> ScalarField:
    if Y.n != f.n:
        raise ValueError("dimension mismatch")
    acc = number(0.0, f.n)
    for comp, nm in zip(Y.components(), coordinate_names(f.n)):
        if nm in f.free_vars:
            acc = acc + comp * partial(f, nm)
    return acc


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
    from .dynamics import contact_field_of

    return interior_product_eta_extended(
        system, lie_bracket(contact_field_of(F), contact_field_of(G)))
