"""Exterior calculus on the extended contact phase space.

Conventions (pinned by the test suite): the contact form is
``eta = dS - p_a dq^a`` with Reeb field ``d/dS``; the extended form is
``eta_E = dS - p_a dq^a + h dt`` and ``d(eta_E) = dq^a ^ dp_a + dh ^ dt``.

Vector fields and the one-forms ``iota_Y d(eta_E)`` and ``L_Y eta_E`` are
symbolic (ScalarFields per component, in coordinate_names order, with exact
structural derivatives).  `point_bundle` compiles a set of fields once into
one function of a point; it is how fields are evaluated at points.  A 1-form
at a point is its 2n+2 coefficients in coordinate_names order, e.g. eta_E at
a point is ``(-p..., 0..., 1, h)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from . import expr
from .expr import ScalarField, compile_bundle, number, partial, variable


@dataclass(frozen=True)
class ExtendedPoint:
    """A state (q, p, S, t) on the extended contact phase space; q and p are
    tuples of floats."""

    q: tuple[float, ...]
    p: tuple[float, ...]
    S: float
    t: float

    def __post_init__(self) -> None:
        try:
            q, p = (() if isinstance(v, str) else tuple(map(float, v)) for v in (self.q, self.p))
        except TypeError:
            q = p = ()
        if len(q) != len(p) or not q:
            raise ValueError("q and p must be flat sequences of equal length >= 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "S", float(self.S))
        object.__setattr__(self, "t", float(self.t))
        if not all(map(math.isfinite, (*q, *p, self.S, self.t))):
            raise ValueError("non-finite state entries")

    @property
    def n(self) -> int:
        return len(self.q)

    def env(self) -> dict[str, float]:
        return dict(zip(coordinate_names(self.n), (*self.q, *self.p, self.S, self.t)))


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


def point_bundle(fields: Sequence[ScalarField],
                 params: Mapping[str, float]) -> Callable[[ExtendedPoint], tuple[float, ...]]:
    """Compile `fields` once, as one bundle, into a function of a point that
    returns one value per field.  `params` binds the parameters, usually a
    system's; the coordinates win over like-named parameters
    (`expr.bindable_params`)."""
    fn = compile_bundle(fields, coordinate_names(fields[0].n), params)
    return lambda pt: fn(*pt.q, *pt.p, pt.S, pt.t)


@dataclass(eq=False)
class ContactSystem:
    """A contact Hamiltonian system: dimension, Hamiltonian, parameter bindings.

    `guards` mark the admissible region (e.g. a singularity exclusion zone):
    a point is admissible iff every guard value is >= the margin (a NaN value
    or a DomainError makes it inadmissible); no guards admit the whole space.
    `sample_box` documents the box used by seeded point generators.
    `meta` carries optional system-specific extras (auxiliary ODE data,
    registered invariants) and is not interpreted by this module.
    `param_rates` maps each parameter that varies along the flow to its d/dt,
    a field over the coordinates and the parameters; `rate_term` is the chain
    rule through them, which the residual and L_Y eta_E add to d/dt.
    """

    n: int
    h: ScalarField
    params: dict[str, float] = dc_field(default_factory=dict)
    guards: tuple[ScalarField, ...] = ()
    sample_box: "SampleBox | None" = None
    label: str = ""
    meta: dict = dc_field(default_factory=dict)
    param_rates: dict[str, ScalarField] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.h.n != self.n:
            raise ValueError("Hamiltonian dimension disagrees with system dimension")
        unbound = set().union(*(f.free_params for f in (self.h, *self.guards))) - set(self.params)
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
        """The partial dh/dt: it meets the partial t-term of Y(h) in iota_Y d(eta_E),
        so any rates through which h moves would cancel there."""
        return partial(self.h, "t")

    def rate_term(self, F: ScalarField) -> ScalarField:
        """The sum of rate * dF/d(name) over the rated parameters F reads: the
        number 0 when it reads none, so adding it leaves a field's tree as it is."""
        acc = number(0.0, self.n)
        for name, rate in self.param_rates.items():
            if name in F.free_params:
                acc = acc + rate * partial(F, name)
        return acc

    def with_params(self, extra: Mapping[str, float]) -> "ContactSystem":
        """This system with `extra` bound over its parameters, so that `extra`
        wins; the coordinates still win over both (`expr.bindable_params`).
        With no `extra` it is this system itself, its derivatives kept."""
        return replace(self, params={**self.params, **extra}) if extra else self

    def env(self, point: ExtendedPoint, extra: Mapping[str, float] | None = None) -> dict[str, float]:
        """Parameters, then `extra`, then coordinates, which win as in `expr.bindable_params`."""
        return {**self.params, **(extra or {}), **point.env()}

    def admissible(self, point: ExtendedPoint, margin: float = 1e-3) -> bool:
        env = self.env(point)
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
# 1-forms


def contract_d_eta_E(system: ContactSystem, Y: VectorFieldSpec) -> tuple[ScalarField, ...]:
    """iota_Y d(eta_E) with d(eta_E) = dq^a ^ dp_a + dh ^ dt, exact partials of h,
    as 2n+2 fields in coordinate_names order."""
    n, Yt = system.n, Y.Yt
    # iota_Y(dh ^ dt) = Y(h) dt - Yt dh
    return (*(-Y.Yp[i] - Yt * system.h_q[i] for i in range(n)),
            *(Y.Yq[i] - Yt * system.h_p[i] for i in range(n)),
            -Yt * system.h_S,
            directional_derivative(Y, system.h) - Yt * system.h_t)


def interior_product_eta_E(system: ContactSystem, Y: VectorFieldSpec) -> ScalarField:
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
        self.scalar = interior_product_eta_E(system, Y)
        d_scalar = [partial(self.scalar, nm) for nm in coordinate_names(system.n)]
        d_scalar[-1] += system.rate_term(self.scalar)  # dt: t moves the rated parameters too
        self.form = tuple(c + d for c, d in zip(contract_d_eta_E(system, Y), d_scalar))

    def __call__(self, point: ExtendedPoint) -> list[float]:
        """The 2n+2 coefficients at one point, compiling a bundle on each call."""
        return list(point_bundle(self.form, self.system.params)(point))


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


def lie_bracket(Y: VectorFieldSpec, X: VectorFieldSpec,
                system: ContactSystem | None = None) -> VectorFieldSpec:
    """[Y, X] = (Y . grad) X - (X . grad) Y, componentwise on ASTs.  With a
    `system`, the d/dt of each component adds `system.rate_term` (t moves the
    rated parameters too), which leaves every tree of a system without rates."""
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
        if system is not None and system.param_rates:
            acc = acc + ycomps[-1] * system.rate_term(xi) - xcomps[-1] * system.rate_term(yi)
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
