"""Pointwise exterior calculus on the extended contact phase space.

Conventions (pinned by the test suite): the contact form is
``eta = dS - p_a dq^a`` with Reeb field ``d/dS``; the extended form is
``eta_E = dS - p_a dq^a + h dt`` and ``d(eta_E) = dq^a ^ dp_a + dh ^ dt``.

One-forms are evaluated pointwise (plain numbers); vector fields are kept
symbolic (per-component ScalarFields) so that Lie brackets and Lie
derivatives use exact structural derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from . import expr
from .expr import ScalarField, number, partial, variable


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

    def replace(self, **kw) -> "ExtendedPoint":
        data = {"q": self.q, "p": self.p, "S": self.S, "t": self.t}
        data.update(kw)
        return ExtendedPoint(**data)


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

    def apply_to(self, f: ScalarField) -> ScalarField:
        """Directional derivative Y(f) as a ScalarField."""
        return directional_derivative(self, f)

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


_COORD_NAMES_CACHE: dict[int, tuple[str, ...]] = {}


def coordinate_names(n: int) -> tuple[str, ...]:
    """Coordinate order used for component arrays: q0.., p0.., S, t."""
    try:
        return _COORD_NAMES_CACHE[n]
    except KeyError:
        names = tuple(f"q{i}" for i in range(n)) + tuple(f"p{i}" for i in range(n)) + ("S", "t")
        _COORD_NAMES_CACHE[n] = names
        return names


@dataclass(eq=False)
class ContactSystem:
    """A contact Hamiltonian system: dimension, Hamiltonian, parameter bindings.

    `domain_guard(point, margin)` marks the admissible region (e.g. a
    singularity exclusion zone); None means the whole space is admissible.
    `sample_box` documents the box used by seeded point generators.
    `meta` carries optional system-specific extras (auxiliary ODE data,
    registered invariants) and is not interpreted by this module.
    """

    n: int
    h: ScalarField
    params: dict[str, float] = dc_field(default_factory=dict)
    domain_guard: Callable[[ExtendedPoint, float], bool] | None = None
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
        env = point.env()
        env.update(self.params)
        if extra:
            env.update(extra)
        return env

    def h_value(self, point: ExtendedPoint, extra: Mapping[str, float] | None = None) -> float:
        return self.h.eval_env(self.env(point, extra))

    def admissible(self, point: ExtendedPoint, margin: float = 1e-3) -> bool:
        if point.n != self.n:
            return False
        return self.domain_guard is None or bool(self.domain_guard(point, margin))


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
    n = point.n
    return OneFormValue(-point.p, np.zeros(n), 1.0, 0.0)


def eta_extended(system: ContactSystem, point: ExtendedPoint,
                 extra: Mapping[str, float] | None = None) -> OneFormValue:
    """eta_E = dS - p_a dq^a + h dt at a point."""
    n = point.n
    return OneFormValue(-point.p, np.zeros(n), 1.0, system.h_value(point, extra))


def contract_d_eta_contact(Y: VectorFieldSpec, point: ExtendedPoint,
                           env: Mapping[str, float] | None = None) -> OneFormValue:
    """iota_Y (dq^a ^ dp_a) at a point."""
    e = dict(point.env()) if env is None else env
    yq = np.array([c.eval_env(e) for c in Y.Yq])
    yp = np.array([c.eval_env(e) for c in Y.Yp])
    return OneFormValue(-yp, yq, 0.0, 0.0)


def contract_d_eta_extended(system: ContactSystem, Y: VectorFieldSpec, point: ExtendedPoint,
                            extra: Mapping[str, float] | None = None) -> OneFormValue:
    """iota_Y d(eta_E) with d(eta_E) = dq^a ^ dp_a + dh ^ dt, exact partials of h."""
    env = system.env(point, extra)
    yq = np.array([c.eval_env(env) for c in Y.Yq])
    yp = np.array([c.eval_env(env) for c in Y.Yp])
    ys = Y.YS.eval_env(env)
    yt = Y.Yt.eval_env(env)
    hq = np.array([c.eval_env(env) for c in system.h_q])
    hp = np.array([c.eval_env(env) for c in system.h_p])
    hS = system.h_S.eval_env(env)
    ht = system.h_t.eval_env(env)
    # iota_Y(dh ^ dt) = Y(h) dt - Yt dh
    y_of_h = float(yq @ hq + yp @ hp + ys * hS + yt * ht)
    return OneFormValue(
        -yp - yt * hq,
        yq - yt * hp,
        -yt * hS,
        y_of_h - yt * ht,
    )


def interior_product_eta_extended(system: ContactSystem, Y: VectorFieldSpec) -> ScalarField:
    """iota_Y eta_E = Y^S - p_a Y^a + h Y^t as a symbolic field."""
    n = system.n
    acc = Y.YS
    for i in range(n):
        acc = acc - variable(f"p{i}", n) * Y.Yq[i]
    return acc + system.h * Y.Yt


class LieDerivativeEta:
    """L_Y eta_E prepared for repeated pointwise evaluation: the partials of
    iota_Y eta_E are built (and compiled) once per (system, Y) pair."""

    def __init__(self, system: ContactSystem, Y: VectorFieldSpec):
        self.system = system
        self.Y = Y
        self.scalar = interior_product_eta_extended(system, Y)
        names = coordinate_names(system.n)
        self._grads = tuple(partial(self.scalar, nm) for nm in names)
        self._param_grads: dict[str, ScalarField] = {}

    def _rate_term(self, name: str, env: Mapping[str, float]) -> float:
        if name not in self.scalar.free_params:
            return 0.0
        grad = self._param_grads.get(name)
        if grad is None:
            grad = self._param_grads[name] = partial(self.scalar, name)
        return grad.eval_env(env)

    def __call__(self, point: ExtendedPoint,
                 extra: Mapping[str, float] | None = None,
                 param_rates: Mapping[str, float] | None = None) -> OneFormValue:
        env = self.system.env(point, extra)
        contracted = contract_d_eta_extended(self.system, self.Y, point, extra)
        n = self.system.n
        grads = np.array([g.eval_env(env) for g in self._grads])
        ddt = grads[2 * n + 1]
        if param_rates:
            for name, rate in param_rates.items():
                ddt += rate * self._rate_term(name, env)
        return OneFormValue(contracted.dq + grads[:n], contracted.dp + grads[n:2 * n],
                            contracted.dS + grads[2 * n], contracted.dt + ddt)


def lie_derivative_eta(system: ContactSystem, Y: VectorFieldSpec, point: ExtendedPoint,
                       extra: Mapping[str, float] | None = None,
                       param_rates: Mapping[str, float] | None = None) -> OneFormValue:
    """Cartan formula L_Y eta_E = iota_Y d(eta_E) + d(iota_Y eta_E) at a point.

    `param_rates` gives d(param)/dt for parameters standing in for
    time-dependent auxiliary functions; their contribution enters the dt
    component of the exact differential.  For evaluation at many points,
    build a :class:`LieDerivativeEta` once instead.
    """
    return LieDerivativeEta(system, Y)(point, extra, param_rates)


def proportionality_residual(omega: OneFormValue, eta: OneFormValue) -> tuple[float, float]:
    """Decompose omega against eta_E: lambda from the dS slot (eta_E.dS == 1),
    residual = max over the remaining components of |omega_i - lambda*eta_i|,
    normalised by max(1, ||omega||_inf)."""
    lam = omega.dS
    w = omega.as_array()
    e = eta.as_array()
    mism = np.abs(w - lam * e)
    mism[2 * len(omega.dq)] = 0.0  # dS slot defines lambda exactly
    return lam, float(np.max(mism) / max(1.0, np.max(np.abs(w))))


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
