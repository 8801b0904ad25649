"""Dissipation-equation residuals and the symmetry <-> invariant machinery.

Implements both directions of the generalized Noether correspondence on the
extended contact phase space: a symmetry Y (with L_Y eta_E = lambda eta_E)
yields the dissipated quantity F = -iota_Y eta_E, and a dissipated quantity
F yields the symmetry X_F + Yt * X_h^t with the gauge function Yt free.
Classification of dynamical similarities ([Y, X] = Lambda X) and Lie-algebra
closure checks live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .expr import DomainError, ExprError, ScalarField, number, partial
from .dynamics import (Trajectory, contact_field, contact_field_of, cumulative_integral,
                       extended_field)
from .geometry import (
    ContactSystem,
    ExtendedPoint,
    LieDerivativeEta,
    SampleBox,
    VectorFieldSpec,
    directional_derivative,
    eta_extended,
    interior_product_eta_extended,
    lie_bracket,
    proportionality_residual,
)

GENERALIZED_NOETHER = "GeneralizedNoether"
NOT_SYMMETRY = "NotSymmetry"
SIMILARITY = "Similarity"
DYNAMICAL_SYMMETRY = "DynamicalSymmetry"
NEITHER = "Neither"

#: default residual threshold for symbolically exact constructions
SYMBOLIC_THRESHOLD = 1e-9
#: default threshold for flow-based checks
FLOW_THRESHOLD = 1e-6


class DegeneratePoint(Exception):
    """The reference field vanishes at a sample, so no similarity factor fits."""


class DivisionNearZero(ExprError):
    pass


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of testing L_Y eta_E = lambda eta_E over a sample batch."""

    lambda_at_samples: np.ndarray
    residual: float
    verdict: str
    threshold: float
    lambda_defect: float | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == GENERALIZED_NOETHER


@dataclass(frozen=True)
class SimilarityReport:
    """Outcome of testing [Y, X] = Lambda X over a sample batch."""

    Lambda_at_samples: np.ndarray
    residual: float
    verdict: str
    residual_threshold: float
    lambda_threshold: float

    @property
    def passed(self) -> bool:
        return self.verdict in (SIMILARITY, DYNAMICAL_SYMMETRY)


# ---------------------------------------------------------------------------
# seeded sample generation


def sample_points(system: ContactSystem, count: int, seed: int,
                  box: SampleBox | None = None, margin: float = 1e-3,
                  extra: Mapping[str, float] | None = None) -> list[ExtendedPoint]:
    """Uniform seeded samples from the system's box, rejecting inadmissible
    points (guard violations or Hamiltonian domain errors)."""
    box = box or system.sample_box or SampleBox()
    rng = np.random.default_rng(seed)
    out: list[ExtendedPoint] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise RuntimeError("sampling box rejects too many points")
        q = rng.uniform(box.q[0], box.q[1], system.n)
        p = rng.uniform(box.p[0], box.p[1], system.n)
        S = rng.uniform(box.S[0], box.S[1])
        t = rng.uniform(box.t[0], box.t[1])
        pt = ExtendedPoint(q, p, S, t)
        if not system.admissible(pt, margin):
            continue
        try:
            system.h_value(pt, extra)
        except DomainError:
            continue
        out.append(pt)
    return out


# ---------------------------------------------------------------------------
# dissipation equation


def dissipation_field(system: ContactSystem, F: ScalarField) -> ScalarField:
    """X_h^t(F) + R(h) F with R(h) = dh/dS; identically zero when F is
    dissipated.  Build it once and evaluate it at every sample."""
    return directional_derivative(extended_field(system), F) + system.h_S * F


def dissipation_residual(system: ContactSystem, F: ScalarField, point: ExtendedPoint,
                         extra: Mapping[str, float] | None = None,
                         param_rates: Mapping[str, float] | None = None) -> float:
    """X_h^t(F) + R(h) F at a point, with exact partials.

    `param_rates` supplies d(param)/dt for parameters that stand in for
    time-dependent auxiliary functions, so their implicit time dependence
    enters the d/dt term exactly.  For evaluation at many points, build
    :func:`dissipation_field` once instead.
    """
    env = system.env(point, extra)
    acc = dissipation_field(system, F).eval_env(env)
    if param_rates:
        for name, rate in param_rates.items():
            if name in F.free_params:
                acc += rate * partial(F, name).eval_env(env)
    return acc


# ---------------------------------------------------------------------------
# the two theorem directions


def invariant_from_symmetry(system: ContactSystem, Y: VectorFieldSpec) -> ScalarField:
    """F = -iota_Y eta_E = p_a Y^a - Y^S - h Y^t."""
    return -interior_product_eta_extended(system, Y)


def symmetry_from_invariant(system: ContactSystem, F: ScalarField,
                            Yt: ScalarField | float = 0.0) -> VectorFieldSpec:
    """The most general symmetry associated with a dissipated quantity F:
    X_F plus the gauge term Yt * X_h^t (Yt a free function)."""
    n = system.n
    if not isinstance(Yt, ScalarField):
        Yt = number(float(Yt), n)
    base = contact_field_of(F)
    gauge = extended_field(system).scaled(Yt)
    return VectorFieldSpec(
        tuple(b + g for b, g in zip(base.Yq, gauge.Yq)),
        tuple(b + g for b, g in zip(base.Yp, gauge.Yp)),
        base.YS + gauge.YS,
        Yt,
    )


def noether_lambda(system: ContactSystem, F: ScalarField,
                   Yt: ScalarField | float = 0.0) -> ScalarField:
    """The proportionality factor of the constructed symmetry:
    lambda = -Yt dh/dS - dF/dS."""
    if not isinstance(Yt, ScalarField):
        Yt = number(float(Yt), system.n)
    return -(Yt * system.h_S) - partial(F, "S")


# ---------------------------------------------------------------------------
# classification


def symmetry_test(system: ContactSystem, Y: VectorFieldSpec,
                  samples: Sequence[ExtendedPoint],
                  threshold: float = SYMBOLIC_THRESHOLD,
                  extra: Mapping[str, float] | None = None,
                  param_rates: Mapping[str, float] | None = None) -> SymmetryReport:
    """Test L_Y eta_E = lambda eta_E pointwise; lambda is read from the dS
    component (eta_E has dS coefficient identically 1)."""
    lie_d = LieDerivativeEta(system, Y)
    lambdas = np.empty(len(samples))
    worst = 0.0
    for k, pt in enumerate(samples):
        omega = lie_d(pt, extra, param_rates)
        eta = eta_extended(system, pt, extra)
        lam, res = proportionality_residual(omega, eta)
        lambdas[k] = lam
        worst = max(worst, res)
    verdict = GENERALIZED_NOETHER if worst <= threshold else NOT_SYMMETRY
    return SymmetryReport(lambdas, worst, verdict, threshold)


def similarity_test(Y: VectorFieldSpec, X: VectorFieldSpec,
                    samples: Sequence[ExtendedPoint],
                    residual_threshold: float = SYMBOLIC_THRESHOLD,
                    lambda_threshold: float = SYMBOLIC_THRESHOLD,
                    params: Mapping[str, float] | None = None) -> SimilarityReport:
    """Test [Y, X] = Lambda X pointwise.  Lambda is read at the index of X's
    largest-magnitude component, then residual-checked on all components."""
    bracket = lie_bracket(Y, X)
    params = dict(params or {})
    Lambdas = np.empty(len(samples))
    worst = 0.0
    for k, pt in enumerate(samples):
        env = pt.env()
        env.update(params)
        xv = X.eval(env)
        bv = bracket.eval(env)
        xmax = float(np.max(np.abs(xv)))
        if xmax <= 1e-8:
            raise DegeneratePoint(f"reference field vanishes at sample {k}")
        idx = int(np.argmax(np.abs(xv)))
        lam = bv[idx] / xv[idx]
        Lambdas[k] = lam
        res = float(np.max(np.abs(bv - lam * xv))) / max(1.0, float(np.max(np.abs(bv))))
        worst = max(worst, res)
    if worst > residual_threshold:
        verdict = NEITHER
    elif float(np.max(np.abs(Lambdas))) <= lambda_threshold:
        verdict = DYNAMICAL_SYMMETRY
    else:
        verdict = SIMILARITY
    return SimilarityReport(Lambdas, worst, verdict, residual_threshold, lambda_threshold)


def closure_check(system: ContactSystem, Y1: VectorFieldSpec, Y2: VectorFieldSpec,
                  samples: Sequence[ExtendedPoint],
                  threshold: float = SYMBOLIC_THRESHOLD,
                  lambda1: ScalarField | None = None,
                  lambda2: ScalarField | None = None,
                  extra: Mapping[str, float] | None = None) -> SymmetryReport:
    """Check that [Y1, Y2] is again a symmetry; when the factors lambda_i of
    Y1, Y2 are supplied, also verify lambda_bracket = Y1(lambda2) - Y2(lambda1)."""
    bracket = lie_bracket(Y1, Y2)
    report = symmetry_test(system, bracket, samples, threshold, extra)
    defect = None
    if lambda1 is not None and lambda2 is not None:
        expected = directional_derivative(Y1, lambda2) - directional_derivative(Y2, lambda1)
        defect = 0.0
        for k, pt in enumerate(samples):
            env = system.env(pt, extra)
            defect = max(defect, abs(expected.eval_env(env) - report.lambda_at_samples[k]))
        if defect > threshold:
            report = SymmetryReport(report.lambda_at_samples, report.residual,
                                    NOT_SYMMETRY, threshold, defect)
            return report
    return SymmetryReport(report.lambda_at_samples, report.residual, report.verdict,
                          threshold, defect)


def contact_bracket_defect(system: ContactSystem, Y: VectorFieldSpec,
                           samples: Sequence[ExtendedPoint],
                           extra: Mapping[str, float] | None = None) -> float:
    """Contact-level Noether obstruction: max |iota_[X_h, Y] eta_E| over samples.

    For a t-independent Y this is |X_h^t(F) + R(h) F| with F = -iota_Y eta_E,
    so zero (to tolerance) is necessary for Y to generate a dissipated
    quantity.  When Y^t does not depend on (q, p, S), [X_h, Y] has no dt
    component and eta_E may be read as the contact form eta.
    """
    scalar = interior_product_eta_extended(system, lie_bracket(contact_field(system), Y))
    worst = 0.0
    for pt in samples:
        worst = max(worst, abs(scalar.eval_env(system.env(pt, extra))))
    return worst


# ---------------------------------------------------------------------------
# ratios and flow compensation


@dataclass(eq=False)
class RatioField(ScalarField):
    """Quotient of two dissipated quantities; conserved wherever defined."""

    num: ScalarField = None  # type: ignore[assignment]
    den: ScalarField = None  # type: ignore[assignment]

    def eval_env(self, env: Mapping[str, float]) -> float:
        d = self.den.eval_env(env)
        if abs(d) < 1e-12:
            raise DivisionNearZero(f"denominator |{self.den.source()}| < 1e-12")
        return self.num.eval_env(env) / d


def ratio_invariant(F: ScalarField, G: ScalarField) -> RatioField:
    """F/G with a near-zero denominator guard at evaluation time."""
    if F.n != G.n:
        raise ValueError("dimension mismatch")
    quotient = F / G
    return RatioField(quotient.ast, F.n, num=F, den=G)


def dissipation_compensation(system: ContactSystem, traj: Trajectory,
                             extra_params: Mapping[str, float] | None = None) -> np.ndarray:
    """Per-sample factor exp(integral of R(h) dt) along a trajectory, so that
    compensated dissipated quantities F * factor should be constant."""
    return np.exp(cumulative_integral(system, traj, system.h_S, extra_params))


def max_relative_drift(values: np.ndarray) -> float:
    """max_k |v_k - v_0| / max(1, |v_0|)."""
    v = np.asarray(values, dtype=float)
    return float(np.max(np.abs(v - v[0])) / max(1.0, abs(v[0])))
