"""Dissipation-equation residuals and the symmetry <-> invariant machinery.

Implements both directions of the generalized Noether correspondence on the
extended contact phase space: a symmetry Y (with L_Y eta_E = lambda eta_E)
yields the dissipated quantity F = -iota_Y eta_E (the negated
`geometry.interior_product_eta_E`), and a dissipated quantity
F yields the symmetry X_F + Yt * X_h^t with the gauge function Yt free.
Every field's checks are built whole, L_Y eta_E and L_[Y1,Y2] eta_E by the
Cartan formula (`geometry.LieDerivativeEta`, `geometry.bracket_lie_derivative`).
Classification of dynamical similarities ([Y, X] = Lambda X) and Lie-algebra
closure checks live here as well.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import neg
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .expr import DomainError, ScalarField, compile_bundle, number, partial
from .dynamics import Trajectory, cumulative_integral, extended_field
from .geometry import (
    GUARD_MARGIN,
    ContactSystem,
    ExtendedPoint,
    LieDerivativeEta,
    VectorFieldSpec,
    bracket_lie_derivative,
    contact_field_of,
    coordinate_names,
    derivative_along,
    directional_derivative,
    lie_bracket,
    nan_max,
    point_bundle,
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


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of testing L_Y eta_E = lambda eta_E over a sample batch."""

    lambda_at_samples: tuple[float, ...]
    residual: float
    verdict: str
    lambda_defect: float | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == GENERALIZED_NOETHER


@dataclass(frozen=True)
class SimilarityReport:
    """Outcome of testing [Y, X] = Lambda X over a sample batch."""

    Lambda_at_samples: tuple[float, ...]
    residual: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict in (SIMILARITY, DYNAMICAL_SYMMETRY)


# ---------------------------------------------------------------------------
# seeded sample generation


def sample_points(system: ContactSystem, count: int, seed: int,
                  margin: float = GUARD_MARGIN) -> list[ExtendedPoint]:
    """Uniform seeded samples from the system's box, rejecting inadmissible
    points: a DomainError of h or a guard, or a guard value below `margin` or
    NaN.  `random.Random(seed)` draws each candidate's q, p, S and t as `Random.uniform` does,
    lo + width * random(); one bundle of h and the guards screens it, and only an accepted one
    is made a point, unchecked (`ExtendedPoint.drawn`)."""
    if not isinstance(seed, int) or seed < 0:  # Random would take None, a float or a string
        raise ValueError("seed must be a non-negative integer")
    n, box = system.n, system.sample_box
    spans = [(lo, hi - lo) for lo, hi in (*[box.q] * n, *[box.p] * n, box.S, box.t)]
    uniform, admits = random.Random(seed).random, float(margin).__le__
    screen = compile_bundle([system.h, *system.guards], coordinate_names(n), system.params)
    out: list[ExtendedPoint] = []
    for _ in range(200 * count + 1000):
        coords = [lo + width * uniform() for lo, width in spans]
        try:
            _, *guards = screen(*coords)
        except DomainError:
            continue
        if all(map(admits, guards)):
            out.append(ExtendedPoint.drawn(coords, n))
        if len(out) >= count:
            return out
    raise RuntimeError("sampling box rejects too many points")


# ---------------------------------------------------------------------------
# dissipation equation


def dissipation_field(system: ContactSystem, F: ScalarField) -> ScalarField:
    """X_h^t(F) + R(h) F with R(h) = dh/dS, the t-derivative taken through the
    rated parameters too; identically zero when F is dissipated.  Build it
    once and evaluate it at every sample."""
    return directional_derivative(extended_field(system), F) + system.h_S * F \
        + system.rate_term(F)


def dissipation_residual(system: ContactSystem, F: ScalarField, point: ExtendedPoint) -> float:
    """`dissipation_field` at one point, compiling its bundle on each call."""
    return point_bundle([dissipation_field(system, F)], system.params)(point)[0]


# ---------------------------------------------------------------------------
# the two theorem directions


def symmetry_from_invariant(system: ContactSystem, F: ScalarField,
                            Yt: ScalarField | float = 0.0) -> VectorFieldSpec:
    """The most general symmetry associated with a dissipated quantity F:
    X_F plus the gauge term Yt * X_h^t (Yt a free function)."""
    if not isinstance(Yt, ScalarField):
        Yt = number(float(Yt), system.n)
    return contact_field_of(F) + extended_field(system).scaled(Yt)


def noether_lambda(system: ContactSystem, F: ScalarField,
                   Yt: ScalarField | float = 0.0) -> ScalarField:
    """The proportionality factor of the constructed symmetry:
    lambda = -Yt dh/dS - dF/dS."""
    if not isinstance(Yt, ScalarField):
        Yt = number(float(Yt), system.n)
    return -(Yt * system.h_S) - partial(F, "S")


# ---------------------------------------------------------------------------
# classification


class Pointwise(NamedTuple):
    """A pointwise check, built: the fields it reads at every sample, and `judge`,
    which reads their values, one row per sample in sample order, into its report."""

    fields: tuple[ScalarField, ...]
    judge: Callable[[Sequence[ExtendedPoint], Iterable[Sequence[float]]], Any]

    def rows(self, samples: Sequence[ExtendedPoint], params: Mapping[str, float]) -> Iterator:
        """Its fields' values at each sample in turn, from a bundle of its own; a
        DomainError gains its sample's index and coordinates."""
        at = point_bundle(self.fields, params)
        for k, pt in enumerate(samples):
            try:
                yield at(pt)
            except DomainError as e:
                coords = ", ".join(f"{name}={v!r}" for name, v in pt.env().items())
                e.args = (f"sample {k} ({coords}): {e}",)
                raise

    def run(self, samples: Sequence[ExtendedPoint], params: Mapping[str, float]) -> Any:
        """Judged from its `rows`."""
        return self.judge(samples, self.rows(samples, params))


def build_residual(system: ContactSystem, F: ScalarField) -> Pointwise:
    """The largest |`dissipation_field`| over the samples."""
    return Pointwise((dissipation_field(system, F),), lambda _, rows: nan_max([abs(v) for v, in rows]))


def build_symmetry(system: ContactSystem, form: Sequence[ScalarField], threshold: float,
                   *expected: ScalarField) -> Pointwise:
    """lambda and the proportionality residual at every sample, from a form L_Y eta_E, h
    and the expected lambda, if given (the defect is its largest deviation)."""
    m, zeros = 2 * system.n + 2, (0.0,) * system.n

    def judge(samples: Sequence[ExtendedPoint], rows: Iterable[Sequence[float]]) -> SymmetryReport:
        lambdas, residuals, deviations = [], [], []
        for pt, v in zip(samples, rows):
            lam, res = proportionality_residual(v[:m], (*map(neg, pt.p), *zeros, 1.0, v[m]))
            lambdas.append(lam)
            residuals.append(res)
            deviations += [abs(e - lam) for e in v[m + 1:]]
        worst, defect = nan_max(residuals), nan_max(deviations)
        failed = not worst <= threshold or (expected and not defect <= threshold)
        return SymmetryReport(tuple(lambdas), worst, NOT_SYMMETRY if failed else GENERALIZED_NOETHER,
                              defect if expected else None)

    return Pointwise((*form, system.h, *expected), judge)


def symmetry_test(system: ContactSystem, Y: VectorFieldSpec,
                  samples: Sequence[ExtendedPoint],
                  threshold: float = SYMBOLIC_THRESHOLD) -> SymmetryReport:
    """Test L_Y eta_E = lambda eta_E pointwise; lambda is read from the dS
    component (eta_E has dS coefficient identically 1)."""
    return build_symmetry(system, LieDerivativeEta(system, Y).form, threshold).run(
        samples, system.params)


def build_similarity(Y: VectorFieldSpec, X: VectorFieldSpec, residual_threshold: float,
                     lambda_threshold: float, system: ContactSystem | None) -> Pointwise:
    """`similarity_test`, built from X and [Y, X]."""
    m = 2 * X.n + 2

    def judge(_: Sequence[ExtendedPoint], rows: Iterable[Sequence[float]]) -> SimilarityReport:
        Lambdas, residuals = [], []
        for k, v in enumerate(rows):
            xv, bv = v[:m], v[m:]
            xabs = list(map(abs, xv))
            xmax = max(xabs)
            if xmax <= 1e-8:
                raise DegeneratePoint(f"reference field vanishes at sample {k}")
            idx = xabs.index(xmax)
            lam = bv[idx] / xv[idx]
            Lambdas.append(lam)
            residuals.append(nan_max([abs(b - lam * x) for b, x in zip(bv, xv)])
                             / max(1.0, max(map(abs, bv))))
        worst = nan_max(residuals)
        if not worst <= residual_threshold:
            verdict = NEITHER
        elif max(map(abs, Lambdas)) <= lambda_threshold:
            verdict = DYNAMICAL_SYMMETRY
        else:
            verdict = SIMILARITY
        return SimilarityReport(tuple(Lambdas), worst, verdict)

    return Pointwise((*X.components(), *lie_bracket(Y, X, system).components()), judge)


def similarity_test(Y: VectorFieldSpec, X: VectorFieldSpec,
                    samples: Sequence[ExtendedPoint],
                    residual_threshold: float = SYMBOLIC_THRESHOLD,
                    lambda_threshold: float = SYMBOLIC_THRESHOLD,
                    system: ContactSystem | None = None) -> SimilarityReport:
    """Test [Y, X] = Lambda X pointwise.  Lambda is read at the index of X's
    largest-magnitude component, then residual-checked on all components.
    The fields read `system`'s parameters (none without a system), and the
    bracket follows the rates of its rated parameters."""
    return build_similarity(Y, X, residual_threshold, lambda_threshold, system).run(
        samples, system.params if system else {})


def build_closure(system: ContactSystem, Y1: VectorFieldSpec, Y2: VectorFieldSpec,
                  threshold: float, lambda1: ScalarField | None,
                  lambda2: ScalarField | None) -> Pointwise:
    """`closure_check`, built from L_{[Y1, Y2]} eta_E (`bracket_lie_derivative`)."""
    expected = []
    if lambda1 is not None and lambda2 is not None:
        expected = [derivative_along(system, Y1, lambda2) - derivative_along(system, Y2, lambda1)]
    return build_symmetry(system, bracket_lie_derivative(system, Y1, Y2), threshold, *expected)


def closure_check(system: ContactSystem, Y1: VectorFieldSpec, Y2: VectorFieldSpec,
                  samples: Sequence[ExtendedPoint],
                  threshold: float = SYMBOLIC_THRESHOLD,
                  lambda1: ScalarField | None = None,
                  lambda2: ScalarField | None = None) -> SymmetryReport:
    """Check that [Y1, Y2] is again a symmetry; when the factors lambda_i of
    Y1, Y2 are supplied, also verify lambda_bracket = Y1(lambda2) - Y2(lambda1).
    The bracket and both derivatives follow the rates of the rated parameters."""
    return build_closure(system, Y1, Y2, threshold, lambda1, lambda2).run(samples, system.params)


# ---------------------------------------------------------------------------
# flow compensation


def dissipation_compensation(system: ContactSystem, traj: Trajectory) -> list[float]:
    """Per-sample factor exp(integral of R(h) dt) along a trajectory, so that
    compensated dissipated quantities F * factor should be constant."""
    return [math.inf if v > 709.782712893384 else math.exp(v)  # exp past it overflows
            for v in cumulative_integral(system, traj, system.h_S)]


def max_relative_drift(values: Sequence[float]) -> float:
    """max_k |v_k - v_0| / max(1, |v_0|); NaN when any value is NaN."""
    v0 = values[0]
    return nan_max([abs(v - v0) for v in values]) / max(1.0, abs(v0))
