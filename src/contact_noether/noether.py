"""Dissipation-equation residuals and the symmetry <-> invariant machinery.

Implements both directions of the generalized Noether correspondence on the
extended contact phase space: a symmetry Y (with L_Y eta_E = lambda eta_E)
yields the dissipated quantity F = -iota_Y eta_E (the negated
`geometry.interior_product_eta_E`), and a dissipated quantity
F yields the symmetry X_F + Yt * X_h^t with the gauge function Yt free.
Classification of dynamical similarities ([Y, X] = Lambda X) and Lie-algebra
closure checks live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .expr import DomainError, ScalarField, number, partial
from .dynamics import Trajectory, contact_field_of, cumulative_integral, extended_field
from .geometry import (
    ContactSystem,
    ExtendedPoint,
    LieDerivativeEta,
    SampleBox,
    VectorFieldSpec,
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
    threshold: float
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
    residual_threshold: float
    lambda_threshold: float

    @property
    def passed(self) -> bool:
        return self.verdict in (SIMILARITY, DYNAMICAL_SYMMETRY)


# ---------------------------------------------------------------------------
# seeded sample generation

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's 32-bit hashmix, whose constant advances per call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _uniform_draws(seed: int) -> Callable[[float, float], float]:
    """`uniform(lo, hi)`, one draw per call, bit for bit the draws of NumPy's
    ``default_rng(seed).uniform``: SeedSequence(seed) seeds PCG64 (O'Neill's
    XSL-RR 128/64), and a draw is lo + (hi - lo) * ((next64 >> 11) * 2**-53)."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(max(4, len(entropy))):  # mix_entropy: pool words, then words past 4
        for dst in range(4):
            if src != dst:
                y = hashmix(pool[src] if src < 4 else entropy[src])
                pool[dst] = (r := 0xCA01F9DD * pool[dst] - 0x4973F715 * y & _M32) ^ r >> 16
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [out(pool[i % 4]) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, ((i_hi << 64 | i_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * mult + inc) & _M128  # step from 0, add seed, step

    def uniform(lo: float, hi: float) -> float:
        nonlocal state
        state = state * mult + inc & _M128
        word, rot = (state >> 64 ^ state) & _M64, state >> 122
        bits = (word >> rot | word << 64 - rot) & _M64
        return float(lo) + (float(hi) - float(lo)) * ((bits >> 11) * 2.0**-53)

    return uniform


def sample_points(system: ContactSystem, count: int, seed: int,
                  box: SampleBox | None = None, margin: float = 1e-3) -> list[ExtendedPoint]:
    """Uniform seeded samples from the system's box, rejecting inadmissible
    points: a DomainError of h or a guard, or a guard value below `margin` or
    NaN.  One bundle of h and the guards screens each point."""
    box = box or system.sample_box or SampleBox()
    uniform = _uniform_draws(seed)
    at = point_bundle([system.h, *system.guards], system.params)
    out: list[ExtendedPoint] = []
    for _ in range(200 * count + 1000):
        q = [uniform(*box.q) for _ in range(system.n)]
        p = [uniform(*box.p) for _ in range(system.n)]
        pt = ExtendedPoint(q, p, uniform(*box.S), uniform(*box.t))
        try:
            _, *guards = at(pt)
        except DomainError:
            continue
        if all(g >= margin for g in guards):
            out.append(pt)
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


def residual_at(system: ContactSystem, F: ScalarField) -> Callable[[ExtendedPoint], float]:
    """`dissipation_field` compiled once, as a function of a point."""
    at = point_bundle([dissipation_field(system, F)], system.params)
    return lambda point: at(point)[0]


def dissipation_residual(system: ContactSystem, F: ScalarField, point: ExtendedPoint) -> float:
    """`residual_at` at one point, compiling its bundle on each call."""
    return residual_at(system, F)(point)


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

    def run(self, samples: Sequence[ExtendedPoint], params: Mapping[str, float]) -> Any:
        """Judged from a bundle of its own fields, called at each sample in turn."""
        return self.judge(samples, map(point_bundle(self.fields, params), samples))


def build_residual(system: ContactSystem, F: ScalarField) -> Pointwise:
    """The largest |`dissipation_field`| over the samples."""
    return Pointwise((dissipation_field(system, F),), lambda _, rows: nan_max(abs(v) for v, in rows))


def build_symmetry(system: ContactSystem, Y: VectorFieldSpec, threshold: float,
                   *expected: ScalarField) -> Pointwise:
    """lambda and the proportionality residual at every sample, from L_Y eta_E, h and
    the expected lambda, if given (the defect is its largest deviation)."""
    m, zeros = 2 * system.n + 2, (0.0,) * system.n

    def judge(samples: Sequence[ExtendedPoint], rows: Iterable[Sequence[float]]) -> SymmetryReport:
        lambdas, residuals, deviations = [], [], []
        for pt, v in zip(samples, rows):
            lam, res = proportionality_residual(v[:m], (*(-p for p in pt.p), *zeros, 1.0, v[m]))
            lambdas.append(lam)
            residuals.append(res)
            deviations.extend(abs(e - lam) for e in v[m + 1:])
        worst, defect = nan_max(residuals), nan_max(deviations)
        failed = not worst <= threshold or (expected and not defect <= threshold)
        return SymmetryReport(tuple(lambdas), worst, NOT_SYMMETRY if failed else GENERALIZED_NOETHER,
                              threshold, defect if expected else None)

    return Pointwise((*LieDerivativeEta(system, Y).form, system.h, *expected), judge)


def symmetry_test(system: ContactSystem, Y: VectorFieldSpec,
                  samples: Sequence[ExtendedPoint],
                  threshold: float = SYMBOLIC_THRESHOLD) -> SymmetryReport:
    """Test L_Y eta_E = lambda eta_E pointwise; lambda is read from the dS
    component (eta_E has dS coefficient identically 1)."""
    return build_symmetry(system, Y, threshold).run(samples, system.params)


def build_similarity(Y: VectorFieldSpec, X: VectorFieldSpec, residual_threshold: float,
                     lambda_threshold: float, system: ContactSystem | None) -> Pointwise:
    """`similarity_test`, built from X and [Y, X]."""
    m = 2 * X.n + 2

    def judge(_: Sequence[ExtendedPoint], rows: Iterable[Sequence[float]]) -> SimilarityReport:
        Lambdas, residuals = [], []
        for k, v in enumerate(rows):
            xv, bv = v[:m], v[m:]
            xabs = [abs(x) for x in xv]
            xmax = max(xabs)
            if xmax <= 1e-8:
                raise DegeneratePoint(f"reference field vanishes at sample {k}")
            idx = xabs.index(xmax)
            lam = bv[idx] / xv[idx]
            Lambdas.append(lam)
            residuals.append(nan_max(abs(b - lam * x) for b, x in zip(bv, xv))
                             / max(1.0, max(abs(b) for b in bv)))
        worst = nan_max(residuals)
        if not worst <= residual_threshold:
            verdict = NEITHER
        elif max(abs(lam) for lam in Lambdas) <= lambda_threshold:
            verdict = DYNAMICAL_SYMMETRY
        else:
            verdict = SIMILARITY
        return SimilarityReport(tuple(Lambdas), worst, verdict, residual_threshold,
                                lambda_threshold)

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
    """`closure_check`, built."""
    def along(Y: VectorFieldSpec, f: ScalarField) -> ScalarField:
        return directional_derivative(Y, f) + Y.Yt * system.rate_term(f)

    expected = []
    if lambda1 is not None and lambda2 is not None:
        expected = [along(Y1, lambda2) - along(Y2, lambda1)]
    return build_symmetry(system, lie_bracket(Y1, Y2, system), threshold, *expected)


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
    return nan_max(abs(v - v0) for v in values) / max(1.0, abs(v0))
