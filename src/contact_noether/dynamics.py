"""Contact Hamiltonian vector fields and adaptive Runge-Kutta flow.

The integrator is an embedded Dormand-Prince 5(4) pair with the classical
PI step controller (beta = 0.04, safety 0.9) and the Hairer-Norsett-Wanner
initial-step heuristic.  Setting ``min_step == max_step`` forces fixed
steps, which the order-check tests rely on.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .expr import DomainError, Num, ScalarField, compile_bundle, number, partial, variable
from .geometry import (ContactSystem, ExtendedPoint, VectorFieldSpec, bindable_params,
                       coordinate_names)


class TimeDependentHamiltonian(Exception):
    """Raised when a plain contact field is requested for a t-dependent h."""


def contact_field_of(F: ScalarField) -> VectorFieldSpec:
    """Contact Hamiltonian vector field of an arbitrary function F:
    X_F = dF/dp_a d_q - (dF/dq^a + p_a dF/dS) d_p + (p_a dF/dp_a - F) d_S."""
    n = F.n
    Fp = [partial(F, f"p{i}") for i in range(n)]
    Yq = tuple(Fp)
    Yp = tuple(-(partial(F, f"q{i}") + variable(f"p{i}", n) * partial(F, "S"))
               for i in range(n))
    YS = number(0.0, n)
    for i in range(n):
        YS = YS + variable(f"p{i}", n) * Fp[i]
    YS = YS - F
    return VectorFieldSpec(Yq, Yp, YS, number(0.0, n))


def contact_field(system: ContactSystem) -> VectorFieldSpec:
    """X_h for a time-independent contact Hamiltonian (Yt = 0)."""
    if "t" in system.h.free_vars:
        raise TimeDependentHamiltonian(
            "h depends on t; use extended_field for time-dependent systems")
    return contact_field_of(system.h)


def extended_field(system: ContactSystem) -> VectorFieldSpec:
    """X_h^t = X_h + d/dt (the f = 1 normalisation)."""
    base = contact_field_of(system.h)
    return VectorFieldSpec(base.Yq, base.Yp, base.YS, number(1.0, system.n))


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4)

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# difference between the 5th-order propagating and 4th-order embedded weights
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _combination(coeffs: tuple[float, ...], base: bool) -> Callable:
    """`(y, h, k) -> [y + h*(0 + c*k[j] + ...)]` (without `y + ` unless `base`)
    over the nonzero c, on rows of floats: numpy's elementwise operations
    and order for `y + h * sum(c * k[j] ...)`, so the rows are bit-identical."""
    js = [j for j, c in enumerate(coeffs) if c != 0.0]
    terms = " + ".join(f"{coeffs[j]!r} * k{j}" for j in js)
    ks, rows = ", ".join(f"k{j}" for j in js), ", ".join(f"k[{j}]" for j in js)
    return eval(f"lambda y, h, k: [{'y_ + ' if base else ''}h * (0 + {terms}) "
                f"for y_, {ks} in zip(y, {rows})]")


# the last stage is taken at the 5th-order solution, whose weights are _DP_A[6]
_STAGES = tuple(_combination(_DP_A[i], True) for i in range(1, 7))
_ERROR = _combination(_DP_E, False)

_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2   # largest allowed shrink factor per step
_FAC_MAX = 10.0  # largest allowed growth factor per step

STEP_SIZE_UNDERFLOW = "StepSizeUnderflow"
DOMAIN_VIOLATION = "DomainViolation"
AUXILIARY_BLOWUP = "AuxiliaryBlowup"


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    min_step: float = 1e-12
    guard_margin: float = 1e-3

    def __post_init__(self) -> None:
        if not (0.0 < self.min_step <= self.max_step):
            raise ValueError("require 0 < min_step <= max_step")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass
class IntegratorStats:
    accepted: int = 0
    rejected: int = 0
    max_error_estimate: float = 0.0  # scaled local error norm among accepted steps


@dataclass
class Trajectory:
    """Accepted flow states in time order, plus tracked field values and
    diagnostics.  `rows[k]` is the state at `times[k]`: q..., p..., S, then
    the auxiliary components of `integrate`."""

    n: int
    times: list[float]
    rows: list[Sequence[float]]
    tracked: dict[str, np.ndarray]
    stats: IntegratorStats
    error_tag: str | None = None

    @property
    def ts(self) -> np.ndarray:
        return np.array(self.times)

    @property
    def samples(self) -> list[ExtendedPoint]:
        """The states as points, built on each access (the flow never builds them)."""
        n = self.n
        return [ExtendedPoint(y[:n], y[n:2 * n], y[2 * n], t)
                for t, y in zip(self.times, self.rows)]

    def to_csv(self, target) -> None:
        """Write columns t, q0..q(n-1), p0..p(n-1), S, then tracked labels."""
        n, m = self.n, 2 * self.n + 1
        header = ["t", *coordinate_names(n)[:-1], *self.tracked]
        columns = [c.tolist() for c in self.tracked.values()]
        is_path = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
        with open(target, "w", newline="") if is_path else nullcontext(target) as fh:
            fh.write(",".join(header) + "\n")
            for t, row, *values in zip(self.times, self.rows, *columns):
                fh.write(",".join(map(repr, (t, *row[:m], *values))) + "\n")


def _sum(a: list[float]) -> float:
    """np.add.reduce of non-negative floats, in numpy's order: one by one
    below 8 values, eight interleaved accumulators up to 128, halves above."""
    n = len(a)
    m, half = n - n % 8, n // 2 - n // 2 % 8
    if n > 128:
        return _sum(a[:half]) + _sum(a[half:])
    if n < 8:
        return reduce(add, a, 0.0)
    r = [reduce(add, a[j:m:8], 0.0) for j in range(8)]
    return reduce(add, a[m:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def _rms(values: Sequence[float], scale: Sequence[float]) -> float:
    """sqrt(mean((values / scale) ** 2)) over the first len(scale) values, bit
    for bit numpy's np.sqrt(np.mean(...))."""
    squares = [(r := v / s) * r for v, s in zip(values, scale)]
    return math.sqrt(_sum(squares) / len(squares))


def _initial_step(rhs, t0: float, y0: Sequence[float], f0: Sequence[float],
                  span: float, cfg: IntegratorConfig) -> float:
    sc = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in y0]
    d0, d1 = _rms(y0, sc), _rms(f0, sc)
    h0 = min(1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1, span)
    try:
        f1 = rhs(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
        d2 = _rms([b - a for a, b in zip(f0, f1)], sc) / h0
    except DomainError:
        d2 = d1
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return max(cfg.min_step, min(100.0 * h0, h1, span, cfg.max_step))


def adaptive_rk45(rhs: Callable[[float, Sequence[float]], Sequence[float]], t0: float,
                  y0: Sequence[float], t_end: float, cfg: IntegratorConfig,
                  on_accept: Callable[[float, list[float], Sequence[float]], str | None]
                  | None = None) -> tuple[IntegratorStats, str | None]:
    """Drive the DP 5(4) pair from t0 to t_end on states given as sequences
    of floats; `rhs(t, y)` returns one rate per component, then any number
    of trailing values, which the stepping ignores.

    `on_accept(t, y, f)` is called at every accepted step (not at the initial
    state) with `f = rhs(t, y)`, the last stage; returning an error tag stops
    the run before that state counts.
    Returns the stats plus an error tag (None on clean completion).
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed start time")
    stats = IntegratorStats()
    t, row = t0, y0
    try:
        f0 = rhs(t, row)
    except DomainError:
        return stats, DOMAIN_VIOLATION
    fixed_step = cfg.min_step == cfg.max_step
    h = cfg.max_step if fixed_step else _initial_step(rhs, t, row, f0, t_end - t0, cfg)
    facold = 1e-4
    k = [f0]
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        h = min(h, cfg.max_step, t_end - t)
        h = max(h, cfg.min_step)
        if t + h > t_end:
            h = t_end - t
        del k[1:]
        try:
            for i, stage in enumerate(_STAGES, 1):
                new_row = stage(row, h, k)  # the 5th-order solution after the last stage
                k.append(rhs(t + _DP_C[i] * h, new_row))
        except DomainError:
            stats.rejected += 1
            if h <= cfg.min_step * (1.0 + 1e-12):
                return stats, STEP_SIZE_UNDERFLOW
            h = max(cfg.min_step, 0.25 * h)
            continue
        # numpy.maximum of the magnitudes: a NaN in either state makes the scale NaN
        sc = [cfg.abs_tol + cfg.rel_tol * (a if a >= b or a != a else b)
              for a, b in zip(map(abs, row), map(abs, new_row))]
        err = _rms(_ERROR(row, h, k), sc)
        if err <= 1.0 or fixed_step or h <= cfg.min_step * (1.0 + 1e-12):
            if not (err <= 1.0 or fixed_step):
                # forced acceptance at the step floor would hide real error
                return stats, STEP_SIZE_UNDERFLOW
            t_new = t + h
            tag = on_accept(t_new, new_row, k[6]) if on_accept is not None else None
            if tag is not None:
                return stats, tag
            stats.accepted += 1
            stats.max_error_estimate = max(stats.max_error_estimate, err)
            k[0] = k[6]  # first same as last: stage 7 is rhs(t_new, new_row)
            t, row = t_new, new_row
            facold = max(err, 1e-4)
            if not fixed_step:
                fac11 = err**_EXPO1 if err > 0.0 else 1e-10
                fac = fac11 / facold**_BETA
                h = h / max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFETY))
        else:
            stats.rejected += 1
            fac11 = err**_EXPO1
            h = h / min(1.0 / _FAC_MIN, fac11 / _SAFETY)
            if h < cfg.min_step:
                return stats, STEP_SIZE_UNDERFLOW
    return stats, None


class AuxComponent(NamedTuple):
    """An extra state component integrated alongside (q, p, S).

    `rate` is its d/dt, a field over (q, p, S, t), the parameters and the
    names of all extra components.  A component with a `box` is a positive
    function whose rate is singular at zero: an accepted value outside the
    open box stops the flow tagged AuxiliaryBlowup, and a stage value with
    |value| < 1e-12 raises DomainError in the right-hand side.
    """

    initial: float
    rate: ScalarField
    box: tuple[float, float] | None = None


def integrate(system: ContactSystem, field: VectorFieldSpec, start: ExtendedPoint, t_end: float,
              cfg: IntegratorConfig | None = None, tracked: Mapping[str, ScalarField] | None = None,
              extra_params: Mapping[str, float] | None = None,
              aux: Mapping[str, AuxComponent] | None = None) -> Trajectory:
    """Integrate the flow of a dynamics field (Yt identically 0 or 1).

    The independent variable is t itself.  `aux` adds state components
    advanced under the same step controller; the right-hand side and the
    tracked fields see their names next to q, p, S, t, the system parameters
    and `extra_params`.  The start and every accepted state are recorded as
    rows, the tracked fields, then the `aux` components, as columns.  The
    system's guards are trailing columns of the right-hand side, so the last
    stage of a step holds their values at the accepted state.  Guard,
    non-finite state, blow-up or step-size failures return the partial
    trajectory with an error tag instead of raising.
    """
    cfg = cfg or IntegratorConfig()
    aux = dict(aux or {})
    if not (isinstance(field.Yt.ast, Num) and field.Yt.ast.value in (0.0, 1.0)):
        raise ValueError("flow fields must have a constant time component 0 or 1")
    if not system.admissible(start, cfg.guard_margin):
        raise ValueError("start point is outside the admissible region")
    n = system.n
    state = [*coordinate_names(n)[:-1], *aux, "t"]
    consts = bindable_params({**system.params, **(extra_params or {})}, state)
    argnames, values = [*state, *consts], tuple(consts.values())
    rhs_fn = compile_bundle([*field.Yq, *field.Yp, field.YS, *(c.rate for c in aux.values()),
                             *system.guards], argnames)
    columns_fn = compile_bundle(list((tracked or {}).values()), argnames)
    boxed = [(2 * n + 1 + i, nm, c.box) for i, (nm, c) in enumerate(aux.items()) if c.box]

    def rhs(t: float, y: Sequence[float]) -> tuple[float, ...]:
        for i, nm, _ in boxed:
            if abs(y[i]) < 1e-12:
                raise DomainError("auxiliary function vanished", nm)
        return rhs_fn(*y, t, *values)

    times = [start.t]
    rows = [[*start.q.tolist(), *start.p.tolist(), start.S,
             *(float(c.initial) for c in aux.values())]]

    def accept(t: float, y: list[float], f: Sequence[float]) -> str | None:
        for i, _, (lo, hi) in boxed:
            if not (lo < y[i] < hi):
                return AUXILIARY_BLOWUP
        if not all(map(math.isfinite, y)) or not all(g >= cfg.guard_margin for g in f[len(y):]):
            return DOMAIN_VIOLATION
        times.append(t)
        rows.append(y)
        return None

    stats, tag = adaptive_rk45(rhs, start.t, rows[0], t_end, cfg, accept)
    columns = zip(*(columns_fn(*y, t, *values) for t, y in zip(times, rows)))
    recorded = dict(zip(tracked or {}, map(np.array, columns)))
    recorded.update({nm: np.array([y[i] for y in rows]) for i, nm in enumerate(aux, 2 * n + 1)})
    return Trajectory(n, times, rows, recorded, stats, tag)


def _simpson_pieces(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Integral over [x_i, x_i+1] of the parabola through samples i, i+1, i+2."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      + -x21x21_x31x32 * y[2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of samples y over the increasing grid x, from 0.

    Composite Simpson rule for non-uniform grids; fewer than 3 samples fall
    back to the trapezoid rule.  Same formulas and operation order as
    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)``, so results
    agree bit for bit.
    """
    dx = np.diff(x)
    if y.size < 3:
        res = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)
    else:
        forward = _simpson_pieces(y, dx)
        backward = _simpson_pieces(y[::-1], dx[::-1])[::-1]
        pieces = np.empty(y.size - 1)
        pieces[:-1:2] = forward[::2]
        pieces[1::2] = backward[::2]
        pieces[-1] = backward[-1]  # no parabola starts at the last interval
        res = np.cumsum(pieces)
    return np.concatenate(([0.0], res + 0.0))  # scipy adds `initial`: -0.0 becomes 0.0


def cumulative_integral(system: ContactSystem, traj: Trajectory, integrand: ScalarField,
                        extra_params: Mapping[str, float] | None = None) -> np.ndarray:
    """Running integral of `integrand` along the trajectory, from 0 at the
    first sample, by composite Simpson on the (non-uniform) sample grid."""
    state, m = coordinate_names(traj.n), 2 * traj.n + 1
    consts = bindable_params({**system.params, **(extra_params or {})}, state)
    fn = compile_bundle([integrand], [*state, *consts])
    vals = [fn(*y[:m], t, *consts.values())[0] for t, y in zip(traj.times, traj.rows)]
    return _cumulative_simpson(np.array(vals), traj.ts)


def action_consistency(system: ContactSystem, traj: Trajectory,
                       extra_params: Mapping[str, float] | None = None) -> float:
    """Quadrature diagnostic: max_i |S(t_i) - S(t_0) - Simpson(p.dh/dp - h)|.

    Composite Simpson runs on the (non-uniform) accepted sample grid; this is
    a consistency check on the action identity dS/dt = p.dh/dp - h, not an
    exactness claim.
    """
    quad = cumulative_integral(system, traj, extended_field(system).YS, extra_params)
    S = np.array([y[2 * traj.n] for y in traj.rows])
    return float(np.max(np.abs(S - S[0] - quad)))
