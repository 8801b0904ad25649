"""Contact Hamiltonian vector fields and adaptive Runge-Kutta flow.

The integrator is an embedded Dormand-Prince 5(4) pair with the classical
PI step controller (beta = 0.04, safety 0.9) and the Hairer-Norsett-Wanner
initial-step heuristic.  Setting ``min_step == max_step`` forces fixed
steps, which the order-check tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .expr import DomainError, Num, ScalarField, number, parameter, partial, variable
from .geometry import ContactSystem, ExtendedPoint, VectorFieldSpec


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
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# difference between the 5th-order propagating and 4th-order embedded weights
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

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
    """Time-ordered samples plus tracked field values and diagnostics."""

    samples: list[ExtendedPoint]
    tracked: dict[str, np.ndarray]
    stats: IntegratorStats
    error_tag: str | None = None

    @property
    def ts(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @property
    def n(self) -> int:
        return self.samples[0].n

    def to_csv(self, target) -> None:
        """Write columns t, q0..q(n-1), p0..p(n-1), S, then tracked labels."""
        n = self.n
        header = ["t"] + [f"q{i}" for i in range(n)] + [f"p{i}" for i in range(n)] + ["S"]
        header += list(self.tracked)
        close = False
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            fh = open(target, "w", newline="")
            close = True
        else:
            fh = target
        try:
            fh.write(",".join(header) + "\n")
            for k, s in enumerate(self.samples):
                row = [repr(s.t)]
                row += [repr(float(v)) for v in s.q]
                row += [repr(float(v)) for v in s.p]
                row.append(repr(s.S))
                row += [repr(float(self.tracked[lbl][k])) for lbl in self.tracked]
                fh.write(",".join(row) + "\n")
        finally:
            if close:
                fh.close()


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, cfg: IntegratorConfig) -> float:
    sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / sc) ** 2)))


def _initial_step(rhs, t0: float, y0: np.ndarray, f0: np.ndarray,
                  span: float, cfg: IntegratorConfig) -> float:
    sc = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    try:
        f1 = rhs(t0 + h0, y0 + h0 * f0)
        d2 = float(np.sqrt(np.mean(((f1 - f0) / sc) ** 2))) / h0
    except DomainError:
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return max(cfg.min_step, min(100.0 * h0, h1, span, cfg.max_step))


def adaptive_rk45(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_end: float,
    cfg: IntegratorConfig,
    on_accept: Callable[[float, np.ndarray], None] | None = None,
    veto: Callable[[float, np.ndarray], str | None] | None = None,
) -> tuple[IntegratorStats, str | None]:
    """Drive the DP 5(4) pair from t0 to t_end.

    `on_accept` is called for every accepted step (not for the initial state);
    `veto` may stop the run at an accepted state by returning an error tag.
    Returns the stats plus an error tag (None on clean completion).
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed start time")
    stats = IntegratorStats()
    t = t0
    y = np.asarray(y0, dtype=float).copy()
    try:
        f0 = rhs(t, y)
    except DomainError:
        return stats, DOMAIN_VIOLATION
    fixed_step = cfg.min_step == cfg.max_step
    h = cfg.max_step if fixed_step else _initial_step(rhs, t, y, f0, t_end - t0, cfg)
    facold = 1e-4
    k = [np.empty_like(y) for _ in range(7)]
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        h = min(h, cfg.max_step, t_end - t)
        h = max(h, cfg.min_step)
        if t + h > t_end:
            h = t_end - t
        try:
            k[0] = f0
            for i in range(1, 7):
                yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]) if a != 0.0)
                k[i] = rhs(t + _DP_C[i] * h, yi)
        except DomainError:
            stats.rejected += 1
            if h <= cfg.min_step * (1.0 + 1e-12):
                return stats, STEP_SIZE_UNDERFLOW
            h = max(cfg.min_step, 0.25 * h)
            continue
        y_new = y + h * sum(b * k[i] for i, b in enumerate(_DP_B5) if b != 0.0)
        err_vec = h * sum(e * k[i] for i, e in enumerate(_DP_E) if e != 0.0)
        err = _error_norm(err_vec, y, y_new, cfg)
        if err <= 1.0 or fixed_step or h <= cfg.min_step * (1.0 + 1e-12):
            if not (err <= 1.0 or fixed_step):
                # forced acceptance at the step floor would hide real error
                return stats, STEP_SIZE_UNDERFLOW
            t_new = t + h
            vetoed = veto(t_new, y_new) if veto is not None else None
            if vetoed is not None:
                return stats, vetoed
            stats.accepted += 1
            stats.max_error_estimate = max(stats.max_error_estimate, err)
            if on_accept is not None:
                on_accept(t_new, y_new)
            f0 = k[6]  # first same as last: stage 7 is rhs(t_new, y_new)
            t, y = t_new, y_new
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


def integrate(
    system: ContactSystem,
    field: VectorFieldSpec,
    start: ExtendedPoint,
    t_end: float,
    cfg: IntegratorConfig | None = None,
    tracked: Mapping[str, ScalarField] | None = None,
    extra_params: Mapping[str, float] | None = None,
    aux: Mapping[str, AuxComponent] | None = None,
) -> Trajectory:
    """Integrate the flow of a dynamics field (Yt identically 0 or 1).

    The independent variable is t itself.  `aux` adds state components
    advanced under the same step controller; the right-hand side and the
    tracked fields see their names next to q, p, S, t, the system parameters
    and `extra_params`.  Tracked fields, then the `aux` components, are
    recorded at the start and at every accepted step.  Guard, blow-up or
    step-size failures return the partial trajectory with an error tag
    instead of raising.
    """
    cfg = cfg or IntegratorConfig()
    aux = dict(aux or {})
    if not (isinstance(field.Yt.ast, Num) and field.Yt.ast.value in (0.0, 1.0)):
        raise ValueError("flow fields must have a constant time component 0 or 1")
    if not system.admissible(start, cfg.guard_margin):
        raise ValueError("start point is outside the admissible region")
    n = system.n
    params = dict(system.params)
    if extra_params:
        params.update(extra_params)
    names = [f"q{i}" for i in range(n)] + [f"p{i}" for i in range(n)] + ["S", *aux]
    comps = [c.eval_env for c in (*field.Yq, *field.Yp, field.YS)]
    comps += [c.rate.eval_env for c in aux.values()]
    columns = {**(tracked or {}), **{nm: parameter(nm, n) for nm in aux}}
    boxed = [(2 * n + 1 + i, nm, c.box) for i, (nm, c) in enumerate(aux.items()) if c.box]

    def env_of(t: float, y: np.ndarray) -> dict[str, float]:
        env = dict(params)
        env.update(zip(names, y))
        env["t"] = t
        return env

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        for i, nm, _ in boxed:
            if abs(y[i]) < 1e-12:
                raise DomainError("auxiliary function vanished", nm)
        env = env_of(t, y)
        return np.array([fn(env) for fn in comps])

    samples: list[ExtendedPoint] = []
    values: dict[str, list[float]] = {lbl: [] for lbl in columns}

    def record(t: float, y: np.ndarray) -> None:
        samples.append(ExtendedPoint(y[:n], y[n:2 * n], y[2 * n], t))
        env = env_of(t, y)
        for lbl, f in columns.items():
            values[lbl].append(f.eval_env(env))

    def veto(t: float, y: np.ndarray) -> str | None:
        for i, _, (lo, hi) in boxed:
            if not (lo < y[i] < hi):
                return AUXILIARY_BLOWUP
        if system.admissible(ExtendedPoint(y[:n], y[n:2 * n], y[2 * n], t), cfg.guard_margin):
            return None
        return DOMAIN_VIOLATION

    y0 = np.concatenate([start.q, start.p, [start.S], [c.initial for c in aux.values()]])
    record(start.t, y0)
    stats, tag = adaptive_rk45(rhs, start.t, y0, t_end, cfg, record, veto)
    return Trajectory(samples, {lbl: np.array(v) for lbl, v in values.items()}, stats, tag)


def _simpson_pieces(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Integral over [x_i, x_i+1] of the parabola through samples i, i+1, i+2."""
    x21 = dx[:-1]
    x32 = dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


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
    vals = [integrand.eval_env(system.env(s, extra_params)) for s in traj.samples]
    return _cumulative_simpson(np.array(vals), traj.ts)


def action_consistency(system: ContactSystem, traj: Trajectory,
                       extra_params: Mapping[str, float] | None = None) -> float:
    """Quadrature diagnostic: max_i |S(t_i) - S(t_0) - Simpson(p.dh/dp - h)|.

    Composite Simpson runs on the (non-uniform) accepted sample grid; this is
    a consistency check on the action identity dS/dt = p.dh/dp - h, not an
    exactness claim.
    """
    quad = cumulative_integral(system, traj, extended_field(system).YS, extra_params)
    S = np.array([s.S for s in traj.samples])
    return float(np.max(np.abs(S - S[0] - quad)))
