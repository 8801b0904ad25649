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
from functools import cache
from itertools import accumulate
from typing import Callable, Mapping, NamedTuple

from .expr import (DomainError, Num, ScalarField, _emit, _make, compile_bundle, number, partial,
                   variable)
from .geometry import (ContactSystem, ExtendedPoint, VectorFieldSpec, bindable_params,
                       coordinate_names, nan_max)


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


def _pairwise(terms: list[str]) -> str:
    """Source of the sum of `terms`, non-negative floats, in the order of
    NumPy's add.reduce: one by one below 8 terms, eight interleaved
    accumulators up to 128, halves above."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return f"({_pairwise(terms[:half])} + {_pairwise(terms[half:])})"
    if n < 8:
        return f"({' + '.join(['0.0', *terms])})"
    m = n - n % 8
    r = [f"({' + '.join(['0.0', *terms[j:m:8]])})" for j in range(8)]
    return (f"((({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
            f"{''.join(f' + {v}' for v in terms[m:])})")


def _function(lines: list[str], name: str) -> Callable:
    """The function `_f` that `lines` define, named `<name>` in tracebacks and profiles."""
    scope = {"abs": abs, "sqrt": math.sqrt}
    exec(compile("\n".join(lines), f"<{name}>", "exec"), scope)
    return scope["_f"]  # type: ignore[return-value]


def _rms_source(m: int) -> str:  # sqrt(mean(r * r)) over the locals r0..r(m-1)
    return f"sqrt({_pairwise([f'r{c} * r{c}' for c in range(m)])} / {m})"


@cache
def _rms_of(m: int) -> Callable[[Sequence[float], Sequence[float]], float]:
    return _function(["def _f(v, s):", *(f"    r{c} = v[{c}] / s[{c}]" for c in range(m)),
                      f"    return {_rms_source(m)}"], f"rms-{m}")


def _rms(values: Sequence[float], scale: Sequence[float]) -> float:
    """sqrt(mean((values / scale) ** 2)) over the first len(scale) values."""
    return _rms_of(len(scale))(values, scale)


def _unpack(name: str, m: int) -> str:
    return "".join(f"{name}{c}, " for c in range(m))


def _attempt_lines(names: list[str], stage: Callable[[int], list[str]], result: str) -> list[str]:
    """`_f(rhs, t, y, h, k0, atol, rtol) -> (new_row, k6, err)`: one Dormand-Prince
    5(4) attempt on m floats as straight-line code.  Stage i puts its row
    `y + h*(0 + a*k + ...)` (over the nonzero a, summed left to right, so
    reproducible bit for bit) and its time in the m + 1 locals `names`, then
    `stage(i)` puts its rates in `k{i}_0, k{i}_1, ...`; `result` returns the
    last row and rates.  err is the RMS of the error over
    atol + rtol * max(|y|, |new_row|) (NaN if either is)."""
    m = len(names) - 1

    def terms(coeffs: tuple[float, ...], c: int) -> str:
        return " + ".join(f"{a!r} * k{j}_{c}" for j, a in enumerate(coeffs) if a != 0.0)

    lines = ["def _f(rhs, t, y, h, k0, atol, rtol):", f"    {_unpack('y', m)}= y",
             f"    {_unpack('k0_', m)}= k0[:{m}]"]
    for i in range(1, 7):  # the last stage is taken at the 5th-order solution
        lines += [*(f"    {nm} = y{c} + h * (0 + {terms(_DP_A[i], c)})"
                    for c, nm in enumerate(names[:m])),
                  f"    {names[m]} = t + {_DP_C[i]!r} * h", *stage(i)]
    for c, nm in enumerate(names[:m]):
        lines += [f"    a, b = abs(y{c}), abs({nm})", f"    r{c} = h * (0 + {terms(_DP_E, c)}) / "
                  "(atol + rtol * (a if a >= b or a != a else b))"]
    return [*lines, f"    return {result}, {_rms_source(m)}"]


@cache
def _dp54_attempt(m: int) -> Callable:
    """The attempt that calls `rhs(time, row)` at each stage, the row a new list."""
    row = [f"s{c}" for c in range(m)]

    def stage(i: int) -> list[str]:
        return [f"    new = [{', '.join(row)}]", f"    k{i} = rhs(ts, new)",
                f"    {_unpack(f'k{i}_', m)}= k{i}[:{m}]"]

    return _function(_attempt_lines([*row, "ts"], stage, "new, k6"), f"dp54-step-{m}")


def _flow_attempt(fields: Sequence[ScalarField], state: Sequence[str], consts: Mapping[str, float],
                  boxed: Sequence[tuple[int, str, object]]) -> Callable:
    """The attempt for `rhs(t, y) = compile_bundle(fields, [*state, *consts])(*y, t,
    *consts.values())` after a DomainError test of |y[i]| < 1e-12 for each boxed
    (i, name, _), with that test and the bundle's body inlined at every stage and
    the parameters as numbers, so it compiles once per literal-free shape.  A stage
    whose body raises or fails its isfinite test is re-run as `rhs(time, row)`."""
    body, slots, checked, outs = _emit([f.ast for f in fields], consts)
    names = [f"_v_{nm}" for nm in state]  # the row, then the time, as the body reads them
    row, width = ", ".join(names[:-1]), len(fields)
    check = f"_isfinite({' + '.join(checked)})" if checked else "True"
    inline = [*(ln for j, nm, _ in boxed for ln in (
                  f"    if abs({names[j]}) < 1e-12:",
                  f"        raise _DomainError('auxiliary function vanished', {nm!r})")),
              "    try:", *body, f"        _ok = {check}",
              "    except Exception:", "        _ok = False"]
    rates = f"({''.join(v + ', ' for v in outs)}) if _ok else rhs({names[-1]}, [{row}])"
    lines = _attempt_lines(names, lambda i: [*inline, f"    {_unpack(f'k{i}_', width)}= {rates}"],
                           f"[{row}], ({_unpack('k6_', width)})")
    return _make(lines, "dp54-flow", {"_DomainError": DomainError, "sqrt": math.sqrt}, slots)


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
        for name in ("rel_tol", "abs_tol", "guard_margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (0.0 < self.min_step <= self.max_step):
            raise ValueError("require 0 < min_step <= max_step")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass
class IntegratorStats:
    accepted: int = 0
    rejected: int = 0
    max_error_estimate: float = 0.0  # scaled local error norm among accepted steps
    # right-hand sides asked for: the initial rates, the initial-step probe and
    # six stages per attempt, inlined or not (six also when a stage raised)
    rhs_calls: int = 0


@dataclass
class Trajectory:
    """Accepted flow states in time order, plus tracked field values and
    diagnostics.  `rows[k]` is the state at `times[k]`: q..., p..., S, then
    the auxiliary components of `integrate`; `tracked` maps each label to
    its values, one float per state."""

    n: int
    times: list[float]
    rows: list[Sequence[float]]
    tracked: dict[str, list[float]]
    stats: IntegratorStats
    error_tag: str | None = None

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
        columns = self.tracked.values()
        is_path = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
        with open(target, "w", newline="") if is_path else nullcontext(target) as fh:
            fh.write(",".join(header) + "\n")
            for t, row, *values in zip(self.times, self.rows, *columns):
                fh.write(",".join(map(repr, (t, *row[:m], *values))) + "\n")


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
                  | None = None, *, attempt: Callable | None = None,
                  ) -> tuple[IntegratorStats, str | None]:
    """Drive the DP 5(4) pair from t0 to t_end on states given as sequences
    of floats; `rhs(t, y)` returns one rate per component, then any number
    of trailing values, which the stepping ignores.

    `on_accept(t, y, f)` is called at every accepted step (not at the initial
    state) with `f = rhs(t, y)`, the last stage; returning an error tag stops
    the run before that state counts.
    `attempt` takes each step; by default `_dp54_attempt(len(y0))`, which
    calls `rhs` at every stage.  `integrate` passes one with its right-hand
    side inlined, which calls `rhs` only to re-run a failing stage.
    Returns the stats plus an error tag (None on clean completion).
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed start time")
    stats = IntegratorStats(rhs_calls=1)
    t, row = t0, y0
    try:
        f0 = rhs(t, row)
    except DomainError:
        return stats, DOMAIN_VIOLATION
    fixed_step = cfg.min_step == cfg.max_step
    stats.rhs_calls += not fixed_step  # the initial-step probe
    h = cfg.max_step if fixed_step else _initial_step(rhs, t, row, f0, t_end - t0, cfg)
    facold = 1e-4
    attempt = attempt or _dp54_attempt(len(row))
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        h = min(h, cfg.max_step, t_end - t)
        h = max(h, cfg.min_step)
        if t + h > t_end:
            h = t_end - t
        stats.rhs_calls += 6
        try:
            new_row, f1, err = attempt(rhs, t, row, h, f0, cfg.abs_tol, cfg.rel_tol)
        except DomainError:
            stats.rejected += 1
            if h <= cfg.min_step * (1.0 + 1e-12):
                return stats, STEP_SIZE_UNDERFLOW
            h = max(cfg.min_step, 0.25 * h)
            continue
        if err <= 1.0 or fixed_step or h <= cfg.min_step * (1.0 + 1e-12):
            if not (err <= 1.0 or fixed_step):
                # forced acceptance at the step floor would hide real error
                return stats, STEP_SIZE_UNDERFLOW
            t_new = t + h
            tag = on_accept(t_new, new_row, f1) if on_accept is not None else None
            if tag is not None:
                return stats, tag
            stats.accepted += 1
            stats.max_error_estimate = max(stats.max_error_estimate, err)
            f0 = f1  # first same as last: stage 7 is rhs(t_new, new_row)
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
    fields = [*field.Yq, *field.Yp, field.YS, *(c.rate for c in aux.values()), *system.guards]
    rhs_fn = compile_bundle(fields, argnames)
    columns_fn = compile_bundle(list((tracked or {}).values()), argnames)
    boxed = [(2 * n + 1 + i, nm, c.box) for i, (nm, c) in enumerate(aux.items()) if c.box]

    def rhs(t: float, y: Sequence[float]) -> tuple[float, ...]:
        for i, nm, _ in boxed:
            if abs(y[i]) < 1e-12:
                raise DomainError("auxiliary function vanished", nm)
        return rhs_fn(*y, t, *values)

    times = [start.t]
    rows = [[*start.q, *start.p, start.S,
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

    stats, tag = adaptive_rk45(rhs, start.t, rows[0], t_end, cfg, accept,
                               attempt=_flow_attempt(fields, state, consts, boxed))
    columns = zip(*(columns_fn(*y, t, *values) for t, y in zip(times, rows)))
    recorded = dict(zip(tracked or {}, map(list, columns)))
    recorded.update({nm: [y[i] for y in rows] for i, nm in enumerate(aux, 2 * n + 1)})
    return Trajectory(n, times, rows, recorded, stats, tag)


def _simpson_piece(x21: float, x32: float, y1: float, y2: float, y3: float) -> float:
    """Integral from sample 1 to 2 of the parabola through samples 1-3, x21 and x32 apart."""
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y1 + (3 + x21x21_x31x32 + x21_x31) * y2
                      + -x21x21_x31x32 * y3)


def _cumulative_simpson(y: Sequence[float], x: Sequence[float]) -> list[float]:
    """Running integral of samples y over the increasing grid x, from 0.

    Composite Simpson rule for non-uniform grids: interval i takes the
    parabola through samples i..i+2 when i is even, except the last, and
    the one through samples i-1..i+1 otherwise; fewer than 3 samples fall
    back to the trapezoid rule.  Same formulas and operation order as
    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)``, so results
    agree bit for bit.
    """
    n, dx = len(y), [b - a for a, b in zip(x, x[1:])]
    if n < 3:
        pieces = [d * (b + a) / 2.0 for d, a, b in zip(dx, y, y[1:])]
    else:
        pieces = [_simpson_piece(dx[i], dx[i + 1], y[i], y[i + 1], y[i + 2])
                  if i % 2 == 0 and i < n - 2 else
                  _simpson_piece(dx[i], dx[i - 1], y[i + 1], y[i], y[i - 1]) for i in range(n - 1)]
    return [0.0, *(v + 0.0 for v in accumulate(pieces))]  # scipy adds `initial`: -0.0 becomes 0.0


def cumulative_integral(system: ContactSystem, traj: Trajectory, integrand: ScalarField,
                        extra_params: Mapping[str, float] | None = None) -> list[float]:
    """Running integral of `integrand` along the trajectory, from 0 at the
    first sample, by composite Simpson on the (non-uniform) sample grid."""
    state, m = coordinate_names(traj.n), 2 * traj.n + 1
    consts = bindable_params({**system.params, **(extra_params or {})}, state)
    fn = compile_bundle([integrand], [*state, *consts])
    vals = [fn(*y[:m], t, *consts.values())[0] for t, y in zip(traj.times, traj.rows)]
    return _cumulative_simpson(vals, traj.times)


def action_consistency(system: ContactSystem, traj: Trajectory,
                       extra_params: Mapping[str, float] | None = None) -> float:
    """Quadrature diagnostic: max_i |S(t_i) - S(t_0) - Simpson(p.dh/dp - h)|.

    Composite Simpson runs on the (non-uniform) accepted sample grid; this is
    a consistency check on the action identity dS/dt = p.dh/dp - h, not an
    exactness claim.
    """
    quad = cumulative_integral(system, traj, extended_field(system).YS, extra_params)
    S0 = traj.rows[0][2 * traj.n]
    return nan_max(abs(y[2 * traj.n] - S0 - v) for y, v in zip(traj.rows, quad))
