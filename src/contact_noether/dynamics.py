"""Contact Hamiltonian vector fields, adaptive Runge-Kutta flow and quadrature.

The integrator is Hairer's DOP853: a 12-stage 8th-order pair whose last
stage, taken at the new state, is the next step's first, with Hairer's error
norm (5th- and 3rd-order estimates), the classical PI step controller
(exponent 1/8 - 0.2 beta, beta = 0.04, safety 0.9) and the
Hairer-Norsett-Wanner initial-step heuristic.  Setting
``min_step == max_step`` forces fixed steps, which the order-check tests rely
on.  Integrals along a trajectory use the two-point Hermite rule of degree 7
on its accepted grid, with the derivatives of the integrand taken along the
flow.

`integrate` compiles its right-hand side once, as one bundle of fields
(`expr.compile_bundle`), and steps with the one generated DOP853 run,
`_flow_loop`, written per state shape: its stages call that bundle and its
accepted-step tests and records are inlined.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, product
from operator import itemgetter, truediv
from typing import Callable, Mapping, NamedTuple

from .expr import DomainError, ScalarField, _make, compile_bundle, number
from .geometry import (GUARD_MARGIN, ContactSystem, ExtendedPoint, VectorFieldSpec,
                       coordinate_names, directional_derivative)


class TimeDependentHamiltonian(Exception):
    """Raised when a plain contact field is requested for a t-dependent h."""


def contact_field(system: ContactSystem) -> VectorFieldSpec:
    """X_h for a time-independent contact Hamiltonian (Yt = 0)."""
    if "t" in system.h.free_vars:
        raise TimeDependentHamiltonian(
            "h depends on t; use extended_field for time-dependent systems")
    return system.X_h


def extended_field(system: ContactSystem) -> VectorFieldSpec:
    """X_h^t = X_h + d/dt (the f = 1 normalisation), over the system's kept X_h."""
    base = system.X_h
    return VectorFieldSpec(base.Yq, base.Yp, base.YS, number(1.0, system.n))


# ---------------------------------------------------------------------------
# adaptive DOP853: Hairer's 12-stage 8th-order pair with 5th- and 3rd-order
# error estimates (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10)

_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
      0.8571428571428571, 1.0, 1.0)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    # the 8th-order weights: stage 12 is taken at the new state
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
)
# the 5th- and 3rd-order error estimates, over the rates of stages 0-11
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
       0.02265179219836082)
_STAGES = len(_A) - 1


def _squares(name: str, m: int) -> str:  # the sum of squares of the locals name0..name(m-1)
    return f"({' + '.join(['0.0', *(f'{name}{c} * {name}{c}' for c in range(m))])})"


def _rms(values: Sequence[float], scale: Sequence[float]) -> float:
    """sqrt(mean((values / scale) ** 2)) over the first len(scale) values, summed left to right."""
    total = 0.0
    for r in map(truediv, values, scale):
        total += r * r
    return math.sqrt(total / len(scale))


def _unpack(name: str, m: int) -> str:
    return "".join(f"{name}{c}, " for c in range(m))


_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 1 / 8 - 0.2 * _BETA
_FAC_MIN = 0.2   # largest allowed shrink factor per step
_FAC_MAX = 10.0  # largest allowed growth factor per step

STEP_SIZE_UNDERFLOW = "StepSizeUnderflow"
DOMAIN_VIOLATION = "DomainViolation"
AUXILIARY_BLOWUP = "AuxiliaryBlowup"
_VANISHING = 1e-12  # a boxed component below this in size raises DomainError at a stage

def _flow_loop(rhs: Callable[..., tuple[float, ...]], width: int, state: Sequence[str],
               boxed: Sequence[tuple[int, str, tuple[float, float]]], times: list[float],
               rows: list[list[float]]) -> Callable:
    """The DOP853 run whose stages call `rhs(<row>, <time>)`, a compiled
    bundle over `state` with `width` values (the rates, then the guards),
    after a DomainError test of |row[i]| < _VANISHING for each boxed (i, name, _).
    An accepted state is tagged AuxiliaryBlowup out of its box,
    DomainViolation if not finite or a guard is below the margin, else
    appended to `times` and `rows`.  Its source is written once per shape
    (the state names, the width, the boxed indices and names) and compiled
    once per distinct text; `rhs`, `times`, `rows` and the box bounds are
    given to each run's copy."""
    lines = _flow_lines(tuple(state), width, tuple((j, nm) for j, nm, _ in boxed))
    bounds = {f"_{side}{b}": v for b, (_, _, box) in enumerate(boxed)
              for side, v in zip(("lo", "hi"), box)}
    prelude = {"_rhs": rhs, "_DomainError": DomainError, "_times": times, "_rows": rows}
    return _make(lines, "dop853-flow", {**prelude, **bounds}, ())


@lru_cache(maxsize=64)
def _flow_lines(state: tuple[str, ...], width: int,
                boxed: tuple[tuple[int, str], ...]) -> tuple[str, ...]:
    """The source of `_flow_loop`'s run for one shape, `_f(t, y, f, h, t_end,
    cfg) -> (accepted, rejected, attempts, max_err, smallest, largest, tag)`:
    the whole run on the m = len(state) - 1 floats of state y at time t, with
    rates f and first step h; its b-th box reads `_lo{b}` and `_hi{b}`.
    Stage i of an attempt puts its row `y + h*(0.0 + a*k + ...)` (over the
    nonzero a, summed left to right, so reproducible bit for bit) and its time
    in the locals `_v_<name>`, then its `width` values in `k{i}_0, k{i}_1,
    ...`; a DomainError rejects the attempt.  Stage 12's row is the new state.
    The error norm is Hairer's, h * n5 / sqrt((n5 + 0.01 * n3) * m), where n5
    and n3 are the sums of squares of the 5th- and 3rd-order estimates over
    atol + rtol * max(|y|, |new row|) (NaN if either is), and 0 when both sums
    are.  The last stage's rates of an accepted step are the next step's
    first.  The PI controller writes min(a, b) as `b if b < a else a` and
    max(a, b) as `b if b > a else a`: the same floats, NaN too.  The run
    returns its counts, the largest accepted error norm, the smallest (inf if
    none) and largest accepted step, and its tag (None at t_end)."""
    names = [f"_v_{nm}" for nm in state]  # the row, then the time
    m, ind, last = len(names) - 1, " " * 12, _STAGES  # ind: an attempt's statements
    lo, hi = f"{1.0 / _FAC_MAX!r}", f"{1.0 / _FAC_MIN!r}"
    done = "accepted, rejected, attempts, max_err, smallest, largest"
    underflow = f"{ind}    return {done}, {STEP_SIZE_UNDERFLOW!r}"

    def terms(coeffs: tuple[float, ...], c: int) -> str:
        return " + ".join(f"{a!r} * k{j}_{c}" for j, a in enumerate(coeffs) if a != 0.0)

    boxes = [ln for j, nm in boxed for ln in (
        f"{ind}if -{_VANISHING!r} < {names[j]} < {_VANISHING!r}:",
        f"{ind}    raise _DomainError('auxiliary function vanished', {nm!r})")]
    valid = [*map("_isfinite({})".format, names[:m]),
             *(f"k{last}_{c} >= margin" for c in range(m, width))]
    lines = ["def _f(t, y, f, h, t_end, cfg):", f"    {_unpack('y', m)}= y",
             f"    {_unpack('k0_', m)}= f[:{m}]", "    atol, rtol = cfg.abs_tol, cfg.rel_tol",
             "    min_step, max_step = cfg.min_step, cfg.max_step",
             "    fixed, floor = min_step == max_step, min_step * (1.0 + 1e-12)",
             "    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))",
             "    accepted = rejected = attempts = 0",
             "    max_err, smallest, largest, facold = 0.0, float('inf'), 0.0, 1e-4",
             "    margin = cfg.guard_margin",
             "    while t < t_stop:",  # h = max(min(h, max_step, t_end - t), min_step)
             "        if max_step < h: h = max_step", "        if t_end - t < h: h = t_end - t",
             "        if min_step > h: h = min_step", "        if t + h > t_end: h = t_end - t",
             "        attempts += 1", "        try:"]
    for i in range(1, last + 1):
        lines += [*(f"{ind}{nm} = y{c} + h * (0.0 + {terms(_A[i], c)})"
                    for c, nm in enumerate(names[:m])), f"{ind}{names[m]} = t + {_C[i]!r} * h",
                  *boxes, f"{ind}{_unpack(f'k{i}_', width)}= _rhs({', '.join(names)})"]
    lines += ["        except _DomainError:", f"{ind}rejected += 1", f"{ind}if h <= floor:",
              underflow, f"{ind}h = 0.25 * h if 0.25 * h > min_step else min_step",
              f"{ind}continue"]
    for c, nm in enumerate(names[:m]):
        lines += [f"        a, b = abs(y{c}), abs({nm})",
                  f"        s = atol + rtol * (a if a >= b or a != a else b)",
                  f"        e{c} = (0.0 + {terms(_E5, c)}) / s",
                  f"        r{c} = (0.0 + {terms(_E3, c)}) / s"]
    return (*lines, f"        n5 = {_squares('e', m)}", f"        n3 = {_squares('r', m)}",
            # h > 0, so h is Hairer's |h|
            f"        err = h * n5 / _sqrt((n5 + 0.01 * n3) * {m}) "
            "if n5 != 0.0 or n3 != 0.0 else 0.0",
            "        if err <= 1.0 or fixed or h <= floor:",
            # forced acceptance at the step floor would hide real error
            f"{ind}if not (err <= 1.0 or fixed):", f"{ind}    rejected += 1", underflow,
            f"{ind}t_new = t + h",
            *(ln for b, (j, _) in enumerate(boxed) for ln in (
                f"{ind}if not (_lo{b} < {names[j]} < _hi{b}):",
                f"{ind}    return {done}, {AUXILIARY_BLOWUP!r}")),
            f"{ind}if not ({' and '.join(valid)}):", f"{ind}    return {done}, {DOMAIN_VIOLATION!r}",
            f"{ind}_times.append(t_new)", f"{ind}_rows.append([{', '.join(names[:m])}])",
            f"{ind}accepted += 1", f"{ind}if err > max_err: max_err = err",
            f"{ind}if h < smallest: smallest = h", f"{ind}if h > largest: largest = h",
            *(f"{ind}y{c}, k0_{c} = {nm}, k{last}_{c}" for c, nm in enumerate(names[:m])),
            f"{ind}t = t_new", f"{ind}facold = 1e-4 if 1e-4 > err else err", f"{ind}if not fixed:",
            f"{ind}    fac = (err ** {_EXPO1!r} if err > 0.0 else 1e-10) / facold ** {_BETA!r}",
            f"{ind}    fac = fac / {_SAFETY!r}", f"{ind}    fac = fac if fac < {hi} else {hi}",
            f"{ind}    h = h / (fac if fac > {lo} else {lo})", "        else:",
            f"{ind}rejected += 1", f"{ind}fac = err ** {_EXPO1!r} / {_SAFETY!r}",
            f"{ind}h = h / (fac if fac < {hi} else {hi})", f"{ind}if h < min_step:", underflow,
            f"    return {done}, None")


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    min_step: float = 1e-12
    guard_margin: float = GUARD_MARGIN

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
    # right-hand sides asked for: the initial rates, the initial-step probe and
    # twelve stages per attempt (twelve also when a stage raised)
    rhs_calls: int = 0
    max_error_estimate: float = 0.0  # scaled local error norm among accepted steps
    smallest_step: float = 0.0  # among accepted steps; both 0.0 when none was
    largest_step: float = 0.0


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

    def to_csv(self, target) -> None:
        """Write columns t, q0..q(n-1), p0..p(n-1), S, then tracked labels, each value as its
        repr, column by column, one line at a time: a path by `write_over`, a file object as is."""
        header = ["t", *coordinate_names(self.n)[:-1], *self.tracked]
        columns = [self.times, *(map(itemgetter(c), self.rows) for c in range(2 * self.n + 1)),
                   *self.tracked.values()]
        lines = map(",".join, zip(*(map(repr, c) for c in columns)))
        parts = chain((",".join(header) + "\n",), map("{}\n".format, lines))
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            return write_over(target, parts, newline="")
        target.writelines(parts)


def write_over(path, parts: Iterable[str], newline: str | None = None) -> None:
    """Write `parts` over the old bytes of `path` (made as `open(path, "w")` would), then cut
    it after them, unless it cannot seek (a FIFO): O_TRUNC on a file with data costs ~100 us."""
    with open(path, "w", newline=newline,
              opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.writelines(parts)
        if fh.seekable():
            fh.truncate()


def _initial_step(rhs, t0: float, y0: Sequence[float], f0: Sequence[float],
                  span: float, cfg: IntegratorConfig) -> float:
    sc = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in y0]
    d0, d1 = _rms(y0, sc), _rms(f0, sc)
    h0 = min(1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1, span)
    if h0 == 0.0:  # d1 overflowed to inf, which makes h1 below 0 too: start at min_step
        h0 = cfg.min_step
    try:
        f1 = rhs(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
        d2 = _rms([b - a for a, b in zip(f0, f1)], sc) / h0
    except DomainError:
        d2 = d1
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return max(cfg.min_step, min(100.0 * h0, h1, span, cfg.max_step))


def adaptive_rk45(rhs: Callable[[float, Sequence[float]], Sequence[float]], t0: float,
                  y0: Sequence[float], t_end: float, cfg: IntegratorConfig, *,
                  loop: Callable) -> tuple[IntegratorStats, str | None]:
    """Drive the DOP853 pair from t0 to t_end on states given as sequences
    of floats.  `rhs(t, y)` returns one rate per component, then any number
    of trailing values, which the stepping ignores; it gives the initial
    rates and the initial-step probe.  `loop`, a `_flow_loop`, then takes
    every step from those rates and that step, with its own compiled
    right-hand side at every stage.
    Returns the stats plus an error tag (None on clean completion).
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed start time")
    try:
        f0 = rhs(t0, y0)
    except DomainError:
        return IntegratorStats(rhs_calls=1), DOMAIN_VIOLATION
    fixed_step = cfg.min_step == cfg.max_step
    h = cfg.max_step if fixed_step else _initial_step(rhs, t0, y0, f0, t_end - t0, cfg)
    accepted, rejected, attempts, max_err, smallest, largest, tag = loop(t0, y0, f0, h, t_end, cfg)
    return IntegratorStats(accepted, rejected, 1 + (not fixed_step) + _STAGES * attempts, max_err,
                           smallest if accepted else 0.0, largest), tag


class AuxComponent(NamedTuple):
    """The start of an extra state component integrated alongside (q, p, S).

    Its d/dt is the system's `param_rates` entry of its name, a field over
    (q, p, S, t), the parameters and the names of all extra components.  A
    component with a `box` is a positive function whose rate is singular at
    zero: it must start inside the open box, an accepted value outside it
    stops the flow tagged AuxiliaryBlowup, and a stage value with
    |value| < 1e-12 (`_VANISHING`) raises DomainError in the right-hand side.
    """

    initial: float
    box: tuple[float, float] | None = None


def integrate(system: ContactSystem, start: ExtendedPoint, t_end: float,
              cfg: IntegratorConfig | None = None, tracked: Mapping[str, ScalarField] | None = None,
              aux: Mapping[str, AuxComponent] | None = None) -> Trajectory:
    """Integrate the flow of X_h^t, `extended_field(system)`, in t.

    `aux` adds state components, each advanced at its `system.param_rates`
    rate under the same step controller; the right-hand side and the tracked
    fields see their names next to q, p, S, t and the system parameters.  A
    start outside the admissible region or a component's box, or an `aux`
    name the system does not rate, is a ValueError, and so is a `tracked`
    label that names a state column (t, a coordinate or an `aux` name).  The
    start and every accepted state are recorded as rows, the tracked fields,
    then the `aux` components, as columns.  The system's guards are trailing
    columns of the right-hand side, so the last stage of a step holds their
    values at the accepted state.  Guard, non-finite state, blow-up or
    step-size failures return the partial trajectory with an error tag
    instead of raising.  The steps are taken by `_flow_loop`, which tests and
    records each accepted state itself; the Python `rhs` here gives only the
    initial rates and the initial-step probe.  A DomainError of a tracked
    field, evaluated after the flow, names the field, the time and the state;
    after a flow that ended with a tag, the tag names the failure, and such a
    value reads NaN.
    """
    cfg, aux, tracked = cfg or IntegratorConfig(), dict(aux or {}), dict(tracked or {})
    if not system.admissible(start, cfg.guard_margin):
        raise ValueError("start point is outside the admissible region")
    for nm, c in aux.items():
        if nm not in system.param_rates:
            raise ValueError(f"the system gives no rate for auxiliary {nm!r}")
        if c.box and not c.box[0] < c.initial < c.box[1]:
            raise ValueError(f"auxiliary {nm!r} starts at {c.initial!r}, outside its box {c.box}")
    n = system.n
    state = [*coordinate_names(n)[:-1], *aux, "t"]
    clash = next((label for label in tracked if label in state), None)
    if clash is not None:  # its column would be written over, or written twice
        raise ValueError(f"tracked label {clash!r} names a state column")
    field = extended_field(system)
    fields = [*field.Yq, *field.Yp, field.YS, *map(system.param_rates.get, aux), *system.guards]
    rhs_fn = compile_bundle(fields, state, system.params)
    columns_fn = compile_bundle(list(tracked.values()), state, system.params)
    boxed = [(2 * n + 1 + i, nm, c.box) for i, (nm, c) in enumerate(aux.items()) if c.box]

    def rhs(t: float, y: Sequence[float]) -> tuple[float, ...]:
        for i, nm, _ in boxed:
            if abs(y[i]) < _VANISHING:
                raise DomainError("auxiliary function vanished", nm)
        return rhs_fn(*y, t)

    times = [start.t]
    rows = [[*start.q, *start.p, start.S,
             *(float(c.initial) for c in aux.values())]]
    stats, tag = adaptive_rk45(rhs, start.t, rows[0], t_end, cfg,
                               loop=_flow_loop(rhs_fn, len(fields), state, boxed, times, rows))
    try:
        columns = zip(*(columns_fn(*y, t) for t, y in zip(times, rows)))
    except DomainError as e:  # the bundle's is the first row's first field to raise alone
        alone = {label: compile_bundle([f], state, system.params) for label, f in tracked.items()}
        if tag is None:
            for (t, y), (label, fn) in product(zip(times, rows), alone.items()):
                try:
                    fn(*y, t)
                except DomainError:
                    e.args = (f"tracked {label!r} at t={t!r}, state {[*y]!r}: {e}",)
                    break
            raise
        columns = [[_or_nan(fn, t, y) for t, y in zip(times, rows)] for fn in alone.values()]
    recorded = dict(zip(tracked, map(list, columns)))
    recorded.update({nm: [y[i] for y in rows] for i, nm in enumerate(aux, 2 * n + 1)})
    return Trajectory(n, times, rows, recorded, stats, tag)


def _or_nan(fn: Callable[..., tuple[float, ...]], t: float, y: Sequence[float]) -> float:
    """The one value of the bundle `fn` at the row (t, y), or NaN where it leaves the domain."""
    try:
        return fn(*y, t)[0]
    except DomainError:
        return math.nan


def cumulative_integral(system: ContactSystem, traj: Trajectory,
                        integrand: ScalarField) -> list[float]:
    """Running integral of `integrand` g along the trajectory, from 0 at the
    first sample, by the two-point Hermite rule of degree 7 on the accepted
    grid: a step of length d adds d/2 (g0 + g1) + 3d^2/28 (g0' - g1')
    + d^3/84 (g0" + g1") + d^4/1680 (g0'" - g1'"), the derivatives of g taken
    along X_h^t (the rated parameters moving at their rates).  So it is exact
    for g of degree 7 in t, and for a constant g it is the one term d*g."""
    m, flow, g = 2 * traj.n + 1, extended_field(system), [integrand]
    for _ in range(3):
        g.append(directional_derivative(flow, g[-1]) + system.rate_term(g[-1]))
    fn = compile_bundle(g, coordinate_names(traj.n), system.params)
    vals = [fn(*y[:m], t) for t, y in zip(traj.times, traj.rows)]
    steps = [b - a for a, b in zip(traj.times, traj.times[1:])]
    return list(accumulate((d / 2 * (u[0] + v[0]) + 3 * d * d / 28 * (u[1] - v[1])
                            + d * d * d / 84 * (u[2] + v[2]) + d ** 4 / 1680 * (u[3] - v[3])
                            for d, u, v in zip(steps, vals, vals[1:])), initial=0.0))

