"""Scenario-driven command line frontend.

A scenario is a single JSON file describing a system, an initial state,
tracked invariants, candidate symmetries and a list of checks; running it
produces out/<name>/trajectory.csv, report.txt and report.json.  Exit codes:
0 all checks pass, 1 check failure, 2 config error, 3 runtime/domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator, NamedTuple

from . import __version__, expr, noether, scaling, systems
from .dynamics import (IntegratorConfig, Trajectory, contact_field, extended_field, integrate,
                       write_over)
from .expr import DomainError, ExprError, ScalarField, derivatives_kept, parse
from .geometry import ContactSystem, ExtendedPoint, LieDerivativeEta, VectorFieldSpec, point_bundle
from .noether import (FLOW_THRESHOLD, SYMBOLIC_THRESHOLD, dissipation_compensation,
                      max_relative_drift, noether_lambda, sample_points, symmetry_from_invariant)
from .systems import AuxiliaryState, TrackedInvariant, co_integrate, make_builtin

DEFAULT_OUT_ENV = "CONTACT_NOETHER_OUT"
#: the files a run may write in out/<name>/
OUTPUTS = ("report.json", "report.txt", "trajectory.csv")


class ConfigError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# the scenario schema.  A kind checks one JSON value, named `where` in a config
# error, and returns it as the run reads it
Kind = Callable[[Any, str], Any]


def _kind(wanted: str, test: Callable[[Any], bool]) -> Kind:
    def check(value: Any, where: str) -> Any:
        if not test(value):  # the message only on failure: `value` may be a long list
            raise ConfigError(f"{where} must be {wanted}, got {value!r}")
        return value
    return check


def _number(least: float = -math.inf, most: float = math.inf, integer: bool = False) -> Kind:
    """A number in [least, most]: an integer if `integer`, else finite and read as a float."""
    bounds = f">= {least}" + (f" and <= {most}" if most < math.inf else "")
    numbers = int if integer else (int, float)
    typed = _kind(f"an integer {bounds}" if integer else "a finite number",
                  lambda v: isinstance(v, numbers) and not isinstance(v, bool)
                  and abs(v) <= sys.float_info.max and (least <= v <= most or not integer))
    ranged = _kind(bounds, lambda v: least <= v <= most)
    return lambda value, where: (int if integer else float)(ranged(typed(value, where), where))


def _list(item: Kind | None = None) -> Kind:
    def check(value: Any, where: str) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)] if item else value
    return check


def _choice(*options: str) -> Kind:
    return _kind(" or ".join(map(repr, options)).replace(" or ", ", ", len(options) - 2),
                 lambda v: v in options)


STRING = _kind("a string", lambda v: isinstance(v, str))
FLAG = _kind("true or false", lambda v: isinstance(v, bool))
OBJECT = _kind("a JSON object", lambda v: isinstance(v, dict))
NAMES = _kind("a JSON object with no key that starts with '_', which names a number of the "
              "file", lambda v: isinstance(v, dict) and not any(k[:1] == "_" for k in v))
FINITE, TOL, SEED = _number(), _number(0), _number(0, integer=True)
REQUIRED = object()  # the default of a key that its object must give


class Shape(NamedTuple):
    """The keys one kind of scenario object may hold, key -> (kind, default).  A kind is a
    `Kind`, a Shape (a nested object) or the kind of label ("invariant", ...) it must name."""

    keys: dict[str, tuple[Any, Any]]
    forms: tuple[tuple[str, ...], ...] = ()  # the key sets of which it gives exactly one
    build: Callable[..., Any] = SimpleNamespace  # the record made of its keys' values
    refs: tuple[str, ...] = ()  # a check's: the keys that name labels, in `target`'s order
    target: str = "{}"  # a check's report target
    pointwise: bool = False  # a check's: judged at sample points, not along a flow


@dataclass(frozen=True)
class Symmetry:
    """A candidate symmetry Y; `factor` is lambda in `L_Y eta_E = lambda eta_E`, if known."""

    field: VectorFieldSpec
    factor: ScalarField | None = None


@dataclass(frozen=True)
class Check:
    """A check: its type's keys, `refs` the labels it names; a key it does not read is None."""

    type: str
    refs: tuple[str, ...]
    tol: float
    against: str | None = None
    expect_symmetry: bool | None = None
    Lambda_tol: float | None = None
    expect_verdict: str | None = None
    expect_Lambda: float | None = None


def _check(names: str, refs: tuple[str, ...], target: str, tol: float, pointwise: bool,
           **keys: tuple[Any, Any]) -> Shape:
    """A check type that names labels of kind `names` by the keys `refs`."""
    return Shape({TYPE: (STRING, REQUIRED), **dict.fromkeys(refs, (names, REQUIRED)),
                  "tol": (TOL, tol), **keys}, refs=refs, target=target, pointwise=pointwise,
                 build=lambda **g: Check(refs=tuple(map(g.pop, refs)), **g))  # refs popped first


# bounds measured to finish quickly: 100,000 samples of four pointwise Kepler checks take
# 4.8 s and 240 MB; a system of dimension 128 whose h sums all 256 coordinates, 0.6 s
MAX_SAMPLES, MAX_DIMENSION = 100_000, 128
LABEL, TYPE = "label", "type"
CHECKS = {
    "drift": _check("invariant", ("invariant",), "{}", FLOW_THRESHOLD, False),
    "residual": _check("invariant", ("invariant",), "{}", FLOW_THRESHOLD, True),
    "ratio": _check("invariant", ("numerator", "denominator"), "{}/{}", FLOW_THRESHOLD, False),
    "symmetry": _check("symmetry", ("symmetry",), "{}", SYMBOLIC_THRESHOLD, True,
                       expect_symmetry=(FLAG, True)),
    "similarity": _check("symmetry", ("symmetry",), "{}", SYMBOLIC_THRESHOLD, True,
                         against=(_choice("extended", "contact"), "extended"),
                         Lambda_tol=(TOL, SYMBOLIC_THRESHOLD),
                         expect_verdict=(_choice(noether.SIMILARITY, noether.DYNAMICAL_SYMMETRY,
                                                 noether.NEITHER), None),
                         expect_Lambda=(FINITE, None)),
    "closure": _check("symmetry", ("first", "second"), "[{}, {}]", SYMBOLIC_THRESHOLD, True),
}
SCHEMA = {
    "system": Shape({"builtin": (_choice(*systems.BUILTIN_DOCS), None),
                     "expression": (STRING, None),
                     "dimension": (_number(1, MAX_DIMENSION, integer=True), None),
                     "params": (NAMES, {})}, forms=(("builtin",), ("expression", "dimension"))),
    "initial": Shape({"q": (_list(FINITE), REQUIRED), "p": (_list(FINITE), REQUIRED),
                      "S": (FINITE, 0.0), "t": (FINITE, 0.0)}, build=ExtendedPoint),
    "integrator": Shape({f.name: (FINITE, f.default) for f in fields(IntegratorConfig)},
                        build=IntegratorConfig),
    "auxiliary": Shape({f.name: (FLAG if isinstance(f.default, bool) else FINITE, f.default)
                        for f in fields(AuxiliaryState)}, build=AuxiliaryState),
    "invariant": Shape({LABEL: (STRING, REQUIRED), "builtin": ("builtin invariant", None),
                        "expression": (STRING, None),
                        "expected": (_choice(systems.CONSERVED, systems.DISSIPATED), None)},
                       forms=(("builtin",), ("expression",))),
    "ansatz": Shape({f.name: (FINITE, 0.0) for f in fields(scaling.ScalingAnsatz)},
                    build=scaling.ScalingAnsatz),
}
SCHEMA["symmetry"] = Shape(
    {LABEL: (STRING, REQUIRED), "ansatz": (SCHEMA["ansatz"], None),
     "from_invariant": ("invariant", None), "Yq": (_list(STRING), None),
     "Yp": (_list(STRING), None), "YS": (STRING, None), "Yt": (STRING, "0")},
    forms=(("ansatz",), ("from_invariant",), ("from_invariant", "Yt"), ("Yq", "Yp", "YS", "Yt")))
SCHEMA["scenario"] = Shape({
    "name": (STRING, None),  # None: the file's stem
    "system": (SCHEMA["system"], REQUIRED),
    "initial": (SCHEMA["initial"], None),
    "t_end": (FINITE, None),
    "integrator": (SCHEMA["integrator"], IntegratorConfig()),
    "seed": (SEED, 0),
    "sample_count": (_number(1, MAX_SAMPLES, integer=True), 100),
    "auxiliary": (SCHEMA["auxiliary"], None),
    "invariants": (_list(), []), "symmetries": (_list(), []), "checks": (_list(), []),
    "point_params": (NAMES, {}),
})


def _fields(obj: Any, shape: Shape, where: str, labels: dict | None = None) -> Any:
    """The record of `obj`, an object of `shape`: each key it gives checked by its kind, each
    key it leaves out at its default.  Another key, or not one of `shape.forms`, is refused."""
    OBJECT(obj, name := where or "scenario")
    for key in sorted(obj.keys() - shape.keys.keys())[:1]:
        import difflib  # here, not at the top: only a refusal needs it
        near = "".join(f" (did you mean {k!r}?)"
                       for k in difflib.get_close_matches(key, shape.keys, 1))
        raise ConfigError(f"{name} has unknown key {key!r}{near}; allowed: {sorted(shape.keys)}")
    given = obj.keys() & {k for form in shape.forms for k in form}
    if shape.forms and not any(given == set(form) for form in shape.forms):
        raise ConfigError(f"{name} must give exactly one of "
                          f"{' or '.join('+'.join(f) for f in shape.forms)}, got {sorted(given)}")
    values = {}
    for key, (kind, default) in shape.keys.items():
        if key not in obj:
            if default is REQUIRED:
                raise ConfigError(f"{name} needs {key!r}")
            values[key] = default
            continue
        at = f"{where} {key!r}".lstrip()
        if isinstance(kind, Shape):
            values[key] = _fields(OBJECT(obj[key], at), kind, f"{where} {key}".lstrip())
        elif isinstance(kind, str):  # a label of a `kind`
            if not (isinstance(obj[key], str) and obj[key] in labels[kind]):
                raise ConfigError(f"{at} references unknown {kind} {obj[key]!r} "
                                  f"(available: {sorted(labels[kind])})")
            values[key] = obj[key]
        else:
            values[key] = kind(obj[key], at)
    try:
        return shape.build(**values)
    except ValueError as e:
        raise ConfigError(f"{name}: {e}") from e


@dataclass(frozen=True)
class Scenario:
    name: str
    system: ContactSystem
    initial: ExtendedPoint | None
    t_end: float | None
    integrator: IntegratorConfig
    seed: int
    sample_count: int
    invariants: dict[str, TrackedInvariant]
    symmetries: dict[str, Symmetry]
    checks: tuple[Check, ...]
    auxiliary: AuxiliaryState | None
    point_params: dict[str, float]

    @cached_property
    def bound(self) -> ContactSystem:
        """The system with `point_params` bound over its parameters, as the checks
        read it; the flow does not, so that a tracked field reading a point-only
        name stays unbound."""
        return self.system.with_params(self.point_params)

    @cached_property
    def fused(self) -> tuple[list[noether.Pointwise | None], Callable]:
        """Each pointwise check, built (`_build`), at its index, and one bundle of all their
        fields, bound like the sampler.  The built checks are kept by the skeleton, all that
        `_build` reads (the nodes and the checks with their tolerances): a file or a `--seed`
        copy of a kept skeleton builds nothing.  A build error names its check."""
        def build() -> _Built:
            built = _Built()
            for i, c in enumerate(self.checks):
                with _named(i, c, Exception):
                    built.append(_build(self, c) if CHECKS[c.type].pointwise else None)
            return built

        system = self.system  # the checks read n and the nodes of h and of its rates
        built = expr.live_work(("checks", *((k, v.field.ast) for k, v in self.invariants.items()),
                                *((k, _nodes(v.field, v.factor)) for k, v in self.symmetries.items()),
                                self.checks, system.n, system.h.ast,
                                *((nm, r.ast) for nm, r in system.param_rates.items())),
                               build)
        return built, point_bundle([f for b in built if b for f in b.fields], self.bound.params)


class _Built(list):
    """Built checks, kept by `expr.live_work`: a list, which a weak table can name, hashed
    by identity."""

    __hash__ = object.__hash__


def _nodes(*fields: ScalarField | VectorFieldSpec | None) -> tuple:
    """The nodes of scalar and vector fields (None for none), as a key reads them."""
    return tuple(f.ast if isinstance(f, ScalarField) else f and _nodes(*f.components())
                 for f in fields)


@contextmanager
def _named(i: int, c: Check, *errors: type[Exception]) -> Iterator[None]:
    """An error of `errors` raised within, prefixed by check `c`'s index, type and target."""
    try:
        yield
    except errors as e:
        e.args = (f"check[{i}] {c.type} {CHECKS[c.type].target.format(*c.refs)}: {e}",)
        raise


def _parse_field(source: str, n: int, where: str, numbers: dict[str, float], place: str,
                 names: set[str] | None = None) -> ScalarField:
    """The field of `source`, the string at `place`, its numbers lifted into `numbers`
    (`expr.parse`); if `names` is given, it may read no other parameter."""
    try:
        field = parse(source, n, numbers, place)
    except ExprError as e:
        raise ConfigError(f"{where}: {e}") from e
    unbound = sorted(field.free_params - names) if names is not None else ()
    _require(not unbound, f"{where} reads {unbound}, bound by no coordinate, system param, "
                          "point_params key or auxiliary name")
    return field


def _kept(kind: str, build: Callable[[], Any], *reads: Any) -> Any:
    """`build()`, which reads nothing but `reads`, kept by `expr.live_work` under `kind` and
    `reads` (a field as its dimension and tree, anything else as itself).  `_load` builds
    the systems and fields of a file's trees so, never of its values, which the file binds
    apart: a file whose trees recur builds none.  What it keeps is never changed after."""
    return expr.live_work((kind, *((r.n, r.ast) if isinstance(r, ScalarField) else r
                                   for r in reads)), build)


def _builtin(name: str, params: dict[str, Any]) -> ContactSystem:
    """The builtin `name` with `params`' values bound.  Its trees and invariants read the
    names given, f's tree (a JSON number's is a literal) and whether g0 is 0, so the system
    built of them is kept (`_kept`), and a value is checked for each file."""
    if params.get("m", 1.0) <= 0:
        raise ValueError("m must be positive")
    f = params.get("f")
    system = _kept("builtin", lambda: make_builtin(name, params), name, frozenset(params),
                   expr.Num(f) if isinstance(f, float) else f, params.get("g0", 0.0) == 0.0)
    return system.with_params({k: v for k, v in params.items() if k != "f"})


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such scenario file") from None
    except OSError as e:  # a directory, say
        raise ConfigError(f"{path}: cannot read the scenario file ({e.strerror})") from None


def load_scenario(path: str | Path) -> Scenario:
    return _load(Path(path), _read(Path(path)))


def _load(path: Path, data: bytes) -> Scenario:
    try:
        return _scenario(json.loads(data.decode()), path.stem)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason}, byte offset {e.start})") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from None
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e.__cause__


def _scenario(raw: Any, stem: str) -> Scenario:
    """The scenario of the JSON value `raw`, named `stem` unless it names itself."""
    f = _fields(raw, SCHEMA["scenario"], "")
    name = f.name or stem
    _require(name not in (".", "..") and Path(name).name == name,  # out_root / name stays inside
             f"'name' must be one plain path component, got {name!r}")
    s = f.system
    lifted: dict[str, float] = {}  # the file's nonzero numbers, by name (`expr.lift`)
    try:
        params = {k: parse(v, 1, lifted, "f") if k == "f" and s.builtin and isinstance(v, str)
                  else FINITE(v, f"system params {k!r}") for k, v in s.params.items()}  # f(t)
        system = _builtin(s.builtin, params) if s.builtin else ContactSystem(
            n=s.dimension, h=_parse_field(s.expression, s.dimension, "system 'expression'",
                                          lifted, "h"), params=params, label=name)
    except (ValueError, ExprError) as e:
        raise ConfigError(f"bad system spec: {e}") from e
    n = system.n
    _require(f.initial is None or f.initial.n == n, "initial state dimension != system dimension")
    if f.initial is not None and f.t_end is not None:
        _require(f.t_end > f.initial.t, f"'t_end' must exceed the initial 't' {f.initial.t!r}, "
                                        f"got {f.t_end!r}")
    _require(f.auxiliary is None or systems.rates_aux_odes(system), "'auxiliary' needs a system "
             f"with auxiliary equations, got {system.label!r}")
    point_params = {k: FINITE(v, f"point_params {k!r}") for k, v in f.point_params.items()}
    names = {*system.params, *point_params}  # the names a field may read besides coordinates
    if systems.rates_aux_odes(system):  # co-integration binds the auxiliaries
        names |= {*system.param_rates, *AuxiliaryState().constants()}

    invariants: dict[str, TrackedInvariant] = {}
    for position, spec in enumerate(f.invariants):
        where = f"invariant {OBJECT(spec, 'invariant').get(LABEL)!r}"
        g = _fields(spec, SCHEMA["invariant"], where, {"builtin invariant": system.invariants})
        _require(g.label not in invariants, f"duplicate invariant label {g.label!r}")
        _require(not set(g.label) & set(',"\r\n'), f"invariant label {g.label!r} names "
                 "a CSV column and may hold no comma, double quote, CR or LF")
        base = system.invariants.get(g.builtin) or TrackedInvariant(
            g.label, _parse_field(g.expression, n, where, lifted, f"I{position}", names))
        invariants[g.label] = TrackedInvariant(g.label, base.field, g.expected or base.expected)

    symmetries: dict[str, Symmetry] = {}
    for position, spec in enumerate(f.symmetries):
        where = f"symmetry {OBJECT(spec, 'symmetry').get(LABEL)!r}"
        g = _fields(spec, SCHEMA["symmetry"], where, {"invariant": invariants})
        _require(g.label not in symmetries, f"duplicate symmetry label {g.label!r}")
        place = f"Y{position}"  # and its strings' places: Y<position>q<i>, ...p<i>, ...S, ...t
        if g.ansatz is not None:  # its rates lifted as `parse` lifts a string's numbers
            before = len(lifted)
            rates = [ScalarField(expr.lift(v, lifted, place, before), n)
                     for v in vars(g.ansatz).values()]
            symmetries[g.label] = _kept(
                "ansatz", lambda: Symmetry(scaling.scaling_generator(rates, n)), *rates)
        elif g.from_invariant is not None:
            F = invariants[g.from_invariant].field
            Yt = _parse_field(g.Yt, n, f"{where} Yt", lifted, f"{place}t", names)
            symmetries[g.label] = _kept("from_invariant", lambda: Symmetry(
                symmetry_from_invariant(system, F, Yt), noether_lambda(system, F, Yt)),
                system.h, F, Yt)
        else:
            Yq, Yp = (tuple(_parse_field(s, n, f"{where} {k}[{i}]", lifted, f"{place}{k[1]}{i}",
                                         names) for i, s in enumerate(getattr(g, k)))
                      for k in ("Yq", "Yp"))
            _require(len(Yq) == n and len(Yp) == n, f"{where} needs {n} Yq/Yp components")
            YS, Yt = (_parse_field(getattr(g, k), n, f"{where} {k}", lifted, place + k[1], names)
                      for k in ("YS", "Yt"))
            symmetries[g.label] = Symmetry(VectorFieldSpec(Yq, Yp, YS, Yt))

    checks = []
    for i, spec in enumerate(f.checks):
        ctype = _choice(*CHECKS)(OBJECT(spec, "check").get(TYPE), "check 'type'")
        checks.append(c := _fields(spec, CHECKS[ctype], f"{ctype} check",
                                   {"invariant": invariants, "symmetry": symmetries}))
        _require(c.against != "contact" or "t" not in system.h.free_vars,
                 f"check[{i}] {ctype} {CHECKS[ctype].target.format(*c.refs)}: 'against' "
                 "'contact' needs an h that does not read t; use 'extended'")
    return Scenario(name, system.with_params(lifted), f.initial, f.t_end, f.integrator, f.seed,
                    f.sample_count, invariants, symmetries, tuple(checks), f.auxiliary, point_params)


# ---------------------------------------------------------------------------
# running


def _run_flow(sc: Scenario) -> Trajectory:
    _require(sc.initial is not None and sc.t_end is not None,
             f"{sc.name}: flow-based checks need 'initial' and 't_end'")
    if sc.auxiliary is not None:
        return co_integrate(sc.system, sc.initial, sc.auxiliary, sc.t_end,
                            sc.integrator, list(sc.invariants.values()))
    tracked = {ti.label: ti.field for ti in sc.invariants.values()}
    return integrate(sc.system, sc.initial, sc.t_end, sc.integrator, tracked)


def _build(sc: Scenario, c: Check) -> noether.Pointwise:
    """The residual, symmetry, similarity or closure check `c`, built."""
    if c.type == "residual":
        return noether.build_residual(sc.system, sc.invariants[c.refs[0]].field)
    if c.type == "closure":
        s1, s2 = (sc.symmetries[label] for label in c.refs)
        return noether.build_closure(sc.system, s1.field, s2.field, c.tol, s1.factor, s2.factor)
    Y = sc.symmetries[c.refs[0]].field
    if c.type == "symmetry":
        return noether.build_symmetry(sc.system, LieDerivativeEta(sc.system, Y).form, c.tol)
    X = (extended_field if c.against == "extended" else contact_field)(sc.system)
    return noether.build_similarity(Y, X, c.tol, c.Lambda_tol, sc.system)


def run_checks(sc: Scenario) -> tuple[dict, Trajectory | None]:
    """Execute every check of a loaded scenario; returns (report, trajectory).
    The flow, the samples, the rows of the pointwise checks' one bundle (`Scenario.fused`,
    built once per scenario record), the judges and the report are computed on every call.
    If a row leaves the domain, each pointwise check reads the rows of its own fields at
    its turn (`Pointwise.rows`).  A pointwise check's error is prefixed with its index, type
    and target."""
    report: dict[str, Any] = {"scenario": sc.name, "version": __version__, "seed": sc.seed,
                              "sample_count": sc.sample_count, "checks": [], "passed": True}
    pointwise = [CHECKS[c.type].pointwise for c in sc.checks]
    traj: Trajectory | None = None
    if not all(pointwise):
        traj = _run_flow(sc)
        report["trajectory"] = {"samples": len(traj.times), **vars(traj.stats),
                                "error_tag": traj.error_tag}
        if traj.error_tag is not None:
            raise RuntimeError(f"integration aborted: {traj.error_tag} after t="
                               f"{traj.times[-1]!r}, state {[*traj.rows[-1]]!r}")

    bound, samples, rows, lo = sc.bound, [], None, 0
    compensation = cache(lambda: dissipation_compensation(bound, traj))  # on first use
    if any(pointwise):
        built, at = sc.fused
        samples = sample_points(bound, sc.sample_count, sc.seed, margin=sc.integrator.guard_margin)
        with suppress(DomainError):  # rows stays None
            rows = [at(pt) for pt in samples]

    for i, c in enumerate(sc.checks):
        ctype, tol = c.type, c.tol
        entry: dict[str, Any] = {"type": ctype, "target": CHECKS[ctype].target.format(*c.refs),
                                 "tol": tol}
        if pointwise[i]:
            b = built[i]
            with _named(i, c, DomainError, noether.DegeneratePoint):
                rep = b.judge(samples, b.rows(samples, bound.params) if rows is None
                              else [v[lo:lo + len(b.fields)] for v in rows])
            lo += len(b.fields)
        if ctype == "drift":
            inv = sc.invariants[c.refs[0]]
            series = traj.tracked[inv.label]
            if inv.expected == systems.DISSIPATED:
                series = [v * c for v, c in zip(series, compensation())]
            rep = max_relative_drift(series)
        elif ctype == "ratio":
            series = [a / b for a, b in zip(*(traj.tracked[label] for label in c.refs))
                      if not abs(b) < 1e-12]  # a NaN denominator is kept, and fails
            _require(bool(series), f"{sc.name}: ratio denominator vanishes everywhere")
            rep = max_relative_drift(series)
        if ctype in ("drift", "ratio", "residual"):  # one value, within tol or not
            entry["value"] = float(rep)
            entry["passed"] = bool(rep <= tol)
        else:  # a classifier: its residual and verdict, then its factors
            entry["value"] = float(rep.residual)
            entry["verdict"] = rep.verdict
        if ctype in ("symmetry", "closure"):
            entry["lambda_table"] = [float(v) for v in rep.lambda_at_samples]
            if rep.lambda_defect is not None:
                entry["lambda_defect"] = float(rep.lambda_defect)
            entry["passed"] = bool(rep.passed if ctype == "closure"
                                   else rep.passed == c.expect_symmetry)
        elif ctype == "similarity":
            entry["Lambda_table"] = [float(v) for v in rep.Lambda_at_samples]
            ok = rep.passed if c.expect_verdict is None else rep.verdict == c.expect_verdict
            if c.expect_Lambda is not None:
                ok = ok and all(abs(v - c.expect_Lambda) <= tol for v in rep.Lambda_at_samples)
            entry["passed"] = bool(ok)
        report["checks"].append(entry)
        report["passed"] = bool(report["passed"] and entry["passed"])
    return report, traj


def _json(value: Any, indent: str = "\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` with each non-finite float as the string
    "NaN", "Infinity" or "-Infinity", without the pure-Python encoder `indent` costs."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return '"NaN"' if value != value else '"Infinity"' if value > 0 else '"-Infinity"'
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    items = [_json(v, inner) for v in value]
    return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"


def _text(value: Any) -> str:
    """`value` as report.txt writes it: floats by `repr`, lists comma-joined."""
    if isinstance(value, list):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value) if isinstance(value, float) else str(value)


def _write_report(report: dict, out_dir: Path) -> None:
    write_over(out_dir / "report.json", (_json(report), "\n"))
    items = [(k, report[k]) for k in ("scenario", "version", "seed", "sample_count")]
    items += [(f"trajectory.{k}", v) for k, v in report.get("trajectory", {}).items()]
    for i, c in enumerate(report["checks"]):
        items += [(f"check[{i}].{c['type']}.{k}", v) for k, v in c.items() if k != "type"]
    items.append(("passed", report["passed"]))
    write_over(out_dir / "report.txt", ("".join(f"{k}: {_text(v)}\n" for k, v in items),))


def run(scenario_path: str | Path, out_root: str | Path | None = None,
        seed: int | None = None, tol_override: float | None = None,
        quiet: bool = False, checks: bool = True) -> tuple[dict, int]:
    """Load, execute and persist one scenario; returns (report, exit_code).
    The run's symbolic work is kept (`derivatives_kept`) under the file's bytes with its
    stem, with the parsed scenario, so a file that recurs is not loaded again; while it is
    kept, another file on that system finds its derivatives and programs, and its built
    checks if its skeleton recurs (`Scenario.fused`).  `seed` and `tol_override` run a
    copy.  A runtime error exits 3 with a message that names where it arose."""
    path, out_dir, wrote = Path(scenario_path), None, ()
    try:
        data = _read(path)
        with derivatives_kept((data, path.stem)) as kept:
            sc = kept.record = kept.record or _load(path, data)
            out_dir = Path(out_root or os.environ.get(DEFAULT_OUT_ENV, "out")) / sc.name
            sc = sc if seed is None else replace(sc, seed=SEED(seed, "--seed"))
            if tol_override is not None:
                tol = TOL(tol_override, "--tol-override")
                sc = replace(sc, checks=tuple(replace(c, tol=tol) for c in sc.checks))
            report, traj = run_checks(sc) if checks else (None, _run_flow(sc))
            out_dir.mkdir(parents=True, exist_ok=True)
            if report is not None:
                _write_report(report, out_dir)
            if traj is not None:
                traj.to_csv(out_dir / "trajectory.csv")
            wrote = [name for name, made in zip(OUTPUTS, (report, report, traj))
                     if made is not None]
            if not checks:
                if not quiet:
                    print(f"{sc.name}: wrote {out_dir / 'trajectory.csv'} "
                          f"({len(traj.times)} samples, error_tag={traj.error_tag})")
                return {"scenario": sc.name, "passed": traj.error_tag is None}, \
                    (0 if traj.error_tag is None else 3)
            if not quiet:
                for c in report["checks"]:
                    status = "PASS" if c["passed"] else "FAIL"
                    print(f"{sc.name}: {status} {c['type']} {c['target']} "
                          f"value={_fmt(c['value'])} tol={_fmt(c['tol'])}")
                print(f"{sc.name}: {'PASS' if report['passed'] else 'FAIL'}")
            return report, (0 if report["passed"] else 1)
    except Exception as e:  # a config error exits 2, a runtime/domain error 3
        config = isinstance(e, ConfigError)
        if not quiet:
            print("config error: " if config else f"runtime error: {type(e).__name__}: ",
                  e, sep="", file=sys.stderr)
        return {"error": str(e)}, 2 if config else 3
    finally:  # no earlier run's output stands beside this run's, and none once it failed
        if out_dir is not None:
            with suppress(OSError):
                for name in OUTPUTS:
                    if name not in wrote:
                        (out_dir / name).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_scenarios(args: argparse.Namespace, checks: bool) -> int:
    return max([run(path, args.out, args.seed, args.tol_override, args.quiet, checks)[1]
                for path in args.scenario])


def _cmd_solve_scaling(args: argparse.Namespace) -> int:
    f_kind = {"const": "constant", "constant": "constant",
              "power-law": "power-law", "free": "free"}.get(args.f)
    usage = [message for message, wrong in (
        (f"unknown --f value {args.f!r}", f_kind is None),
        ("--g=homogeneous requires --kappa", args.g == "homogeneous" and args.kappa is None),
        *((f"--{flag} must be a finite number", value is not None and not math.isfinite(value))
          for flag, value in (("k", args.k), ("g0", args.g0), ("kappa", args.kappa))),
        (f"--dimension must be from 1 to {MAX_DIMENSION}",
         not 1 <= args.dimension <= MAX_DIMENSION)) if wrong]
    if usage:
        print(usage[0], file=sys.stderr)
        return 2
    solutions, rejected = scaling.solve_scaling_explained(
        args.k, f_kind, args.g, args.g0, args.kappa, n=args.dimension)
    if args.json:
        print(_json({"solutions": [{
            "case_tag": s.case_tag, "ansatz": s.ansatz and vars(s.ansatz),
            "invariant": s.invariant.source(),
            "f_required": s.f_required and s.f_required.source(),
            "constraints": list(s.constraints_log), "informational": s.informational,
        } for s in solutions], "rejected": rejected}))
    else:
        for s in solutions:
            print(f"{s.case_tag}{' [informational]' if s.informational else ''}")
            if s.ansatz is not None:
                print("  ansatz: " + " ".join(f"{k}={_fmt(v)}" for k, v in vars(s.ansatz).items()))
            print(f"  invariant: {s.invariant.source()}")
            if s.f_required is not None:
                print(f"  f required: {s.f_required.source()}")
            for line in s.constraints_log:
                print(f"  constraint: {line}")
        for r in rejected:
            print(f"inadmissible: {r}")
    return 0


def _cmd_list_systems(_: argparse.Namespace) -> int:
    for name in sorted(systems.BUILTIN_DOCS):
        print(f"{name}: {systems.BUILTIN_DOCS[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="contact-noether")
    ap.add_argument("--out", default=None,
                    help=f"output directory (default ${DEFAULT_OUT_ENV} or ./out)")
    ap.add_argument("--seed", type=int, default=None, help="override scenario seed")
    ap.add_argument("--tol-override", type=float, default=None,
                    help="override every check tolerance")
    ap.add_argument("--quiet", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, about in (("simulate", "integrate scenarios and write trajectories only"),
                        ("check", "run scenario verification suites")):
        p = sub.add_parser(name, help=about)
        p.add_argument("scenario", nargs="+")
        p.set_defaults(run=lambda args: _cmd_scenarios(args, args.command == "check"))
    p = sub.add_parser("solve-scaling", help="print the scaling-symmetry case table")
    p.set_defaults(run=_cmd_solve_scaling)
    p.add_argument("--k", type=float, required=True, help="homogeneity degree of V(q)")
    p.add_argument("--f", default="const", help="f(t) kind: const | power-law | free")
    p.add_argument("--g", default="zero", choices=["zero", "homogeneous"])
    p.add_argument("--g0", type=float, default=0.0)
    p.add_argument("--kappa", type=float, default=None, help="homogeneity degree of g(S)")
    p.add_argument("--dimension", type=int, default=1)
    p.add_argument("--json", action="store_true")
    sub.add_parser("list-systems", help="list builtin systems with parameter docs").set_defaults(
        run=_cmd_list_systems)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
