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
from dataclasses import dataclass, fields, replace
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

from . import __version__, noether, scaling, systems
from .dynamics import IntegratorConfig, Trajectory, contact_field, extended_field, integrate
from .expr import ExprError, ScalarField, derivatives_kept, parse
from .geometry import ContactSystem, ExtendedPoint, VectorFieldSpec, point_bundle
from .noether import (FLOW_THRESHOLD, SYMBOLIC_THRESHOLD, dissipation_compensation,
                      max_relative_drift, noether_lambda, sample_points, symmetry_from_invariant)
from .systems import AuxiliaryState, TrackedInvariant, co_integrate, make_builtin

DEFAULT_OUT_ENV = "CONTACT_NOETHER_OUT"


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
                     "params": (OBJECT, {})}, forms=(("builtin",), ("expression", "dimension"))),
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
    "point_params": (OBJECT, {}),
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


def _parse_field(source: str, n: int, where: str) -> ScalarField:
    try:
        return parse(source, n)
    except ExprError as e:
        raise ConfigError(f"{where}: {e}") from e


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such scenario file") from None


def load_scenario(path: str | Path) -> Scenario:
    return _load(Path(path), _read(Path(path)))


def _load(path: Path, data: bytes) -> Scenario:
    try:
        return _scenario(json.loads(data.decode()), path.stem)
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
    params = {k: v if k == "f" and s.builtin and isinstance(v, str)  # f(t), a source
              else FINITE(v, f"system params {k!r}") for k, v in s.params.items()}
    try:
        system = make_builtin(s.builtin, params) if s.builtin else ContactSystem(
            n=s.dimension, h=_parse_field(s.expression, s.dimension, "system 'expression'"),
            params=params, label=name)
    except (ValueError, ExprError) as e:
        raise ConfigError(f"bad system spec: {e}") from e
    n = system.n
    _require(f.initial is None or f.initial.n == n, "initial state dimension != system dimension")
    if f.initial is not None and f.t_end is not None:
        _require(f.t_end > f.initial.t, f"'t_end' must exceed the initial 't' {f.initial.t!r}, "
                                        f"got {f.t_end!r}")
    _require(f.auxiliary is None or systems.rates_aux_odes(system), "'auxiliary' needs a system "
             f"with auxiliary equations, got {system.label!r}")

    invariants: dict[str, TrackedInvariant] = {}
    for spec in f.invariants:
        where = f"invariant {OBJECT(spec, 'invariant').get(LABEL)!r}"
        g = _fields(spec, SCHEMA["invariant"], where, {"builtin invariant": system.invariants})
        _require(g.label not in invariants, f"duplicate invariant label {g.label!r}")
        _require(not set(g.label) & set(',"\r\n'), f"invariant label {g.label!r} names "
                 "a CSV column and may hold no comma, double quote, CR or LF")
        base = system.invariants.get(g.builtin) or TrackedInvariant(
            g.label, _parse_field(g.expression, n, where))
        invariants[g.label] = TrackedInvariant(g.label, base.field, g.expected or base.expected)

    symmetries: dict[str, Symmetry] = {}
    for spec in f.symmetries:
        where = f"symmetry {OBJECT(spec, 'symmetry').get(LABEL)!r}"
        g = _fields(spec, SCHEMA["symmetry"], where, {"invariant": invariants})
        _require(g.label not in symmetries, f"duplicate symmetry label {g.label!r}")
        if g.ansatz is not None:
            symmetries[g.label] = Symmetry(scaling.scaling_generator(g.ansatz, n))
        elif g.from_invariant is not None:
            F, Yt = invariants[g.from_invariant].field, _parse_field(g.Yt, n, f"{where} Yt")
            symmetries[g.label] = Symmetry(symmetry_from_invariant(system, F, Yt),
                                           noether_lambda(system, F, Yt))
        else:
            Yq = tuple(_parse_field(s, n, f"{where} Yq[{i}]") for i, s in enumerate(g.Yq))
            Yp = tuple(_parse_field(s, n, f"{where} Yp[{i}]") for i, s in enumerate(g.Yp))
            _require(len(Yq) == n and len(Yp) == n, f"{where} needs {n} Yq/Yp components")
            symmetries[g.label] = Symmetry(VectorFieldSpec(
                Yq, Yp, _parse_field(g.YS, n, f"{where} YS"), _parse_field(g.Yt, n, f"{where} Yt")))

    checks = []
    for spec in f.checks:
        ctype = _choice(*CHECKS)(OBJECT(spec, "check").get(TYPE), "check 'type'")
        checks.append(_fields(spec, CHECKS[ctype], f"{ctype} check",
                              {"invariant": invariants, "symmetry": symmetries}))
    point_params = {k: FINITE(v, f"point_params {k!r}") for k, v in f.point_params.items()}
    return Scenario(name, system, f.initial, f.t_end, f.integrator, f.seed, f.sample_count,
                    invariants, symmetries, tuple(checks), f.auxiliary, point_params)


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
        return noether.build_symmetry(sc.system, Y, c.tol)
    X = (extended_field if c.against == "extended" else contact_field)(sc.system)
    return noether.build_similarity(Y, X, c.tol, c.Lambda_tol, sc.system)


def run_checks(sc: Scenario) -> tuple[dict, Trajectory | None]:
    """Execute every check of a loaded scenario; returns (report, trajectory)."""
    report: dict[str, Any] = {"scenario": sc.name, "version": __version__, "seed": sc.seed,
                              "sample_count": sc.sample_count, "checks": [], "passed": True}
    pointwise = [CHECKS[c.type].pointwise for c in sc.checks]
    traj: Trajectory | None = None
    if not all(pointwise):
        traj = _run_flow(sc)
        report["trajectory"] = {"samples": len(traj.times), **vars(traj.stats),
                                "error_tag": traj.error_tag}
        if traj.error_tag is not None:
            raise RuntimeError(f"integration aborted: {traj.error_tag}")

    # the checks bind `point_params` over the system's; the flow does not, so that a tracked
    # field reading a point-only name stays unbound.  Built on first use, once per run
    bound = sc.system.with_params(sc.point_params)
    points = cache(lambda: sample_points(bound, sc.sample_count, sc.seed,
                                         margin=sc.integrator.guard_margin))
    compensation = cache(lambda: dissipation_compensation(bound, traj))

    # every pointwise check's fields in one bundle, called once per sample; if building,
    # compiling or calling it raises, each check calls its own bundle at its turn instead,
    # so that the first error is the one the checks raise one by one
    fused = {}
    if any(pointwise):
        try:
            built = {i: _build(sc, c) for i, c in enumerate(sc.checks) if pointwise[i]}
            at = point_bundle([f for b in built.values() for f in b.fields], bound.params)
            rows, lo = [at(pt) for pt in points()], 0
        except Exception:
            built = {}
        for i, b in built.items():
            fused[i] = b, [v[lo:lo + len(b.fields)] for v in rows]
            lo += len(b.fields)

    for i, c in enumerate(sc.checks):
        ctype, tol = c.type, c.tol
        entry: dict[str, Any] = {"type": ctype, "target": CHECKS[ctype].target.format(*c.refs),
                                 "tol": tol}
        if pointwise[i]:
            if i in fused:
                b, rows = fused[i]
            else:  # its own bundle, as the check ran alone: a residual compiled before the draw
                if ctype != "residual":
                    points()
                b = _build(sc, c)
                rows = map(point_bundle(b.fields, bound.params), points())
            rep = b.judge(points(), rows)
        if ctype == "drift":
            inv = sc.invariants[c.refs[0]]
            series = traj.tracked[inv.label]
            if inv.expected == systems.DISSIPATED:
                series = [v * c for v, c in zip(series, compensation())]
            rep = max_relative_drift(series)
        elif ctype == "ratio":
            series = [a / b for a, b in zip(*(traj.tracked[label] for label in c.refs))
                      if abs(b) >= 1e-12]
            _require(bool(series), f"{sc.name}: ratio denominator vanishes everywhere")
            rep = max_relative_drift(series)
        if ctype in ("drift", "ratio", "residual"):  # one value, within tol or not
            entry["value"] = float(rep)
            entry["passed"] = bool(rep <= tol)
        elif ctype in ("symmetry", "closure"):
            entry["value"] = float(rep.residual)
            entry["verdict"] = rep.verdict
            entry["lambda_table"] = [float(v) for v in rep.lambda_at_samples]
            if rep.lambda_defect is not None:
                entry["lambda_defect"] = float(rep.lambda_defect)
            entry["passed"] = bool(rep.passed if ctype == "closure"
                                   else rep.passed == c.expect_symmetry)
        elif ctype == "similarity":
            entry["value"] = float(rep.residual)
            entry["verdict"] = rep.verdict
            entry["Lambda_table"] = [float(v) for v in rep.Lambda_at_samples]
            ok = rep.passed if c.expect_verdict is None else rep.verdict == c.expect_verdict
            if c.expect_Lambda is not None:
                ok = ok and all(abs(v - c.expect_Lambda) <= tol for v in rep.Lambda_at_samples)
            entry["passed"] = bool(ok)
        report["checks"].append(entry)
        report["passed"] = bool(report["passed"] and entry["passed"])
    return report, traj


def _strict(obj: Any) -> Any:
    """`obj` with each non-finite float spelled as the string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return {k: _strict(v) for k, v in obj.items()} if isinstance(obj, dict) else obj


def _text(value: Any) -> str:
    """`value` as report.txt writes it: floats by `repr`, lists comma-joined."""
    if isinstance(value, list):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value) if isinstance(value, float) else str(value)


def _write_report(report: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False) + "\n")
    items = [(k, report[k]) for k in ("scenario", "version", "seed", "sample_count")]
    items += [(f"trajectory.{k}", v) for k, v in report.get("trajectory", {}).items()]
    for i, c in enumerate(report["checks"]):
        items += [(f"check[{i}].{c['type']}.{k}", v) for k, v in c.items() if k != "type"]
    items.append(("passed", report["passed"]))
    (out_dir / "report.txt").write_text("".join(f"{k}: {_text(v)}\n" for k, v in items))


def run(scenario_path: str | Path, out_root: str | Path | None = None,
        seed: int | None = None, tol_override: float | None = None,
        quiet: bool = False, checks: bool = True) -> tuple[dict, int]:
    """Load, execute and persist one scenario; returns (report, exit_code).
    The checks find the derivatives that loading took, and the file's bytes,
    read once, key the run's symbolic work, so a scenario that recurs reuses
    it (`derivatives_kept`)."""
    path = Path(scenario_path)
    try:
        data = _read(path)
        with derivatives_kept(data):
            sc = _load(path, data)
            if seed is not None:
                sc = replace(sc, seed=SEED(seed, "--seed"))
            if tol_override is not None:
                tol = TOL(tol_override, "--tol-override")
                sc = replace(sc, checks=tuple(replace(c, tol=tol) for c in sc.checks))
            out_dir = Path(out_root or os.environ.get(DEFAULT_OUT_ENV, "out")) / sc.name
            if not checks:
                traj = _run_flow(sc)
                out_dir.mkdir(parents=True, exist_ok=True)
                traj.to_csv(out_dir / "trajectory.csv")
                if not quiet:
                    print(f"{sc.name}: wrote {out_dir / 'trajectory.csv'} "
                          f"({len(traj.times)} samples, error_tag={traj.error_tag})")
                return {"scenario": sc.name, "passed": traj.error_tag is None}, \
                    (0 if traj.error_tag is None else 3)
            report, traj = run_checks(sc)
            _write_report(report, out_dir)
            if traj is not None:
                traj.to_csv(out_dir / "trajectory.csv")
            if not quiet:
                for c in report["checks"]:
                    status = "PASS" if c["passed"] else "FAIL"
                    print(f"{sc.name}: {status} {c['type']} {c['target']} "
                          f"value={_fmt(c['value'])} tol={_fmt(c['tol'])}")
                print(f"{sc.name}: {'PASS' if report['passed'] else 'FAIL'}")
            return report, (0 if report["passed"] else 1)
    except ConfigError as e:
        if not quiet:
            print(f"config error: {e}", file=sys.stderr)
        return {"error": str(e)}, 2
    except Exception as e:  # runtime/domain errors
        if not quiet:
            print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return {"error": str(e)}, 3


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
        ("--dimension must be at least 1", args.dimension < 1)) if wrong]
    if usage:
        print(usage[0], file=sys.stderr)
        return 2
    solutions, rejected = scaling.solve_scaling_explained(
        args.k, f_kind, args.g, args.g0, args.kappa, n=args.dimension)
    if args.json:
        print(json.dumps({"solutions": [{
            "case_tag": s.case_tag, "ansatz": s.ansatz and vars(s.ansatz),
            "invariant": s.invariant.source(),
            "f_required": s.f_required and s.f_required.source(),
            "constraints": list(s.constraints_log), "informational": s.informational,
        } for s in solutions], "rejected": rejected}, sort_keys=True, indent=2))
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
