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
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any

from . import __version__, noether, scaling, systems
from .dynamics import IntegratorConfig, Trajectory, contact_field, extended_field, integrate
from .expr import ExprError, ScalarField, derivatives_kept, parse
from .geometry import ContactSystem, ExtendedPoint, VectorFieldSpec, point_bundle
from .noether import (
    FLOW_THRESHOLD,
    SYMBOLIC_THRESHOLD,
    dissipation_compensation,
    max_relative_drift,
    noether_lambda,
    sample_points,
    symmetry_from_invariant,
)
from .systems import AuxiliaryState, TrackedInvariant, co_integrate, make_builtin

DEFAULT_OUT_ENV = "CONTACT_NOETHER_OUT"


class ConfigError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _integer(value: Any, least: int, where: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= least,
             f"{where} must be an integer >= {least}, got {value!r}")
    return value


def _finite(value: Any, where: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max,
             f"{where} must be a finite number, got {value!r}")
    return float(value)


def _flag(value: Any, where: str) -> bool:
    _require(isinstance(value, bool), f"{where} must be true or false, got {value!r}")
    return value


def _object(value: Any, where: str) -> dict:
    """`value` as a JSON object, null meaning an empty one."""
    _require(value is None or isinstance(value, dict),
             f"{where} must be a JSON object, got {value!r}")
    return value or {}


def _list(value: Any, where: str) -> list:
    _require(isinstance(value, list), f"{where} must be a list, got {value!r}")
    return value


def _fmt(x: float) -> str:
    return repr(float(x))


# per check type: what it refers to, the keys that name it, and its report target
CHECK_REFERENCES: dict[str, tuple[str, tuple[str, ...], str]] = {
    "drift": ("invariant", ("invariant",), "{}"),
    "residual": ("invariant", ("invariant",), "{}"),
    "ratio": ("invariant", ("numerator", "denominator"), "{}/{}"),
    "symmetry": ("symmetry", ("symmetry",), "{}"),
    "similarity": ("symmetry", ("symmetry",), "{}"),
    "closure": ("symmetry", ("first", "second"), "[{}, {}]"),
}
POINTWISE = ("residual", "symmetry", "similarity", "closure")  # checks judged at samples
VERDICTS = (noether.SIMILARITY, noether.DYNAMICAL_SYMMETRY, noether.NEITHER)  # similarity verdicts


@dataclass
class Scenario:
    name: str
    system: ContactSystem
    initial: ExtendedPoint | None
    t_end: float | None
    integrator: IntegratorConfig
    seed: int
    sample_count: int
    invariants: dict[str, TrackedInvariant]
    symmetries: dict[str, dict]
    checks: list[dict]
    auxiliary: AuxiliaryState | None
    point_params: dict[str, float]


def _parse_field(source: Any, n: int, where: str) -> ScalarField:
    _require(isinstance(source, str), f"{where}: expected an expression string")
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
        raw = json.loads(data.decode())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from None
    _require(isinstance(raw, dict), f"{path}: scenario must be a JSON object")

    name = raw.get("name") or path.stem
    _require(isinstance(name, str), f"{path}: 'name' must be a string, got {name!r}")
    _require(name not in (".", "..") and Path(name).name == name,  # out_root / name stays inside
             f"{path}: 'name' must be one plain path component, got {name!r}")
    sysspec = raw.get("system")
    _require(isinstance(sysspec, dict), f"{path}: missing 'system' object")
    params = _object(sysspec.get("params"), f"{path}: system 'params'")
    params = {k: v if k == "f" and "builtin" in sysspec and isinstance(v, str)  # f(t), a source
              else _finite(v, f"{path}: system params {k!r}") for k, v in params.items()}
    try:
        if "builtin" in sysspec:
            system = make_builtin(sysspec["builtin"], params)
        else:
            _require("expression" in sysspec and "dimension" in sysspec,
                     f"{path}: system needs 'builtin' or 'expression'+'dimension'")
            n = _integer(sysspec["dimension"], 1, f"{path}: system 'dimension'")
            h = _parse_field(sysspec["expression"], n, f"{path}: system.expression")
            system = ContactSystem(n=n, h=h, params=params, label=name)
    except (KeyError, ValueError, ExprError) as e:
        raise ConfigError(f"{path}: bad system spec: {e}") from e

    initial = None
    if "initial" in raw:
        ini = raw["initial"]
        try:
            q, p = ([_finite(v, f"{path}: initial {k}[{i}]")
                     for i, v in enumerate(_list(ini[k], f"{path}: initial {k!r}"))]
                    for k in ("q", "p"))
            initial = ExtendedPoint(q, p, *(_finite(ini.get(k, 0.0), f"{path}: initial {k!r}")
                                            for k in ("S", "t")))
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"{path}: bad initial state: {e}") from e
        _require(initial.n == system.n, f"{path}: initial state dimension != system dimension")

    t_end = _finite(raw["t_end"], f"{path}: 't_end'") if "t_end" in raw else None
    if initial is not None and t_end is not None:
        _require(t_end > initial.t, f"{path}: 't_end' must exceed the initial 't' {initial.t!r}, "
                                    f"got {t_end!r}")
    settings = _object(raw.get("integrator"), f"{path}: 'integrator'")
    try:
        integ = IntegratorConfig(**{k: _finite(v, f"{path}: integrator {k!r}")
                                    for k, v in settings.items()})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: bad integrator config: {e}") from e

    seed = _integer(raw.get("seed", 0), 0, f"{path}: 'seed'")
    sample_count = _integer(raw.get("sample_count", 100), 1, f"{path}: 'sample_count'")

    auxiliary = None
    if "auxiliary" in raw:
        spec = raw["auxiliary"]
        _require(isinstance(spec, dict), f"{path}: 'auxiliary' must be a JSON object, got {spec!r}")
        try:
            auxiliary = AuxiliaryState(**{
                k: (_flag if k.startswith("use_") else _finite)(v, f"{path}: auxiliary {k!r}")
                for k, v in spec.items()})
        except TypeError as e:
            raise ConfigError(f"{path}: bad auxiliary spec: {e}") from e
        _require(systems.rates_aux_odes(system), f"{path}: 'auxiliary' needs a system with "
                 f"auxiliary equations, got {system.label!r}")

    invariants: dict[str, TrackedInvariant] = {}
    for spec in _list(raw.get("invariants", []), f"{path}: 'invariants'"):
        _require(isinstance(spec, dict) and isinstance(spec.get("label"), str),
                 f"{path}: each invariant needs a 'label'")
        label = spec["label"]
        _require(label not in invariants, f"{path}: duplicate invariant label {label!r}")
        _require(not set(label) & set(',"\r\n'), f"{path}: invariant label {label!r} names "
                 "a CSV column and may hold no comma, double quote, CR or LF")
        if "builtin" in spec:
            _require(isinstance(spec["builtin"], str) and spec["builtin"] in system.invariants,
                     f"{path}: unknown builtin invariant {spec['builtin']!r} "
                     f"(available: {sorted(system.invariants)})")
            base = system.invariants[spec["builtin"]]
            fld, expected = base.field, base.expected
        else:
            fld = _parse_field(spec.get("expression"), system.n, f"{path}: invariant {label!r}")
            expected = systems.CONSERVED
        expected = spec.get("expected", expected)
        _require(expected in (systems.CONSERVED, systems.DISSIPATED),
                 f"{path}: invariant {label!r} 'expected' must be {systems.CONSERVED!r} "
                 f"or {systems.DISSIPATED!r}, got {expected!r}")
        invariants[label] = TrackedInvariant(label, fld, expected)

    symmetries: dict[str, dict] = {}
    for spec in _list(raw.get("symmetries", []), f"{path}: 'symmetries'"):
        _require(isinstance(spec, dict) and isinstance(spec.get("label"), str),
                 f"{path}: each symmetry needs a 'label'")
        label = spec["label"]
        _require(label not in symmetries, f"{path}: duplicate symmetry label {label!r}")
        entry: dict[str, Any] = {}
        if "ansatz" in spec:
            a = _object(spec["ansatz"], f"{path}: {label}.ansatz")
            ans = scaling.ScalingAnsatz(*(_finite(a.get(k, 0.0), f"{path}: {label}.ansatz.{k}")
                                          for k in ("alpha", "beta", "gamma", "sigma")))
            entry["field"] = scaling.scaling_generator(ans, system.n)
        elif "from_invariant" in spec:
            source = spec["from_invariant"]
            _require(isinstance(source, str) and source in invariants,
                     f"{path}: symmetry {label!r} references unknown invariant {source!r}")
            F = invariants[source].field
            Yt = _parse_field(spec.get("Yt", "0"), system.n, f"{path}: symmetry {label!r} Yt")
            entry["field"] = symmetry_from_invariant(system, F, Yt)
            entry["lambda"] = noether_lambda(system, F, Yt)
        else:
            _require(all(k in spec for k in ("Yq", "Yp", "YS", "Yt")),
                     f"{path}: symmetry {label!r} needs ansatz, from_invariant, "
                     "or explicit Yq/Yp/YS/Yt components")
            Yq, Yp = (tuple(_parse_field(s, system.n, f"{path}: {label}.{k}")
                            for s in _list(spec[k], f"{path}: {label}.{k}")) for k in ("Yq", "Yp"))
            _require(len(Yq) == system.n and len(Yp) == system.n,
                     f"{path}: symmetry {label!r} needs {system.n} Yq/Yp components")
            entry["field"] = VectorFieldSpec(
                Yq, Yp,
                _parse_field(spec["YS"], system.n, f"{path}: {label}.YS"),
                _parse_field(spec["Yt"], system.n, f"{path}: {label}.Yt"))
        symmetries[label] = entry

    checks = _list(raw.get("checks", []), f"{path}: 'checks'")
    for c in checks:
        _require(isinstance(c, dict) and c.get("type") in CHECK_REFERENCES,
                 f"{path}: each check needs a 'type' in {sorted(CHECK_REFERENCES)}")
        kind, keys, _ = CHECK_REFERENCES[c["type"]]
        labels = invariants if kind == "invariant" else symmetries
        for key in keys:
            _require(isinstance(c.get(key), str) and c[key] in labels,
                     f"{path}: {c['type']} check '{key}' references unknown {kind} {c.get(key)!r}")
        against = c.get("against", "extended")
        _require(against in ("extended", "contact"),
                 f"{path}: check 'against' must be 'extended' or 'contact', got {against!r}")
        _flag(c.get("expect_symmetry", True), f"{path}: check 'expect_symmetry'")
        verdict = c.get("expect_verdict", noether.NEITHER)
        _require(verdict in VERDICTS,
                 f"{path}: check 'expect_verdict' must be one of {VERDICTS}, got {verdict!r}")
        for key in ("tol", "Lambda_tol", "expect_Lambda"):  # tol and Lambda_tol: also >= 0
            if key in c:
                value = _finite(c[key], f"{path}: check '{key}'")
                _require(value >= 0 or key == "expect_Lambda", f"{path}: check '{key}' must be >= 0")

    point_params = _object(raw.get("point_params"), f"{path}: 'point_params'")
    point_params = {k: _finite(v, f"{path}: point_params {k!r}") for k, v in point_params.items()}
    return Scenario(name, system, initial, t_end, integ, seed, sample_count,
                    invariants, symmetries, checks, auxiliary, point_params)


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


def _build(sc: Scenario, c: dict, tol: float) -> noether.Pointwise:
    """The residual, symmetry, similarity or closure check `c`, built."""
    if c["type"] == "residual":
        return noether.build_residual(sc.system, sc.invariants[c["invariant"]].field)
    if c["type"] == "closure":
        s1, s2 = sc.symmetries[c["first"]], sc.symmetries[c["second"]]
        return noether.build_closure(sc.system, s1["field"], s2["field"], tol,
                                     s1.get("lambda"), s2.get("lambda"))
    Y = sc.symmetries[c["symmetry"]]["field"]
    if c["type"] == "symmetry":
        return noether.build_symmetry(sc.system, Y, tol)
    X = extended_field(sc.system) if c.get("against", "extended") == "extended" \
        else contact_field(sc.system)
    return noether.build_similarity(Y, X, tol, c.get("Lambda_tol", SYMBOLIC_THRESHOLD), sc.system)


def run_checks(sc: Scenario) -> tuple[dict, Trajectory | None]:
    """Execute every check of a loaded scenario; returns (report, trajectory)."""
    report: dict[str, Any] = {
        "scenario": sc.name,
        "version": __version__,
        "seed": sc.seed,
        "sample_count": sc.sample_count,
        "checks": [],
        "passed": True,
    }
    needs_flow = any(c["type"] in ("drift", "ratio") for c in sc.checks)
    traj: Trajectory | None = None
    if needs_flow:
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
    tols = [float(c.get("tol", SYMBOLIC_THRESHOLD if CHECK_REFERENCES[c["type"]][0] == "symmetry"
                        else FLOW_THRESHOLD)) for c in sc.checks]

    # every pointwise check's fields in one bundle, called once per sample; if building,
    # compiling or calling it raises, each check calls its own bundle at its turn instead,
    # so that the first error is the one the checks raise one by one
    fused = {}
    if any(c["type"] in POINTWISE for c in sc.checks):
        try:
            built = {i: _build(sc, c, tols[i]) for i, c in enumerate(sc.checks)
                     if c["type"] in POINTWISE}
            at = point_bundle([f for b in built.values() for f in b.fields], bound.params)
            rows, lo = [at(pt) for pt in points()], 0
        except Exception:
            built = {}
        for i, b in built.items():
            fused[i] = b, [v[lo:lo + len(b.fields)] for v in rows]
            lo += len(b.fields)

    for i, (c, tol) in enumerate(zip(sc.checks, tols)):
        ctype = c["type"]
        _, keys, target = CHECK_REFERENCES[ctype]
        entry: dict[str, Any] = {"type": ctype, "target": target.format(*(c[k] for k in keys)),
                                 "tol": tol}
        if ctype in POINTWISE:
            if i in fused:
                b, rows = fused[i]
            else:  # its own bundle, as the check ran alone: a residual compiled before the draw
                if ctype != "residual":
                    points()
                b = _build(sc, c, tol)
                rows = map(point_bundle(b.fields, bound.params), points())
            rep = b.judge(points(), rows)
        if ctype == "drift":
            inv = sc.invariants[c["invariant"]]
            series = traj.tracked[inv.label]
            if inv.expected == systems.DISSIPATED:
                series = [v * c for v, c in zip(series, compensation())]
            entry["value"] = float(max_relative_drift(series))
            entry["passed"] = bool(entry["value"] <= tol)
        elif ctype == "residual":
            entry["value"] = float(rep)
            entry["passed"] = bool(rep <= tol)
        elif ctype in ("symmetry", "closure"):
            entry["value"] = float(rep.residual)
            entry["verdict"] = rep.verdict
            entry["lambda_table"] = [float(v) for v in rep.lambda_at_samples]
            if rep.lambda_defect is not None:
                entry["lambda_defect"] = float(rep.lambda_defect)
            entry["passed"] = bool(rep.passed if ctype == "closure"
                                   else rep.passed == c.get("expect_symmetry", True))
        elif ctype == "similarity":
            entry["value"] = float(rep.residual)
            entry["verdict"] = rep.verdict
            entry["Lambda_table"] = [float(v) for v in rep.Lambda_at_samples]
            ok = rep.verdict == c["expect_verdict"] if "expect_verdict" in c else rep.passed
            if "expect_Lambda" in c:
                lam = float(c["expect_Lambda"])
                ok = ok and all(abs(v - lam) <= tol for v in rep.Lambda_at_samples)
            entry["passed"] = bool(ok)
        elif ctype == "ratio":
            series = [a / b for a, b in zip(traj.tracked[c["numerator"]],
                                            traj.tracked[c["denominator"]]) if abs(b) >= 1e-12]
            _require(bool(series), f"{sc.name}: ratio denominator vanishes everywhere")
            entry["value"] = float(max_relative_drift(series))
            entry["passed"] = bool(entry["value"] <= tol)
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
                sc.seed = _integer(seed, 0, "--seed")
            if tol_override is not None:
                _require(_finite(tol_override, "--tol-override") >= 0,
                         "--tol-override must be >= 0")
                for c in sc.checks:
                    c["tol"] = tol_override
            out_root = Path(out_root or os.environ.get(DEFAULT_OUT_ENV, "out"))
            out_dir = out_root / sc.name
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
    code = 0
    for path in args.scenario:
        _, c = run(path, args.out, args.seed, args.tol_override, args.quiet, checks)
        code = max(code, c)
    return code


def _cmd_solve_scaling(args: argparse.Namespace) -> int:
    f_kind = {"const": "constant", "constant": "constant",
              "power-law": "power-law", "free": "free"}.get(args.f)
    if f_kind is None:
        print(f"unknown --f value {args.f!r}", file=sys.stderr)
        return 2
    if args.g == "homogeneous" and args.kappa is None:
        print("--g=homogeneous requires --kappa", file=sys.stderr)
        return 2
    for flag, value in (("k", args.k), ("g0", args.g0), ("kappa", args.kappa)):
        if value is not None and not math.isfinite(value):
            print(f"--{flag} must be a finite number", file=sys.stderr)
            return 2
    if args.dimension < 1:
        print("--dimension must be at least 1", file=sys.stderr)
        return 2
    solutions, rejected = scaling.solve_scaling_explained(
        args.k, f_kind, args.g, args.g0, args.kappa, n=args.dimension)
    if args.json:
        payload = {
            "solutions": [
                {
                    "case_tag": s.case_tag,
                    "ansatz": None if s.ansatz is None else {
                        "alpha": s.ansatz.alpha, "beta": s.ansatz.beta,
                        "gamma": s.ansatz.gamma, "sigma": s.ansatz.sigma},
                    "invariant": s.invariant.source(),
                    "f_required": None if s.f_required is None else s.f_required.source(),
                    "constraints": list(s.constraints_log),
                    "informational": s.informational,
                }
                for s in solutions
            ],
            "rejected": rejected,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for s in solutions:
            note = " [informational]" if s.informational else ""
            print(f"{s.case_tag}{note}")
            if s.ansatz is not None:
                a = s.ansatz
                print(f"  ansatz: alpha={_fmt(a.alpha)} beta={_fmt(a.beta)} "
                      f"gamma={_fmt(a.gamma)} sigma={_fmt(a.sigma)}")
            print(f"  invariant: {s.invariant.source()}")
            if s.f_required is not None:
                print(f"  f required: {s.f_required.source()}")
            for line in s.constraints_log:
                print(f"  constraint: {line}")
        for r in rejected:
            print(f"inadmissible: {r}")
    return 0


def _cmd_list_systems() -> int:
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

    p = sub.add_parser("simulate", help="integrate scenarios and write trajectories only")
    p.add_argument("scenario", nargs="+")
    p = sub.add_parser("check", help="run scenario verification suites")
    p.add_argument("scenario", nargs="+")

    p = sub.add_parser("solve-scaling", help="print the scaling-symmetry case table")
    p.add_argument("--k", type=float, required=True, help="homogeneity degree of V(q)")
    p.add_argument("--f", default="const", help="f(t) kind: const | power-law | free")
    p.add_argument("--g", default="zero", choices=["zero", "homogeneous"])
    p.add_argument("--g0", type=float, default=0.0)
    p.add_argument("--kappa", type=float, default=None, help="homogeneity degree of g(S)")
    p.add_argument("--dimension", type=int, default=1)
    p.add_argument("--json", action="store_true")

    sub.add_parser("list-systems", help="list builtin systems with parameter docs")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_scenarios(args, checks=False)
    if args.command == "check":
        return _cmd_scenarios(args, checks=True)
    if args.command == "solve-scaling":
        return _cmd_solve_scaling(args)
    if args.command == "list-systems":
        return _cmd_list_systems()
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
