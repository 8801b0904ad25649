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

import numpy as np

from . import __version__, noether, scaling, systems
from .dynamics import IntegratorConfig, Trajectory, contact_field, extended_field, integrate
from .expr import ExprError, ScalarField, parse
from .geometry import ContactSystem, ExtendedPoint, VectorFieldSpec, nan_max
from .noether import (
    FLOW_THRESHOLD,
    SYMBOLIC_THRESHOLD,
    closure_check,
    dissipation_compensation,
    max_relative_drift,
    noether_lambda,
    residual_at,
    sample_points,
    similarity_test,
    symmetry_from_invariant,
    symmetry_test,
)
from .systems import AuxiliaryState, TrackedInvariant, co_integrate, make_builtin

DEFAULT_OUT_ENV = "CONTACT_NOETHER_OUT"


class ConfigError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _fmt(x: float) -> str:
    return repr(float(x))


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


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such scenario file") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from None
    _require(isinstance(raw, dict), f"{path}: scenario must be a JSON object")

    name = raw.get("name") or path.stem
    sysspec = raw.get("system")
    _require(isinstance(sysspec, dict), f"{path}: missing 'system' object")
    try:
        if "builtin" in sysspec:
            system = make_builtin(sysspec["builtin"], sysspec.get("params"))
        else:
            _require("expression" in sysspec and "dimension" in sysspec,
                     f"{path}: system needs 'builtin' or 'expression'+'dimension'")
            n = int(sysspec["dimension"])
            h = _parse_field(sysspec["expression"], n, f"{path}: system.expression")
            system = ContactSystem(n=n, h=h,
                                   params={k: float(v) for k, v in
                                           (sysspec.get("params") or {}).items()},
                                   label=name)
            system.meta["invariants"] = {}
    except (KeyError, ValueError, ExprError) as e:
        raise ConfigError(f"{path}: bad system spec: {e}") from e

    initial = None
    if "initial" in raw:
        ini = raw["initial"]
        try:
            initial = ExtendedPoint(ini["q"], ini["p"],
                                    float(ini.get("S", 0.0)), float(ini.get("t", 0.0)))
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"{path}: bad initial state: {e}") from e
        _require(initial.n == system.n, f"{path}: initial state dimension != system dimension")

    t_end = float(raw["t_end"]) if "t_end" in raw else None
    try:
        integ = IntegratorConfig(**{k: float(v) for k, v in
                                    (raw.get("integrator") or {}).items()})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: bad integrator config: {e}") from e

    seed = int(raw.get("seed", 0))
    sample_count = int(raw.get("sample_count", 100))

    auxiliary = None
    if "auxiliary" in raw:
        try:
            auxiliary = AuxiliaryState(**raw["auxiliary"])
        except TypeError as e:
            raise ConfigError(f"{path}: bad auxiliary spec: {e}") from e

    builtin_invs = system.meta.get("invariants", {})
    invariants: dict[str, TrackedInvariant] = {}
    for spec in raw.get("invariants", []):
        _require(isinstance(spec, dict) and "label" in spec,
                 f"{path}: each invariant needs a 'label'")
        label = spec["label"]
        _require(label not in invariants, f"{path}: duplicate invariant label {label!r}")
        if "builtin" in spec:
            _require(spec["builtin"] in builtin_invs,
                     f"{path}: unknown builtin invariant {spec['builtin']!r} "
                     f"(available: {sorted(builtin_invs)})")
            base = builtin_invs[spec["builtin"]]
            invariants[label] = TrackedInvariant(label, base.field,
                                                 spec.get("expected", base.expected))
        else:
            fld = _parse_field(spec.get("expression"), system.n,
                               f"{path}: invariant {label!r}")
            invariants[label] = TrackedInvariant(label, fld,
                                                 spec.get("expected", systems.CONSERVED))

    symmetries: dict[str, dict] = {}
    for spec in raw.get("symmetries", []):
        _require(isinstance(spec, dict) and "label" in spec,
                 f"{path}: each symmetry needs a 'label'")
        label = spec["label"]
        entry: dict[str, Any] = {}
        if "ansatz" in spec:
            a = spec["ansatz"]
            ans = scaling.ScalingAnsatz(float(a.get("alpha", 0.0)), float(a.get("beta", 0.0)),
                                        float(a.get("gamma", 0.0)), float(a.get("sigma", 0.0)))
            entry["field"] = scaling.scaling_generator(ans, system.n)
        elif "from_invariant" in spec:
            _require(spec["from_invariant"] in invariants,
                     f"{path}: symmetry {label!r} references unknown invariant")
            F = invariants[spec["from_invariant"]].field
            Yt = _parse_field(spec.get("Yt", "0"), system.n, f"{path}: symmetry {label!r} Yt")
            entry["field"] = symmetry_from_invariant(system, F, Yt)
            entry["lambda"] = noether_lambda(system, F, Yt)
        else:
            _require(all(k in spec for k in ("Yq", "Yp", "YS", "Yt")),
                     f"{path}: symmetry {label!r} needs ansatz, from_invariant, "
                     "or explicit Yq/Yp/YS/Yt components")
            Yq = tuple(_parse_field(s, system.n, f"{path}: {label}.Yq") for s in spec["Yq"])
            Yp = tuple(_parse_field(s, system.n, f"{path}: {label}.Yp") for s in spec["Yp"])
            _require(len(Yq) == system.n and len(Yp) == system.n,
                     f"{path}: symmetry {label!r} needs {system.n} Yq/Yp components")
            entry["field"] = VectorFieldSpec(
                Yq, Yp,
                _parse_field(spec["YS"], system.n, f"{path}: {label}.YS"),
                _parse_field(spec["Yt"], system.n, f"{path}: {label}.Yt"))
        symmetries[label] = entry

    checks = raw.get("checks", [])
    _require(isinstance(checks, list), f"{path}: 'checks' must be a list")
    known = {"drift", "residual", "symmetry", "similarity", "ratio", "closure"}
    for c in checks:
        _require(isinstance(c, dict) and c.get("type") in known,
                 f"{path}: each check needs a 'type' in {sorted(known)}")

    point_params = {k: float(v) for k, v in (raw.get("point_params") or {}).items()}
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
    return integrate(sc.system, extended_field(sc.system), sc.initial, sc.t_end,
                     sc.integrator, tracked)


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
        report["trajectory"] = {
            "samples": len(traj.times),
            "accepted": traj.stats.accepted,
            "rejected": traj.stats.rejected,
            "error_tag": traj.error_tag,
        }
        if traj.error_tag is not None:
            raise RuntimeError(f"integration aborted: {traj.error_tag}")

    # built on first use, once per run
    points = cache(lambda: sample_points(sc.system, sc.sample_count, sc.seed,
                                         margin=sc.integrator.guard_margin, extra=sc.point_params))
    compensation = cache(lambda: dissipation_compensation(sc.system, traj, sc.point_params))

    for c in sc.checks:
        ctype = c["type"]
        tol = float(c.get("tol", SYMBOLIC_THRESHOLD
                    if ctype in ("symmetry", "similarity", "closure")
                    else FLOW_THRESHOLD))
        entry: dict[str, Any] = {"type": ctype, "tol": tol}
        if ctype == "drift":
            _require(c.get("invariant") in sc.invariants,
                     f"{sc.name}: drift check references unknown invariant")
            inv = sc.invariants[c["invariant"]]
            entry["target"] = inv.label
            series = traj.tracked[inv.label]
            if inv.expected == systems.DISSIPATED:
                series = series * compensation()
            entry["value"] = float(max_relative_drift(series))
            entry["passed"] = bool(entry["value"] <= tol)
        elif ctype == "residual":
            _require(c.get("invariant") in sc.invariants,
                     f"{sc.name}: residual check references unknown invariant")
            inv = sc.invariants[c["invariant"]]
            entry["target"] = inv.label
            residual = residual_at(sc.system, inv.field, sc.point_params)
            worst = nan_max(abs(residual(pt)) for pt in points())
            entry["value"] = float(worst)
            entry["passed"] = bool(worst <= tol)
        elif ctype == "symmetry":
            _require(c.get("symmetry") in sc.symmetries,
                     f"{sc.name}: symmetry check references unknown symmetry")
            Y = sc.symmetries[c["symmetry"]]["field"]
            entry["target"] = c["symmetry"]
            rep = symmetry_test(sc.system, Y, points(), tol, extra=sc.point_params)
            entry["value"] = float(rep.residual)
            entry["verdict"] = rep.verdict
            entry["lambda_table"] = [float(v) for v in rep.lambda_at_samples]
            entry["passed"] = bool(rep.passed == bool(c.get("expect_symmetry", True)))
        elif ctype == "similarity":
            _require(c.get("symmetry") in sc.symmetries,
                     f"{sc.name}: similarity check references unknown symmetry")
            Y = sc.symmetries[c["symmetry"]]["field"]
            entry["target"] = c["symmetry"]
            against = c.get("against", "extended")
            X = extended_field(sc.system) if against == "extended" else contact_field(sc.system)
            env_params = dict(sc.system.params)
            env_params.update(sc.point_params)
            rep = similarity_test(Y, X, points(), tol,
                                  float(c.get("Lambda_tol", 1e-9)), env_params)
            entry["value"] = float(rep.residual)
            entry["verdict"] = rep.verdict
            entry["Lambda_table"] = [float(v) for v in rep.Lambda_at_samples]
            ok = rep.passed
            if "expect_Lambda" in c:
                lam = float(c["expect_Lambda"])
                ok = ok and all(abs(v - lam) <= tol for v in rep.Lambda_at_samples)
            if "expect_verdict" in c:
                ok = rep.verdict == c["expect_verdict"]
            entry["passed"] = bool(ok)
        elif ctype == "ratio":
            for key in ("numerator", "denominator"):
                _require(c.get(key) in sc.invariants,
                         f"{sc.name}: ratio check references unknown invariant")
            num = traj.tracked[c["numerator"]]
            den = traj.tracked[c["denominator"]]
            mask = np.abs(den) >= 1e-12
            _require(bool(mask.any()), f"{sc.name}: ratio denominator vanishes everywhere")
            series = num[mask] / den[mask]
            entry["target"] = f"{c['numerator']}/{c['denominator']}"
            entry["value"] = float(max_relative_drift(series))
            entry["passed"] = bool(entry["value"] <= tol)
        elif ctype == "closure":
            for key in ("first", "second"):
                _require(c.get(key) in sc.symmetries,
                         f"{sc.name}: closure check references unknown symmetry")
            s1 = sc.symmetries[c["first"]]
            s2 = sc.symmetries[c["second"]]
            entry["target"] = f"[{c['first']}, {c['second']}]"
            rep = closure_check(sc.system, s1["field"], s2["field"], points(), tol,
                                s1.get("lambda"), s2.get("lambda"), extra=sc.point_params)
            entry["value"] = float(rep.residual)
            entry["verdict"] = rep.verdict
            entry["lambda_table"] = [float(v) for v in rep.lambda_at_samples]
            if rep.lambda_defect is not None:
                entry["lambda_defect"] = float(rep.lambda_defect)
            entry["passed"] = bool(rep.passed)
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


def _write_report(report: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False) + "\n")
    lines = [f"scenario: {report['scenario']}",
             f"version: {report['version']}",
             f"seed: {report['seed']}",
             f"sample_count: {report['sample_count']}"]
    if "trajectory" in report:
        tr = report["trajectory"]
        lines.append(f"trajectory.samples: {tr['samples']}")
        lines.append(f"trajectory.accepted: {tr['accepted']}")
        lines.append(f"trajectory.rejected: {tr['rejected']}")
        lines.append(f"trajectory.error_tag: {tr['error_tag']}")
    for i, c in enumerate(report["checks"]):
        prefix = f"check[{i}].{c['type']}"
        lines.append(f"{prefix}.target: {c.get('target', '-')}")
        lines.append(f"{prefix}.tol: {_fmt(c['tol'])}")
        if "value" in c:
            lines.append(f"{prefix}.value: {_fmt(c['value'])}")
        if "verdict" in c:
            lines.append(f"{prefix}.verdict: {c['verdict']}")
        for key in ("lambda_table", "Lambda_table"):
            if key in c:
                lines.append(f"{prefix}.{key}: " + ",".join(_fmt(v) for v in c[key]))
        if "lambda_defect" in c:
            lines.append(f"{prefix}.lambda_defect: {_fmt(c['lambda_defect'])}")
        lines.append(f"{prefix}.passed: {c['passed']}")
    lines.append(f"passed: {report['passed']}")
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")


def run(scenario_path: str | Path, out_root: str | Path | None = None,
        seed: int | None = None, tol_override: float | None = None,
        quiet: bool = False, checks: bool = True) -> tuple[dict, int]:
    """Load, execute and persist one scenario; returns (report, exit_code)."""
    try:
        sc = load_scenario(scenario_path)
        if seed is not None:
            sc.seed = seed
        if tol_override is not None:
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
                print(f"{sc.name}: {status} {c['type']} {c.get('target', '')} "
                      f"value={_fmt(c.get('value', float('nan')))} tol={_fmt(c['tol'])}")
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
    solutions, rejected = scaling.solve_scaling_explained(
        args.m, args.k, f_kind, args.g, args.g0, args.kappa, n=args.dimension)
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


def _cmd_list_systems(args: argparse.Namespace) -> int:
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
    p.add_argument("--m", type=float, default=1.0)
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
        return _cmd_list_systems(args)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
