"""Metamorphic relations from the paper's algebra, over generated copies of the
four `scenarios/`: each copy keeps its system, seed and sample count, drops the
flow, and adds one `from_invariant` symmetry per invariant it tracks, next to a
plain scaling field.

Gauge freedom (the inverse theorem): X_F + Yt X_h^t is a symmetry for every gauge
Yt, so replacing Yt by any gauge keeps every symmetry and closure check passing,
and moves each reported lambda by -(Yt' - Yt) dh/dS, the rule of `noether_lambda`.

Linearity: L_Y eta_E and [Y, X] are linear in Y, so scaling a symmetry by c scales
its lambda by c, and a similarity's Lambda too, and the sum of two symmetries is
a symmetry with the sum of their lambdas.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from contact_noether import cli
from contact_noether.expr import DomainError, compile_bundle, number, parse, partial, variable
from contact_noether.geometry import ContactSystem, coordinate_names, point_bundle
from contact_noether.noether import sample_points, symmetry_from_invariant
from contact_noether.scaling import ScalingAnsatz, scaling_generator
from contact_noether.systems import make_builtin
from randfields import random_field

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# per copy: a plain scaling field of its system (kepler-scaling's own), the point
# values of the rated parameters its invariants read, and the gauge its
# from_invariant symmetries start from
COPIES = {
    "dissipative-oscillator": ({"alpha": 1.0, "beta": 1.0, "gamma": 2.0, "sigma": 0.0},
                               {"a": 1.2, "a_dot": -0.3, "a0": 0.9, "b": 0.8, "b_dot": 0.4}, "0"),
    "free-particle": ({"alpha": 1.0, "beta": 0.0, "gamma": 1.0, "sigma": 1.0}, {}, "0"),
    "kepler-scaling": ({"alpha": 2.0, "beta": -1.0, "gamma": 1.0, "sigma": 3.0}, {}, "3*t"),
    "td-kepler": ({"alpha": 1.0, "beta": 0.0, "gamma": 1.0, "sigma": 1.0}, {}, "0"),
}


def _copy(name, gauges):
    """The copy of scenario `name` whose k-th invariant's symmetry `g<k>` takes gauge
    `gauges[k]` and `h<k>` the next one; it checks each symmetry, and closes `g<k>`
    with the plain field both ways, with `h<k>` (the same X_F) and with `g<k+1>`."""
    spec = json.loads((SCENARIOS / f"{name}.json").read_text())
    ansatz, point_params, _ = COPIES[name]
    labels = [inv["label"] for inv in spec["invariants"]]
    symmetries = [{"label": "plain", "ansatz": ansatz}]
    checks = [{"type": "symmetry", "symmetry": "plain"}]
    for k, label in enumerate(labels):
        symmetries += [{"label": f"g{k}", "from_invariant": label, "Yt": gauges[k % len(gauges)]},
                       {"label": f"h{k}", "from_invariant": label,
                        "Yt": gauges[(k + 1) % len(gauges)]}]
        checks += [{"type": "symmetry", "symmetry": f"g{k}"},
                   {"type": "symmetry", "symmetry": f"h{k}"},
                   {"type": "closure", "first": "plain", "second": f"g{k}"},
                   {"type": "closure", "first": f"g{k}", "second": "plain"},
                   {"type": "closure", "first": f"g{k}", "second": f"h{k}"}]
        if len(labels) > 1:
            checks.append({"type": "closure", "first": f"g{k}",
                           "second": f"g{(k + 1) % len(labels)}"})
    return {"name": name, "system": spec["system"], "seed": spec["seed"],
            "sample_count": spec["sample_count"], "invariants": spec["invariants"],
            "point_params": point_params, "symmetries": symmetries, "checks": checks}


def _gauges(system, samples, seed, count=3):
    """`count` seeded random gauges that read q, p, S and t, and no parameter, each
    with its partials finite and at most 100 in size at every sample."""
    rng, names, out = np.random.default_rng(seed), coordinate_names(system.n), []
    while len(out) < count:
        g = random_field(rng, system.n, 4)
        read = {nm[0] for nm in g.free_vars}
        if g.free_params or read != {"q", "p", "S", "t"}:
            continue
        at = compile_bundle([g, *(partial(g, nm) for nm in names)], names)
        try:
            rows = [at(*pt.q, *pt.p, pt.S, pt.t) for pt in samples]
        except DomainError:
            continue
        if all(abs(v) <= 100.0 for row in rows for v in row):
            out.append(g)
    return out


@pytest.mark.parametrize("name", sorted(COPIES))
def test_gauges_keep_every_check_and_move_lambda_by_the_noether_rule(tmp_path, name):
    # lambda = -Yt dh/dS - dF/dS is read from the dS slot of L_Y eta_E, so two gauges'
    # tables differ by -(Yt' - Yt) dh/dS up to the rounding of that slot's sums.  Their
    # terms are at most lambda, Yt dh/dS and, in d_S(iota_Y eta_E) = d_S(-F + Yt eta_E(X_h^t)),
    # dYt/dS (p.dh/dp - h) twice over: eta_E(X_h^t) is zero, but the Cartan form sums its
    # terms.  The worst sample reads 1.0 of the 4 * 2^-52 of that scale, measured
    start = COPIES[name][2]
    path = tmp_path / "start.json"
    path.write_text(json.dumps(_copy(name, [start])))
    sc = cli.load_scenario(path)
    system, n = sc.bound, sc.system.n
    samples = sample_points(system, sc.sample_count, sc.seed)
    base, code = cli.run(path, tmp_path / "start", quiet=True)
    assert code == 0, [c for c in base["checks"] if not c["passed"]]
    gauges = _gauges(system, samples, seed=sorted(COPIES).index(name))
    spec = _copy(name, [g.source() for g in gauges])
    path.write_text(json.dumps(spec))
    report, code = cli.run(path, tmp_path / "gauged", quiet=True)
    assert code == 0, [c for c in report["checks"] if not c["passed"]]
    closures = {(c["first"], c["second"]) for c in spec["checks"] if c["type"] == "closure"}
    assert {("plain", "g0"), ("g0", "plain"), ("g0", "h0")} <= closures
    p_h_p = sum((variable(f"p{i}", n) * system.h_p[i] for i in range(n)), number(0.0, n))
    moved = compared = 0
    for entry, before in zip(report["checks"], base["checks"]):
        if entry["type"] != "symmetry" or entry["target"] == "plain":
            continue
        k = int(entry["target"][1:]) + (entry["target"][0] == "h")
        gauge, gauge0 = gauges[k % len(gauges)], parse(start, n)
        at = point_bundle([gauge, gauge0, partial(gauge, "S"), partial(gauge0, "S"), system.h_S,
                           p_h_p, system.h], system.params)
        for pt, lam, lam0 in zip(samples, entry["lambda_table"], before["lambda_table"]):
            a, a0, a_S, a0_S, h_S, ph, h = at(pt)
            scale = max(1.0, abs(lam), abs(lam0), abs(a * h_S), abs(a0 * h_S),
                        2.0 * max(abs(a_S), abs(a0_S)) * (abs(ph) + abs(h)))
            assert abs((lam - lam0) + (a - a0) * h_S) <= 4 * 2**-52 * scale, (entry["target"], pt)
            moved += lam != lam0
            compared += 1
    assert compared == 2 * len(spec["invariants"]) * sc.sample_count
    if name == "dissipative-oscillator":  # the only copy whose h reads S
        assert moved == compared


@pytest.mark.parametrize("name", sorted(COPIES))
def test_scaled_and_summed_symmetries_scale_and_sum_their_factors(tmp_path, name):
    # the copy's scaling field Y1 times c in {2, -0.5}, and Y1 + Y2 with Y2 its first
    # invariant's symmetry at a seeded random gauge, written out as components.
    # Scaling by a power of two is exact in floats, and every term of L_Y eta_E and
    # [Y, X] holds one factor of Y, so lambda and Lambda scale exactly.  The sum's
    # lambda, read from its whole field, differs from lambda1 + lambda2 only by the
    # rounding of the dS slot's sums, whose terms are those of the gauge relation:
    # within 4 * 2^-52 of that scale (1.08 of the 4 at worst, measured)
    spec = json.loads((SCENARIOS / f"{name}.json").read_text())
    ansatz, point_params, _ = COPIES[name]
    base = {"name": name, "system": spec["system"], "seed": spec["seed"],
            "sample_count": spec["sample_count"], "invariants": spec["invariants"],
            "point_params": point_params}
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(base))
    sc = cli.load_scenario(path)
    system, n = sc.bound, sc.system.n
    samples = sample_points(system, sc.sample_count, sc.seed)
    gauge = _gauges(system, samples, seed=sorted(COPIES).index(name), count=1)[0]
    symmetries = [{"label": "Y1", "ansatz": ansatz},
                  {"label": "Y2", "from_invariant": spec["invariants"][0]["label"],
                   "Yt": gauge.source()}]
    # Y2 over the system with its numbers written in: a loaded file reads them as parameters
    given = spec["system"]
    literal = (make_builtin(given["builtin"], given["params"]) if "builtin" in given
               else ContactSystem(n, parse(given["expression"], n), given.get("params", {})))
    Y2 = symmetry_from_invariant(literal, sc.invariants[symmetries[1]["from_invariant"]].field, gauge)
    total = [c.source() for c in (scaling_generator(ScalingAnsatz(**ansatz), n) + Y2).components()]
    symmetries += [{"label": f"{c}Y1", "ansatz": vars(ScalingAnsatz(**ansatz).scaled(c))}
                   for c in (2.0, -0.5)]
    symmetries.append({"label": "Y1+Y2", "Yq": total[:n], "Yp": total[n:2 * n], "YS": total[-2],
                       "Yt": total[-1]})
    checks = [{"type": "symmetry", "symmetry": s["label"]} for s in symmetries]
    checks += [{"type": "similarity", "symmetry": label} for label in ("Y1", "2.0Y1", "-0.5Y1")]
    path.write_text(json.dumps({**base, "symmetries": symmetries, "checks": checks}))
    report, code = cli.run(path, tmp_path / "out", quiet=True)
    assert code == 0, [c for c in report["checks"] if not c["passed"]]
    lam = {c["target"]: c["lambda_table"] for c in report["checks"] if c["type"] == "symmetry"}
    Lam = {c["target"]: c["Lambda_table"] for c in report["checks"] if c["type"] == "similarity"}
    for c in (2.0, -0.5):
        assert lam[f"{c}Y1"] == [c * v for v in lam["Y1"]]
        assert Lam[f"{c}Y1"] == [c * v for v in Lam["Y1"]]
    p_h_p = sum((variable(f"p{i}", n) * system.h_p[i] for i in range(n)), number(0.0, n))
    at = point_bundle([gauge, partial(gauge, "S"), system.h_S, p_h_p, system.h], system.params)
    for pt, both, one, two in zip(samples, lam["Y1+Y2"], lam["Y1"], lam["Y2"]):
        a, a_S, h_S, ph, h = at(pt)
        scale = max(1.0, abs(both), abs(one), abs(two), abs(a * h_S),
                    2.0 * abs(a_S) * (abs(ph) + abs(h)))
        assert abs(both - (one + two)) <= 4 * 2**-52 * scale, pt
