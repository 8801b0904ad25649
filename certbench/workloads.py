"""Seeded scenario generators for the certification benchmark.

Every generated scenario carries the verdict each of its checks must reach.
Those expectations come from the theory, never from running the program:

* A scaling field ``alpha q d_q + beta p d_p + gamma S d_S + sigma t d_t`` is a
  generalized Noether symmetry exactly when ``eta_E = dS - p dq + h dt`` is
  homogeneous under it: ``dS`` has degree ``gamma``, ``p dq`` has degree
  ``alpha + beta`` and ``h dt`` has degree ``deg(h) + sigma``.  For Kepler
  ``(2, -1, 1, 3)`` makes all three degree 1; for the time-dependent Kepler
  system ``((L+1)/2, (L-1)/2, L, 1)`` makes them degree ``L``; for the
  dissipative oscillator ``(1, 1, 2, 0)`` makes them degree 2 for any ``f(t)``.
  Moving one exponent off these values (``sigma`` for Kepler, ``gamma`` for
  the others) breaks homogeneity, so those fields are negative controls.
* A field built from a dissipated quantity with ``symmetry_from_invariant`` is
  a symmetry for every gauge ``Yt``, because ``iota_{X_E} eta_E = 0``.
  Changing ``Yt`` therefore never yields a negative control.
* The bracket of two symmetries is a symmetry, so closure checks bracket two
  distinct symmetries and must pass.
* A conformal scaling of ``eta_E`` maps the flow line field to itself, so
  ``[Y, X_E] = Lambda X_E`` with ``Lambda = -sigma`` (the ``t`` component of
  the bracket).  Without time scaling and with linear equations of motion the
  oscillator's field commutes with the flow: a dynamical symmetry.  When the
  scaling of ``h`` is not homogeneous, no ``Lambda`` fits: ``Neither``.
* Flow tolerances scale with the square of the horizon, from the bundled
  scenario tolerance at the bundled horizon (error of a tolerance-controlled
  one-step method grows at most quadratically in time on these orbits).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BUNDLED_DIR = Path(__file__).resolve().parent / "bundled"
BUNDLED_NAMES = ("kepler-scaling", "td-kepler", "dissipative-oscillator", "free-particle")

GN, NOT_SYM = "GeneralizedNoether", "NotSymmetry"
SIMILARITY, DYNAMICAL, NEITHER = "Similarity", "DynamicalSymmetry", "Neither"

# The frozen kepler-scaling closure brackets noether-of-QK with itself, which is
# vacuous ([Y, Y] = 0); the symbolic-sweep closures bracket two distinct fields.
_BUNDLED_VERDICTS = {
    "kepler-scaling": [None, None, None, GN, GN, SIMILARITY, GN],
}


@dataclass
class Case:
    """One scenario file plus the outcome every check must have."""

    name: str
    spec: dict
    verdicts: list = field(default_factory=list)  # per check; None where no verdict

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(self.spec, indent=1))
        return path


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _gauge(rng: random.Random) -> str:
    """A seeded gauge Yt = a t + b t^2 with a, b bounded away from zero."""
    a, b = rng.uniform(1.0, 4.0), _signed(rng, 0.005, 0.05)
    return f"{a!r}*t {'+' if b > 0 else '-'} {abs(b)!r}*t^2"


def _ansatz(alpha: float, beta: float, gamma: float, sigma: float) -> dict:
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "sigma": sigma}


def _rotated_orbit(rng: random.Random, speed: float) -> dict:
    """Initial state q = R e_x, p = speed R e_y for a seeded rotation R: the
    same orbit shape in a seeded orientation."""
    kx, ky, kz = (rng.gauss(0.0, 1.0) for _ in range(3))
    norm = math.sqrt(kx * kx + ky * ky + kz * kz)
    kx, ky, kz = kx / norm, ky / norm, kz / norm
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    rot = [[c + kx * kx * (1 - c), kx * ky * (1 - c) - kz * s, kx * kz * (1 - c) + ky * s],
           [ky * kx * (1 - c) + kz * s, c + ky * ky * (1 - c), ky * kz * (1 - c) - kx * s],
           [kz * kx * (1 - c) - ky * s, kz * ky * (1 - c) + kx * s, c + kz * kz * (1 - c)]]
    return {"q": [row[0] for row in rot], "p": [speed * row[1] for row in rot]}


def _flow_tol(bundled_tol: float, bundled_horizon: float, horizon: float) -> float:
    return bundled_tol * (horizon / bundled_horizon) ** 2


# ---------------------------------------------------------------------------
# bundled: the four frozen scenarios, sample seed drawn from the workload seed


def bundled(seed: int) -> list[Case]:
    rng = _rng("bundled", seed, 0)
    cases = []
    for name in BUNDLED_NAMES:
        spec = json.loads((BUNDLED_DIR / f"{name}.json").read_text())
        spec["seed"] = rng.randrange(1, 2**31)
        verdicts = _BUNDLED_VERDICTS.get(name, [None] * len(spec["checks"]))
        cases.append(Case(name, spec, list(verdicts)))
    return cases


# ---------------------------------------------------------------------------
# symbolic-sweep: pointwise certification only, every scenario distinct

SWEEP_SAMPLES = 10


def _sweep_kepler(rng: random.Random, name: str) -> Case:
    m, eps = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.5)
    spec = {
        "name": name,
        "system": {"builtin": "kepler", "params": {"m": m, "eps": eps}},
        "integrator": {"guard_margin": 1e-3},
        "seed": rng.randrange(1, 2**31),
        "sample_count": SWEEP_SAMPLES,
        "invariants": [{"label": "Q_K", "builtin": "Q_K"}],
        "symmetries": [
            {"label": "scaling", "ansatz": _ansatz(2.0, -1.0, 1.0, 3.0)},
            {"label": "contact-scaling", "ansatz": _ansatz(2.0, -1.0, 1.0, 0.0)},
            {"label": "wrong-sigma",
             "ansatz": _ansatz(2.0, -1.0, 1.0, 3.0 + _signed(rng, 0.05, 0.3))},
            {"label": "noether-of-QK", "from_invariant": "Q_K", "Yt": _gauge(rng)},
        ],
        "checks": [
            {"type": "residual", "invariant": "Q_K", "tol": 1e-10},
            {"type": "symmetry", "symmetry": "scaling", "tol": 1e-9},
            {"type": "symmetry", "symmetry": "noether-of-QK", "tol": 1e-9},
            {"type": "symmetry", "symmetry": "wrong-sigma", "tol": 1e-9,
             "expect_symmetry": False},
            {"type": "similarity", "symmetry": "contact-scaling", "against": "contact",
             "tol": 1e-9, "expect_Lambda": -3.0},
            {"type": "similarity", "symmetry": "scaling", "against": "extended",
             "tol": 1e-9, "expect_Lambda": -3.0},
            {"type": "similarity", "symmetry": "wrong-sigma", "against": "extended",
             "tol": 1e-9, "expect_verdict": NEITHER},
            {"type": "closure", "first": "scaling", "second": "noether-of-QK", "tol": 1e-8},
        ],
    }
    return Case(name, spec, [None, GN, GN, NOT_SYM, SIMILARITY, SIMILARITY, NEITHER, GN])


def _sweep_td_kepler(rng: random.Random, name: str) -> Case:
    lam = rng.uniform(0.5, 1.5)
    m, eps = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.5)
    spec = {
        "name": name,
        "system": {"builtin": "td-kepler", "params": {"m": m, "eps": eps, "Lambda": lam}},
        "integrator": {"guard_margin": 1e-3},
        "seed": rng.randrange(1, 2**31),
        "sample_count": SWEEP_SAMPLES,
        "invariants": [{"label": "F_TDK", "builtin": "F_TDK"}],
        "symmetries": [
            {"label": "scaling", "ansatz": _ansatz((lam + 1.0) / 2.0, (lam - 1.0) / 2.0,
                                                   lam, 1.0)},
            {"label": "wrong-gamma",
             "ansatz": _ansatz((lam + 1.0) / 2.0, (lam - 1.0) / 2.0,
                               lam + _signed(rng, 0.05, 0.3), 1.0)},
            {"label": "noether-of-FTDK", "from_invariant": "F_TDK", "Yt": _gauge(rng)},
        ],
        "checks": [
            {"type": "residual", "invariant": "F_TDK", "tol": 1e-10},
            {"type": "symmetry", "symmetry": "scaling", "tol": 1e-9},
            {"type": "symmetry", "symmetry": "noether-of-FTDK", "tol": 1e-9},
            {"type": "symmetry", "symmetry": "wrong-gamma", "tol": 1e-9,
             "expect_symmetry": False},
            {"type": "similarity", "symmetry": "scaling", "against": "extended",
             "tol": 1e-9, "expect_Lambda": -1.0},
            {"type": "closure", "first": "scaling", "second": "noether-of-FTDK", "tol": 1e-8},
        ],
    }
    return Case(name, spec, [None, GN, GN, NOT_SYM, SIMILARITY, GN])


def _sweep_oscillator(rng: random.Random, name: str) -> Case:
    f = f"{rng.uniform(0.5, 1.5)!r} + {rng.uniform(0.05, 0.3)!r}*sin(t)"
    spec = {
        "name": name,
        "system": {"builtin": "harmonic-dissipative",
                   "params": {"m": rng.uniform(0.5, 2.0), "f": f,
                              "g0": rng.uniform(0.05, 0.5)}},
        "seed": rng.randrange(1, 2**31),
        "sample_count": SWEEP_SAMPLES,
        "invariants": [{"label": "F0", "builtin": "F0"}],
        "symmetries": [
            {"label": "scaling", "ansatz": _ansatz(1.0, 1.0, 2.0, 0.0)},
            {"label": "wrong-gamma",
             "ansatz": _ansatz(1.0, 1.0, 2.0 + _signed(rng, 0.05, 0.3), 0.0)},
            {"label": "noether-of-F0", "from_invariant": "F0", "Yt": _gauge(rng)},
        ],
        "checks": [
            {"type": "residual", "invariant": "F0", "tol": 1e-10},
            {"type": "symmetry", "symmetry": "scaling", "tol": 1e-9},
            {"type": "symmetry", "symmetry": "noether-of-F0", "tol": 1e-9},
            {"type": "symmetry", "symmetry": "wrong-gamma", "tol": 1e-9,
             "expect_symmetry": False},
            {"type": "similarity", "symmetry": "scaling", "against": "extended",
             "tol": 1e-9, "expect_verdict": DYNAMICAL},
            {"type": "similarity", "symmetry": "wrong-gamma", "against": "extended",
             "tol": 1e-9, "expect_verdict": NEITHER},
            {"type": "closure", "first": "scaling", "second": "noether-of-F0", "tol": 1e-8},
        ],
    }
    return Case(name, spec, [None, GN, GN, NOT_SYM, DYNAMICAL, NEITHER, GN])


def symbolic_sweep_round(seed: int, round_index: int) -> list[Case]:
    """Round k of an endless stream of distinct scenarios, one per system."""
    out = []
    for j, make in enumerate((_sweep_kepler, _sweep_td_kepler, _sweep_oscillator)):
        index = 3 * round_index + j
        out.append(make(_rng("symbolic-sweep", seed, index), f"sweep-{index:05d}"))
    return out


# ---------------------------------------------------------------------------
# long-flow: long-horizon drift and ratio checks, no pointwise checks


def _flow_kepler(rng: random.Random, name: str) -> Case:
    t_end = 100.0
    tol = _flow_tol(1e-7, 10.0, t_end)  # kepler-scaling: 1e-7 over [0, 10]
    orbit = _rotated_orbit(rng, 1.2)
    spec = {
        "name": name,
        "system": {"builtin": "kepler", "params": {"m": 1.0, "eps": 0.25}},
        "initial": {**orbit, "S": 0.0, "t": 0.0},
        "t_end": t_end,
        "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-12, "guard_margin": 1e-3},
        "invariants": [
            {"label": "Q_K", "builtin": "Q_K"},
            {"label": "H", "expression":
             "(p0^2+p1^2+p2^2)/(2*m) - 4*eps/sqrt(q0^2+q1^2+q2^2)"},
        ],
        "checks": [
            {"type": "drift", "invariant": "Q_K", "tol": tol},
            {"type": "drift", "invariant": "H", "tol": tol},
        ],
    }
    return Case(name, spec, [None, None])


def _flow_td_kepler(rng: random.Random, name: str) -> Case:
    t0, t_end = 1.0, 31.0
    tol = _flow_tol(1e-7, 4.0, t_end - t0)  # td-kepler: 1e-7 over [1, 5]
    orbit = _rotated_orbit(rng, 1.2)
    # Lambda near 1/3 keeps the coupling t^((3 Lambda - 1)/2) nearly constant
    spec = {
        "name": name,
        "system": {"builtin": "td-kepler",
                   "params": {"m": 1.0, "eps": 0.25, "Lambda": 0.34}},
        "initial": {**orbit, "S": 0.0, "t": t0},
        "t_end": t_end,
        "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-12, "guard_margin": 1e-3},
        "invariants": [{"label": "F_TDK", "builtin": "F_TDK"}],
        "checks": [{"type": "drift", "invariant": "F_TDK", "tol": tol}],
    }
    return Case(name, spec, [None])


def _flow_oscillator(rng: random.Random, name: str) -> Case:
    t_end = 80.0
    tol = _flow_tol(1e-6, 20.0, t_end)  # dissipative-oscillator: 1e-6 over [0, 20]
    phase = rng.uniform(0.0, 2.0 * math.pi)  # same amplitude, seeded phase
    spec = {
        "name": name,
        "system": {"builtin": "harmonic-dissipative",
                   "params": {"m": 1.0, "f": "1", "g0": 0.04}},
        "initial": {"q": [1.2 * math.cos(phase)], "p": [1.2 * math.sin(phase)],
                    "S": 0.0, "t": 0.0},
        "t_end": t_end,
        "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-12},
        "auxiliary": {"use_a": True, "use_b": True, "a": 1.0, "a_dot": 0.0, "a0": 1.0,
                      "b": 1.0, "b_dot": 0.0},
        "invariants": [
            {"label": "F0", "builtin": "F0"},
            {"label": "F_GLR", "builtin": "F_GLR"},
            {"label": "F_EM", "builtin": "F_EM"},
        ],
        "checks": [
            {"type": "drift", "invariant": "F0", "tol": tol},
            {"type": "drift", "invariant": "F_GLR", "tol": tol},
            {"type": "drift", "invariant": "F_EM", "tol": tol},
            {"type": "ratio", "numerator": "F_GLR", "denominator": "F0", "tol": tol},
            {"type": "ratio", "numerator": "F_EM", "denominator": "F0", "tol": tol},
        ],
    }
    return Case(name, spec, [None] * 5)


def long_flow(seed: int) -> list[Case]:
    makers = (_flow_kepler, _flow_td_kepler, _flow_oscillator)
    return [make(_rng("long-flow", seed, j), f"flow-{make.__name__[6:]}")
            for j, make in enumerate(makers)]
