"""Built-in model library and their closed-form dissipated quantities.

Three builtins: the Kepler problem, its time-dependent scaling-forced
variant, and a harmonic-type potential with linear dissipation.  The
oscillator invariants (Lewis-Riesenfeld and its dissipative generalisation,
plus the linear-in-momentum one) need auxiliary Ermakov-type functions;
those enter the invariant fields as per-sample parameter bindings
(rho, rho_dot, a, a_dot, b, b_dot) and are co-integrated alongside the flow.
Their defining ODEs are written once, in `_AUX_ODES`, and the oscillator
carries them as its `param_rates`: the self-test's residuals and the
co-integration both read them.

Two transcription corrections relative to common printed forms, both forced
by the dissipation equation and locked in by a mandatory residual self-test
at first use: the q^2 coefficient of F_LR is rho_dot^2 + rho0/rho^2, and
F_EM = b p - m b_dot q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .expr import ScalarField, number, parameter, parse, substitute, variable
from .geometry import ContactSystem, ExtendedPoint, SampleBox
from .dynamics import AuxComponent, IntegratorConfig, Trajectory, extended_field, integrate
from .noether import residual_at
from .scaling import _f0, case3_system, dot_qp

CONSERVED = "conserved"
DISSIPATED = "dissipated"


@dataclass(frozen=True)
class TrackedInvariant:
    """A labelled quantity tracked along flows, with its expected behaviour
    (conserved, or dissipated at the rate R(h))."""

    label: str
    field: ScalarField
    expected: str = CONSERVED


@dataclass(frozen=True)
class AuxiliaryState:
    """Initial data for the auxiliary second-order ODEs co-integrated with
    the flow.  Inactive blocks are simply not integrated."""

    rho: float = 1.0
    rho_dot: float = 0.0
    rho0: float = 1.0
    a: float = 1.0
    a_dot: float = 0.0
    a0: float = 1.0
    b: float = 1.0
    b_dot: float = 0.0
    use_rho: bool = False
    use_a: bool = False
    use_b: bool = False

    def constants(self) -> dict[str, float]:
        return {"rho0": self.rho0, "a0": self.a0}


# ---------------------------------------------------------------------------
# builtin systems


def make_kepler(m: float = 1.0, eps: float | None = None,
                k_grav: float | None = None) -> ContactSystem:
    """Kepler problem h = p.p/2m - 4 eps / sqrt(q.q) in n = 3.

    `k_grav` is the convenience coupling 4*eps; give one of eps/k_grav.
    """
    if eps is None:
        eps = 0.25 if k_grav is None else k_grav / 4.0
    elif k_grav is not None:
        raise ValueError("give either eps or k_grav, not both")
    if m <= 0:
        raise ValueError("m must be positive")
    n = 3
    h = parse("(p0^2 + p1^2 + p2^2)/(2*m) - 4*eps/sqrt(q0^2 + q1^2 + q2^2)", n)
    system = ContactSystem(
        n=n, h=h, params={"m": float(m), "eps": float(eps)},
        guards=(parse("sqrt(q0^2 + q1^2 + q2^2)", n),),  # a node of h: no new arithmetic
        sample_box=SampleBox(q=(-2.0, 2.0), p=(-2.0, 2.0), S=(-1.0, 1.0), t=(0.0, 5.0)),
        label="kepler",
    )
    system.meta["k_grav"] = 4.0 * eps
    system.meta["invariants"] = {
        "Q_K": TrackedInvariant("Q_K", kepler_invariant(system), CONSERVED)}
    return system


def make_td_kepler(m: float, eps: float, Lambda: float) -> ContactSystem:
    """Time-dependent Kepler h = p.p/2m - t^((3 Lambda - 1)/2) 4 eps/sqrt(q.q),
    with the conserved quantity (Lambda+1) q.p - 2 t h - 2 Lambda S registered."""
    if m <= 0:
        raise ValueError("m must be positive")
    system = case3_system(k=-1.0, Lambda=Lambda, m=m, coupling=-4.0 * eps,
                          label="td-kepler")
    inv = system.meta.pop("invariant")
    system.meta["invariants"] = {"F_TDK": TrackedInvariant("F_TDK", inv, CONSERVED)}
    system.meta["eps"] = eps
    system.meta["m"] = m
    return system


def make_harmonic_dissipative(m: float, f_spec: ScalarField | str | float,
                              g0: float) -> ContactSystem:
    """h = p0^2/2m + (m/2) f(t) q0^2 + g0 S in n = 1."""
    if m <= 0:
        raise ValueError("m must be positive")
    n = 1
    if isinstance(f_spec, str):
        f = parse(f_spec, n)
    elif isinstance(f_spec, ScalarField):
        f = f_spec
    else:
        f = number(float(f_spec), n)
    if f.free_vars - {"t"}:
        raise ValueError("f must be a function of t only")
    mpar = parameter("m", n)
    h = (variable("p0", n) ** 2.0) / (2.0 * mpar) \
        + (mpar / 2.0) * f * (variable("q0", n) ** 2.0) \
        + parameter("g0", n) * variable("S", n)
    system = ContactSystem(
        n=n, h=h, params={"m": float(m), "g0": float(g0)},
        sample_box=SampleBox(q=(-2.0, 2.0), p=(-2.0, 2.0), S=(-1.0, 1.0), t=(0.0, 5.0)),
        label="harmonic-dissipative",
        param_rates={nm: substitute(parse(src, n), "f", f) for nm, src in _AUX_ODES.items()},
    )
    expected = CONSERVED if g0 == 0.0 else DISSIPATED
    system.meta.update({"kind": "harmonic-dissipative", "f": f, "m": float(m),
                        "g0": float(g0)})
    system.meta["invariants"] = {
        "F0": TrackedInvariant("F0", f0_invariant(n), expected),
        "F_GLR": TrackedInvariant("F_GLR", glr_invariant(), expected),
        "F_EM": TrackedInvariant("F_EM", em_invariant(), expected),
    }
    if g0 == 0.0:  # F_LR solves the undamped equation only
        system.meta["invariants"]["F_LR"] = TrackedInvariant("F_LR", lr_invariant(), CONSERVED)
    return system


# ---------------------------------------------------------------------------
# invariant catalog


def f0_invariant(n: int = 1) -> ScalarField:
    """q.p - 2S (the k = 2 scaling invariant; independent of f)."""
    return _f0(n)


def kepler_invariant(system: ContactSystem) -> ScalarField:
    """2 q.p - 3 t h - S for a Kepler-type system (h inlined)."""
    n = system.n
    return 2.0 * dot_qp(n) - 3.0 * variable("t", n) * system.h - variable("S", n)


def lr_invariant(n: int = 1) -> ScalarField:
    """Lewis-Riesenfeld invariant with rho, rho_dot, rho0 as bound parameters:
    (rho^2/2m) p^2 - rho rho_dot q p + (m/2)(rho_dot^2 + rho0/rho^2) q^2."""
    _verify_aux_forms()
    rho, rho_dot = parameter("rho", n), parameter("rho_dot", n)
    rho0, mpar = parameter("rho0", n), parameter("m", n)
    q, p = variable("q0", n), variable("p0", n)
    return (rho ** 2.0) * (p ** 2.0) / (2.0 * mpar) \
        - rho * rho_dot * q * p \
        + (mpar / 2.0) * (rho_dot ** 2.0 + rho0 / rho ** 2.0) * (q ** 2.0)


def glr_invariant(n: int = 1) -> ScalarField:
    """Dissipative generalisation of the Lewis-Riesenfeld invariant with
    a, a_dot, a0 (and g0, m) as bound parameters."""
    _verify_aux_forms()
    a, a_dot = parameter("a", n), parameter("a_dot", n)
    a0, g0, mpar = parameter("a0", n), parameter("g0", n), parameter("m", n)
    q, p = variable("q0", n), variable("p0", n)
    coeff_q2 = (a_dot ** 2.0 - g0 * a * a_dot + (g0 ** 2.0) * (a ** 2.0) / 4.0
                + (a0 ** 3.0 / a ** 2.0) * (1.0 + 0.75 * a0 * g0 ** 2.0))
    return (a ** 2.0) * (p ** 2.0) / (2.0 * mpar) \
        + 0.5 * (g0 * a ** 2.0 - 2.0 * a * a_dot) * q * p \
        + coeff_q2 * mpar * (q ** 2.0) / 2.0


def em_invariant(n: int = 1) -> ScalarField:
    """b p - m b_dot q with b solving its auxiliary ODE in `_AUX_ODES`."""
    _verify_aux_forms()
    return parameter("b", n) * variable("p0", n) \
        - parameter("m", n) * parameter("b_dot", n) * variable("q0", n)


# ---------------------------------------------------------------------------
# mandatory self-test of the transcribed closed forms


_AUX_FORMS_VERIFIED = False

# The defining ODEs of the auxiliary functions, as first-order rates: each
# name maps to its d/dt over the auxiliary names, rho0, a0, g0 and f, which
# stands for the system's f(t).  The oscillator keeps them, f written in, as
# its `param_rates`: the self-test's residuals take the t-derivative through
# them, and co_integrate integrates them.
_AUX_ODES = {
    "rho": "rho_dot",
    "rho_dot": "rho0/rho^3 - f*rho",
    "a": "a_dot",
    "a_dot": "(g0*g0/4)*a - f*a + (a0^3/a^3)*(1 + 0.75*a0*g0*g0)",
    "b": "b_dot",
    "b_dot": "-g0*b_dot - f*b",
}
# rho and a leaving this open box end the flow tagged AuxiliaryBlowup
_AUX_BOX = {"rho": (1e-6, 1e6), "a": (1e-6, 1e6)}


def _verify_aux_forms() -> None:
    """Spot-check the hard-coded oscillator invariants against their
    auxiliary ODEs, once per process; a nonzero residual means a transcription
    slip and must fail loudly rather than produce silent wrong results."""
    global _AUX_FORMS_VERIFIED
    if _AUX_FORMS_VERIFIED:
        return
    _AUX_FORMS_VERIFIED = True
    try:
        f = parse("0.8 + 0.3*t + 0.1*sin(t)", 1)
        checks = [
            ("rho", 0.0, lr_invariant(), {"rho": 1.3, "rho_dot": -0.4, "rho0": 0.9}),
            ("a", 0.45, glr_invariant(), {"a": 1.2, "a_dot": 0.7, "a0": 1.1}),
            ("b", 0.45, em_invariant(), {"b": 0.8, "b_dot": -0.5}),
        ]
        for which, g0, field, aux in checks:
            residual = residual_at(make_harmonic_dissipative(1.37, f, g0).with_params(aux), field)
            for qv, pv, sv, tv in ((0.7, -1.1, 0.3, 0.9), (-0.4, 0.6, -1.0, 2.1)):
                res = residual(ExtendedPoint([qv], [pv], sv, tv))
                if abs(res) > 1e-9:
                    raise RuntimeError(
                        f"auxiliary invariant self-test failed for {which}: residual {res!r}")
    except Exception:
        _AUX_FORMS_VERIFIED = False
        raise


# ---------------------------------------------------------------------------
# coupled co-integration


def _harmonic_meta(system: ContactSystem) -> tuple[ScalarField, float]:
    if system.meta.get("kind") != "harmonic-dissipative":
        raise ValueError("co-integration needs a harmonic-dissipative system")
    return system.meta["f"], system.meta["g0"]


def co_integrate(system: ContactSystem, start: ExtendedPoint, aux0: AuxiliaryState,
                 t_end: float, cfg: IntegratorConfig | None = None,
                 tracked: Sequence[TrackedInvariant] | Mapping[str, ScalarField] | None = None,
                 ) -> Trajectory:
    """Integrate the contact flow together with the active auxiliary ODEs of
    `_AUX_ODES`, through `integrate`, under a single step controller.

    Tracked fields see the auxiliary values (and rho0/a0) as parameters at
    every accepted step; the auxiliary components follow them as tracked
    columns.  rho or a leaving (1e-6, 1e6) tags the trajectory
    AuxiliaryBlowup and returns the partial result.
    """
    _harmonic_meta(system)
    system = system.with_params(aux0.constants())
    if not isinstance(tracked, Mapping):
        tracked = {ti.label: ti.field for ti in tracked or []}
    aux: dict[str, AuxComponent] = {}
    for block in ("rho", "a", "b"):
        if getattr(aux0, f"use_{block}"):
            for nm in (block, f"{block}_dot"):
                aux[nm] = AuxComponent(getattr(aux0, nm), system.param_rates[nm], _AUX_BOX.get(nm))
    return integrate(system, extended_field(system), start, t_end, cfg, tracked, aux)


# ---------------------------------------------------------------------------
# builtin registry (names addressable from scenario configs)


def make_builtin(name: str, params: Mapping[str, object] | None = None) -> ContactSystem:
    """The builtin `name` built from `params`; a key it does not read is a ValueError."""
    params = dict(params or {})
    if name == "kepler":
        system = make_kepler(float(params.pop("m", 1.0)),
                             eps=params.pop("eps", None),
                             k_grav=params.pop("k_grav", None))
    elif name == "td-kepler":
        system = make_td_kepler(float(params.pop("m", 1.0)),
                                float(params.pop("eps", 0.25)),
                                float(params.pop("Lambda", 1.0)))
    elif name == "harmonic-dissipative":
        system = make_harmonic_dissipative(float(params.pop("m", 1.0)),
                                           params.pop("f", 1.0),
                                           float(params.pop("g0", 0.0)))
    else:
        raise KeyError(f"unknown builtin system {name!r}")
    if params:
        raise ValueError(f"builtin {name!r} does not read params {sorted(params)}")
    return system


BUILTIN_DOCS = {
    "kepler": "Kepler problem (n=3). Params: m > 0, eps (or k_grav = 4*eps).",
    "td-kepler": "Time-dependent Kepler with forced power-law coupling (n=3, t > 0). "
                 "Params: m > 0, eps, Lambda.",
    "harmonic-dissipative": "Oscillator-type potential with linear dissipation (n=1). "
                            "Params: m > 0, f (expression in t or number), g0.",
}
