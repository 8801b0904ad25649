"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion (the line is printed only after every assertion of the criterion
has held).
"""

import math

import numpy as np
import pytest

from contact_noether.dynamics import (
    IntegratorConfig,
    contact_field,
    extended_field,
    integrate,
)
from contact_noether.expr import number, parse, partial
from contact_noether.geometry import (
    ContactSystem,
    ExtendedPoint,
    SampleBox,
    VectorFieldSpec,
    point_bundle,
)
from contact_noether.noether import (
    DYNAMICAL_SYMMETRY,
    NOT_SYMMETRY,
    closure_check,
    dissipation_field,
    max_relative_drift,
    noether_lambda,
    sample_points,
    similarity_test,
    symmetry_from_invariant,
    symmetry_test,
)
from contact_noether.scaling import (
    DISSIPATIVE_F0,
    GENERIC_F2,
    K2_F0,
    KMINUS2_F1,
    TRIVIAL,
    ScalingAnsatz,
    scaling_generator,
    solve_scaling_explained,
)
from contact_noether.systems import (
    AuxiliaryState,
    co_integrate,
    f0_invariant,
    glr_invariant,
    make_harmonic_dissipative,
    make_kepler,
    make_td_kepler,
)
from conftest import case_invariant, point, value
from oracles import (action_consistency, contact_bracket_defect, em_invariant_closed_form,
                     glr_equilibrium, invariant_from_symmetry, lr_equilibrium)
from randfields import derivative_pair

CFG10 = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def inverse_square_system(m=1.0, c=0.7):
    """1-d inverse-square potential (degree k = -2), the F1 host system."""
    h = parse(f"p0^2/(2*{m!r}) + {c!r}*q0^(-2)", 1)
    return ContactSystem(n=1, h=h, guards=(parse("abs(q0)", 1),),
                         sample_box=SampleBox(q=(0.4, 2.0), p=(-2.0, 2.0),
                                              S=(-1.0, 1.0), t=(0.0, 5.0)))


def test_criterion_01_kepler_scaling_invariant_drift():
    kepler = make_kepler(m=1.0, k_grav=1.0)
    qk = kepler.meta["invariants"]["Q_K"].field
    traj = integrate(kepler, extended_field(kepler),
                     ExtendedPoint([1, 0, 0], [0, 1.2, 0], 0.0, 0.0), 10.0, CFG10,
                     tracked={"Q_K": qk})
    assert traj.error_tag is None
    drift = max_relative_drift(traj.tracked["Q_K"])
    assert drift <= 1e-7
    report(1, f"Q_K drift {drift:.3e} <= 1e-7 over t in [0, 10]")


def test_criterion_02_kepler_similarity_factor():
    kepler = make_kepler(m=1.0, k_grav=1.0)
    Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 0.0), 3)
    rep = similarity_test(Y, contact_field(kepler),
                          sample_points(kepler, 100, seed=101),
                          residual_threshold=1e-9, system=kepler)
    assert rep.passed
    assert rep.residual <= 1e-9
    assert np.max(np.abs(np.asarray(rep.Lambda_at_samples) + 3.0)) <= 1e-9
    report(2, f"contact scaling generator rescales the Kepler field by "
              f"Lambda = -3 (residual {rep.residual:.3e})")


def _round_trip_cases():
    """(name, system, invariant_field, extra_bindings) for criterion 3/4."""
    kepler = make_kepler(m=1.0, k_grav=1.0)
    damped = make_harmonic_dissipative(1.0, 1.0, 0.2)
    td = make_td_kepler(1.0, 0.25, 1.0)
    a_eq, _ = glr_equilibrium(1.0, 0.2, 1.0)
    cases = [
        ("Q_K", kepler, kepler.meta["invariants"]["Q_K"].field, {}),
        ("F0", damped, f0_invariant(1), {}),
        ("F1", inverse_square_system(), None, {}),
        ("F2", kepler, case_invariant(kepler, GENERIC_F2, -1.0), {}),
        ("TDKeplerInv", td, td.meta["invariants"]["F_TDK"].field, {}),
        ("F_GLR", damped, glr_invariant(), {"a": a_eq, "a_dot": 0.0, "a0": 1.0}),
        ("F_EM", damped, em_invariant_closed_form(damped), {}),
    ]
    out = []
    for name, system, field, extra in cases:
        if field is None:
            field = case_invariant(system, KMINUS2_F1, -2.0)
        out.append((name, system, field, extra))
    return out


def test_criterion_03_inverse_theorem_round_trip():
    for name, system, F, extra in _round_trip_cases():
        system = system.with_params(extra)
        pts = sample_points(system, 100, seed=103)
        for yt_src in ("0", "t", "3*t"):
            Yt = parse(yt_src, system.n)
            Y = symmetry_from_invariant(system, F, Yt)
            back = invariant_from_symmetry(system, Y)
            lam = noether_lambda(system, F, Yt)
            rep = symmetry_test(system, Y, pts, threshold=1e-9)
            assert rep.passed, (name, yt_src, rep.residual)
            at = point_bundle([F, back, lam], system.params)
            for k, pt in enumerate(pts):
                want, got, lam_k = at(pt)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, yt_src)
                assert abs(rep.lambda_at_samples[k] - lam_k) <= 1e-9
    report(3, "Y_F = X_F + Yt X_h^t reproduces each builtin invariant "
              "(7 invariants x Yt in {0, t, 3t}) with matching lambda")


def test_criterion_04_gauge_freedom():
    for name, system, F, extra in _round_trip_cases():
        system = system.with_params(extra)
        gauge = extended_field(system).scaled(parse("7*t", system.n))
        pts = sample_points(system, 100, seed=104)
        for yt_src in ("0", "t", "3*t"):
            Y = symmetry_from_invariant(system, F, parse(yt_src, system.n))
            F1 = invariant_from_symmetry(system, Y)
            F2 = invariant_from_symmetry(system, Y + gauge)
            at = point_bundle([F1, F2], system.params)
            for pt in pts:
                a, b = at(pt)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (name, yt_src)
    report(4, "adding 7t X_h^t to any constructed symmetry leaves its "
              "invariant unchanged (1e-12)")


def test_criterion_05_scaling_case_table():
    probes = [{"q0": 1.3, "p0": -0.7, "S": 0.6, "t": 1.7, "h": -0.9},
              {"q0": 0.4, "p0": 2.0, "S": -1.1, "t": 0.3, "h": 1.5}]

    def check_form(sol, expected):
        for env in probes:
            want = expected(env)
            assert value(sol.invariant, env) == pytest.approx(want, rel=1e-12, abs=1e-13)

    sol = next(s for s in solve_scaling_explained(1.0, 2.0, "constant", "zero")[0]
               if s.case_tag == K2_F0)
    check_form(sol, lambda e: e["q0"] * e["p0"] - 2 * e["S"])
    sol = next(s for s in solve_scaling_explained(1.0, -2.0, "constant", "zero")[0]
               if s.case_tag == KMINUS2_F1)
    check_form(sol, lambda e: e["q0"] * e["p0"] - 2 * e["t"] * e["h"])
    sol = next(s for s in solve_scaling_explained(1.0, -1.0, "constant", "zero")[0]
               if s.case_tag == GENERIC_F2)
    check_form(sol, lambda e: (2.0 / 3.0) * e["q0"] * e["p0"] - e["t"] * e["h"]
               - (1.0 / 3.0) * e["S"])
    for k in (0.0, 2.0):
        sol = next(s for s in solve_scaling_explained(1.0, k, "constant", "homogeneous",
                                                      g0=0.3, kappa=1.0)[0]
                   if s.case_tag == DISSIPATIVE_F0)
        check_form(sol, lambda e: e["q0"] * e["p0"] - 2 * e["S"])
        assert any("g0*S" in line for line in sol.constraints_log)

    # every emitted invariant is dissipation-free on a concrete instance
    concrete = [
        (dict(k=2.0, f_kind="constant", g_kind="zero"), "p0^2/2 + 0.7*q0^2"),
        (dict(k=-2.0, f_kind="constant", g_kind="zero"), "p0^2/2 + 0.7*q0^(-2)"),
        (dict(k=-1.0, f_kind="constant", g_kind="zero"), "p0^2/2 + 0.7*(q0^2)^(-0.5)"),
        (dict(k=2.0, f_kind="constant", g_kind="homogeneous", g0=0.3, kappa=1.0),
         "p0^2/2 + 0.7*q0^2 + 0.3*S"),
        (dict(k=0.0, f_kind="constant", g_kind="homogeneous", g0=0.3, kappa=1.0),
         "p0^2/2 + 0.3*S"),
    ]
    for args, h_src in concrete:
        system = ContactSystem(
            n=1, h=parse(h_src, 1),
            guards=(parse("q0", 1), parse("t", 1)),
            sample_box=SampleBox(q=(0.4, 2.0), p=(-2.0, 2.0), S=(-1.0, 1.0), t=(0.5, 3.0)))
        for sol in solve_scaling_explained(1.0, **args)[0]:
            if sol.case_tag == TRIVIAL:
                continue
            residual = point_bundle([dissipation_field(system, sol.invariant_for(system))],
                                    system.params)
            for pt in sample_points(system, 100, seed=105):
                assert abs(residual(pt)[0]) <= 1e-10, sol.case_tag
    report(5, "case table reproduces F0/F1/F2 and the forced-linear "
              "dissipative branch; all residuals <= 1e-10")


def test_criterion_06_time_dependent_kepler():
    kepler = make_kepler(m=1.0, eps=0.25)
    for lam in (1.0 / 3.0, 1.0, 2.0):
        td = make_td_kepler(1.0, 0.25, lam)
        inv = td.meta["invariants"]["F_TDK"].field
        traj = integrate(td, extended_field(td),
                         ExtendedPoint([2, 0, 0], [0, 2.0, 0], 0.0, 1.0), 5.0, CFG10,
                         tracked={"F": inv})
        assert traj.error_tag is None
        drift = max_relative_drift(traj.tracked["F"])
        assert drift <= 1e-7, (lam, drift)
    td_static = make_td_kepler(1.0, 0.25, 1.0 / 3.0)
    td_h, kepler_h = (point_bundle([s.h], s.params) for s in (td_static, kepler))
    for pt in sample_points(td_static, 100, seed=106):
        (a,), (b,) = td_h(pt), kepler_h(pt)
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))
    report(6, "forced power-law Kepler invariant conserved for Lambda in "
              "{1/3, 1, 2}; Lambda = 1/3 collapses to the static problem")


def test_criterion_07_dissipative_oscillator_suite():
    g0 = 0.2
    system = make_harmonic_dissipative(1.0, 1.0, g0)
    aux = AuxiliaryState(use_a=True, use_b=True)
    invs = [system.meta["invariants"][k] for k in ("F0", "F_GLR", "F_EM")]
    traj = co_integrate(system, point(1.0, 0.5), aux, 20.0, CFG10, invs)
    assert traj.error_tag is None
    comp = np.exp(g0 * np.asarray(traj.times))
    for label in ("F0", "F_GLR", "F_EM"):
        drift = max_relative_drift(np.asarray(traj.tracked[label]) * comp)
        assert drift <= 1e-6, (label, drift)
    for label in ("F_GLR", "F_EM"):
        ratio = np.asarray(traj.tracked[label]) / np.asarray(traj.tracked["F0"])
        assert max_relative_drift(ratio) <= 1e-6, label

    free = make_harmonic_dissipative(1.0, 1.0, 0.0)
    rho, rho_dot = lr_equilibrium(1.0, 1.0)
    aux0 = AuxiliaryState(use_rho=True, rho=rho, rho_dot=rho_dot, rho0=1.0)
    traj0 = co_integrate(free, point(1.0, 0.5), aux0, 20.0, CFG10,
                         [free.meta["invariants"]["F_LR"]])
    assert traj0.error_tag is None
    assert max_relative_drift(traj0.tracked["F_LR"]) <= 1e-8
    report(7, "F0, F_GLR, F_EM decay at exactly rate g0 (1e-6); their ratios "
              "are constant; the g0 = 0 limit conserves F_LR (1e-8)")


def test_criterion_08_lie_algebra_closure():
    g0 = 0.2
    a_eq, _ = glr_equilibrium(1.0, g0, 1.0)
    system = make_harmonic_dissipative(1.0, 1.0, g0).with_params({"a": a_eq, "a_dot": 0.0,
                                                                   "a0": 1.0})
    F0 = f0_invariant(1)
    FG = glr_invariant()
    Y1 = symmetry_from_invariant(system, F0, 0.0)
    Y2 = symmetry_from_invariant(system, FG, 0.0)
    lam1 = noether_lambda(system, F0, 0.0)
    lam2 = noether_lambda(system, FG, 0.0)
    pts = sample_points(system, 100, seed=108)
    rep = closure_check(system, Y1, Y2, pts, 1e-8, lam1, lam2)
    assert rep.passed
    assert rep.residual <= 1e-8
    assert rep.lambda_defect is not None and rep.lambda_defect <= 1e-8
    report(8, f"[Y_F0, Y_FGLR] is again a symmetry (residual {rep.residual:.2e}) "
              f"with lambda = Y1(l2) - Y2(l1) matched to {rep.lambda_defect:.2e}")


def test_criterion_09_no_go_checks():
    kepler = make_kepler(m=1.0, k_grav=1.0)
    z = number(0.0, 3)
    vertical = VectorFieldSpec((z,) * 3, (z,) * 3, kepler.h, z)
    pts = sample_points(kepler, 100, seed=109)
    sim = similarity_test(vertical, extended_field(kepler), pts, system=kepler)
    assert sim.verdict == DYNAMICAL_SYMMETRY
    assert symmetry_test(kepler, vertical, pts).verdict == NOT_SYMMETRY
    contact_scaling = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 0.0), 3)
    defect = contact_bracket_defect(kepler, contact_scaling, pts)
    assert defect > 0.1
    report(9, "H d/dS is a dynamical symmetry but not a Noether symmetry; the "
              "contact-level scaling generator violates the contact obstruction")


def test_criterion_10_numerics_hygiene():
    rng = np.random.default_rng(20260810)
    for _ in range(1000):
        field, name, env, fd = derivative_pair(rng)
        d = value(partial(field, name), env)
        assert abs(d - fd) <= 1e-5 * max(1.0, abs(fd))

    oscillator = ContactSystem(n=1, h=parse("p0^2/2 + q0^2/2", 1))

    def period_error(h):
        cfg = IntegratorConfig(rel_tol=1.0, abs_tol=1e6, max_step=h, min_step=h)
        traj = integrate(oscillator, extended_field(oscillator),
                         point(1.0, 0.0), 2 * math.pi, cfg)
        end = traj.samples[-1]
        return math.hypot(end.q[0] - 1.0, end.p[0])

    ratio = period_error(math.pi / 4) / period_error(math.pi / 8)
    assert ratio >= 4.0

    free = ContactSystem(n=1, h=parse("p0^2/(2*m)", 1), params={"m": 1.0})
    traj = integrate(free, extended_field(free), point(0.0, 2.0), 3.0, CFG10)
    consistency = action_consistency(free, traj)
    assert consistency <= 1e-8
    report(10, f"FD oracle holds on 1000 random ASTs; step-halving cuts the "
               f"period error {ratio:.1f}x (>= 4, order >= 4); action "
               f"consistency {consistency:.2e} <= 1e-8")
