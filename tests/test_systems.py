import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contact_noether import systems
from contact_noether.dynamics import (
    AUXILIARY_BLOWUP,
    IntegratorConfig,
    extended_field,
    integrate,
)
from contact_noether.expr import UnboundParameter, parse
from contact_noether.geometry import ContactSystem, ExtendedPoint, point_bundle
from contact_noether.noether import (
    max_relative_drift,
    residual_at,
    sample_points,
    similarity_test,
    symmetry_from_invariant,
    symmetry_test,
)
from contact_noether.systems import (
    AuxiliaryState,
    co_integrate,
    em_invariant,
    f0_invariant,
    glr_invariant,
    lr_invariant,
    make_builtin,
    make_harmonic_dissipative,
    make_kepler,
    make_td_kepler,
)
from contact_noether.scaling import GENERIC_F2, KMINUS2_F1, ScalingAnsatz, scaling_generator
from conftest import case_invariant, point, value, values
from oracles import (em_invariant_closed_form, glr_equilibrium, invariant_from_symmetry,
                     lr_equilibrium)


CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)


class TestKepler:
    def test_h_value(self, kepler):
        h_at = point_bundle([kepler.h], kepler.params)
        assert h_at(point([1, 0, 0], [0, 1, 0]))[0] == pytest.approx(-0.5, abs=1e-15)

    def test_admissible_compiles_nothing(self, kepler, monkeypatch):
        # the guards go through eval_node; h's bundle agrees with it bit for bit
        from contact_noether import expr

        codegen = []
        real_codegen = expr._codegen
        monkeypatch.setattr(expr, "_codegen", lambda *a: codegen.append(a) or real_codegen(*a))
        pts = sample_points(kepler, 200, seed=4)
        codegen.clear()
        assert all(kepler.admissible(pt) for pt in pts) and codegen == []
        h_at = point_bundle([kepler.h], kepler.params)
        ref = [expr.eval_node(kepler.h.ast, kepler.env(pt)) for pt in pts]
        assert [h_at(pt)[0].hex() for pt in pts] == [v.hex() for v in ref]

    def test_a_coordinate_wins_over_a_like_named_parameter(self):
        # every path binds t from the point, not from params, as bindable_params does
        system = ContactSystem(n=1, h=parse("q0 + t*p0", 1), params={"t": 5.0})
        pt = point(1.0, 2.0, t=0.5)
        env = system.env(pt)
        assert env["t"] == 0.5
        assert system.h.eval_env(env) == value(system.h, env) == 2.0
        assert point_bundle([system.h], system.params)(pt) == (2.0,)
        guarded = ContactSystem(n=1, h=system.h, params={"t": 5.0}, guards=(parse("1 - t", 1),))
        assert guarded.admissible(pt, 0.5) and not guarded.admissible(point(1.0, 2.0, t=0.6), 0.5)

    def test_with_params_binds_over_params_and_under_the_coordinates(self):
        system = ContactSystem(n=1, h=parse("q0 + t*p0 + c", 1), params={"t": 5.0, "c": 1.0},
                               guards=(parse("c - t", 1),))
        h_q, h_S = system.h_q, system.h_S
        bound = system.with_params({"c": 2.0, "t": 7.0})
        assert bound.params == {"t": 7.0, "c": 2.0}  # extra wins over params
        assert system.params == {"t": 5.0, "c": 1.0}  # the original's dict is untouched
        pt = point(1.0, 2.0, t=0.5)  # ...and the coordinate t wins over both
        assert point_bundle([bound.h, *bound.guards], bound.params)(pt) == (4.0, 1.5)
        assert bound.env(pt)["t"] == 0.5 and bound.admissible(pt, 1.5)
        assert not bound.admissible(pt, 1.6) and not system.admissible(pt, 0.6)
        same = system.with_params({})
        assert same is system and same.h_q is h_q and same.h_S is h_S

    def test_guards_mark_the_admissible_region(self, kepler):
        assert kepler.admissible(point([0.6, 0, 0.8], [0, 0, 0]), margin=1.0)
        assert not kepler.admissible(point([0.6, 0, 0.79], [0, 0, 0]), margin=1.0)
        td = make_td_kepler(1.0, 0.25, 1.5)
        assert td.admissible(point([1, 0, 0], [0, 0, 0], t=0.5), margin=0.5)
        assert not td.admissible(point([1, 0, 0], [0, 0, 0], t=0.49), margin=0.5)
        assert not td.admissible(point([0.1, 0, 0], [0, 0, 0], t=1.0), margin=0.5)
        nan_guard = ContactSystem(n=1, h=parse("p0", 1),
                                  guards=(parse("q0*(1e200*1e200 - 1e200*1e200)", 1),))
        assert not nan_guard.admissible(point(1.0, 0.0))
        raising = ContactSystem(n=1, h=parse("p0", 1), guards=(parse("ln(q0)", 1),))
        assert raising.admissible(point(3.0, 0.0)) and not raising.admissible(point(-1.0, 0.0))

    def test_the_start_check_binds_extra_params_like_the_flow(self):
        # the guard columns of the flow read a system's bound parameters, and so
        # does integrate's start check
        system = ContactSystem(n=1, h=parse("p0^2/2", 1), params={"c": 0.0},
                               guards=(parse("q0 - c", 1),))
        start, bound = point(0.5, 1.0), system.with_params({"c": 1.0})
        assert system.admissible(start) and not bound.admissible(start)
        with pytest.raises(ValueError, match="outside the admissible region"):
            integrate(bound, extended_field(bound), start, 1.0)

    def test_a_guard_parameter_must_be_bound(self):
        with pytest.raises(UnboundParameter, match=r"\['c'\]"):
            ContactSystem(n=1, h=parse("p0", 1), guards=(parse("q0 - c", 1),))

    def test_k_grav_convention(self):
        assert make_kepler(1.0, eps=0.25).meta["k_grav"] == 1.0
        assert make_kepler(1.0, k_grav=2.0).params["eps"] == 0.5

    def test_scaling_similarity(self, kepler):
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        rep = similarity_test(Y, extended_field(kepler),
                              sample_points(kepler, 100, seed=62), system=kepler)
        assert np.allclose(rep.Lambda_at_samples, -3.0, atol=1e-9)

    def test_invariant_and_energy_conserved_along_flow(self, kepler):
        qk = kepler.meta["invariants"]["Q_K"].field
        traj = integrate(kepler, extended_field(kepler),
                         point([1, 0, 0], [0, 1.2, 0]), 10.0, CFG,
                         tracked={"Q_K": qk, "H": kepler.h})
        assert traj.error_tag is None
        assert max_relative_drift(traj.tracked["Q_K"]) <= 1e-7
        assert max_relative_drift(traj.tracked["H"]) <= 1e-8


class TestTdKepler:
    def test_lambda_third_is_static_kepler(self):
        td = make_td_kepler(1.0, 0.25, 1.0 / 3.0)
        kep = make_kepler(1.0, eps=0.25)
        td_h, kep_h = (point_bundle([s.h], s.params) for s in (td, kep))
        for pt in sample_points(td, 50, seed=64):
            (a,), (b,) = td_h(pt), kep_h(pt)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a))

    def test_h_is_s_independent_so_invariant_is_conserved(self):
        td = make_td_kepler(1.0, 0.25, 1.0)
        assert "S" not in td.h.free_vars
        inv = td.meta["invariants"]["F_TDK"]
        assert inv.expected == systems.CONSERVED

    @pytest.mark.parametrize("lam", [1.0 / 3.0, 1.0, 2.0])
    def test_invariant_residual_and_flow(self, lam):
        td = make_td_kepler(1.0, 0.25, lam)
        inv = td.meta["invariants"]["F_TDK"].field
        residual = residual_at(td, inv)
        for pt in sample_points(td, 100, seed=66):
            assert abs(residual(pt)) <= 1e-10
        traj = integrate(td, extended_field(td),
                         ExtendedPoint([2, 0, 0], [0, 2.0, 0], 0.0, 1.0), 5.0, CFG,
                         tracked={"F": inv})
        assert traj.error_tag is None
        assert max_relative_drift(traj.tracked["F"]) <= 1e-7


class TestHarmonicDissipative:
    def test_h_structure(self):
        system = make_harmonic_dissipative(2.0, "1 + t", 0.4)
        pt = point(1.5, 3.0, S=2.0, t=1.0)
        expected = 3.0**2 / 4.0 + (2.0 / 2.0) * (1 + 1.0) * 1.5**2 + 0.4 * 2.0
        assert point_bundle([system.h], system.params)(pt)[0] == pytest.approx(expected, rel=1e-14)

    def test_time_dependent_h_is_not_dissipated(self):
        system = make_harmonic_dissipative(1.0, "1 + 0.5*t", 0.2)
        res = residual_at(system, system.h)(point(1.0, 0.5, S=0.1, t=1.0))
        assert abs(res) > 1e-3  # dh/dt spoils the dissipation equation

    def test_f0_residual_vanishes_for_any_f(self):
        system = make_harmonic_dissipative(1.0, "1 + 0.1*t", 0.2)
        residual = residual_at(system, f0_invariant(1))
        for pt in sample_points(system, 50, seed=68):
            assert residual(pt) == pytest.approx(0.0, abs=1e-13)

    def test_expected_behaviour_registry(self):
        assert make_harmonic_dissipative(1.0, 1.0, 0.0).meta["invariants"]["F0"].expected \
            == systems.CONSERVED
        assert make_harmonic_dissipative(1.0, 1.0, 0.1).meta["invariants"]["F0"].expected \
            == systems.DISSIPATED

    def test_lr_invariant_is_registered_without_damping_only(self):
        # F_LR solves the undamped equation: with g0 != 0 it is not dissipated
        assert make_harmonic_dissipative(1.0, 1.0, 0.0).meta["invariants"]["F_LR"].expected \
            == systems.CONSERVED
        damped = make_harmonic_dissipative(1.0, 1.0, 0.2)
        assert sorted(damped.meta["invariants"]) == ["F0", "F_EM", "F_GLR"]
        aux = {"rho": 1.1, "rho_dot": 0.3, "rho0": 1.0}
        residual = residual_at(damped.with_params(aux), lr_invariant())
        assert max(abs(residual(pt)) for pt in sample_points(damped, 10, seed=71)) > 0.1


class TestClosedFormSelfTest:
    def test_forms_are_verified_once(self):
        systems._AUX_FORMS_VERIFIED = False
        systems._verify_aux_forms()
        assert systems._AUX_FORMS_VERIFIED

    def test_self_test_compiles_each_bundle_once(self):
        # in a fresh interpreter: one bundle of the residual field per block,
        # for both of its points
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("from contact_noether import expr, systems\n"
                "sizes, real = [], expr._codegen\n"
                "expr._codegen = lambda *a: sizes.append(len(a[0])) or real(*a)\n"
                "systems._verify_aux_forms()\n"
                "print(sorted(sizes))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == str([1] * 3)

    def test_corrupted_ode_table_fails_loudly(self, monkeypatch):
        # the table co_integrate integrates is the one the self-test checks
        monkeypatch.setitem(systems._AUX_ODES, "a_dot", systems._AUX_ODES["a_dot"] + " + 0.1")
        monkeypatch.setattr(systems, "_AUX_FORMS_VERIFIED", False)
        with pytest.raises(RuntimeError, match="self-test failed for a"):
            systems._verify_aux_forms()
        assert not systems._AUX_FORMS_VERIFIED
        # and co_integrate picks up the same slip, read when the system is
        # built (past the self-test, which would refuse it): the equilibrium drifts
        monkeypatch.setattr(systems, "_AUX_FORMS_VERIFIED", True)
        damped_oscillator = make_harmonic_dissipative(1.0, 1.0, 0.2)
        a_eq, _ = glr_equilibrium(1.0, 0.2, 1.0)
        traj = co_integrate(damped_oscillator, point(1.0, 0.5),
                            AuxiliaryState(use_a=True, a=a_eq), 1.0, CFG)
        assert np.max(np.abs(traj.tracked["a_dot"])) > 1e-2

    def test_residuals_with_consistent_aux_rates(self):
        # F_GLR and F_EM satisfy the dissipation equation exactly once the
        # auxiliary time dependence is threaded through
        f = parse("1 + 0.4*sin(t)", 1)
        g0 = 0.3
        system = make_harmonic_dissipative(1.0, f, g0)
        aux = {"a": 1.4, "a_dot": -0.2, "a0": 1.0, "rho0": 1.0, "b": 0.7, "b_dot": 0.5,
               "rho": 1.1, "rho_dot": 0.6}
        residuals = [residual_at(system.with_params(aux), field)
                     for field in (glr_invariant(), em_invariant())]
        for pt in sample_points(system, 20, seed=70):
            for residual in residuals:
                assert abs(residual(pt)) <= 1e-11

    def test_linear_combinations_stay_solutions(self):
        system = make_harmonic_dissipative(1.0, 1.0, 0.2)
        a_eq, _ = glr_equilibrium(1.0, 0.2, 1.0)
        extra = {"a": a_eq, "a_dot": 0.0, "a0": 1.0}
        F_em = em_invariant_closed_form(system)
        combo = 0.7 * f0_invariant(1) + 1.3 * glr_invariant() - 2.1 * F_em
        residual = residual_at(system.with_params(extra), combo)
        for pt in sample_points(system, 30, seed=72):
            assert abs(residual(pt)) <= 1e-10


class TestEquilibria:
    def test_lr_equilibrium_is_fixed_point(self):
        f0, rho0 = 1.69, 1.0
        rho, rho_dot = lr_equilibrium(f0, rho0)
        assert rho_dot == 0.0
        assert f0 * rho == pytest.approx(rho0 / rho**3, rel=1e-14)

    def test_glr_equilibrium_is_fixed_point(self):
        f0, g0, a0 = 1.0, 0.2, 1.0
        a, a_dot = glr_equilibrium(f0, g0, a0)
        rhs = (g0**2 / 4) * a - f0 * a + (a0**3 / a**3) * (1 + 0.75 * a0 * g0**2)
        assert a_dot == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-14)


class TestCoIntegrate:
    def test_ermakov_equilibrium_stays_constant(self):
        omega2 = 1.69
        system = make_harmonic_dissipative(1.0, omega2, 0.0)
        rho, rho_dot = lr_equilibrium(omega2, 1.0)
        aux = AuxiliaryState(use_rho=True, rho=rho, rho_dot=rho_dot, rho0=1.0)
        traj = co_integrate(system, point(1.0, 0.0), aux, 20.0, CFG,
                            [system.meta["invariants"]["F_LR"],
                             system.meta["invariants"]["F0"]])
        assert traj.error_tag is None
        assert np.max(np.abs(np.asarray(traj.tracked["rho"]) - rho)) <= 1e-9
        assert max_relative_drift(traj.tracked["F_LR"]) <= 1e-8
        assert max_relative_drift(traj.tracked["F0"]) <= 1e-8

    def test_b_equation_closed_form(self):
        omega = 1.0
        system = make_harmonic_dissipative(1.0, omega**2, 0.0)
        aux = AuxiliaryState(use_b=True, b=1.0, b_dot=0.0)
        traj = co_integrate(system, point(0.3, 1.1), aux, 15.0, CFG,
                            [system.meta["invariants"]["F_EM"]])
        assert traj.error_tag is None
        expected = np.cos(omega * np.asarray(traj.times))
        assert np.max(np.abs(np.asarray(traj.tracked["b"]) - expected)) <= 1e-8
        assert max_relative_drift(traj.tracked["F_EM"]) <= 1e-8

    def test_glr_reduces_to_lr_at_zero_dissipation(self):
        # with g0 = 0 and rho0 = a0^3 the two invariants coincide identically
        glr = glr_invariant()
        lr = lr_invariant()
        rng = np.random.default_rng(74)
        for _ in range(30):
            a0 = rng.uniform(0.5, 1.5)
            env = {"q0": rng.uniform(-2, 2), "p0": rng.uniform(-2, 2),
                   "m": rng.uniform(0.5, 2.0), "g0": 0.0,
                   "a": rng.uniform(0.5, 2.0), "a_dot": rng.uniform(-1, 1), "a0": a0}
            env_lr = {"q0": env["q0"], "p0": env["p0"], "m": env["m"],
                      "rho": env["a"], "rho_dot": env["a_dot"], "rho0": a0**3}
            assert value(glr, env) == pytest.approx(value(lr, env_lr), rel=1e-12)

    def test_dissipative_suite_compensated_constants(self, damped_oscillator):
        system = damped_oscillator
        aux = AuxiliaryState(use_a=True, use_b=True)
        invs = [system.meta["invariants"][k] for k in ("F0", "F_GLR", "F_EM")]
        traj = co_integrate(system, point(1.0, 0.5), aux, 20.0, CFG, invs)
        assert traj.error_tag is None
        comp = np.exp(0.2 * np.asarray(traj.times))
        for label in ("F0", "F_GLR", "F_EM"):
            assert max_relative_drift(np.asarray(traj.tracked[label]) * comp) <= 1e-6
        assert max_relative_drift(np.asarray(traj.tracked["F_GLR"]) / np.asarray(traj.tracked["F0"])) <= 1e-6
        assert max_relative_drift(np.asarray(traj.tracked["F_EM"]) / np.asarray(traj.tracked["F0"])) <= 1e-6

    def test_auxiliary_blowup_is_tagged(self):
        # inverted potential: the auxiliary a-equation grows exponentially
        system = make_harmonic_dissipative(1.0, -5.0, 0.1)
        aux = AuxiliaryState(use_a=True)
        traj = co_integrate(system, point(0.1, 0.0), aux,
                            60.0, IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10))
        assert traj.error_tag == AUXILIARY_BLOWUP

    def test_rho_blowup_returns_partial_trajectory(self):
        system = make_harmonic_dissipative(1.0, -5.0, 0.1)
        aux = AuxiliaryState(use_rho=True, use_b=True)
        traj = co_integrate(system, point(0.1, 0.0), aux, 60.0,
                            IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10),
                            [system.meta["invariants"]["F0"]])
        assert traj.error_tag == AUXILIARY_BLOWUP
        assert traj.samples[-1].t < 60.0
        assert all(len(v) == len(traj.samples) for v in traj.tracked.values())
        assert np.all((np.asarray(traj.tracked["rho"]) > 1e-6) & (np.asarray(traj.tracked["rho"]) < 1e6))

    def test_aux_columns_in_csv(self, free_oscillator):
        aux = AuxiliaryState(use_rho=True)
        traj = co_integrate(free_oscillator, point(1.0, 0.0), aux, 1.0, CFG)
        buf = io.StringIO()
        traj.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "t,q0,p0,S,rho,rho_dot"

    def test_csv_column_order_with_two_blocks(self, damped_oscillator):
        aux = AuxiliaryState(use_a=True, use_b=True)
        invs = [damped_oscillator.meta["invariants"][k] for k in ("F_EM", "F0")]
        traj = co_integrate(damped_oscillator, point(1.0, 0.5), aux, 1.0, CFG, invs)
        buf = io.StringIO()
        traj.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "t,q0,p0,S,F_EM,F0,a,a_dot,b,b_dot"

    def test_needs_harmonic_system(self, kepler):
        with pytest.raises(ValueError):
            co_integrate(kepler, point([1, 0, 0], [0, 1, 0]), AuxiliaryState(), 1.0)


class TestGlrSymmetry:
    def test_round_trip_recovers_invariant(self, damped_oscillator):
        system = damped_oscillator
        Y = symmetry_from_invariant(system, glr_invariant(), 0.0)
        F = invariant_from_symmetry(system, Y)
        G = glr_invariant()
        rng = np.random.default_rng(76)
        for pt in sample_points(system, 50, seed=78):
            aux = {"a": rng.uniform(0.5, 2.0), "a_dot": rng.uniform(-1, 1), "a0": 1.0}
            f, g = values([F, G], system.env(pt, aux))
            assert abs(f - g) <= 1e-10 * max(1.0, abs(g))

    def test_symmetry_along_co_integrated_flow(self, damped_oscillator):
        system = damped_oscillator
        aux0 = AuxiliaryState(use_a=True)
        traj = co_integrate(system, point(1.0, 0.5), aux0, 5.0, CFG)
        Y = symmetry_from_invariant(system, glr_invariant(), 0.0)
        for k in range(1, len(traj.samples), max(1, len(traj.samples) // 12)):
            pt = traj.samples[k]
            aux = {"a": traj.tracked["a"][k], "a_dot": traj.tracked["a_dot"][k],
                   "a0": 1.0}
            rep = symmetry_test(system.with_params(aux), Y, [pt], 1e-9)
            assert rep.passed, rep.residual

    def test_zero_dissipation_matches_lr_generated_symmetry(self, free_oscillator):
        system = free_oscillator
        Y_glr = symmetry_from_invariant(system, glr_invariant(), 0.0)
        Y_lr = symmetry_from_invariant(system, lr_invariant(), 0.0)
        rng = np.random.default_rng(80)
        for pt in sample_points(system, 30, seed=82):
            a = rng.uniform(0.5, 2.0)
            a_dot = rng.uniform(-1.0, 1.0)
            a0 = rng.uniform(0.5, 1.5)
            env_glr = system.env(pt, {"a": a, "a_dot": a_dot, "a0": a0})
            env_lr = system.env(pt, {"rho": a, "rho_dot": a_dot, "rho0": a0**3})
            diff = np.asarray(values(Y_glr.components(), env_glr)) \
                - np.asarray(values(Y_lr.components(), env_lr))
            assert np.max(np.abs(diff)) <= 1e-10


class TestInvariantCatalog:
    def test_sources_unchanged(self, kepler):
        osc = make_harmonic_dissipative(1.0, "1 + 0.4*sin(t)", 0.3)
        h_k = ("(p0^2.0 + p1^2.0 + p2^2.0)/(2.0*m) - 4.0*eps/sqrt(q0^2.0 + q1^2.0 + q2^2.0)")
        h_o = "p0^2.0/(2.0*m) + m/2.0*(1.0 + 0.4*sin(t))*q0^2.0 + g0*S"
        assert f0_invariant(1).source() == "q0*p0 - 2.0*S"
        assert f0_invariant(3).source() == "q0*p0 + q1*p1 + q2*p2 - 2.0*S"
        f1 = [case_invariant(system, KMINUS2_F1, -2.0) for system in (kepler, osc)]
        f2_kepler = case_invariant(kepler, GENERIC_F2, -1.0)
        f2_osc = case_invariant(osc, GENERIC_F2, 0.5)
        assert f1[0].source() == f"q0*p0 + q1*p1 + q2*p2 - 2.0*t*({h_k})"
        assert f1[1].source() == f"q0*p0 - 2.0*t*({h_o})"
        assert f2_kepler.source() == (
            f"0.6666666666666666*(q0*p0 + q1*p1 + q2*p2) - t*({h_k}) - 0.3333333333333333*S")
        assert f2_osc.source() == (
            f"1.3333333333333333*(q0*p0) - t*({h_o}) - 1.6666666666666667*S")
        assert kepler.meta["invariants"]["Q_K"].field.source() == (
            f"2.0*(q0*p0 + q1*p1 + q2*p2) - 3.0*t*({h_k}) - S")
        # each printed source parses back to the same (interned) tree
        for F in (f1[0], f2_osc, f2_kepler):
            assert parse(F.source(), F.n).ast is F.ast


class TestBuiltinRegistry:
    def test_three_builtins(self):
        assert sorted(systems.BUILTIN_DOCS) == ["harmonic-dissipative", "kepler", "td-kepler"]

    def test_make_builtin_dispatch(self):
        assert make_builtin("kepler", {"m": 1.0, "eps": 0.25}).label == "kepler"
        assert make_builtin("td-kepler", {"m": 1.0, "eps": 0.25, "Lambda": 1.0}).label == "td-kepler"
        sys3 = make_builtin("harmonic-dissipative", {"m": 1.0, "f": "1 + t", "g0": 0.1})
        assert sys3.meta["kind"] == "harmonic-dissipative"
        with pytest.raises(KeyError):
            make_builtin("unknown")
