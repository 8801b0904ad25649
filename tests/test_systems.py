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
from contact_noether.expr import parse
from contact_noether.geometry import ContactSystem, ExtendedPoint
from contact_noether.noether import (
    dissipation_residual,
    invariant_from_symmetry,
    max_relative_drift,
    sample_points,
    similarity_test,
    symmetry_test,
)
from contact_noether.systems import (
    AuxiliaryState,
    co_integrate,
    em_invariant,
    em_invariant_closed_form,
    f0_invariant,
    f1_invariant,
    f2_invariant,
    glr_equilibrium,
    glr_invariant,
    glr_symmetry,
    lr_equilibrium,
    lr_invariant,
    make_builtin,
    make_harmonic_dissipative,
    make_kepler,
    make_td_kepler,
)
from contact_noether.scaling import ScalingAnsatz, scaling_generator
from conftest import point


CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)


class TestKepler:
    def test_h_value(self, kepler):
        assert kepler.h_value(point([1, 0, 0], [0, 1, 0])) == pytest.approx(-0.5, abs=1e-15)

    def test_h_value_and_admissible_compile_at_most_once(self, kepler, monkeypatch):
        # h_value uses h's cached compiled function; the guards go through eval_node
        from contact_noether import expr

        codegen, evals = [], []
        real_codegen, real_eval = expr._codegen, expr.ScalarField.eval_env
        monkeypatch.setattr(expr, "_codegen", lambda *a: codegen.append(a) or real_codegen(*a))
        pts = sample_points(kepler, 200, seed=4)
        codegen.clear()
        assert all(kepler.admissible(pt) for pt in pts) and codegen == []
        monkeypatch.setattr(expr.ScalarField, "eval_env",
                            lambda self, env: evals.append(self) or real_eval(self, env))
        values = [kepler.h_value(pt) for pt in pts]
        assert len(codegen) <= 1 and len(evals) == 200
        ref = [expr.eval_node(kepler.h.ast, {**kepler.params, **pt.env()}) for pt in pts]
        assert [v.hex() for v in values] == [v.hex() for v in ref]

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

    def test_k_grav_convention(self):
        assert make_kepler(1.0, eps=0.25).meta["k_grav"] == 1.0
        assert make_kepler(1.0, k_grav=2.0).params["eps"] == 0.5

    def test_scaling_similarity(self, kepler):
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        rep = similarity_test(Y, extended_field(kepler),
                              sample_points(kepler, 100, seed=62), params=kepler.params)
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
        for pt in sample_points(td, 50, seed=64):
            a, b = td.h_value(pt), kep.h_value(pt)
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
        for pt in sample_points(td, 100, seed=66):
            assert abs(dissipation_residual(td, inv, pt)) <= 1e-10
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
        assert system.h_value(pt) == pytest.approx(expected, rel=1e-14)

    def test_time_dependent_h_is_not_dissipated(self):
        system = make_harmonic_dissipative(1.0, "1 + 0.5*t", 0.2)
        res = dissipation_residual(system, system.h, point(1.0, 0.5, S=0.1, t=1.0))
        assert abs(res) > 1e-3  # dh/dt spoils the dissipation equation

    def test_f0_residual_vanishes_for_any_f(self):
        system = make_harmonic_dissipative(1.0, "1 + 0.1*t", 0.2)
        for pt in sample_points(system, 50, seed=68):
            assert dissipation_residual(system, f0_invariant(1), pt) == \
                pytest.approx(0.0, abs=1e-13)

    def test_expected_behaviour_registry(self):
        assert make_harmonic_dissipative(1.0, 1.0, 0.0).meta["invariants"]["F0"].expected \
            == systems.CONSERVED
        assert make_harmonic_dissipative(1.0, 1.0, 0.1).meta["invariants"]["F0"].expected \
            == systems.DISSIPATED


class TestClosedFormSelfTest:
    def test_forms_are_verified_once(self):
        systems._AUX_FORMS_VERIFIED = False
        systems._verify_aux_forms()
        assert systems._AUX_FORMS_VERIFIED

    def test_transcription_slip_fails_loudly(self, monkeypatch):
        real_rates = systems._aux_rates

        def corrupted(which, vals, f_val, g0):
            rates = real_rates(which, vals, f_val, g0)
            if which == "a":
                rates["a_dot"] += 0.1  # simulate a mistyped coefficient
            return rates

        monkeypatch.setattr(systems, "_aux_rates", corrupted)
        monkeypatch.setattr(systems, "_AUX_FORMS_VERIFIED", False)
        with pytest.raises(RuntimeError, match="self-test"):
            systems._verify_aux_forms()
        assert not systems._AUX_FORMS_VERIFIED

    def test_self_test_compiles_each_bundle_once(self):
        # in a fresh interpreter: one bundle per block (the residual field and
        # its two rate columns) for both points, and one function each for f(t)
        # and the six rate templates of _AUX_ODES, parsed once per text
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
        assert out.stdout.strip() == str([1] * 7 + [3] * 3)

    def test_corrupted_ode_table_fails_loudly(self, damped_oscillator, monkeypatch):
        # the table co_integrate integrates is the one the self-test checks
        monkeypatch.setitem(systems._AUX_ODES, "a_dot", systems._AUX_ODES["a_dot"] + " + 0.1")
        monkeypatch.setattr(systems, "_AUX_FORMS_VERIFIED", False)
        with pytest.raises(RuntimeError, match="self-test failed for a"):
            systems._verify_aux_forms()
        assert not systems._AUX_FORMS_VERIFIED
        # and co_integrate picks up the same slip: the equilibrium now drifts
        a_eq, _ = glr_equilibrium(1.0, 0.2, 1.0)
        traj = co_integrate(damped_oscillator, point(1.0, 0.5),
                            AuxiliaryState(use_a=True, a=a_eq), 1.0, CFG)
        assert np.max(np.abs(traj.tracked["a_dot"])) > 1e-2

    def test_residuals_with_consistent_aux_rates(self):
        # F_LR, F_GLR, F_EM satisfy the dissipation equation exactly once the
        # auxiliary time dependence is threaded through
        f = parse("1 + 0.4*sin(t)", 1)
        g0 = 0.3
        system = make_harmonic_dissipative(1.0, f, g0)
        aux = {"a": 1.4, "a_dot": -0.2, "a0": 1.0, "rho0": 1.0, "b": 0.7, "b_dot": 0.5,
               "rho": 1.1, "rho_dot": 0.6}
        for pt in sample_points(system, 20, seed=70):
            f_val = f.eval_env({"t": pt.t})
            for which, field in (("a", glr_invariant()), ("b", em_invariant())):
                rates = systems._aux_rates(which, aux, f_val, g0)
                res = dissipation_residual(system, field, pt, extra=aux, param_rates=rates)
                assert abs(res) <= 1e-11

    def test_linear_combinations_stay_solutions(self):
        system = make_harmonic_dissipative(1.0, 1.0, 0.2)
        a_eq, _ = glr_equilibrium(1.0, 0.2, 1.0)
        extra = {"a": a_eq, "a_dot": 0.0, "a0": 1.0}
        F_em = em_invariant_closed_form(system)
        combo = 0.7 * f0_invariant(1) + 1.3 * glr_invariant() - 2.1 * F_em
        for pt in sample_points(system, 30, seed=72):
            assert abs(dissipation_residual(system, combo, pt, extra=extra)) <= 1e-10


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
        assert np.max(np.abs(traj.tracked["rho"] - rho)) <= 1e-9
        assert max_relative_drift(traj.tracked["F_LR"]) <= 1e-8
        assert max_relative_drift(traj.tracked["F0"]) <= 1e-8

    def test_b_equation_closed_form(self):
        omega = 1.0
        system = make_harmonic_dissipative(1.0, omega**2, 0.0)
        aux = AuxiliaryState(use_b=True, b=1.0, b_dot=0.0)
        traj = co_integrate(system, point(0.3, 1.1), aux, 15.0, CFG,
                            [system.meta["invariants"]["F_EM"]])
        assert traj.error_tag is None
        expected = np.cos(omega * traj.ts)
        assert np.max(np.abs(traj.tracked["b"] - expected)) <= 1e-8
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
            assert glr.eval_env(env) == pytest.approx(lr.eval_env(env_lr), rel=1e-12)

    def test_dissipative_suite_compensated_constants(self, damped_oscillator):
        system = damped_oscillator
        aux = AuxiliaryState(use_a=True, use_b=True)
        invs = [system.meta["invariants"][k] for k in ("F0", "F_GLR", "F_EM")]
        traj = co_integrate(system, point(1.0, 0.5), aux, 20.0, CFG, invs)
        assert traj.error_tag is None
        comp = np.exp(0.2 * traj.ts)
        for label in ("F0", "F_GLR", "F_EM"):
            assert max_relative_drift(traj.tracked[label] * comp) <= 1e-6
        assert max_relative_drift(traj.tracked["F_GLR"] / traj.tracked["F0"]) <= 1e-6
        assert max_relative_drift(traj.tracked["F_EM"] / traj.tracked["F0"]) <= 1e-6

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
        assert np.all((traj.tracked["rho"] > 1e-6) & (traj.tracked["rho"] < 1e6))

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
        Y = glr_symmetry(system)
        F = invariant_from_symmetry(system, Y)
        G = glr_invariant()
        rng = np.random.default_rng(76)
        for pt in sample_points(system, 50, seed=78):
            aux = {"a": rng.uniform(0.5, 2.0), "a_dot": rng.uniform(-1, 1), "a0": 1.0}
            env = system.env(pt, aux)
            assert abs(F.eval_env(env) - G.eval_env(env)) <= \
                1e-10 * max(1.0, abs(G.eval_env(env)))

    def test_symmetry_along_co_integrated_flow(self, damped_oscillator):
        system = damped_oscillator
        f_field, g0 = system.meta["f"], system.meta["g0"]
        aux0 = AuxiliaryState(use_a=True)
        traj = co_integrate(system, point(1.0, 0.5), aux0, 5.0, CFG)
        Y = glr_symmetry(system)
        for k in range(1, len(traj.samples), max(1, len(traj.samples) // 12)):
            pt = traj.samples[k]
            aux = {"a": traj.tracked["a"][k], "a_dot": traj.tracked["a_dot"][k],
                   "a0": 1.0}
            f_val = f_field.eval_env({"t": pt.t})
            rates = systems._aux_rates("a", aux, f_val, g0)
            rep = symmetry_test(system, Y, [pt], 1e-9, extra=aux, param_rates=rates)
            assert rep.passed, rep.residual

    def test_zero_dissipation_matches_lr_generated_symmetry(self, free_oscillator):
        from contact_noether.noether import symmetry_from_invariant
        system = free_oscillator
        Y_glr = glr_symmetry(system)
        Y_lr = symmetry_from_invariant(system, lr_invariant(), 0.0)
        rng = np.random.default_rng(80)
        for pt in sample_points(system, 30, seed=82):
            a = rng.uniform(0.5, 2.0)
            a_dot = rng.uniform(-1.0, 1.0)
            a0 = rng.uniform(0.5, 1.5)
            env_glr = system.env(pt, {"a": a, "a_dot": a_dot, "a0": a0})
            env_lr = system.env(pt, {"rho": a, "rho_dot": a_dot, "rho0": a0**3})
            diff = Y_glr.eval(env_glr) - Y_lr.eval(env_lr)
            assert np.max(np.abs(diff)) <= 1e-10


class TestInvariantCatalog:
    def test_sources_unchanged(self, kepler):
        osc = make_harmonic_dissipative(1.0, "1 + 0.4*sin(t)", 0.3)
        h_k = ("(p0^2.0 + p1^2.0 + p2^2.0)/(2.0*m) - 4.0*eps/sqrt(q0^2.0 + q1^2.0 + q2^2.0)")
        h_o = "p0^2.0/(2.0*m) + m/2.0*(1.0 + 0.4*sin(t))*q0^2.0 + g0*S"
        assert f0_invariant(1).source() == "q0*p0 - 2.0*S"
        assert f0_invariant(3).source() == "q0*p0 + q1*p1 + q2*p2 - 2.0*S"
        assert f1_invariant(kepler).source() == f"q0*p0 + q1*p1 + q2*p2 - 2.0*t*({h_k})"
        assert f1_invariant(osc).source() == f"q0*p0 - 2.0*t*({h_o})"
        assert f2_invariant(kepler, -1.0).source() == (
            f"0.6666666666666666*(q0*p0 + q1*p1 + q2*p2) - t*({h_k}) - 0.3333333333333333*S")
        assert f2_invariant(osc, 0.5).source() == (
            f"1.3333333333333333*(q0*p0) - t*({h_o}) - 1.6666666666666667*S")
        assert kepler.meta["invariants"]["Q_K"].field.source() == (
            f"2.0*(q0*p0 + q1*p1 + q2*p2) - 3.0*t*({h_k}) - S")
        # each printed source parses back to the same (interned) tree
        for F in (f1_invariant(kepler), f2_invariant(osc, 0.5), f2_invariant(kepler, -1.0)):
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
