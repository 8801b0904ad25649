import numpy as np
import pytest

from contact_noether.dynamics import IntegratorConfig, extended_field, integrate
from contact_noether.expr import number, parse
from contact_noether.geometry import (
    ContactSystem,
    VectorFieldSpec,
    lie_bracket,
)
from contact_noether.noether import (
    DYNAMICAL_SYMMETRY,
    GENERALIZED_NOETHER,
    NEITHER,
    NOT_SYMMETRY,
    SIMILARITY,
    DegeneratePoint,
    DivisionNearZero,
    closure_check,
    contact_bracket_defect,
    dissipation_compensation,
    dissipation_residual,
    invariant_from_symmetry,
    max_relative_drift,
    noether_lambda,
    ratio_invariant,
    sample_points,
    similarity_test,
    symmetry_from_invariant,
    symmetry_test,
)
from contact_noether.scaling import ScalingAnsatz, scaling_generator
from contact_noether.systems import f0_invariant, lr_invariant, lr_equilibrium
from conftest import point
from randfields import central_fd


def zero_field(n):
    return VectorFieldSpec.zero(n)


def vertical_field(system):
    """h * d/dS on the system's extended space."""
    z = number(0.0, system.n)
    return VectorFieldSpec((z,) * system.n, (z,) * system.n, system.h, z)


class TestDissipationResidual:
    def test_symplectic_conserved_momentum(self):
        sys1 = ContactSystem(n=1, h=parse("p0^2/2", 1))
        assert dissipation_residual(sys1, parse("p0", 1), point(0.4, 1.7)) == 0.0

    def test_kepler_scaling_invariant(self, kepler):
        F = parse("(2/3)*(q0*p0+q1*p1+q2*p2) - t*((p0^2+p1^2+p2^2)/2 "
                  "- 1/sqrt(q0^2+q1^2+q2^2)) - S/3", 3)
        res = dissipation_residual(kepler, F, point([1, 0, 0], [0, 1, 0]))
        assert abs(res) <= 1e-12

    def test_f0_on_dissipative_oscillator_at_seeded_points(self):
        from contact_noether.systems import make_harmonic_dissipative
        system = make_harmonic_dissipative(1.0, 1.0, 0.5)
        F0 = f0_invariant(1)
        for pt in sample_points(system, 100, seed=17):
            assert abs(dissipation_residual(system, F0, pt)) <= 1e-12

    def test_f0_residual_is_f_independent(self):
        from contact_noether.systems import make_harmonic_dissipative
        system = make_harmonic_dissipative(1.0, "1 + 0.1*t", 0.2)
        F0 = f0_invariant(1)
        for pt in sample_points(system, 50, seed=19):
            assert dissipation_residual(system, F0, pt) == pytest.approx(0.0, abs=1e-13)

    def test_nonzero_residual_matches_finite_difference_oracle(self):
        # S- and t-dependent oscillator, non-invariant F: every term of
        # X_h^t(F) + R(h) F is live and the residual is far from zero
        from contact_noether.systems import make_harmonic_dissipative
        system = make_harmonic_dissipative(1.3, "1 + 0.4*sin(t)", 0.35)
        F = parse("q0*p0^2 + S*t + sin(q0*S) + exp(0.3*t)*p0", 1)
        X = extended_field(system)
        for pt in sample_points(system, 25, seed=81):
            env = system.env(pt)
            grad = np.array([central_fd(F, nm, env, 1e-6) for nm in ("q0", "p0", "S", "t")])
            expected = float(X.eval(env) @ grad) + system.h_S.eval_env(env) * F.eval_env(env)
            assert abs(expected) > 1e-3
            assert dissipation_residual(system, F, pt) == pytest.approx(expected, rel=1e-6)


class TestInvariantFromSymmetry:
    def test_flow_field_gives_zero(self, kepler):
        F = invariant_from_symmetry(kepler, extended_field(kepler))
        for pt in sample_points(kepler, 30, seed=2):
            assert abs(F.eval_env(kepler.env(pt))) <= 1e-12

    def test_kepler_scaling_generator(self, kepler):
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        F = invariant_from_symmetry(kepler, Y)
        QK = kepler.meta["invariants"]["Q_K"].field
        for pt in sample_points(kepler, 50, seed=4):
            env = kepler.env(pt)
            assert F.eval_env(env) == pytest.approx(QK.eval_env(env), rel=1e-12, abs=1e-12)

    def test_vertical_scaling_reads_off_eta(self):
        sys1 = ContactSystem(n=1, h=parse("p0^2/2", 1))
        gamma = 1.7
        z = number(0.0, 1)
        Y = VectorFieldSpec((z,), (z,), gamma * parse("S", 1), z)
        F = invariant_from_symmetry(sys1, Y)
        assert F.eval_env({"q0": 0.0, "p0": 0.0, "S": 2.0, "t": 0.0}) == pytest.approx(-gamma * 2.0)


class TestSymmetryFromInvariant:
    def test_round_trip(self, kepler):
        QK = kepler.meta["invariants"]["Q_K"].field
        pts = sample_points(kepler, 100, seed=8)
        for yt_src in ("0", "t", "3*t"):
            Y = symmetry_from_invariant(kepler, QK, parse(yt_src, 3))
            F = invariant_from_symmetry(kepler, Y)
            for pt in pts:
                env = kepler.env(pt)
                assert abs(F.eval_env(env) - QK.eval_env(env)) <= \
                    1e-12 * max(1.0, abs(QK.eval_env(env)))

    def test_kepler_scaling_generator_recovered(self, kepler):
        QK = kepler.meta["invariants"]["Q_K"].field
        Y = symmetry_from_invariant(kepler, QK, parse("3*t", 3))
        expected = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        for pt in sample_points(kepler, 50, seed=10):
            env = kepler.env(pt)
            assert np.allclose(Y.eval(env), expected.eval(env), rtol=1e-11, atol=1e-11)

    def test_zero_invariant_gives_pure_gauge(self, kepler):
        Yt = parse("t^2 - 2", 3)
        Y = symmetry_from_invariant(kepler, number(0.0, 3), Yt)
        X = extended_field(kepler)
        for pt in sample_points(kepler, 30, seed=12):
            env = kepler.env(pt)
            yt = Yt.eval_env(env)
            assert np.allclose(Y.eval(env), yt * X.eval(env), rtol=1e-12, atol=1e-12)


class TestSymmetryTest:
    def test_constructed_symmetry_passes(self):
        from contact_noether.systems import make_harmonic_dissipative
        system = make_harmonic_dissipative(1.0, 1.0, 0.5)
        Y = symmetry_from_invariant(system, f0_invariant(1), 0.0)
        rep = symmetry_test(system, Y, sample_points(system, 100, seed=14), 1e-10)
        assert rep.verdict == GENERALIZED_NOETHER
        assert rep.residual <= 1e-10
        # lambda = -Yt dh/dS - dF0/dS = 0 + 2
        assert np.allclose(rep.lambda_at_samples, 2.0, atol=1e-12)

    def test_vertical_rescaling_is_not_a_symmetry(self, kepler):
        rep = symmetry_test(kepler, vertical_field(kepler),
                            sample_points(kepler, 50, seed=16))
        assert rep.verdict == NOT_SYMMETRY

    def test_zero_field_passes_with_zero_lambda(self, kepler):
        rep = symmetry_test(kepler, zero_field(3), sample_points(kepler, 20, seed=18))
        assert rep.verdict == GENERALIZED_NOETHER
        assert np.allclose(rep.lambda_at_samples, 0.0)


class TestSimilarityTest:
    def test_kepler_scalings_contact_level(self, kepler):
        from contact_noether.dynamics import contact_field
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 0.0), 3)
        rep = similarity_test(Y, contact_field(kepler),
                              sample_points(kepler, 100, seed=20),
                              params=kepler.params)
        assert rep.verdict == SIMILARITY
        assert np.allclose(rep.Lambda_at_samples, -3.0, atol=1e-9)
        assert rep.residual <= 1e-9

    def test_kepler_scalings_extended_level(self, kepler):
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        rep = similarity_test(Y, extended_field(kepler),
                              sample_points(kepler, 100, seed=21),
                              params=kepler.params)
        assert rep.verdict == SIMILARITY
        assert np.allclose(rep.Lambda_at_samples, -3.0, atol=1e-9)

    def test_vertical_rescaling_is_dynamical_symmetry(self, kepler):
        rep = similarity_test(vertical_field(kepler), extended_field(kepler),
                              sample_points(kepler, 50, seed=22),
                              params=kepler.params)
        assert rep.verdict == DYNAMICAL_SYMMETRY
        assert np.allclose(rep.Lambda_at_samples, 0.0, atol=1e-12)

    def test_field_with_itself(self, kepler):
        X = extended_field(kepler)
        rep = similarity_test(X, X, sample_points(kepler, 20, seed=24),
                              params=kepler.params)
        assert rep.verdict == DYNAMICAL_SYMMETRY

    def test_degenerate_point_raises(self):
        sys1 = ContactSystem(n=1, h=parse("p0^2/2", 1))
        X = contact_field_zero = VectorFieldSpec.zero(1)
        with pytest.raises(DegeneratePoint):
            similarity_test(zero_field(1), X, [point(0.0, 0.0)])

    def test_non_similarity_is_neither(self, kepler):
        z = number(0.0, 3)
        Y = VectorFieldSpec((parse("q0^2", 3), z, z), (z, z, z), z, z)
        rep = similarity_test(Y, extended_field(kepler),
                              sample_points(kepler, 20, seed=26),
                              params=kepler.params)
        assert rep.verdict == NEITHER


class TestGaugeFreedom:
    def test_adding_gauge_term_preserves_invariant(self, kepler):
        QK = kepler.meta["invariants"]["Q_K"].field
        gauge = extended_field(kepler).scaled(parse("7*t", 3))
        for yt_src in ("0", "t", "3*t"):
            Y = symmetry_from_invariant(kepler, QK, parse(yt_src, 3))
            F1 = invariant_from_symmetry(kepler, Y)
            F2 = invariant_from_symmetry(kepler, Y + gauge)
            for pt in sample_points(kepler, 40, seed=28):
                env = kepler.env(pt)
                a, b = F1.eval_env(env), F2.eval_env(env)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestTheoremProperties:
    """The two implications, plus the kernel lemma and the similarity
    inclusion, exercised on constructed symmetries."""

    def _symmetries(self, kepler):
        QK = kepler.meta["invariants"]["Q_K"].field
        H = kepler.h
        yield symmetry_from_invariant(kepler, QK, parse("3*t", 3))
        yield symmetry_from_invariant(kepler, H, 0.0)  # h itself is dissipated (t-indep)
        yield symmetry_from_invariant(kepler, QK + 2.0 * H, parse("t", 3))
        yield zero_field(3)

    def test_forward_direction(self, kepler):
        pts = sample_points(kepler, 60, seed=30)
        for Y in self._symmetries(kepler):
            assert symmetry_test(kepler, Y, pts, 1e-9).passed
            F = invariant_from_symmetry(kepler, Y)
            for pt in pts:
                assert abs(dissipation_residual(kepler, F, pt)) <= 1e-8

    def test_inverse_direction_with_lambda(self, kepler):
        pts = sample_points(kepler, 60, seed=32)
        QK = kepler.meta["invariants"]["Q_K"].field
        for yt_src in ("0", "t", "3*t", "t^2 - 1"):
            Yt = parse(yt_src, 3)
            Y = symmetry_from_invariant(kepler, QK, Yt)
            rep = symmetry_test(kepler, Y, pts, 1e-9)
            assert rep.passed
            lam = noether_lambda(kepler, QK, Yt)
            for k, pt in enumerate(pts):
                assert rep.lambda_at_samples[k] == pytest.approx(
                    lam.eval_env(kepler.env(pt)), abs=1e-9)

    def test_kernel_lemma(self, kepler):
        # iota_[Y, X_h^t] eta_E = 0 for any generalized Noether symmetry
        X = extended_field(kepler)
        pts = sample_points(kepler, 60, seed=34)
        n = 3
        for Y in self._symmetries(kepler):
            B = lie_bracket(Y, X)
            for pt in pts:
                env = kepler.env(pt)
                bv = B.eval(env)
                h = kepler.h_value(pt)
                val = bv[2 * n] - float(pt.p @ bv[:n]) + h * bv[2 * n + 1]
                assert abs(val) <= 1e-9 * max(1.0, float(np.max(np.abs(bv))))

    def test_symmetries_are_similarities(self, kepler):
        pts = sample_points(kepler, 40, seed=36)
        X = extended_field(kepler)
        for Y in self._symmetries(kepler):
            env0 = kepler.env(pts[0])
            if np.max(np.abs(Y.eval(env0))) < 1e-12:
                continue  # zero field: trivially a similarity
            rep = similarity_test(Y, X, pts, 1e-8, params=kepler.params)
            assert rep.passed

    def test_converse_fails_for_vertical_rescaling(self, kepler):
        pts = sample_points(kepler, 40, seed=38)
        Y = vertical_field(kepler)
        sim = similarity_test(Y, extended_field(kepler), pts, params=kepler.params)
        assert sim.verdict == DYNAMICAL_SYMMETRY
        assert symmetry_test(kepler, Y, pts).verdict == NOT_SYMMETRY

    def test_contact_level_scalings_fail_noether_obstruction(self, kepler):
        # the non-extended scaling generator is a similarity but not a
        # contact Noether symmetry: iota_[X_h, Y] eta = 3h != 0
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 0.0), 3)
        pts = sample_points(kepler, 40, seed=40)
        defect = contact_bracket_defect(kepler, Y, pts)
        hmin = min(abs(kepler.h_value(pt)) for pt in pts)
        assert defect > hmin


class TestRatioInvariant:
    def test_equal_fields_give_one(self):
        F = parse("q0*p0 - 2*S", 1)
        r = ratio_invariant(F, F)
        assert r.eval_env({"q0": 1.0, "p0": 2.0, "S": 0.4, "t": 0.0}) == 1.0

    def test_near_zero_denominator_raises(self):
        r = ratio_invariant(parse("1", 1), parse("S", 1))
        with pytest.raises(DivisionNearZero):
            r.eval_env({"S": 1e-13})

    def test_dissipated_over_h_conserved_along_flow(self):
        # h t-independent but S-dependent: F/h is conserved even though both
        # F and h decay
        sys1 = ContactSystem(n=1, h=parse("p0^2/2 + q0^2/2 + 0.3*S", 1))
        F0 = f0_invariant(1)
        r = ratio_invariant(F0, sys1.h)
        traj = integrate(sys1, extended_field(sys1), point(1.0, 0.6, S=0.2), 10.0,
                         IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12),
                         tracked={"ratio": r})
        assert max_relative_drift(traj.tracked["ratio"]) <= 1e-6


class TestClosure:
    def test_self_bracket(self, kepler):
        QK = kepler.meta["invariants"]["Q_K"].field
        Y = symmetry_from_invariant(kepler, QK, 0.0)
        rep = closure_check(kepler, Y, Y, sample_points(kepler, 20, seed=42))
        assert rep.passed
        assert np.allclose(rep.lambda_at_samples, 0.0, atol=1e-12)

    def test_f0_with_lewis_riesenfeld(self, free_oscillator):
        system = free_oscillator
        rho, rho_dot = lr_equilibrium(1.0, 1.0)
        extra = {"rho": rho, "rho_dot": rho_dot, "rho0": 1.0}
        Y1 = symmetry_from_invariant(system, f0_invariant(1), 0.0)
        Y2 = symmetry_from_invariant(system, lr_invariant(), 0.0)
        lam1 = noether_lambda(system, f0_invariant(1), 0.0)
        lam2 = noether_lambda(system, lr_invariant(), 0.0)
        pts = sample_points(system, 100, seed=44)
        rep = closure_check(system, Y1, Y2, pts, 1e-8, lam1, lam2, extra=extra)
        assert rep.passed
        assert rep.lambda_defect is not None and rep.lambda_defect <= 1e-8

    def test_gauge_partner_stays_in_algebra(self, kepler):
        QK = kepler.meta["invariants"]["Q_K"].field
        Y1 = symmetry_from_invariant(kepler, QK, 0.0)
        Y2 = extended_field(kepler).scaled(parse("2*t", 3))  # pure gauge
        rep = closure_check(kepler, Y1, Y2, sample_points(kepler, 40, seed=46), 1e-8)
        assert rep.passed


class TestDissipatedAlongFlow:
    def test_compensated_invariant_constant(self):
        from contact_noether.systems import make_harmonic_dissipative
        g0 = 0.3
        system = make_harmonic_dissipative(1.0, 1.0, g0)
        F0 = f0_invariant(1)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(system, extended_field(system), point(1.0, 0.4, S=0.1),
                         12.0, cfg, tracked={"F0": F0})
        comp = dissipation_compensation(system, traj)
        assert np.allclose(comp, np.exp(g0 * traj.ts), rtol=1e-10)
        series = traj.tracked["F0"] * comp
        assert max_relative_drift(series) <= 10 * 1e-7
