from unittest import mock

import numpy as np
import pytest

from contact_noether.dynamics import IntegratorConfig, extended_field, integrate
from contact_noether.expr import DomainError, number, parse, substitute
from contact_noether.geometry import (
    ContactSystem,
    ExtendedPoint,
    LieDerivativeEta,
    SampleBox,
    VectorFieldSpec,
    lie_bracket,
    point_bundle,
)
from contact_noether.noether import (
    DYNAMICAL_SYMMETRY,
    GENERALIZED_NOETHER,
    NEITHER,
    NOT_SYMMETRY,
    SIMILARITY,
    DegeneratePoint,
    _uniform_draws,
    closure_check,
    dissipation_compensation,
    dissipation_field,
    dissipation_residual,
    max_relative_drift,
    noether_lambda,
    residual_at,
    sample_points,
    similarity_test,
    symmetry_from_invariant,
    symmetry_test,
)
from contact_noether.scaling import ScalingAnsatz, scaling_generator
from contact_noether.systems import (f0_invariant, lr_invariant, make_harmonic_dissipative,
                                     make_kepler, make_td_kepler)
from conftest import point, value
from oracles import contact_bracket_defect, invariant_from_symmetry, lr_equilibrium
from randfields import PARAM_NAMES, central_fd, random_field


def zero_field(n):
    return VectorFieldSpec.zero(n)


def vertical_field(system):
    """h * d/dS on the system's extended space."""
    z = number(0.0, system.n)
    return VectorFieldSpec((z,) * system.n, (z,) * system.n, system.h, z)


class TestDissipationResidual:
    def test_symplectic_conserved_momentum(self):
        sys1 = ContactSystem(n=1, h=parse("p0^2/2", 1))
        assert residual_at(sys1, parse("p0", 1))(point(0.4, 1.7)) == 0.0

    def test_one_point_wrappers_compile_at_most_once(self, kepler):
        # the shims the benchmark hooks build their bundle on each call, from
        # the same shape, so the compiled code is reused; values are the bundles'
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        F = invariant_from_symmetry(kepler, Y)
        pts = sample_points(kepler, 200, seed=8)
        form, residual = LieDerivativeEta(kepler, Y), residual_at(kepler, F)
        at = point_bundle(form.form, kepler.params)
        for wrapper, bundle in ((lambda pt: dissipation_residual(kepler, F, pt), residual),
                                (form, lambda pt: list(at(pt)))):
            with mock.patch("builtins.compile", wraps=compile) as spy:
                for pt in pts:
                    assert wrapper(pt) == bundle(pt)
            assert spy.call_count <= 1

    def test_kepler_scaling_invariant(self, kepler):
        F = parse("(2/3)*(q0*p0+q1*p1+q2*p2) - t*((p0^2+p1^2+p2^2)/2 "
                  "- 1/sqrt(q0^2+q1^2+q2^2)) - S/3", 3)
        res = residual_at(kepler, F)(point([1, 0, 0], [0, 1, 0]))
        assert abs(res) <= 1e-12

    def test_f0_on_dissipative_oscillator_at_seeded_points(self):
        from contact_noether.systems import make_harmonic_dissipative
        system = make_harmonic_dissipative(1.0, 1.0, 0.5)
        residual = residual_at(system, f0_invariant(1))
        for pt in sample_points(system, 100, seed=17):
            assert abs(residual(pt)) <= 1e-12

    def test_f0_residual_is_f_independent(self):
        from contact_noether.systems import make_harmonic_dissipative
        system = make_harmonic_dissipative(1.0, "1 + 0.1*t", 0.2)
        residual = residual_at(system, f0_invariant(1))
        for pt in sample_points(system, 50, seed=19):
            assert residual(pt) == pytest.approx(0.0, abs=1e-13)

    def test_nonzero_residual_matches_finite_difference_oracle(self):
        # S- and t-dependent oscillator, non-invariant F: every term of
        # X_h^t(F) + R(h) F is live and the residual is far from zero
        from contact_noether.systems import make_harmonic_dissipative
        system = make_harmonic_dissipative(1.3, "1 + 0.4*sin(t)", 0.35)
        F = parse("q0*p0^2 + S*t + sin(q0*S) + exp(0.3*t)*p0", 1)
        at = point_bundle([*extended_field(system).components(), system.h_S, F], system.params)
        residual = residual_at(system, F)
        for pt in sample_points(system, 25, seed=81):
            env = system.env(pt)
            grad = np.array([central_fd(F, nm, env, 1e-6) for nm in ("q0", "p0", "S", "t")])
            *xv, hS, f = at(pt)
            expected = float(np.asarray(xv) @ grad) + hS * f
            assert abs(expected) > 1e-3
            assert residual(pt) == pytest.approx(expected, rel=1e-6)


class TestInvariantFromSymmetry:
    def test_flow_field_gives_zero(self, kepler):
        F = invariant_from_symmetry(kepler, extended_field(kepler))
        at = point_bundle([F], kepler.params)
        for pt in sample_points(kepler, 30, seed=2):
            assert abs(at(pt)[0]) <= 1e-12

    def test_kepler_scaling_generator(self, kepler):
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        F = invariant_from_symmetry(kepler, Y)
        QK = kepler.meta["invariants"]["Q_K"].field
        at = point_bundle([F, QK], kepler.params)
        for pt in sample_points(kepler, 50, seed=4):
            f, qk = at(pt)
            assert f == pytest.approx(qk, rel=1e-12, abs=1e-12)

    def test_vertical_scaling_reads_off_eta(self):
        sys1 = ContactSystem(n=1, h=parse("p0^2/2", 1))
        gamma = 1.7
        z = number(0.0, 1)
        Y = VectorFieldSpec((z,), (z,), gamma * parse("S", 1), z)
        F = invariant_from_symmetry(sys1, Y)
        assert value(F, {"q0": 0.0, "p0": 0.0, "S": 2.0, "t": 0.0}) == pytest.approx(-gamma * 2.0)


class TestSymmetryFromInvariant:
    def test_round_trip(self, kepler):
        QK = kepler.meta["invariants"]["Q_K"].field
        pts = sample_points(kepler, 100, seed=8)
        for yt_src in ("0", "t", "3*t"):
            Y = symmetry_from_invariant(kepler, QK, parse(yt_src, 3))
            at = point_bundle([invariant_from_symmetry(kepler, Y), QK], kepler.params)
            for pt in pts:
                f, qk = at(pt)
                assert abs(f - qk) <= 1e-12 * max(1.0, abs(qk))

    def test_kepler_scaling_generator_recovered(self, kepler):
        QK = kepler.meta["invariants"]["Q_K"].field
        Y = symmetry_from_invariant(kepler, QK, parse("3*t", 3))
        expected = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        at = point_bundle([*Y.components(), *expected.components()], kepler.params)
        for pt in sample_points(kepler, 50, seed=10):
            y, e = np.split(np.asarray(at(pt)), 2)
            assert np.allclose(y, e, rtol=1e-11, atol=1e-11)

    def test_zero_invariant_gives_pure_gauge(self, kepler):
        Yt = parse("t^2 - 2", 3)
        Y = symmetry_from_invariant(kepler, number(0.0, 3), Yt)
        at = point_bundle([Yt, *Y.components(), *extended_field(kepler).components()],
                          kepler.params)
        for pt in sample_points(kepler, 30, seed=12):
            yt, *v = at(pt)
            y, x = np.split(np.asarray(v), 2)
            assert np.allclose(y, yt * x, rtol=1e-12, atol=1e-12)


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
                              system=kepler)
        assert rep.verdict == SIMILARITY
        assert np.allclose(rep.Lambda_at_samples, -3.0, atol=1e-9)
        assert rep.residual <= 1e-9

    def test_kepler_scalings_extended_level(self, kepler):
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        rep = similarity_test(Y, extended_field(kepler),
                              sample_points(kepler, 100, seed=21),
                              system=kepler)
        assert rep.verdict == SIMILARITY
        assert np.allclose(rep.Lambda_at_samples, -3.0, atol=1e-9)

    def test_vertical_rescaling_is_dynamical_symmetry(self, kepler):
        rep = similarity_test(vertical_field(kepler), extended_field(kepler),
                              sample_points(kepler, 50, seed=22),
                              system=kepler)
        assert rep.verdict == DYNAMICAL_SYMMETRY
        assert np.allclose(rep.Lambda_at_samples, 0.0, atol=1e-12)

    def test_field_with_itself(self, kepler):
        X = extended_field(kepler)
        rep = similarity_test(X, X, sample_points(kepler, 20, seed=24),
                              system=kepler)
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
                              system=kepler)
        assert rep.verdict == NEITHER


class TestGaugeFreedom:
    def test_adding_gauge_term_preserves_invariant(self, kepler):
        QK = kepler.meta["invariants"]["Q_K"].field
        gauge = extended_field(kepler).scaled(parse("7*t", 3))
        for yt_src in ("0", "t", "3*t"):
            Y = symmetry_from_invariant(kepler, QK, parse(yt_src, 3))
            F1 = invariant_from_symmetry(kepler, Y)
            F2 = invariant_from_symmetry(kepler, Y + gauge)
            at = point_bundle([F1, F2], kepler.params)
            for pt in sample_points(kepler, 40, seed=28):
                a, b = at(pt)
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
            residual = residual_at(kepler, invariant_from_symmetry(kepler, Y))
            for pt in pts:
                assert abs(residual(pt)) <= 1e-8

    def test_inverse_direction_with_lambda(self, kepler):
        pts = sample_points(kepler, 60, seed=32)
        QK = kepler.meta["invariants"]["Q_K"].field
        for yt_src in ("0", "t", "3*t", "t^2 - 1"):
            Yt = parse(yt_src, 3)
            Y = symmetry_from_invariant(kepler, QK, Yt)
            rep = symmetry_test(kepler, Y, pts, 1e-9)
            assert rep.passed
            lam = point_bundle([noether_lambda(kepler, QK, Yt)], kepler.params)
            for k, pt in enumerate(pts):
                assert rep.lambda_at_samples[k] == pytest.approx(lam(pt)[0], abs=1e-9)

    def test_kernel_lemma(self, kepler):
        # iota_[Y, X_h^t] eta_E = 0 for any generalized Noether symmetry
        X = extended_field(kepler)
        pts = sample_points(kepler, 60, seed=34)
        n = 3
        for Y in self._symmetries(kepler):
            at = point_bundle([*lie_bracket(Y, X).components(), kepler.h], kepler.params)
            for pt in pts:
                *bv, h = at(pt)
                bv = np.asarray(bv)
                val = bv[2 * n] - float(np.asarray(pt.p) @ bv[:n]) + h * bv[2 * n + 1]
                assert abs(val) <= 1e-9 * max(1.0, float(np.max(np.abs(bv))))

    def test_symmetries_are_similarities(self, kepler):
        pts = sample_points(kepler, 40, seed=36)
        X = extended_field(kepler)
        for Y in self._symmetries(kepler):
            if max(map(abs, point_bundle(Y.components(), kepler.params)(pts[0]))) < 1e-12:
                continue  # zero field: trivially a similarity
            rep = similarity_test(Y, X, pts, 1e-8, system=kepler)
            assert rep.passed

    def test_converse_fails_for_vertical_rescaling(self, kepler):
        pts = sample_points(kepler, 40, seed=38)
        Y = vertical_field(kepler)
        sim = similarity_test(Y, extended_field(kepler), pts, system=kepler)
        assert sim.verdict == DYNAMICAL_SYMMETRY
        assert symmetry_test(kepler, Y, pts).verdict == NOT_SYMMETRY

    def test_contact_level_scalings_fail_noether_obstruction(self, kepler):
        # the non-extended scaling generator is a similarity but not a
        # contact Noether symmetry: iota_[X_h, Y] eta = 3h != 0
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 0.0), 3)
        pts = sample_points(kepler, 40, seed=40)
        defect = contact_bracket_defect(kepler, Y, pts)
        h_at = point_bundle([kepler.h], kepler.params)
        hmin = min(abs(h_at(pt)[0]) for pt in pts)
        assert defect > hmin


class TestNaNFails:
    """A NaN at any sample fails the check and is reported, wherever it falls
    in the sample order: (a*q0)*(a*q0) - (a*q0)*(a*q0) is inf - inf."""

    @staticmethod
    def overflowing_field(slot=0):
        # component `slot` of Y, in coordinate_names order; slots past 0 put
        # the NaN after finite components of L_Y eta_E or of [Y, X]
        components = [number(0.0, 3)] * 8
        components[slot] = parse("(1e200*q0)*(1e200*q0) - (1e200*q0)*(1e200*q0)", 3)
        return VectorFieldSpec(components[:3], components[3:6], *components[6:])

    @pytest.mark.parametrize("slot", [0, 4])
    def test_symmetry_test(self, kepler, slot):
        rep = symmetry_test(kepler, self.overflowing_field(slot), sample_points(kepler, 5, 0))
        assert rep.verdict == NOT_SYMMETRY and np.isnan(rep.residual)

    @pytest.mark.parametrize("slot", [0, 7])
    def test_similarity_test(self, kepler, slot):
        rep = similarity_test(self.overflowing_field(slot), extended_field(kepler),
                              sample_points(kepler, 5, 0), system=kepler)
        assert rep.verdict == NEITHER and np.isnan(rep.residual)

    def test_contact_bracket_defect(self, kepler):
        Y = self.overflowing_field()
        assert np.isnan(contact_bracket_defect(kepler, Y, sample_points(kepler, 5, 0)))

    def test_nan_after_a_finite_sample(self, kepler):
        # the proportionality residual is NaN only where |q0| overflows 1e154*q0 squared
        zero = number(0.0, 3)
        Yq0 = parse("(1e154*q0)*(1e154*q0) - (1e154*q0)*(1e154*q0)", 3)
        Y = VectorFieldSpec((Yq0, zero, zero), (zero,) * 3, zero, zero)
        pts = sample_points(kepler, 5, 0)
        assert abs(pts[0].q[0]) < 1.3 and max(abs(pt.q[0]) for pt in pts) > 1.4
        assert np.isnan(symmetry_test(kepler, Y, pts).residual)
        assert np.isnan(contact_bracket_defect(kepler, Y, pts))


class TestRatioInvariant:
    def test_equal_fields_give_one(self):
        F = parse("q0*p0 - 2*S", 1)
        r = F / F
        assert value(r, {"q0": 1.0, "p0": 2.0, "S": 0.4, "t": 0.0}) == 1.0

    def test_zero_denominator_is_a_domain_error(self):
        # the 1e-12 mask lives in the cli ratio check only
        r = parse("1", 1) / parse("S", 1)
        assert value(r, {"S": 1e-13}) == 1.0 / 1e-13
        with pytest.raises(DomainError):
            value(r, {"S": 0.0})

    def test_dissipated_over_h_conserved_along_flow(self):
        # h t-independent but S-dependent: F/h is conserved even though both
        # F and h decay
        sys1 = ContactSystem(n=1, h=parse("p0^2/2 + q0^2/2 + 0.3*S", 1))
        F0 = f0_invariant(1)
        r = F0 / sys1.h
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
        rep = closure_check(system.with_params(extra), Y1, Y2, pts, 1e-8, lam1, lam2)
        assert rep.passed
        assert rep.lambda_defect is not None and rep.lambda_defect <= 1e-8

    def test_gauge_partner_stays_in_algebra(self, kepler):
        QK = kepler.meta["invariants"]["Q_K"].field
        Y1 = symmetry_from_invariant(kepler, QK, 0.0)
        Y2 = extended_field(kepler).scaled(parse("2*t", 3))  # pure gauge
        rep = closure_check(kepler, Y1, Y2, sample_points(kepler, 40, seed=46), 1e-8)
        assert rep.passed


class TestSeededDraws:
    """The pure-Python sampler draws what numpy's default_rng(seed).uniform
    draws, bit for bit."""

    SEEDS = [*range(60), 2**32 + 5, 2**70 + 3, 123456789]

    @staticmethod
    def hexes(values):
        return [float(v).hex() for v in values]

    def test_uniform_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        for seed in self.SEEDS:
            uniform, rng = _uniform_draws(seed), numpy.random.default_rng(seed)
            for batch in range(80):
                lo, hi = -2.0 + 0.1 * batch, 0.5 + 0.3 * batch
                size = 1 + batch % 4
                got = [uniform(lo, hi) for _ in range(size)]
                assert self.hexes(got) == self.hexes(rng.uniform(lo, hi, size)), (seed, batch)

    @staticmethod
    def numpy_sample_points(numpy, system, count, seed):
        """sample_points as it was written on numpy's generator."""
        box = system.sample_box or SampleBox()
        rng = numpy.random.default_rng(seed)
        h_at = point_bundle([system.h], system.params)
        out = []
        while len(out) < count:
            q = rng.uniform(box.q[0], box.q[1], system.n)
            p = rng.uniform(box.p[0], box.p[1], system.n)
            pt = ExtendedPoint(q, p, rng.uniform(box.S[0], box.S[1]),
                               rng.uniform(box.t[0], box.t[1]))
            if not system.admissible(pt):
                continue
            try:
                h_at(pt)
            except DomainError:
                continue
            out.append(pt)
        return out

    def test_sample_points_match_numpy(self, kepler, damped_oscillator):
        numpy = pytest.importorskip("numpy")
        from contact_noether.systems import make_td_kepler

        for system in (kepler, make_td_kepler(1.0, 0.25, 1.5), damped_oscillator):
            for seed in range(1, 21):
                ours = sample_points(system, 20, seed)
                ref = self.numpy_sample_points(numpy, system, 20, seed)
                assert [self.hexes((*a.q, *a.p, a.S, a.t)) for a in ours] == \
                    [self.hexes((*b.q, *b.p, b.S, b.t)) for b in ref], (system.label, seed)

    @staticmethod
    def reference_sample_points(system, count, seed):
        """The same draws filtered by admissible, then eval_node of h."""
        from contact_noether.expr import eval_node

        box = system.sample_box or SampleBox()
        uniform, out = _uniform_draws(seed), []
        while len(out) < count:
            q = [uniform(*box.q) for _ in range(system.n)]
            p = [uniform(*box.p) for _ in range(system.n)]
            pt = ExtendedPoint(q, p, uniform(*box.S), uniform(*box.t))
            if not system.admissible(pt):
                continue
            try:
                eval_node(system.h.ast, system.env(pt))
            except DomainError:
                continue
            out.append(pt)
        return out

    SCREENED = {
        "kepler": lambda: make_kepler(1.0, k_grav=1.0),
        "td-kepler": lambda: make_td_kepler(1.0, 0.25, 1.5),
        # ln of a non-positive q0 in the guard, sqrt of p0 + 1 < 0 in h
        "raising": lambda: ContactSystem(n=1, h=parse("p0^2/2 + sqrt(p0 + 1)", 1),
                                         guards=(parse("ln(q0)", 1),)),
        # inf - inf = NaN where q0 and p0 share a sign, else +-inf
        "nan": lambda: ContactSystem(n=1, h=parse("p0", 1),
                                     guards=(parse("p0*1e200*1e200 - q0*1e200*1e200", 1),)),
    }

    @pytest.mark.parametrize("label, raises", [("kepler", False), ("td-kepler", False),
                                               ("raising", True), ("nan", False)])
    def test_sample_points_match_a_reference_filter(self, label, raises):
        # one bundle of h and the guards screens each candidate; the interpreter
        # runs only to re-raise a candidate's DomainError
        from contact_noether import expr

        system = self.SCREENED[label]()
        for seed in range(1, 6):
            with mock.patch.object(expr, "eval_node", wraps=expr.eval_node) as spy:
                ours = sample_points(system, 30, seed)
            assert (spy.call_count > 0) == raises
            ref = self.reference_sample_points(system, 30, seed)
            assert [self.hexes((*a.q, *a.p, a.S, a.t)) for a in ours] == \
                [self.hexes((*b.q, *b.p, b.S, b.t)) for b in ref], (label, seed)

    def test_guards_see_extra_as_h_does(self):
        system = ContactSystem(n=1, h=parse("p0", 1), params={"c": 0.0},
                               guards=(parse("q0 - c", 1),))
        pts = sample_points(system.with_params({"c": 1.0}), 40, seed=3)
        assert min(pt.q[0] for pt in pts) >= 1.001
        with pytest.raises(RuntimeError, match="rejects too many points"):
            sample_points(system.with_params({"c": 5.0}), 2, seed=3)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError):
            _uniform_draws(-1)


@pytest.mark.parametrize("where", [0, 1, 4])
def test_max_relative_drift_is_nan_when_any_value_is(where):
    values = [1.0, 2.0, 0.5, 3.0, 1.5]
    values[where] = float("nan")
    assert np.isnan(max_relative_drift(values))


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
        assert np.allclose(comp, np.exp(g0 * np.asarray(traj.times)), rtol=1e-10)
        series = np.asarray(traj.tracked["F0"]) * comp
        assert max_relative_drift(series) <= 10 * 1e-7


@pytest.mark.parametrize("label", ["kepler", "td-kepler", "oscillator", "oscillator-aux",
                                   "random-h-1", "random-h-2", "random-h-rated"])
def test_noether_contraction_identity_holds_for_any_field(label):
    """iota_X(L_Y eta_E) + X(F) + R(h) F = 0 with F = -iota_Y eta_E and X = X_h^t,
    for every Y, symmetry or not, and every h, because iota_X d(eta_E) = -R(h) eta_E
    and eta_E(X) = 0: the Cartan form (`LieDerivativeEta`) and the dissipation
    equation (`dissipation_field`) are built apart and must agree to rounding.
    With rated parameters (the oscillator's a, a_dot, b, b_dot, or random rates
    of parameters that h reads too) both take d/dt through the rates."""
    rng = np.random.default_rng(73)

    def random_h(n, rated=False):  # the first draw in which every term of X_h^t and R(h) is live
        while not {"q0", "p0", "S", "t"} <= (h := random_field(rng, n, 4)).free_vars \
                or rated and not h.free_params:
            pass
        rates = {nm: random_field(rng, n, 2) for nm in PARAM_NAMES} if rated else {}
        return ContactSystem(n=n, h=h, params=dict.fromkeys(PARAM_NAMES, 1.0), param_rates=rates)

    oscillator = lambda: make_harmonic_dissipative(1.0, "1 + 0.4*sin(t)", 0.35)
    system = {"kepler": make_kepler, "td-kepler": lambda: make_td_kepler(1.0, 0.25, 1.5),
              "oscillator": oscillator, "oscillator-aux": oscillator,
              "random-h-1": lambda: random_h(1), "random-h-2": lambda: random_h(2),
              "random-h-rated": lambda: random_h(1, rated=True),
              }[label]()
    n = system.n
    X = extended_field(system).components()
    params = {**system.params, **{nm: float(rng.uniform(0.5, 1.5)) for nm in PARAM_NAMES}}
    # the oscillator's random parameters become its auxiliary functions
    aux = {"c1": "a", "c2": "a_dot", "mu": "b*b_dot"} if label == "oscillator-aux" else {}
    if aux:
        params.update({nm: float(rng.uniform(0.5, 1.5)) for nm in ("a", "a_dot", "a0", "b", "b_dot")})
    points = sample_points(system, 8, seed=74)
    evaluated, rated = 0, set()
    for _ in range(15):
        comps = [random_field(rng, n, 3) for _ in range(2 * n + 2)]
        for name, src in aux.items():
            comps = [substitute(c, name, parse(src, n)) for c in comps]
        Y = VectorFieldSpec(comps[:n], comps[n:2 * n], comps[2 * n], comps[2 * n + 1])
        rated.update(nm for c in comps for nm in c.free_params if nm in system.param_rates)
        terms = [c * x for c, x in zip(LieDerivativeEta(system, Y).form, X)]
        at = point_bundle([*terms, dissipation_field(system, invariant_from_symmetry(system, Y))],
                          params)
        for pt in points:
            try:
                values = at(pt)
            except DomainError:
                continue
            assert abs(sum(values)) <= 1e-12 * max(map(abs, values)), values
            evaluated += 1
    assert evaluated >= 60
    assert rated == {"oscillator-aux": {"a", "a_dot", "b", "b_dot"},
                     "random-h-rated": set(PARAM_NAMES)}.get(label, set())
