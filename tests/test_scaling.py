import numpy as np
import pytest

from contact_noether.expr import parse
from contact_noether.geometry import ContactSystem, ExtendedPoint, SampleBox, point_bundle
from contact_noether.noether import residual_at, sample_points, symmetry_test
from contact_noether.scaling import (
    CASE3,
    DISSIPATIVE_F0,
    GENERIC_F2,
    K2_F0,
    KMINUS2_F1,
    TRIVIAL,
    ScalingAnsatz,
    case3_system,
    scaling_generator,
    solve_scaling_explained,
)
from contact_noether.systems import make_kepler
from conftest import point, value, values
from oracles import case3_ansatz, homogeneity_check, invariant_from_ansatz


def family_system(k: float, f_src: str = "1", g_src: str | None = None,
                  m: float = 1.0, c: float = 0.7) -> ContactSystem:
    """h = p0^2/2m + f(t) * c * (q0^2)^(k/2) [+ g(S)] on q0 > 0, t > 0."""
    pieces = [f"p0^2/(2*{m!r})"]
    if c != 0.0:
        pieces.append(f"({f_src})*{c!r}*(q0^2)^{k / 2!r}")
    if g_src:
        pieces.append(g_src)
    h = parse(" + ".join(pieces), 1)
    return ContactSystem(n=1, h=h, guards=(parse("q0", 1), parse("t", 1)),
                         sample_box=SampleBox(q=(0.4, 2.0), p=(-2.0, 2.0),
                                              S=(-1.0, 1.0), t=(0.5, 3.0)))


def by_tag(solutions, tag):
    matches = [s for s in solutions if s.case_tag == tag]
    assert len(matches) == 1, f"expected exactly one {tag}, got {len(matches)}"
    return matches[0]


class TestHomogeneity:
    def test_quadratic_form(self):
        V = parse("q0^2 + q1^2", 2)
        pts = [point([0.7, -1.3], [0, 0]), point([2.0, 0.4], [0, 0])]
        assert homogeneity_check(V, 2.0, pts)

    def test_kepler_potential_degree_minus_one(self):
        V = parse("1/sqrt(q0^2+q1^2+q2^2)", 3)
        pts = [point([1, 0.2, -0.5], [0, 0, 0]), point([0.4, 1.1, 0.8], [0, 0, 0])]
        assert homogeneity_check(V, -1.0, pts)

    def test_mixed_degrees_fail(self):
        V = parse("q0^2 + q0", 1)
        pts = [point(0.9, 0.0), point(1.7, 0.0)]
        assert not homogeneity_check(V, 2.0, pts)
        assert not homogeneity_check(V, 1.0, pts)


class TestGenerator:
    def test_contact_level_kepler_scalings(self):
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 0.0), 3)
        env = point([1.0, 2.0, -0.5], [0.3, 0.1, 0.7], S=1.1, t=4.0).env()
        v = values(Y.components(), env)
        assert np.allclose(v[:3], [2.0, 4.0, -1.0])
        assert np.allclose(v[3:6], [-0.3, -0.1, -0.7])
        assert v[6] == pytest.approx(1.1)
        assert v[7] == 0.0

    def test_zero_ansatz(self):
        Y = scaling_generator(ScalingAnsatz(0, 0, 0, 0), 2)
        assert np.allclose(values(Y.components(), point([1, 1], [1, 1], 1, 1).env()), 0.0)

    def test_extended_kepler_scalings_pass_symmetry_test(self):
        kepler = make_kepler(1.0, k_grav=1.0)
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        rep = symmetry_test(kepler, Y, sample_points(kepler, 100, seed=50), 1e-9)
        assert rep.passed


class TestSolveScaling:
    def test_kepler_case_coefficients(self):
        sol = by_tag(solve_scaling_explained(1.0, -1.0, "constant", "zero")[0], GENERIC_F2)
        # F2 = (2/3) q.p - t h - (1/3) S
        env = {"q0": 1.5, "p0": -0.8, "S": 0.9, "t": 2.0, "h": 1.25}
        expected = (2.0 / 3.0) * (1.5 * -0.8) - 2.0 * 1.25 - (1.0 / 3.0) * 0.9
        assert value(sol.invariant, env) == pytest.approx(expected, rel=1e-14)

    def test_k2_gives_f0(self):
        sol = by_tag(solve_scaling_explained(1.0, 2.0, "constant", "zero")[0], K2_F0)
        env = {"q0": 1.5, "p0": -0.8, "S": 0.9}
        assert value(sol.invariant, env) == pytest.approx(1.5 * -0.8 - 2 * 0.9, rel=1e-14)
        assert sol.f_required is None

    def test_kminus2_gives_s_independent_f1(self):
        sol = by_tag(solve_scaling_explained(1.0, -2.0, "constant", "zero")[0], KMINUS2_F1)
        assert "S" not in sol.invariant.free_vars
        env = {"q0": 1.5, "p0": -0.8, "t": 2.0, "h": 1.25}
        assert value(sol.invariant, env) == pytest.approx(1.5 * -0.8 - 2 * 2.0 * 1.25, rel=1e-14)

    def test_dissipative_branch_k2(self):
        sols = solve_scaling_explained(1.0, 2.0, "constant", "homogeneous", g0=0.3, kappa=1.0)[0]
        sol = by_tag(sols, DISSIPATIVE_F0)
        env = {"q0": 1.5, "p0": -0.8, "S": 0.9}
        assert value(sol.invariant, env) == pytest.approx(1.5 * -0.8 - 2 * 0.9, rel=1e-14)
        assert any("g0*S" in line for line in sol.constraints_log)
        assert not sol.informational

    def test_dissipative_branch_k0_is_informational(self):
        sols, _ = solve_scaling_explained(1.0, 0.0, "constant", "homogeneous", g0=0.3, kappa=1.0)
        sol = by_tag(sols, DISSIPATIVE_F0)
        assert sol.informational

    def test_kappa_not_one_rejected(self):
        sols, rejected = solve_scaling_explained(1.0, 2.0, "constant", "homogeneous",
                                                 g0=0.3, kappa=2.0)
        assert [s for s in sols if s.case_tag != TRIVIAL] == []
        assert any("kappa" in r for r in rejected)

    def test_bad_k_dissipative_rejected(self):
        sols, rejected = solve_scaling_explained(1.0, 1.0, "constant", "homogeneous",
                                                 g0=0.3, kappa=1.0)
        assert [s for s in sols if s.case_tag != TRIVIAL] == []
        assert any("k = " in r for r in rejected)

    def test_power_law_emits_case3(self):
        sol = by_tag(solve_scaling_explained(1.0, -1.0, "power-law", "zero")[0], CASE3)
        assert sol.f_required is not None
        # with k = -1 the forced power is t^((3 Lambda - 1)/2)
        for lam, t in ((1.0, 2.0), (1.0 / 3.0, 3.0), (2.0, 1.7)):
            expected = t ** ((3.0 * lam - 1.0) / 2.0)
            assert value(sol.f_required, {"t": t, "Lambda": lam}) == \
                pytest.approx(expected, rel=1e-14)
        env = {"q0": 1.0, "p0": 2.0, "S": 0.4, "t": 1.3, "h": -0.7, "Lambda": 1.0}
        assert value(sol.invariant, env) == pytest.approx(
            2.0 * 2.0 - 2.0 * 1.3 * -0.7 - 2.0 * 0.4, rel=1e-14)

    def test_free_f_only_k2(self):
        sols, _ = solve_scaling_explained(1.0, 2.0, "free", "zero")
        assert any(s.case_tag == K2_F0 for s in sols)
        sols, rejected = solve_scaling_explained(1.0, -1.0, "free", "zero")
        assert all(s.case_tag == TRIVIAL for s in sols)
        assert rejected


CONCRETE_CASES = [
    # (solve args, concrete system, extra bindings)
    (dict(k=2.0, f_kind="constant", g_kind="zero"), lambda: family_system(2.0), {}),
    (dict(k=2.0, f_kind="free", g_kind="zero"),
     lambda: family_system(2.0, f_src="1 + 0.3*t"), {}),
    (dict(k=-2.0, f_kind="constant", g_kind="zero"), lambda: family_system(-2.0), {}),
    (dict(k=-1.0, f_kind="constant", g_kind="zero"), lambda: family_system(-1.0), {}),
    (dict(k=0.5, f_kind="constant", g_kind="zero"), lambda: family_system(0.5), {}),
    (dict(k=-1.0, f_kind="power-law", g_kind="zero"),
     lambda: family_system(-1.0, f_src="t^((3*0.8-1)/2)"), {"Lambda": 0.8}),
    (dict(k=2.0, f_kind="constant", g_kind="homogeneous", g0=0.3, kappa=1.0),
     lambda: family_system(2.0, f_src="1 + 0.2*t", g_src="0.3*S"), {}),
    (dict(k=0.0, f_kind="constant", g_kind="homogeneous", g0=0.3, kappa=1.0),
     lambda: family_system(0.0, c=0.0, g_src="0.3*S"), {}),
]


class TestEmittedSolutionsSatisfyTheirSystems:
    @pytest.mark.parametrize("args,mk_system,extra", CONCRETE_CASES)
    def test_invariant_residual(self, args, mk_system, extra):
        sols = solve_scaling_explained(1.0, **args)[0]
        sols = [s for s in sols if s.case_tag != TRIVIAL]
        assert sols
        system = mk_system().with_params(extra)
        for sol in sols:
            residual = residual_at(system, sol.invariant_for(system))
            for pt in sample_points(system, 100, seed=52):
                res = residual(pt)
                assert abs(res) <= 1e-10, (sol.case_tag, res)

    @pytest.mark.parametrize("args,mk_system,extra", CONCRETE_CASES)
    def test_generator_passes_symmetry_test(self, args, mk_system, extra):
        sols = [s for s in solve_scaling_explained(1.0, **args)[0] if s.case_tag != TRIVIAL]
        system = mk_system().with_params(extra)
        pts = sample_points(system, 100, seed=54)
        for sol in sols:
            ansatz = sol.ansatz
            if ansatz is None:  # Case 3: instantiate for the bound Lambda
                ansatz = case3_ansatz(args["k"], extra["Lambda"])
            Y = scaling_generator(ansatz, system.n)
            rep = symmetry_test(system, Y, pts, 1e-9)
            assert rep.passed, (sol.case_tag, rep.residual)

    @pytest.mark.parametrize("args,mk_system,extra", CONCRETE_CASES)
    def test_posthoc_exponent_constraints(self, args, mk_system, extra):
        for sol in solve_scaling_explained(1.0, **args)[0]:
            a = sol.ansatz
            if a is None or sol.case_tag == TRIVIAL:
                continue
            if sol.case_tag == DISSIPATIVE_F0:
                assert a.sigma == 0.0
                assert a.alpha == pytest.approx(a.gamma / 2.0, abs=1e-14)
            else:
                assert a.alpha == pytest.approx(a.gamma / 2.0 + a.sigma / 2.0, abs=1e-14)
            assert a.beta == pytest.approx(a.gamma - a.alpha, abs=1e-14)

    def test_emitted_invariant_is_positive_multiple_of_ansatz_form(self):
        probes = [{"q0": 1.1, "p0": 0.7, "S": 0.5, "t": 1.2, "h": -0.4},
                  {"q0": -0.6, "p0": 1.9, "S": -1.2, "t": 0.8, "h": 2.0}]
        for args, _, _ in CONCRETE_CASES:
            for sol in solve_scaling_explained(1.0, **args)[0]:
                if sol.ansatz is None or sol.case_tag == TRIVIAL:
                    continue
                base = invariant_from_ansatz(sol.ansatz, 1)
                ratios = [value(sol.invariant, e) / value(base, e) for e in probes]
                assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
                assert ratios[0] > 0


class TestNormalizationInvariance:
    def test_invariant_scales_linearly(self):
        a = ScalingAnsatz(2.0, -1.0, 1.0, 3.0)
        probes = [{"q0": 1.1, "p0": 0.7, "S": 0.5, "t": 1.2, "h": -0.4},
                  {"q0": 0.3, "p0": -0.2, "S": 2.0, "t": 0.1, "h": 1.0}]
        for c in (2.0, -0.5, 7.25):
            F1 = invariant_from_ansatz(a, 1)
            Fc = invariant_from_ansatz(a.scaled(c), 1)
            for env in probes:
                assert value(Fc, env) == pytest.approx(c * value(F1, env), rel=1e-13)

    def test_verdicts_survive_rescaling(self):
        kepler = make_kepler(1.0, k_grav=1.0)
        pts = sample_points(kepler, 30, seed=56)
        for c in (1.0, 3.0, -2.0):
            Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0).scaled(c), 3)
            assert symmetry_test(kepler, Y, pts, 1e-9).passed


class TestCase3System:
    def test_lambda_one_forces_linear_f(self):
        system = case3_system(k=-1.0, Lambda=1.0, m=1.0, coupling=-1.0)
        # exponent (3*1 - 1)/2 = 1: the coupling scales linearly in t
        pt_a = point([1.0, 0.0, 0.0], [0, 0, 0], t=1.0)
        pt_b = point([1.0, 0.0, 0.0], [0, 0, 0], t=3.0)
        h_at = point_bundle([system.h, system.meta["invariant"]], system.params)
        (va, _), (vb, _) = h_at(pt_a), h_at(pt_b)
        assert vb == pytest.approx(3.0 * va, rel=1e-14)
        probe = point([1, 0, 0], [0.4, 1, 0], S=0.2, t=2.0)
        h, inv = h_at(probe)
        qdotp = 1.0 * 0.4
        assert inv == pytest.approx(2 * qdotp - 2 * 2.0 * h - 2 * 0.2, rel=1e-12)

    def test_lambda_third_reduces_to_static_kepler(self):
        kepler = make_kepler(1.0, eps=0.25)
        system = case3_system(k=-1.0, Lambda=1.0 / 3.0, m=1.0, coupling=-1.0)
        rng = np.random.default_rng(58)
        kepler_h, system_h = (point_bundle([s.h], s.params) for s in (kepler, system))
        for _ in range(50):
            q = rng.uniform(0.3, 2.0, 3)
            p = rng.uniform(-2.0, 2.0, 3)
            pt = ExtendedPoint(q, p, rng.uniform(-1, 1), rng.uniform(0.5, 5.0))
            (a,), (b,) = kepler_h(pt), system_h(pt)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a))

    @pytest.mark.parametrize("k,lam", [(-1.0, 1.0), (-1.0, 2.0), (0.5, 1.3), (-2.0, 0.7)])
    def test_registered_invariant_is_dissipation_free(self, k, lam):
        system = case3_system(k=k, Lambda=lam, m=1.2, coupling=0.6)
        residual = residual_at(system, system.meta["invariant"])
        for pt in sample_points(system, 100, seed=60):
            assert abs(residual(pt)) <= 1e-10
