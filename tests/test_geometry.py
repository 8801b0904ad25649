import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contact_noether import cli, systems
from contact_noether.dynamics import contact_field, extended_field
from contact_noether.expr import DomainError, parse, partial, variable
from contact_noether.geometry import (
    ContactSystem,
    ExtendedPoint,
    LieDerivativeEta,
    SampleBox,
    VectorFieldSpec,
    coordinate_names,
    contract_d_eta_E,
    directional_derivative,
    interior_product_eta_E,
    lie_bracket,
    nan_max,
    point_bundle,
    proportionality_residual,
)
from contact_noether.noether import sample_points, symmetry_from_invariant
from contact_noether.scaling import ScalingAnsatz, scaling_generator
from conftest import point, value, values
from oracles import (jacobi_bracket, poisson_bracket, reference_nan_max,
                     reference_proportionality_residual)
from randfields import PARAM_NAMES, random_env, random_field


class TestExtendedPoint:
    def test_coordinates_are_tuples_of_floats(self):
        pt = ExtendedPoint([1, 2], np.array([3.0, 4.0]), 0, 1)
        assert pt.q == (1.0, 2.0) and pt.p == (3.0, 4.0) and pt.n == 2
        assert all(type(v) is float for v in (*pt.q, *pt.p, pt.S, pt.t))

    @pytest.mark.parametrize("q, p, S", [
        ([[1.0, 2.0]], [[0.0, 0.0]], 0.0),           # nested
        (np.zeros((2, 1)), np.zeros((2, 1)), 0.0),   # nested array
        ([], [], 0.0),                               # empty
        ([1.0, 2.0], [0.0], 0.0),                    # unequal
        (1.0, 2.0, 0.0),                             # not sequences
        ("12", "34", 0.0),
        ([1.0, float("nan")], [0.0, 0.0], 0.0),      # non-finite
        ([1.0], [float("inf")], 0.0),
        ([1.0], [0.0], float("-inf")),
    ])
    def test_rejects_malformed_input(self, q, p, S):
        with pytest.raises(ValueError):
            ExtendedPoint(q, p, S, 0.0)


class TestSampleBox:
    @pytest.mark.parametrize("bounds", [
        {"q": (float("nan"), 1.0)},
        {"p": (0.0, float("inf"))},
        {"t": (float("-inf"), 0.0)},
        {"S": (1.0, 1.0)},                 # empty
        {"q": (2.0, -2.0)},                # reversed
        {"p": (-1e308, 1e308)},            # finite ends, but hi - lo overflows
    ])
    def test_refuses_a_non_finite_or_empty_interval(self, bounds):
        with pytest.raises(ValueError):
            SampleBox(**bounds)

    def test_bounds_are_pairs_of_floats(self):
        box = SampleBox(q=(0, 2), t=(0.5, 5))
        assert box.q == (0.0, 2.0) and box.t == (0.5, 5.0)
        assert all(type(v) is float for pair in (box.q, box.p, box.S, box.t) for v in pair)


def _nan(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


INF = float("inf")
# NaNs of both signs and two payloads, infinities, signed zeros and subnormals
SPECIAL = [_nan(0x7FF8000000000000), _nan(0xFFF8000000000000), _nan(0x7FF8000000000001),
           _nan(0x7FF0000000000001), INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL))


def _bits(*xs):
    return [struct.pack("<d", x) for x in xs]


class TestHelpersMatchTheirReferences:
    """`nan_max` and `proportionality_residual` return their references' values
    bit for bit, NaN payload and sign included."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(FLOATS, max_size=12))
    @example([])
    @example([INF, -INF])
    @example([-INF, INF, SPECIAL[2], SPECIAL[1]])
    @example([1.0, SPECIAL[3], 2.0, SPECIAL[0]])
    def test_nan_max(self, values):
        assert _bits(nan_max(values)) == _bits(reference_nan_max(values))
        assert _bits(nan_max(iter(values))) == _bits(reference_nan_max(values))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(FLOATS, min_size=2 * n + 2, max_size=2 * n + 2),
        st.lists(FLOATS, min_size=2 * n + 2, max_size=2 * n + 2))))
    @example(([1.0, -2.0, INF, 0.5], [-1.0, 0.0, 1.0, 2.0]))
    @example(([INF, -INF, 1.0, SPECIAL[1]], [1.0, 1.0, 1.0, 0.0]))
    def test_proportionality_residual(self, omega_eta):
        omega, eta = omega_eta
        assert _bits(*proportionality_residual(omega, eta)) \
            == _bits(*reference_proportionality_residual(omega, eta))


def const_field(v, n):
    from contact_noether.expr import number
    return number(v, n)


def make_system(h_src, n, params=None):
    return ContactSystem(n=n, h=parse(h_src, n), params=params or {})


def eta_at(pt, h):
    """eta_E = dS - p_a dq^a + h dt at a point, as coefficients in coordinate_names order."""
    return (*(-p for p in pt.p), *(0.0,) * pt.n, 1.0, h)


class TestEtaExtended:
    # eta_E's coefficients read off as iota_e eta_E for each coordinate vector field e
    @staticmethod
    def at(system, pt):
        n, m = system.n, 2 * system.n + 2
        basis = [[const_field(float(i == j), n) for j in range(m)] for i in range(m)]
        fields = [VectorFieldSpec(e[:n], e[n:2 * n], *e[2 * n:]) for e in basis]
        iotas = [interior_product_eta_E(system, e) for e in fields]
        return point_bundle(iotas, system.params)(pt)

    def test_read_off_definition(self):
        sys2 = make_system("5", 2)  # constant Hamiltonian = 5
        val = self.at(sys2, point([0.0, 0.0], [1.0, 2.0]))
        assert val == eta_at(point([0.0, 0.0], [1.0, 2.0]), 5.0) == (-1.0, -2.0, 0.0, 0.0, 1.0, 5.0)

    def test_origin(self):
        sys1 = make_system("p0*q0", 1)
        assert list(self.at(sys1, point(0.0, 0.0))) == [0.0, 0.0, 1.0, 0.0]

    def test_kepler_dt_coefficient(self, kepler):
        val = self.at(kepler, point([1, 0, 0], [0, 1, 0]))
        assert val[-1] == pytest.approx(-0.5, abs=1e-15)


class TestContractDEta:
    # contract_d_eta_E is symbolic: (dq0, dp0, dS, dt) fields for n = 1
    @staticmethod
    def at(system, Y, pt):
        return point_bundle(contract_d_eta_E(system, Y), system.params)(pt)

    def test_dt_direction_gives_minus_dh(self):
        sys1 = make_system("p0^2/2 + q0^2/2", 1)
        Y = VectorFieldSpec((const_field(0, 1),), (const_field(0, 1),),
                            const_field(0, 1), const_field(1, 1))
        dq, dp, dS, dt = self.at(sys1, Y, point(0.7, -1.3))
        assert dq == pytest.approx(-0.7)
        assert dp == pytest.approx(1.3)
        assert dS == 0.0
        assert dt == 0.0

    def test_dS_direction_annihilates_when_h_S_independent(self):
        sys1 = make_system("p0^2/2 + q0^2/2", 1)
        Y = VectorFieldSpec((const_field(0, 1),), (const_field(0, 1),),
                            const_field(1, 1), const_field(0, 1))
        assert max(map(abs, self.at(sys1, Y, point(0.3, 0.4)))) == 0.0

    def test_h_equals_S_dS_direction(self):
        sys1 = make_system("S", 1)
        Y = VectorFieldSpec((const_field(0, 1),), (const_field(0, 1),),
                            const_field(1, 1), const_field(0, 1))
        dq, dp, dS, dt = self.at(sys1, Y, point(0.3, 0.4, S=2.0))
        assert np.allclose(dq, 0.0) and np.allclose(dp, 0.0)
        assert dS == 0.0
        assert dt == 1.0


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        Y = VectorFieldSpec((parse("q0*p0", 1),), (parse("sin(q0)", 1),),
                            parse("S*t", 1), parse("t", 1))
        B = lie_bracket(Y, Y)
        env = point(0.3, -0.9, 0.4, 1.7).env()
        assert np.allclose(values(B.components(), env), 0.0)

    def test_textbook_bracket(self):
        # [d/dt, t d/dt] = d/dt
        n = 1
        dt = VectorFieldSpec((const_field(0, n),), (const_field(0, n),),
                             const_field(0, n), const_field(1, n))
        tdt = VectorFieldSpec((const_field(0, n),), (const_field(0, n),),
                              const_field(0, n), parse("t", n))
        B = lie_bracket(dt, tdt)
        env = point(0.0, 0.0, 0.0, 2.5).env()
        assert np.allclose(values(B.components(), env), [0.0, 0.0, 0.0, 1.0])

    def test_kepler_scaling_similarity_bracket(self, kepler):
        # the scaling generator with time component 3t rescales the extended
        # Kepler field by -3, componentwise at seeded points
        Y = scaling_generator(ScalingAnsatz(2.0, -1.0, 1.0, 3.0), 3)
        X = extended_field(kepler)
        at = point_bundle([*lie_bracket(Y, X).components(), *X.components()], kepler.params)
        for pt in sample_points(kepler, 100, seed=42):
            bv, xv = np.split(np.asarray(at(pt)), 2)
            scale = max(1.0, float(np.max(np.abs(bv))))
            assert np.max(np.abs(bv + 3.0 * xv)) / scale < 1e-9


class TestLieDerivativeEta:
    def test_flow_field_rescales_eta(self, kepler, damped_oscillator):
        for system in (kepler, damped_oscillator):
            form = LieDerivativeEta(system, extended_field(system)).form
            at = point_bundle([*form, system.h, system.h_S], system.params)
            for pt in sample_points(system, 20, seed=3):
                *omega, h, rh = at(pt)
                expected = -rh * np.asarray(eta_at(pt, h))
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(np.asarray(omega) - expected)) / scale < 1e-12

    def test_zero_field(self, kepler):
        omega = LieDerivativeEta(kepler, VectorFieldSpec.zero(3))(point([1, 0, 0], [0, 1, 0]))
        assert max(map(abs, omega)) == 0.0

    def test_vertical_rescaling_is_not_proportional(self, kepler):
        # Y = H_K d/dS: a dynamical symmetry of the flow but L_Y eta_E is not
        # proportional to eta_E
        Y = VectorFieldSpec((const_field(0, 3),) * 3, (const_field(0, 3),) * 3,
                            kepler.h, const_field(0, 3))
        pt = point([1, 0, 0], [0, 1, 0])
        *omega, h = point_bundle([*LieDerivativeEta(kepler, Y).form, kepler.h], kepler.params)(pt)
        _, residual = proportionality_residual(omega, eta_at(pt, h))
        assert residual > 0.1


def _sympy_lie_derivative_eta(sp, system, Y, values):
    """(L_Y eta_E)_i = Y^j d_j eta_i + eta_j d_i Y^j in coordinates, with
    eta_E = (-p, 0, 1, h), each field rebuilt by sympy from its source and
    differentiated there, d_t also through each rated parameter (chain rule on
    the sources of the system's rates); evaluated at `values` to 30 digits."""
    n = system.n
    xs = [sp.Symbol(nm) for nm in coordinate_names(n)]
    names = {nm: sp.Symbol(nm) for nm in values}
    names.update(ln=sp.log, abs=sp.Abs, sqrt=sp.sqrt, exp=sp.exp, sin=sp.sin, cos=sp.cos)
    to_sympy = lambda f: sp.parse_expr(f.source().replace("^", "**"), local_dict=names)
    rates = {names[nm]: to_sympy(r) for nm, r in system.param_rates.items() if nm in values}
    d = lambda f, x: sp.diff(f, x) + sum(r * sp.diff(f, s) for s, r in rates.items() if x == xs[-1])
    ys = [to_sympy(c) for c in Y.components()]
    eta = [-x for x in xs[n:2 * n]] + [sp.Integer(0)] * n + [sp.Integer(1), to_sympy(system.h)]
    subs = {names[nm]: sp.Float(v, 30) for nm, v in values.items()}
    return [float(sum(ys[j] * d(eta[i], xs[j]) + eta[j] * d(ys[j], xs[i])
                      for j in range(2 * n + 2)).evalf(30, subs=subs))
            for i in range(2 * n + 2)]


def _oracle_cases():
    """(system, Y, points): the bundled scenarios' symmetries, the
    td-Kepler and oscillator symmetries of the benchmark sweep, and random
    fields over a random Hamiltonian."""
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    kep = cli.load_scenario(scenarios / "kepler-scaling.json")
    for entry in kep.symmetries.values():
        yield kep.system, entry.field, sample_points(kep.system, 4, seed=61)
    td = systems.make_td_kepler(1.3, 0.2, 1.5)
    F_tdk = td.invariants["F_TDK"].field
    for Y in (scaling_generator(ScalingAnsatz(1.25, 0.25, 1.5, 1.0), 3),
              symmetry_from_invariant(td, F_tdk, parse("t^2", 3))):
        yield td, Y, sample_points(td, 4, seed=62)
    osc = systems.make_harmonic_dissipative(1.1, "1 + 0.3*sin(t)", 0.25).with_params(
        {"a": 1.2, "a_dot": -0.3, "a0": 0.9})
    for Y in (scaling_generator(ScalingAnsatz(1.0, 1.0, 2.0, 0.0), 1),
              symmetry_from_invariant(osc, systems.glr_invariant(), 0.0)):
        yield osc, Y, sample_points(osc, 4, seed=63)
    rng = np.random.default_rng(64)
    for _ in range(4):
        params = {nm: float(rng.uniform(0.5, 1.5)) for nm in PARAM_NAMES}
        system = ContactSystem(n=2, h=random_field(rng, 2, 3), params=params)
        Y = VectorFieldSpec(*(tuple(random_field(rng, 2, 3) for _ in range(2)) for _ in range(2)),
                            random_field(rng, 2, 3), random_field(rng, 2, 3))
        envs = [random_env(rng, 2) for _ in range(4)]
        yield system, Y, [ExtendedPoint([e["q0"], e["q1"]], [e["p0"], e["p1"]], e["S"], e["t"])
                          for e in envs]


def test_lie_derivative_eta_matches_the_coordinate_formula():
    sp = pytest.importorskip("sympy")
    compared = 0
    for system, Y, points in _oracle_cases():
        params = system.params
        at = point_bundle(LieDerivativeEta(system, Y).form, params)
        for pt in points:
            try:
                ours = at(pt)
            except DomainError:
                continue
            values = {**params, **dict(zip(coordinate_names(system.n),
                                           [*pt.q, *pt.p, pt.S, pt.t]))}
            oracle = _sympy_lie_derivative_eta(sp, system, Y, values)
            scale = max(1.0, *map(abs, oracle))
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(ours, oracle)), (ours, oracle)
            compared += 1
    assert compared >= 40


class TestReebAndHamiltonianFieldIdentities:
    def test_reeb_identities(self, kepler, damped_oscillator):
        for system in (kepler, damped_oscillator):
            n = system.n
            R = VectorFieldSpec((const_field(0, n),) * n, (const_field(0, n),) * n,
                                const_field(1, n), const_field(0, n))
            at = point_bundle(R.components(), system.params)
            for pt in sample_points(system, 100, seed=5):
                r = at(pt)
                # iota_R (dq^a ^ dp_a) = (-R^p, R^q, 0, 0) = 0 and iota_R eta = R^S - p.R^q = 1
                assert max(map(abs, r[:2 * n])) <= 1e-14
                assert r[2 * n] - sum(p * rq for p, rq in zip(pt.p, r[:n])) == 1.0

    def test_contact_field_conditions(self, kepler, damped_oscillator):
        # iota_{X_h} eta = -h and iota_{X_h} d eta = dh - R(h) eta
        for system in (kepler, damped_oscillator):
            n = system.n
            X = contact_field(system)
            x_at = point_bundle(X.components(), system.params)
            h_at = point_bundle([system.h, *system.h_q, *system.h_p, system.h_S], system.params)
            for pt in sample_points(system, 100, seed=6):
                xv = np.asarray(x_at(pt))
                h, *dh = h_at(pt)
                iota_eta = xv[2 * n] - float(np.asarray(pt.p) @ xv[:n])
                assert abs(iota_eta + h) <= 1e-12 * max(1.0, abs(h))
                # iota_X (dq^a ^ dp_a) = (-X^p, X^q, 0, 0); eta = (-p, 0, 1, 0)
                lhs = np.concatenate([-xv[n:2 * n], xv[:n], [0.0, 0.0]])
                rhs = np.asarray([*dh, 0.0]) - dh[-1] * np.asarray(eta_at(pt, 0.0))
                scale = max(1.0, np.max(np.abs(rhs)))
                assert np.max(np.abs(lhs - rhs)) / scale <= 1e-12

    def test_extended_field_in_kernel_of_eta(self, kepler, damped_oscillator):
        for system in (kepler, damped_oscillator):
            n = system.n
            at = point_bundle([*extended_field(system).components(), system.h], system.params)
            for pt in sample_points(system, 100, seed=7):
                *xv, h = at(pt)
                xv = np.asarray(xv)
                val = xv[2 * n] - float(np.asarray(pt.p) @ xv[:n]) + h * xv[2 * n + 1]
                assert abs(val) <= 1e-12 * max(1.0, abs(h))


class TestPoissonBracket:
    def test_canonical_pair(self):
        b = poisson_bracket(parse("q0", 1), parse("p0", 1))
        assert value(b, {}) == 1.0

    def test_antisymmetry_with_self(self):
        F = parse("q0^2*p0 + sin(q0)", 1)
        b = poisson_bracket(F, F)
        assert value(b, {"q0": 0.4, "p0": -0.8}) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed(self):
        b = poisson_bracket(parse("q0*p0", 1), parse("p0^2/2", 1))
        for p0 in (0.3, -1.7, 2.0):
            assert value(b, {"q0": 5.0, "p0": p0}) == pytest.approx(p0**2, rel=1e-14)


def jacobi_coordinate_formula(F, G):
    """Independent oracle: {F,G}_P + F_S (p G_p - G) - G_S (p F_p - F)."""
    n = F.n
    d_of = lambda f: sum((variable(f"p{i}", n) * partial(f, f"p{i}") for i in range(n)),
                         start=const_field(0, n)) - f
    return poisson_bracket(F, G) + partial(F, "S") * d_of(G) - partial(G, "S") * d_of(F)


class TestJacobiBracket:
    def setup_method(self):
        self.system = make_system("p0^2/2 + q0^2/2 + S", 1)

    def test_self_bracket(self):
        F = parse("q0*p0 - 2*S", 1)
        b = jacobi_bracket(self.system, F, F)
        env = point(0.3, -1.1, 0.7).env()
        assert value(b, env) == pytest.approx(0.0, abs=1e-13)

    def test_reduces_to_poisson_for_s_independent(self):
        F, G = parse("q0*p0", 1), parse("p0^2/2", 1)
        b = jacobi_bracket(self.system, F, G)
        for p0 in (0.5, -1.5):
            assert value(b, {"q0": 1.0, "p0": p0, "S": 0.0}) == pytest.approx(p0**2, rel=1e-14)

    def test_constant_with_g(self):
        # iota_[X_1, X_G] eta = dG/dS; on G = S the value is +1
        one, G = parse("1", 1), parse("S", 1)
        b = jacobi_bracket(self.system, one, G)
        env = point(0.2, 0.3, 1.4).env()
        assert value(b, env) == pytest.approx(1.0, abs=1e-14)
        assert value(jacobi_coordinate_formula(one, G), env) == pytest.approx(1.0, abs=1e-14)

    def test_matches_coordinate_formula(self):
        rng = np.random.default_rng(31)
        F = parse("q0^2*p0 + S*q0", 1)
        G = parse("p0^2/2 + sin(q0)*S", 1)
        b = jacobi_bracket(self.system, F, G)
        oracle = jacobi_coordinate_formula(F, G)
        for _ in range(25):
            env = {"q0": rng.uniform(-2, 2), "p0": rng.uniform(-2, 2),
                   "S": rng.uniform(-1, 1)}
            assert value(b, env) == pytest.approx(value(oracle, env), rel=1e-12, abs=1e-12)

    def test_antisymmetry(self):
        F = parse("q0*p0 + S^2", 1)
        G = parse("p0^2/2 - q0*S", 1)
        fg = jacobi_bracket(self.system, F, G)
        gf = jacobi_bracket(self.system, G, F)
        rng = np.random.default_rng(37)
        for _ in range(20):
            env = {"q0": rng.uniform(-2, 2), "p0": rng.uniform(-2, 2),
                   "S": rng.uniform(-1, 1)}
            assert value(fg, env) == pytest.approx(-value(gf, env), rel=1e-12, abs=1e-12)

    def test_rejects_time_dependent_inputs(self):
        with pytest.raises(ValueError):
            jacobi_bracket(self.system, parse("t*q0", 1), parse("p0", 1))


class TestDirectionalDerivative:
    def test_matches_componentwise_sum(self):
        Y = VectorFieldSpec((parse("q0", 1),), (parse("-p0", 1),),
                            parse("S", 1), parse("3*t", 1))
        f = parse("q0*p0 + S*t", 1)
        g = directional_derivative(Y, f)
        env = point(1.2, -0.7, 0.5, 2.0).env()
        manual = (env["q0"] * env["p0"]) + (-env["p0"]) * env["q0"] \
            + env["S"] * env["t"] + 3 * env["t"] * env["S"]
        assert value(g, env) == pytest.approx(manual, rel=1e-14)
