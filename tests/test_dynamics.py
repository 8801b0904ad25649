import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contact_noether.dynamics import (
    DOMAIN_VIOLATION,
    STEP_SIZE_UNDERFLOW,
    IntegratorConfig,
    TimeDependentHamiltonian,
    _cumulative_simpson,
    action_consistency,
    adaptive_rk45,
    contact_field,
    extended_field,
    integrate,
)
from contact_noether.expr import parse
from contact_noether.geometry import ContactSystem
from contact_noether.noether import sample_points
from contact_noether.systems import make_harmonic_dissipative
from conftest import point


def make_system(h_src, n=1, params=None, guard=None):
    return ContactSystem(n=n, h=parse(h_src, n), params=params or {}, domain_guard=guard)


def env_of(system, pt):
    return system.env(pt)


class TestFieldConstruction:
    def test_free_particle(self):
        sys1 = make_system("p0^2/2")
        X = contact_field(sys1)
        env = point(0.0, 2.0).env()
        v = X.eval(env)
        assert v[0] == 2.0          # qdot = p
        assert v[1] == 0.0          # pdot = 0
        assert v[2] == 2.0          # Sdot = p^2/2
        assert v[3] == 0.0

    def test_damped_oscillator_pdot(self):
        sys1 = make_system("p0^2/2 + q0^2/2 + g0*S", params={"g0": 0.3})
        X = contact_field(sys1)
        env = sys1.env(point(1.5, -0.4))
        v = X.eval(env)
        assert v[1] == pytest.approx(-1.5 - 0.3 * -0.4, rel=1e-15)

    def test_h_equals_S(self):
        sys1 = make_system("S")
        X = contact_field(sys1)
        env = point(0.7, 1.1, S=0.9).env()
        v = X.eval(env)
        assert v[0] == 0.0
        assert v[1] == pytest.approx(-1.1)
        assert v[2] == pytest.approx(-0.9)

    def test_time_dependent_rejected(self):
        sys1 = make_system("p0^2/2 + t*q0")
        with pytest.raises(TimeDependentHamiltonian):
            contact_field(sys1)

    def test_extended_adds_time_direction(self):
        sys1 = make_system("p0^2/2 + q0^2/2")
        Xc = contact_field(sys1)
        Xe = extended_field(sys1)
        env = point(0.8, -0.3).env()
        assert np.allclose(Xe.eval(env)[:3], Xc.eval(env)[:3])
        assert Xe.eval(env)[3] == 1.0

    def test_extended_field_time_dependent_coefficient(self):
        # h of harmonic type with f(t) = 1 + t: pdot = -m(1+t) q - g0 p
        system = make_harmonic_dissipative(1.0, "1 + t", 0.4)
        X = extended_field(system)
        env = system.env(point(2.0, 0.5, t=3.0))
        v = X.eval(env)
        assert v[1] == pytest.approx(-(1 + 3.0) * 2.0 - 0.4 * 0.5, rel=1e-14)


class TestIntegrate:
    def test_harmonic_oscillator_period(self):
        sys1 = make_system("p0^2/2 + q0^2/2")
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(sys1, extended_field(sys1), point(1.0, 0.0), 2 * math.pi, cfg)
        assert traj.error_tag is None
        end = traj.samples[-1]
        assert end.t == pytest.approx(2 * math.pi, abs=1e-12)
        assert abs(end.q[0] - 1.0) < 1e-8
        assert abs(end.p[0]) < 1e-8
        # every accepted step satisfied the scaled local error bound
        assert traj.stats.max_error_estimate <= 1.0

    def test_free_particle_action(self):
        sys1 = make_system("p0^2/(2*m)", params={"m": 1.0})
        traj = integrate(sys1, extended_field(sys1), point(0.0, 2.0), 3.0,
                         IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))
        assert traj.samples[-1].S == pytest.approx(6.0, abs=1e-8)

    def test_kepler_orbit_stays_admissible(self, kepler):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, guard_margin=1e-3)
        traj = integrate(kepler, extended_field(kepler),
                         point([1, 0, 0], [0, 1.2, 0]), 10.0, cfg)
        assert traj.error_tag is None
        radii = [math.sqrt(float(s.q @ s.q)) for s in traj.samples]
        assert min(radii) > 1e-3

    def test_tracked_fields_are_recorded(self):
        sys1 = make_system("p0^2/2")
        traj = integrate(sys1, extended_field(sys1), point(0.0, 2.0), 1.0,
                         IntegratorConfig(), tracked={"momentum": parse("p0", 1)})
        assert np.allclose(traj.tracked["momentum"], 2.0)
        assert len(traj.tracked["momentum"]) == len(traj.samples)

    def test_domain_violation_returns_partial(self):
        # radial plunge: q moving toward the excluded ball around the origin
        guard = lambda pt, margin: abs(pt.q[0]) >= margin
        sys1 = make_system("p0^2/2 + 0*q0", guard=guard)
        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, guard_margin=0.5, max_step=0.05)
        traj = integrate(sys1, extended_field(sys1), point(2.0, -1.0), 10.0, cfg)
        assert traj.error_tag == DOMAIN_VIOLATION
        assert len(traj.samples) > 1
        assert all(abs(s.q[0]) >= 0.5 for s in traj.samples)

    def test_step_size_underflow_near_singularity(self):
        # 1/q0 blows up at the origin; domain errors force endless shrinking
        sys1 = make_system("p0^2/2 - 1/q0")
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, min_step=1e-10)
        traj = integrate(sys1, extended_field(sys1), point(1.0, -1.5), 10.0, cfg)
        assert traj.error_tag in (STEP_SIZE_UNDERFLOW, DOMAIN_VIOLATION)

    def test_strictly_increasing_time(self):
        sys1 = make_system("p0^2/2 + q0^2/2")
        traj = integrate(sys1, extended_field(sys1), point(1.0, 0.0), 3.0,
                         IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10))
        ts = traj.ts
        assert np.all(np.diff(ts) > 0)

    def test_csv_format(self):
        sys1 = make_system("p0^2/2")
        traj = integrate(sys1, extended_field(sys1), point(0.5, 2.0), 1.0,
                         IntegratorConfig(), tracked={"mom": parse("p0", 1)})
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,q0,p0,S,mom"
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 0.5, 2.0, 0.0, 2.0]


class TestRhsCalls:
    @staticmethod
    def counting_rhs():
        calls = []

        def rhs(t, y):
            out = np.array([-50.0 * (y[0] - math.cos(t)), y[0]])
            calls.append((t, y.copy()))
            return out

        return rhs, calls

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-8])
    def test_adaptive_reuses_last_stage(self, rel_tol):
        # 1 initial derivative + 1 initial-step probe + 6 stages per attempt;
        # stage 7 of an accepted step is the next step's first stage
        rhs, calls = self.counting_rhs()
        accepted = []
        stats, tag = adaptive_rk45(rhs, 0.0, np.array([2.0, 0.0]), 5.0,
                                   IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2),
                                   on_accept=lambda t, y: accepted.append((t, y.copy())))
        assert tag is None and stats.accepted > 0
        assert len(calls) == 2 + 6 * (stats.accepted + stats.rejected)
        # the reused stage was evaluated at exactly the accepted state
        evaluated = {(t, y.tobytes()) for t, y in calls}
        assert all((t, y.tobytes()) in evaluated for t, y in accepted)

    def test_fixed_step_call_count(self):
        rhs, calls = self.counting_rhs()
        cfg = IntegratorConfig(min_step=0.01, max_step=0.01)
        stats, tag = adaptive_rk45(rhs, 0.0, np.array([2.0, 0.0]), 1.0, cfg)
        assert tag is None and stats.rejected == 0
        assert len(calls) == 1 + 6 * stats.accepted


class TestCumulativeSimpson:
    def test_matches_scipy_bitwise(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(94)
        for size in [1, 2, 3, 4, 5, *rng.integers(6, 400, size=60)]:
            x = np.cumsum(rng.uniform(1e-3, 1.0, size=size)) - 0.5
            y = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4)
            ref = scipy_integrate.cumulative_simpson(y, x=x, initial=0.0)
            assert _cumulative_simpson(y, x).tobytes() == ref.tobytes()

    def test_exact_for_quadratic_on_nonuniform_grid(self):
        rng = np.random.default_rng(96)
        x = np.cumsum(rng.uniform(0.05, 0.5, size=41))
        y = 3.0 * x**2 - 2.0 * x + 1.0
        F = x**3 - x**2 + x
        assert np.allclose(_cumulative_simpson(y, x), F - F[0], rtol=1e-13, atol=1e-12)


def test_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, contact_noether; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestConservationAlongFlow:
    def test_h_constant_for_autonomous_h(self, kepler):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(kepler, extended_field(kepler),
                         point([1, 0, 0], [0, 1.2, 0]), 10.0, cfg,
                         tracked={"h": kepler.h})
        drift = np.max(np.abs(traj.tracked["h"] - traj.tracked["h"][0]))
        assert drift < 10 * cfg.rel_tol * max(1.0, abs(traj.tracked["h"][0])) * 100

    def test_h_exp_rate_constant_for_linear_dissipation(self):
        g0 = 0.25
        sys1 = make_system("p0^2/2 + q0^2/2 + g0*S", params={"g0": g0})
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(sys1, extended_field(sys1), point(1.0, 0.3, S=0.1), 8.0, cfg,
                         tracked={"h": sys1.h})
        comp = traj.tracked["h"] * np.exp(g0 * (traj.ts - traj.ts[0]))
        assert np.max(np.abs(comp - comp[0])) < 1e-8

    def test_tolerance_tightening_reduces_drift(self):
        # adaptive error control: drift scales roughly linearly with rel_tol
        sys1 = make_system("p0^2/2 + q0^2/2")

        def drift(rtol):
            cfg = IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-2)
            traj = integrate(sys1, extended_field(sys1), point(1.0, 0.0),
                             4 * math.pi, cfg, tracked={"h": sys1.h})
            return np.max(np.abs(traj.tracked["h"] - traj.tracked["h"][0]))

        assert drift(1e-11) < drift(1e-7)

    def test_fixed_step_order_at_least_four(self):
        # halving the step size reduces the one-period return error by at
        # least 2^4 (the propagating method is order five)
        sys1 = make_system("p0^2/2 + q0^2/2")

        def period_error(h):
            cfg = IntegratorConfig(rel_tol=1.0, abs_tol=1e6, max_step=h, min_step=h)
            traj = integrate(sys1, extended_field(sys1), point(1.0, 0.0),
                             2 * math.pi, cfg)
            end = traj.samples[-1]
            return math.hypot(end.q[0] - 1.0, end.p[0])

        e1, e2 = period_error(math.pi / 40), period_error(math.pi / 80)
        assert e1 / e2 >= 16.0


class TestActionConsistency:
    def test_free_particle(self):
        sys1 = make_system("p0^2/(2*m)", params={"m": 1.0})
        traj = integrate(sys1, extended_field(sys1), point(0.0, 2.0), 3.0,
                         IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))
        assert action_consistency(sys1, traj) <= 1e-8

    def test_constant_hamiltonian(self):
        sys1 = make_system("c", params={"c": 2.5})
        traj = integrate(sys1, extended_field(sys1), point(0.4, -0.7, S=1.0), 2.0,
                         IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))
        # Sdot = -c exactly
        assert traj.samples[-1].S == pytest.approx(1.0 - 2.5 * 2.0, abs=1e-10)
        assert action_consistency(sys1, traj) <= 1e-10

    def test_harmonic_oscillator_period(self):
        sys1 = make_system("p0^2/2 + q0^2/2")
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(sys1, extended_field(sys1), point(1.0, 0.0), 2 * math.pi, cfg)
        value = action_consistency(sys1, traj)
        assert value <= 1e-6
        # oracle: the same quadrature at double resolution differs only below
        # the claimed tolerance
        cfg2 = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=0.01)
        traj2 = integrate(sys1, extended_field(sys1), point(1.0, 0.0), 2 * math.pi, cfg2)
        assert action_consistency(sys1, traj2) <= 1e-6


class TestSamplingHelpers:
    def test_admissible_rejection(self, kepler):
        pts = sample_points(kepler, 100, seed=9)
        assert len(pts) == 100
        for pt in pts:
            assert math.sqrt(float(pt.q @ pt.q)) >= 1e-3

    def test_seed_determinism(self, kepler):
        a = sample_points(kepler, 10, seed=11)
        b = sample_points(kepler, 10, seed=11)
        for x, y in zip(a, b):
            assert np.array_equal(x.q, y.q) and np.array_equal(x.p, y.p)
            assert x.S == y.S and x.t == y.t
