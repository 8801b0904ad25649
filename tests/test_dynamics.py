import io
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from contact_noether.dynamics import (
    AUXILIARY_BLOWUP,
    DOMAIN_VIOLATION,
    STEP_SIZE_UNDERFLOW,
    IntegratorConfig,
    TimeDependentHamiltonian,
    _C,
    _flow_loop,
    adaptive_rk45,
    contact_field,
    cumulative_integral,
    extended_field,
    integrate,
)
from contact_noether.expr import DomainError, parse
from contact_noether.geometry import ContactSystem
from contact_noether.noether import sample_points
from contact_noether.systems import make_harmonic_dissipative
from conftest import point, values
from oracles import action_consistency


def make_system(h_src, n=1, params=None, guards=()):
    return ContactSystem(n=n, h=parse(h_src, n), params=params or {}, guards=guards)


def python_loop(rhs, m, width=None, times=None, rows=None):
    """The flow loop on m state values whose stages call the Python `rhs(t, row)`,
    the row a new list; `rhs` returns `width` values (m by default): the
    rates, then guards.  Accepted states are appended to `times` and `rows`."""
    names = [*(f"y{c}" for c in range(m)), "t"]
    return _flow_loop(lambda *a: rhs(a[-1], list(a[:-1])), width or m, names, [],
                      [] if times is None else times, [] if rows is None else rows)


def stepped(rhs, t0, y0, t_end, cfg, width=None):
    """`adaptive_rk45` over a Python `rhs`, stepped by `python_loop`: the stats,
    the tag and the accepted times and rows (the start not included)."""
    times, rows = [], []
    stats, tag = adaptive_rk45(rhs, t0, y0, t_end, cfg,
                               loop=python_loop(rhs, len(y0), width, times, rows))
    return stats, tag, times, rows


def guarded(rhs, t_stop):
    """`rhs` with one trailing guard value, below every margin from `t_stop` on."""
    return lambda t, y: [*rhs(t, y), 1.0 if t < t_stop else 0.0]


class TestFieldConstruction:
    def test_free_particle(self):
        sys1 = make_system("p0^2/2")
        X = contact_field(sys1)
        env = point(0.0, 2.0).env()
        v = values(X.components(), env)
        assert v[0] == 2.0          # qdot = p
        assert v[1] == 0.0          # pdot = 0
        assert v[2] == 2.0          # Sdot = p^2/2
        assert v[3] == 0.0

    def test_damped_oscillator_pdot(self):
        sys1 = make_system("p0^2/2 + q0^2/2 + g0*S", params={"g0": 0.3})
        X = contact_field(sys1)
        env = sys1.env(point(1.5, -0.4))
        v = values(X.components(), env)
        assert v[1] == pytest.approx(-1.5 - 0.3 * -0.4, rel=1e-15)

    def test_h_equals_S(self):
        sys1 = make_system("S")
        X = contact_field(sys1)
        env = point(0.7, 1.1, S=0.9).env()
        v = values(X.components(), env)
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
        assert np.allclose(values(Xe.components(), env)[:3], values(Xc.components(), env)[:3])
        assert values(Xe.components(), env)[3] == 1.0

    def test_extended_field_time_dependent_coefficient(self):
        # h of harmonic type with f(t) = 1 + t: pdot = -m(1+t) q - g0 p
        system = make_harmonic_dissipative(1.0, "1 + t", 0.4)
        X = extended_field(system)
        env = system.env(point(2.0, 0.5, t=3.0))
        v = values(X.components(), env)
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
        radii = [math.sqrt(float(np.asarray(s.q) @ np.asarray(s.q))) for s in traj.samples]
        assert min(radii) > 1e-3

    def test_tracked_fields_are_recorded(self):
        sys1 = make_system("p0^2/2")
        traj = integrate(sys1, extended_field(sys1), point(0.0, 2.0), 1.0,
                         IntegratorConfig(), tracked={"momentum": parse("p0", 1)})
        assert np.allclose(traj.tracked["momentum"], 2.0)
        assert len(traj.tracked["momentum"]) == len(traj.samples)

    def test_domain_violation_returns_partial(self):
        # radial plunge: q moving toward the excluded ball around the origin
        sys1 = make_system("p0^2/2 + 0*q0", guards=(parse("abs(q0)", 1),))
        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, guard_margin=0.5, max_step=0.05)
        traj = integrate(sys1, extended_field(sys1), point(2.0, -1.0), 10.0, cfg)
        assert traj.error_tag == DOMAIN_VIOLATION
        assert len(traj.samples) > 1
        assert all(abs(s.q[0]) >= 0.5 for s in traj.samples)

    def test_kepler_guard_violation_returns_partial(self, kepler):
        # radial plunge toward the origin: the radius guard ends the flow
        # before the singularity, with the states reached so far
        cfg = IntegratorConfig(guard_margin=0.5)
        traj = integrate(kepler, extended_field(kepler), point([1, 0, 0], [-1.0, 0, 0]), 10.0, cfg)
        assert traj.error_tag == DOMAIN_VIOLATION
        assert len(traj.times) > 1 and traj.times[-1] < 10.0
        assert all(math.sqrt(float(np.asarray(s.q) @ np.asarray(s.q))) >= 0.5 for s in traj.samples)

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
        ts = np.asarray(traj.times)
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

    def test_csv_bytes_match_a_row_by_row_writer(self, tmp_path):
        from contact_noether.dynamics import IntegratorStats, Trajectory

        specials = [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, 0.1, -2.5e-17]
        rows = [[1.0 + k, specials[k], -specials[k], specials[-1 - k], 9.0] for k in range(8)]
        traj = Trajectory(2, [0.125 * k for k in range(8)], rows,
                          {"h": specials, "a": [y[-1] for y in rows]}, IntegratorStats())

        def by_row():  # the reference: one row at a time
            lines = ["t,q0,q1,p0,p1,S,h,a"]
            for t, row, *values in zip(traj.times, traj.rows, *traj.tracked.values()):
                lines.append(",".join(map(repr, (t, *row[:5], *values))))
            return "".join(ln + "\n" for ln in lines)

        buf = io.StringIO()
        traj.to_csv(buf)
        traj.to_csv(tmp_path / "trajectory.csv")
        assert buf.getvalue() == by_row()
        assert (tmp_path / "trajectory.csv").read_bytes() == by_row().encode()
        column = [ln.split(",")[6] for ln in buf.getvalue().splitlines()[1:]]
        assert column == ["-0.0", "5e-324", "1e+300", "nan", "inf", "-inf", "0.1", "-2.5e-17"]


class TestRhsCalls:
    @staticmethod
    def counting_rhs():
        calls = []

        def rhs(t, y):
            out = [-50.0 * (y[0] - math.cos(t)), y[0]]
            calls.append((t, tuple(y)))
            return out

        return rhs, calls

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-8])
    def test_adaptive_reuses_last_stage(self, rel_tol):
        # 1 initial derivative + 1 initial-step probe + 12 stages per attempt;
        # stage 12 of an accepted step is the next step's first stage
        rhs, calls = self.counting_rhs()
        stats, tag, times, rows = stepped(
            rhs, 0.0, [2.0, 0.0], 5.0, IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2))
        assert tag is None and stats.accepted == len(rows) > 0
        assert len(calls) == 2 + 12 * (stats.accepted + stats.rejected)
        # the reused stage was evaluated at exactly the accepted state
        evaluated = set(calls)
        assert all((t, tuple(y)) in evaluated for t, y in zip(times, rows))

    def test_fixed_step_call_count(self):
        rhs, calls = self.counting_rhs()
        cfg = IntegratorConfig(min_step=0.01, max_step=0.01)
        stats, tag, _, _ = stepped(rhs, 0.0, [2.0, 0.0], 1.0, cfg)
        assert tag is None and stats.rejected == 0
        assert len(calls) == 1 + 12 * stats.accepted


class TestAcceptedStates:
    def test_tag_stops_before_the_state_counts(self):
        # a guard below the margin at the third accepted state ends the run
        # there: the tagged state is neither counted nor recorded
        decay = lambda t, y: [-y[0]]  # noqa: E731
        _, _, times, rows = stepped(decay, 0.0, [1.0], 5.0, IntegratorConfig())
        stats, tag, stopped, kept = stepped(guarded(decay, times[2]), 0.0, [1.0], 5.0,
                                            IntegratorConfig(), width=2)
        assert tag == DOMAIN_VIOLATION and stats.accepted == 2
        assert stopped == times[:2] and kept == rows[:2]

    def test_a_stop_mid_way_counts_the_stopped_attempt(self):
        # the README's counts: two right-hand sides before the first step, twelve
        # per attempt, the stopped one included
        rhs, calls = TestRhsCalls.counting_rhs()
        cfg = IntegratorConfig(rel_tol=1e-4)
        seen = stepped(rhs, 0.0, [2.0, 0.0], 5.0, cfg)[2]
        calls.clear()
        stats, tag, times, _ = stepped(guarded(rhs, seen[54]), 0.0, [2.0, 0.0], 5.0, cfg, width=3)
        assert tag == DOMAIN_VIOLATION and stats.accepted == 54 and stats.rejected == 1
        assert stats.rhs_calls == len(calls) == 2 + 12 * (stats.accepted + stats.rejected + 1)
        assert times == seen[:54]
        steps = [b - a for a, b in zip([0.0, *seen], seen[:54])]
        assert stats.smallest_step == pytest.approx(min(steps), rel=1e-12)
        assert stats.largest_step == pytest.approx(max(steps), rel=1e-12)

    def test_nan_rhs_underflows_with_finite_states(self):
        # y' = -y, NaN for t > 0.5: every step across t = 0.5 has a NaN error
        # scale, so it is rejected until the step size underflows
        def rhs(t, y):
            return [math.nan if t > 0.5 else -v for v in y]

        stats, tag, times, rows = stepped(rhs, 0.0, [1.0], 1.0,
                                          IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8))
        assert tag == STEP_SIZE_UNDERFLOW
        assert (stats.accepted, stats.rejected) == (26, 51)
        assert len(times) == len(rows) == 26 and all(map(math.isfinite, [*times, *sum(rows, [])]))

    def test_fixed_step_nan_state_is_tagged(self):
        # fixed steps accept whatever the error; a non-finite state ends the
        # flow (pdot is -(inf - inf) for t > 0)
        sys1 = make_system("q0*((1e200*t)*(1e200*t) - (1e200*t)*(1e200*t))")
        cfg = IntegratorConfig(min_step=0.1, max_step=0.1)
        traj = integrate(sys1, extended_field(sys1), point(0.5, 1.0), 1.0, cfg)
        assert traj.error_tag == DOMAIN_VIOLATION
        assert traj.rows == [[0.5, 1.0, 0.0]] and traj.stats.accepted == 0


class TestFlowBuildsNoPoints:
    def test_oscillator_flow_and_its_readers(self, damped_oscillator, monkeypatch, tmp_path):
        from contact_noether.geometry import ExtendedPoint
        from contact_noether.noether import dissipation_compensation
        from contact_noether.systems import AuxiliaryState, co_integrate

        start = point(1.0, 0.5)
        built = []
        real = ExtendedPoint.__post_init__
        monkeypatch.setattr(ExtendedPoint, "__post_init__",
                            lambda self: built.append(self) or real(self))
        tracked = [ti for ti in damped_oscillator.meta["invariants"].values()
                   if ti.label in ("F0", "F_GLR", "F_EM")]
        traj = co_integrate(damped_oscillator, start, AuxiliaryState(use_a=True, use_b=True),
                            5.0, IntegratorConfig(), tracked)
        dissipation_compensation(damped_oscillator, traj)
        action_consistency(damped_oscillator, traj)
        traj.to_csv(tmp_path / "trajectory.csv")
        assert traj.error_tag is None and traj.stats.accepted > 10
        assert built == []

    @pytest.mark.parametrize("label", ["kepler", "td-kepler"])
    def test_guarded_flow(self, label, monkeypatch):
        # the guards are evaluated as trailing columns of the right-hand side
        from contact_noether.geometry import ExtendedPoint
        from contact_noether.systems import make_kepler, make_td_kepler

        system = make_kepler() if label == "kepler" else make_td_kepler(1.0, 0.25, 1.5)
        assert system.guards
        start = point([1, 0, 0], [0, 1.2, 0], t=1.0)
        built = []
        real = ExtendedPoint.__post_init__
        monkeypatch.setattr(ExtendedPoint, "__post_init__",
                            lambda self: built.append(self) or real(self))
        traj = integrate(system, extended_field(system), start, 3.0, IntegratorConfig(),
                         tracked={"h": system.h})
        assert traj.error_tag is None and traj.stats.accepted > 10
        assert built == []


class TestFloatNorm:
    def test_rms_matches_numpy_bitwise(self):
        # sequential below 8 values, 8 accumulators up to 128, halving above
        from contact_noether.dynamics import _rms

        rng = np.random.default_rng(5)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan]
        for size in range(1, 301):
            for case in range(4):
                v = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
                s = rng.uniform(0.5, 2.0, size=size) * 10.0 ** rng.integers(-12, 1, size=size)
                if case == 1:
                    v[rng.integers(0, size, size=max(1, size // 3))] = -0.0
                elif case >= 2:
                    v[rng.integers(0, size)] = specials[rng.integers(0, len(specials))]
                ref = np.sqrt(np.mean([(r := a / b) * r for a, b in zip(v.tolist(), s.tolist())]))
                assert _rms(v.tolist(), s.tolist()).hex() == float(ref).hex(), (size, case)

    def test_trailing_values_are_ignored(self):
        from contact_noether.dynamics import _rms

        assert _rms([3.0, 4.0, math.nan], [1.0, 1.0]) == math.sqrt(12.5)


class TestIntegratorEdges:
    @pytest.mark.parametrize("name, value", [("rel_tol", math.nan), ("abs_tol", math.inf),
                                             ("guard_margin", math.nan)])
    def test_non_finite_setting_is_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            IntegratorConfig(**{name: value})

    def test_fixed_step_ends_with_a_short_step(self):
        # 0.1 steps to 1.05: the last step is 0.05, below min_step, and lands on t_end
        cfg = IntegratorConfig(min_step=0.1, max_step=0.1)
        stats, tag, times, _ = stepped(lambda t, y: [-y[0]], 0.0, [1.0], 1.05, cfg)
        assert tag is None and stats.accepted == 11 and len(times) == 11
        assert times[-1] == 1.05

    def test_completed_runs_end_at_t_end(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            t0 = float(rng.uniform(-50.0, 50.0))
            t_end = t0 + float(10.0 ** rng.uniform(-3.0, 2.0))
            cfg = IntegratorConfig(rel_tol=float(10.0 ** rng.uniform(-10, -4)),
                                   max_step=float(10.0 ** rng.uniform(-2, 1)))
            stats, tag, times, _ = stepped(lambda t, y: [math.cos(t) * y[0]], t0, [1.0], t_end,
                                           cfg)
            if tag is None:
                assert abs(times[-1] - t_end) <= 1e-14 * max(1.0, abs(t_end))


class TestStepSizes:
    def test_fixed_steps_are_all_max_step(self):
        sys1 = make_system("p0^2/2 + q0^2/2")
        cfg = IntegratorConfig(min_step=0.125, max_step=0.125)
        st = integrate(sys1, extended_field(sys1), point(1.0, 0.0), 1.0, cfg).stats
        assert st.accepted == 8 and st.smallest_step == st.largest_step == 0.125

    def test_adaptive_kepler_steps(self, kepler):
        traj = _kepler_flow(kepler, point([1, 0, 0], [0, 1.2, 0]), 5.0)
        st, steps = traj.stats, [b - a for a, b in zip(traj.times, traj.times[1:])]
        assert traj.error_tag is None and st.accepted == len(steps) > 10
        assert 0.0 < st.smallest_step < st.largest_step
        # each step is the step size h of `t + h`, so within rounding of t
        assert st.smallest_step == pytest.approx(min(steps), rel=1e-12)
        assert st.largest_step == pytest.approx(max(steps), rel=1e-12)

    def test_no_accepted_step(self):
        # a guard below the margin everywhere stops the run at its first step
        stats, tag, times, _ = stepped(guarded(lambda t, y: [-y[0]], -math.inf), 0.0, [1.0], 1.0,
                                       IntegratorConfig(), width=2)
        assert tag == DOMAIN_VIOLATION and stats.accepted == 0 and times == []
        assert stats.smallest_step == stats.largest_step == 0.0

    def test_rates_too_large_for_the_initial_step_heuristic(self):
        # the scaled RMS of the initial rates overflows, so the heuristic's first
        # step is 0; the flow starts at min_step instead, where the attempt's
        # error is too large, so it is refused (and counted as rejected) and the
        # run ends tagged
        sys1 = make_system("p0*q0 + sin(q0*q0*q0)")
        traj = integrate(sys1, extended_field(sys1), point(1e102, 0.0), 5.0, IntegratorConfig())
        assert traj.error_tag == STEP_SIZE_UNDERFLOW
        assert traj.rows == [[1e102, 0.0, 0.0]] and traj.stats.rhs_calls == 2 + 12
        assert traj.stats.accepted == 0 and traj.stats.rejected == 1


class TestFloatStages:
    @pytest.mark.parametrize("m", [*range(1, 21), 130])
    def test_attempt_matches_the_numpy_formulas_bitwise(self, m):
        # a scripted rhs returns preset rates, each with a trailing guard value
        # the stepping ignores; rows, new state and Hairer's error norm against
        # numpy, over one step of the flow loop, fixed, then at its floor
        from contact_noether.dynamics import _A, _E3, _E5

        rng = np.random.default_rng(3 + m)
        for trial in range(200):
            y = rng.normal(size=m) * 10.0 ** rng.integers(-8, 8)
            k = [rng.normal(size=m) * 10.0 ** rng.integers(-8, 8) for _ in range(13)]
            k[rng.integers(0, 13)][rng.integers(0, m)] = -0.0
            y[rng.integers(0, m)] = -0.0
            if trial % 4 == 3:
                k[rng.integers(0, 13)][rng.integers(0, m)] = math.nan
            t, h = float(rng.uniform(-10.0, 10.0)), float(rng.uniform(1e-6, 1.0))
            atol, rtol = (float(v) for v in 10.0 ** rng.uniform(-14, -4, size=2))
            calls, times, rows = [], [], []

            def rhs(ti, row):
                calls.append((ti, row))
                return (*k[len(calls)].tolist(), 7.5)

            def step(max_step):
                calls.clear()
                times.clear()
                rows.clear()
                cfg = IntegratorConfig(rel_tol=rtol, abs_tol=atol, min_step=h, max_step=max_step)
                return python_loop(rhs, m, m + 1, times, rows)(
                    t, y.tolist(), (*k[0].tolist(), -1.0), h, t + h, cfg)

            # a fixed step is accepted whatever its error, and kept if its state is finite
            done = step(h)
            new_row = calls[-1][1]
            if all(map(math.isfinite, new_row)):
                assert done[-1] is None and times == [t + h] and rows == [new_row]
            else:
                assert done[:3] == (0, 0, 1) and done[-1] == DOMAIN_VIOLATION and rows == []
            assert len(calls) == 12
            for i, (ti, row) in enumerate(calls, 1):
                ref = y + h * sum(a * k[j] for j, a in enumerate(_A[i]) if a != 0.0)
                assert ti == t + _C[i] * h
                assert type(row) is list and np.array(row).tobytes() == ref.tobytes(), (m, i)
            sc = atol + rtol * np.maximum(np.abs(y), np.abs(ref))
            e5, e3 = (sum(e * k[j] for j, e in enumerate(coeffs) if e != 0.0) / sc
                      for coeffs in (_E5, _E3))
            n5, n3 = np.sum(e5 * e5), np.sum(e3 * e3)
            ref_err = (np.float64(0.0) if n5 == 0.0 and n3 == 0.0
                       else h * n5 / np.sqrt((n5 + 0.01 * n3) * m))
            # the largest accepted norm; max() keeps its start 0.0 over a NaN,
            # and a tagged state is not accepted, its norm NaN
            err = done[3]
            kept = np.float64(0.0) if np.isnan(ref_err) else ref_err
            assert type(err) is float and np.float64(err).tobytes() == kept.tobytes(), m
            # at its floor an adaptive step is refused unless its norm is at most 1, NaN not
            done = step(2 * h)
            assert len(calls) == 12
            if ref_err <= 1.0:
                assert done[:4] == (1, 0, 1, err) and done[-1] is None and rows == [new_row]
            else:
                assert done[:3] == (0, 1, 1) and done[-1] == STEP_SIZE_UNDERFLOW

    def test_domain_error_at_stage_3_rejects_and_quarters_the_step(self, monkeypatch):
        from contact_noether import dynamics

        monkeypatch.setattr(dynamics, "_initial_step", lambda *args: 0.5)
        times = []

        def rhs(t, y):
            times.append(t)
            if len(times) == 4:  # the initial rates, then stages 1-3 of the first attempt
                raise DomainError("scripted", "q0")
            return [-y[0]]

        stats, tag, accepted, _ = stepped(rhs, 0.0, [1.0], 1.0,
                                          IntegratorConfig(rel_tol=1e-3, abs_tol=1e-6))
        assert tag is None and stats.rejected == 1
        assert times[:5] == [0.0, _C[1] * 0.5, _C[2] * 0.5, _C[3] * 0.5, _C[1] * (0.25 * 0.5)]
        assert accepted[0] == 0.25 * 0.5


class TestTableau:
    """DOP853's order conditions, evaluated exactly on the float literals of the
    tableau (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10): each
    residual within an ulp of 1, and the first condition past each order
    failing, so that the bounds are sharp."""

    @staticmethod
    def moment(weights, k):  # sum_i w_i c_i^(k-1), exactly
        return sum(Fraction(w) * Fraction(c) ** (k - 1) for w, c in zip(weights, _C))

    def test_rows_sum_to_their_nodes(self):
        from contact_noether.dynamics import _A

        for i, row in enumerate(_A[1:], 1):
            residual = abs(sum(map(Fraction, row)) - Fraction(_C[i]))
            assert residual <= 2.0 ** -52 * sum(map(abs, row)), i

    def test_weights_have_order_eight(self):
        # the bushy-tree conditions sum_i b_i c_i^(k-1) = 1/k, at most 1.6e-16 off today
        from contact_noether.dynamics import _A

        weights = _A[-1]
        for k in range(1, 9):
            assert abs(self.moment(weights, k) - Fraction(1, k)) <= 2.0 ** -52, k
        assert abs(self.moment(weights, 9) - Fraction(1, 9)) > 1e-6

    @pytest.mark.parametrize("name, order", [("_E5", 5), ("_E3", 3)])
    def test_error_estimates_vanish_to_their_order(self, name, order):
        from contact_noether import dynamics

        weights = getattr(dynamics, name)
        for k in range(1, order + 1):
            assert abs(self.moment(weights, k)) <= 2.0 ** -52, k
        assert abs(self.moment(weights, order + 1)) > 1e-6


class TestCompiledOnce:
    """integrate compiles its right-hand side and its recorded columns as one
    bundle each, whatever the number of components, and evaluates no field
    through the env-dict path while it runs."""

    @staticmethod
    def count(monkeypatch, run):
        from contact_noether import expr

        codegen, evals = [], []
        real_codegen, real_eval = expr._codegen, expr.ScalarField.eval_env
        monkeypatch.setattr(expr, "_codegen", lambda *a: codegen.append(a) or real_codegen(*a))
        monkeypatch.setattr(expr.ScalarField, "eval_env",
                            lambda self, env: evals.append(self) or real_eval(self, env))
        traj = run()
        monkeypatch.undo()
        assert traj.error_tag is None and traj.stats.accepted > 10
        return len(codegen), len(evals)

    def test_kepler_with_two_tracked_fields(self, kepler, monkeypatch):
        field = extended_field(kepler)
        tracked = {"h": kepler.h, "Q_K": kepler.meta["invariants"]["Q_K"].field}
        start = point([1, 0, 0], [0, 1.2, 0])
        for columns in ({}, {"h": tracked["h"]}, tracked):
            counts = self.count(monkeypatch, lambda: integrate(
                kepler, field, start, 3.0, IntegratorConfig(), tracked=columns))
            assert counts == (2, 0)

    def test_co_integrated_oscillator_with_two_auxiliary_blocks(self, damped_oscillator,
                                                               monkeypatch):
        from contact_noether.systems import AuxiliaryState, co_integrate

        invariants = list(damped_oscillator.meta["invariants"].values())
        tracked = [ti for ti in invariants if ti.label in ("F0", "F_GLR", "F_EM")]
        aux0 = AuxiliaryState(use_a=True, use_b=True)
        counts = self.count(monkeypatch, lambda: co_integrate(
            damped_oscillator, point(1.0, 0.5), aux0, 5.0, IntegratorConfig(), tracked))
        assert counts == (2, 0)

    def test_one_flow_writes_each_field_set_once(self, kepler):
        # `_emit` writes the right-hand side once and the tracked columns once,
        # both for `_codegen`: the stepping loop writes no copy of its own
        import sys

        from contact_noether import expr

        field, start, callers = extended_field(kepler), point([1, 0, 0], [0, 1.2, 0]), []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is expr._emit.__code__:
                callers.append(frame.f_back.f_code.co_name)

        sys.setprofile(profile)
        try:
            traj = integrate(kepler, field, start, 3.0, IntegratorConfig(), tracked={"h": kepler.h})
        finally:
            sys.setprofile(None)
        assert traj.error_tag is None and callers == ["_codegen", "_codegen"]


def _kepler_flow(system, start, t_end, cfg=None):
    return integrate(system, extended_field(system), start, t_end, cfg or IntegratorConfig(),
                     tracked={"h": system.h})


def _oscillator_flow(system, start, aux, t_end, cfg=None):
    from contact_noether.systems import co_integrate

    tracked = [ti for ti in system.meta["invariants"].values() if ti.label in ("F0", "F_GLR")]
    return co_integrate(system, start, aux, t_end, cfg or IntegratorConfig(), tracked)


def _flows():
    from contact_noether.systems import AuxiliaryState, make_kepler, make_td_kepler

    osc = make_harmonic_dissipative(1.0, 1.0, 0.2)
    inverted = make_harmonic_dissipative(1.0, -5.0, 0.1)
    coarse = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    # the check of `/` fails on every stage: each quotient is finite, their sum is not
    overflowing = make_system("p0^2/2 + q0*(1e308/w - 1e308/v)", params={"w": 1.0, "v": 1.0})
    return {
        "kepler": (lambda: _kepler_flow(make_kepler(), point([1, 0, 0], [0, 1.2, 0]), 5.0),
                   None, "never"),
        "td-kepler": (lambda: _kepler_flow(make_td_kepler(1.0, 0.25, 1.5),
                                           point([1, 0, 0], [0, 1.2, 0], t=1.0), 3.0),
                      None, "never"),
        "oscillator": (lambda: _oscillator_flow(osc, point(1.0, 0.5),
                                                AuxiliaryState(use_a=True, use_b=True), 5.0),
                       None, "never"),
        "guard": (lambda: _kepler_flow(make_kepler(), point([1, 0, 0], [-1.0, 0, 0]), 10.0,
                                       IntegratorConfig(guard_margin=0.5)),
                  DOMAIN_VIOLATION, "never"),
        "blowup": (lambda: _oscillator_flow(inverted, point(0.1, 0.0),
                                            AuxiliaryState(use_a=True), 60.0, coarse),
                   AUXILIARY_BLOWUP, "never"),
        "raising-stages": (lambda: _kepler_flow(make_system("p0^2/2 + q0*sqrt(2 - t)"),
                                                point(1.0, 0.5), 3.0,
                                                IntegratorConfig(min_step=1e-6)),
                           STEP_SIZE_UNDERFLOW, "sometimes"),
        "overflowing-check": (lambda: _kepler_flow(overflowing, point(1.0, 0.5), 2.0),
                              None, "always"),
        "vanishing-aux": (_vanishing_aux_flow, STEP_SIZE_UNDERFLOW, "never"),
    }


def _vanishing_aux_flow():
    # a decays toward 0, where stages with |a| < 1e-12 raise: the steps shrink to the floor
    from contact_noether.dynamics import AuxComponent

    free = make_system("p0^2/2")
    return integrate(free, extended_field(free), point(0.0, 1.0), 2.0,
                     IntegratorConfig(min_step=1e-6),
                     aux={"a": AuxComponent(1.0, parse("-50*a", 1), (0.0, 2.0))})


class TestFlowAttempt:
    """integrate takes its steps with one generated loop whose stages call the
    compiled right-hand side; a stage that raises rejects the attempt with the
    right-hand side's own error."""

    @staticmethod
    def run(monkeypatch, flow):
        # integrate's flow, the eval_node fallbacks of the bundles called while
        # it steps counted
        from contact_noether import dynamics, expr

        real, codegen, stepping, fallbacks = dynamics.adaptive_rk45, expr._codegen, [False], []

        def counting(roots, argnames, bound, slow):
            def counted(*args):
                fallbacks.append(stepping[0])
                return slow(*args)

            return codegen(roots, argnames, bound, counted)

        def stepper(*args, loop):
            stepping[0] = True
            try:
                return real(*args, loop=loop)
            finally:
                stepping[0] = False

        monkeypatch.setattr(expr, "_codegen", counting)
        monkeypatch.setattr(dynamics, "adaptive_rk45", stepper)
        try:
            return flow(), sum(fallbacks)
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("name", list(_flows()))
    def test_flow_ends_with_its_tag(self, name, monkeypatch):
        flow, tag, falls_back = _flows()[name]
        traj, fallbacks = self.run(monkeypatch, flow)
        assert traj.error_tag == tag and traj.stats.accepted > 3
        # the right-hand side falls back to eval_node at the initial rates, the
        # initial-step probe and the stages whose compiled body fails
        calls = traj.stats.rhs_calls
        assert {"never": fallbacks == 0, "always": fallbacks == calls,
                "sometimes": 0 < fallbacks < calls}[falls_back]

    @staticmethod
    def made(monkeypatch, flow):
        """The rhs and the loop that `flow` passes to adaptive_rk45."""
        from contact_noether import dynamics

        real, made = dynamics.adaptive_rk45, []
        monkeypatch.setattr(dynamics, "adaptive_rk45", lambda rhs, *args, loop: made.append(
            (rhs, loop)) or real(rhs, *args, loop=loop))
        flow()
        monkeypatch.undo()
        return made[0]

    @staticmethod
    def one_step(loop, t, y, f, h):
        """`loop` from (t, y) with rates f, one fixed step of h to t + h; the
        DomainErrors made meanwhile, as (type, message, where)."""
        made, real = [], DomainError.__init__

        def init(self, message, where):
            real(self, message, where)
            made.append(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DomainError, "__init__", init)
            done = loop(t, y, f, h, t + h, IntegratorConfig(min_step=h, max_step=h))
        assert done == (0, 1, 1, 0.0, math.inf, 0.0, STEP_SIZE_UNDERFLOW)
        return [(type(e), str(e), e.where) for e in made]

    def test_a_raising_stage_rejects_with_eval_nodes_error(self, monkeypatch):
        from contact_noether.expr import eval_node

        sys1 = make_system("p0^2/2 + q0*sqrt(2 - t)")
        rhs, fused = self.made(monkeypatch, lambda: _kepler_flow(sys1, point(1.0, 0.5), 1.0))
        seen = []

        def recorded(t, row):
            seen.append((t, list(row)))
            return rhs(t, row)

        # stages 1-3 are taken before t = 2.0, stage 4 past it, where sqrt(2 - t) raises
        t, y, h = 1.9, [1.0, 0.5, 0.0], 0.5
        errors = [self.one_step(loop, t, y, rhs(t, y), h)
                  for loop in (fused, python_loop(recorded, 3))]
        # the fused loop calls no Python rhs; the one over `recorded` raised at its fourth stage
        assert len(seen) == 4 and seen[3][0] == t + _C[4] * h
        env = dict(zip(["q0", "p0", "S", "t"], [*seen[3][1], seen[3][0]]))
        field = extended_field(sys1)
        with pytest.raises(DomainError) as info:
            for f in (*field.Yq, *field.Yp, field.YS):
                eval_node(f.ast, env)
        expected = info.value
        assert expected.where.startswith("sqrt(")
        for e in errors:
            assert e == [(type(expected), str(expected), expected.where)]

    def test_sin_of_an_overflowing_argument_rejects_the_step(self):
        # q0 grows as e^t, so q0*q0*q0 overflows near t = 0.026; sin(inf) is eval_node's
        # DomainError, which rejects the step, and no ValueError leaves integrate
        sys1 = make_system("p0*q0 + sin(q0*q0*q0)")
        traj = integrate(sys1, extended_field(sys1), point(5.5e102, 0.0), 5.0,
                         IntegratorConfig(min_step=0.01, max_step=0.01))
        assert traj.error_tag == STEP_SIZE_UNDERFLOW
        assert traj.stats.accepted == 2 and traj.stats.rejected == 1
        assert 5.6e102 < traj.rows[-1][0] < 5.65e102

    def test_a_vanishing_auxiliary_value_raises_the_rhs_error(self, monkeypatch):
        # the flow loop's inline box test and integrate's Python rhs raise alike
        rhs, fused = self.made(monkeypatch, _vanishing_aux_flow)
        # stage 1 takes a to 1e-3 + h * C1 * -0.05 = 1e-3 - 0.02 * 0.05, about 0
        y, h = [0.0, 1.0, 0.0, 1e-3], 0.02 / _C[1]
        errors = [self.one_step(loop, 0.0, y, rhs(0.0, y), h)
                  for loop in (fused, python_loop(rhs, 4))]
        assert errors[0] == errors[1] == [(DomainError, "auxiliary function vanished in `a`", "a")]

    @pytest.mark.parametrize("source, m", [("p0^2/2 + q0/(m - 1)", 1.0),
                                           ("p0^2/2 + q0*sqrt(m - 2)", 1.0),
                                           ("p0^2/2 + q0*(1e300/m)", 1e-10)])
    def test_a_failing_parameter_statement_takes_the_generic_steps(self, source, m,
                                                                   monkeypatch):
        # `m - 1` runs once when the right-hand side is compiled and the quotient
        # that reads q0 at every stage; `sqrt(m - 2)` raises and `1e300/m`
        # overflows there: the stages that read them fall back to eval_node
        from contact_noether.expr import eval_node

        sys1 = make_system(source, params={"m": m})
        flow = lambda: integrate(sys1, extended_field(sys1), point(1.0, 0.5), 1.0)  # noqa: E731
        traj = self.run(monkeypatch, flow)[0]
        assert traj.error_tag == DOMAIN_VIOLATION and traj.rows == [[1.0, 0.5, 0.0]]
        assert traj.stats.accepted == 0

        rhs, loop = self.made(monkeypatch, flow)
        y, seen = [1.0, 0.5, 0.0], []

        def recorded(t, row):
            seen.append((t, list(row)))
            return rhs(t, row)

        errors = [self.one_step(each, 0.0, y, [0.0, 0.0, 0.0], 0.1)
                  for each in (loop, python_loop(recorded, 3))]
        assert len(seen) == 1 and seen[0][0] == _C[1] * 0.1
        with pytest.raises(DomainError) as info:
            field = extended_field(sys1)
            for f in (*field.Yq, *field.Yp, field.YS):
                eval_node(f.ast, {"q0": 1.0, "p0": 0.5, "S": 0.0, "t": 0.02, "m": m})
        expected = info.value
        assert errors[0] == errors[1] == [(DomainError, str(expected), expected.where)]

    def test_rhs_calls_count_every_stage(self, kepler, damped_oscillator):
        from contact_noether.systems import AuxiliaryState

        for traj in (_kepler_flow(kepler, point([1, 0, 0], [0, 1.2, 0]), 5.0),
                     _oscillator_flow(damped_oscillator, point(1.0, 0.5),
                                      AuxiliaryState(use_a=True, use_b=True), 5.0)):
            st = traj.stats
            assert traj.error_tag is None and st.accepted > 10
            assert st.rhs_calls == 2 + 12 * (st.accepted + st.rejected)
        fixed = _kepler_flow(kepler, point([1, 0, 0], [0, 1.2, 0]), 1.0,
                             IntegratorConfig(min_step=0.01, max_step=0.01)).stats
        assert fixed.rejected == 0 and fixed.rhs_calls == 1 + 12 * fixed.accepted
        # stepped over a Python rhs: the count is the number of calls
        rhs, calls = TestRhsCalls.counting_rhs()
        st, tag, _, _ = stepped(rhs, 0.0, [2.0, 0.0], 5.0, IntegratorConfig(rel_tol=1e-4))
        assert tag is None and st.rejected > 0 and st.rhs_calls == len(calls)

    def test_a_second_kepler_flow_compiles_nothing(self, monkeypatch):
        import builtins

        from contact_noether.systems import make_kepler

        def flow(m, eps, start):
            return _kepler_flow(make_kepler(m, eps), start, 2.0)

        flow(1.0, 0.25, point([1, 0, 0], [0, 1.2, 0]))
        compiled, real = [], builtins.compile
        monkeypatch.setattr(builtins, "compile", lambda *a, **k: compiled.append(a) or real(*a, **k))
        traj = flow(1.7, 0.4, point([0.2, 1.1, -0.3], [0.9, 0.1, 0.2]))
        monkeypatch.undo()
        assert traj.error_tag is None and traj.stats.accepted > 10
        assert compiled == []


@pytest.mark.parametrize("name", ["kepler", "oscillator"])
def test_scipy_dop853_reaches_the_same_end_state(name, monkeypatch):
    # the same pair at the same tolerances, stepped by scipy on the compiled
    # right-hand side that `integrate` builds (its trailing guard values cut off)
    scipy_integrate = pytest.importorskip("scipy.integrate")
    from contact_noether.systems import AuxiliaryState, make_kepler

    osc = make_harmonic_dissipative(1.0, "1 + 0.3*sin(t)", 0.2)
    flow = {"kepler": lambda: _kepler_flow(make_kepler(), point([1, 0, 0], [0, 1.2, 0]), 20.0),
            "oscillator": lambda: _oscillator_flow(osc, point(1.0, 0.5),
                                                   AuxiliaryState(use_a=True, use_b=True), 20.0),
            }[name]
    rhs, _ = TestFlowAttempt.made(monkeypatch, flow)
    traj = flow()
    m = len(traj.rows[0])
    ref = scipy_integrate.solve_ivp(lambda t, y: rhs(t, y.tolist())[:m],
                                    (traj.times[0], traj.times[-1]), traj.rows[0],
                                    method="DOP853", rtol=1e-10, atol=1e-12)
    assert traj.error_tag is None and ref.success and m == 7
    assert all(abs(a - b) <= 1e-8 * max(1.0, abs(b)) for a, b in zip(traj.rows[-1], ref.y[:, -1]))


class TestHermiteQuadrature:
    def test_exact_for_a_degree_7_polynomial_in_t_on_a_nonuniform_grid(self):
        from contact_noether.dynamics import IntegratorStats, Trajectory

        rng = np.random.default_rng(96)
        sys1 = make_system("p0^2/2")
        for _ in range(20):
            c = rng.normal(size=8).tolist()
            x = (np.cumsum(rng.uniform(0.01, 0.4, size=int(rng.integers(2, 60)))) - 1.0).tolist()
            g = parse(" + ".join(f"({v!r})*t^{k}" for k, v in enumerate(c)), 1)
            traj = Trajectory(1, x, [[0.0, 0.0, 0.0]] * len(x), {}, IntegratorStats())
            F = [sum(v * xi ** (k + 1) / (k + 1) for k, v in enumerate(c)) for xi in x]
            got = cumulative_integral(sys1, traj, g)
            assert got[0] == 0.0 and len(got) == len(x)
            scale = max(map(abs, F))
            assert all(abs(a - (b - F[0])) <= 1e-13 * scale for a, b in zip(got, F))

    def test_compensation_for_a_varying_dh_dS_matches_a_fine_grid(self):
        # dh/dS = 0.1*S moves along the flow; the integral on the 8th-order
        # grid (about 100 steps) agrees with the one on steps of at most 0.002
        from contact_noether.noether import dissipation_compensation

        sys1 = make_system("p0^2/2 + q0^2/2 + 0.05*S^2")

        def flow(cfg):
            traj = integrate(sys1, extended_field(sys1), point(1.0, 0.5), 20.0, cfg)
            assert traj.error_tag is None
            return traj

        coarse, fine = flow(IntegratorConfig()), flow(IntegratorConfig(max_step=0.002))
        got, ref = (cumulative_integral(sys1, traj, sys1.h_S)[-1] for traj in (coarse, fine))
        assert len(fine.times) > 50 * len(coarse.times)
        assert abs(got - ref) <= 1e-8
        assert dissipation_compensation(sys1, coarse)[-1] == math.exp(got)


def test_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, contact_noether; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_bundled_runs_leave_numpy_unloaded(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import glob, sys, contact_noether\n"
            "from contact_noether import cli\n"
            f"paths = sorted(glob.glob({str(root / 'scenarios' / '*.json')!r}))\n"
            f"print([cli.run(p, {str(tmp_path)!r}, quiet=True)[1] for p in paths],"
            " 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.strip() == "[0, 0, 0, 0] False"


def test_generated_functions_have_distinct_file_names():
    # cProfile keys functions by file name, line and name: every distinct
    # generated source and the DOP853 loop of every state shape must
    # be told apart, while bundles that differ only in their numbers share
    # one code object and keep their own numbers
    from contact_noether.dynamics import _rms_of
    from contact_noether.expr import compile_bundle

    same = [compile_bundle([parse(f"{c}*q0*p0", 1)], ["q0", "p0"]) for c in (2.5, 3.5)]
    other = compile_bundle([parse("q0*p0 + 2.5", 1)], ["q0", "p0"])
    assert same[0].__code__ is same[1].__code__
    assert (same[0](2.0, 3.0), same[1](2.0, 3.0)) == ((15.0,), (21.0,))
    state = ["q0", "p0", "S", "t"]
    rhs = compile_bundle([parse("p0", 1), parse("-q0", 1), parse("p0^2/2", 1)], state)
    flows = [_flow_loop(rhs, 3, state, [], [], []), _flow_loop(rhs, 3, state, [], [], []),
             python_loop(lambda t, y: y, 7)]
    assert flows[0].__code__ is flows[1].__code__
    names = [f.__code__.co_filename for f in (same[0], other, flows[0], flows[2],
                                              _rms_of(3), _rms_of(7))]
    assert len(set(names)) == len(names) == 6
    kinds = ["scalar-field", "scalar-field", "dop853-flow", "dop853-flow", "rms", "rms"]
    assert all(nm.startswith(f"<{kind}-") for nm, kind in zip(names, kinds))


class TestConservationAlongFlow:
    def test_h_constant_for_autonomous_h(self, kepler):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(kepler, extended_field(kepler),
                         point([1, 0, 0], [0, 1.2, 0]), 10.0, cfg,
                         tracked={"h": kepler.h})
        drift = np.max(np.abs(np.asarray(traj.tracked["h"]) - traj.tracked["h"][0]))
        assert drift < 10 * cfg.rel_tol * max(1.0, abs(traj.tracked["h"][0])) * 100

    def test_h_exp_rate_constant_for_linear_dissipation(self):
        g0 = 0.25
        sys1 = make_system("p0^2/2 + q0^2/2 + g0*S", params={"g0": g0})
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(sys1, extended_field(sys1), point(1.0, 0.3, S=0.1), 8.0, cfg,
                         tracked={"h": sys1.h})
        comp = np.asarray(traj.tracked["h"]) * np.exp(g0 * (np.asarray(traj.times) - traj.times[0]))
        assert np.max(np.abs(comp - comp[0])) < 1e-8

    def test_tolerance_tightening_reduces_drift(self):
        # adaptive error control: drift scales roughly linearly with rel_tol
        sys1 = make_system("p0^2/2 + q0^2/2")

        def drift(rtol):
            cfg = IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-2)
            traj = integrate(sys1, extended_field(sys1), point(1.0, 0.0),
                             4 * math.pi, cfg, tracked={"h": sys1.h})
            return np.max(np.abs(np.asarray(traj.tracked["h"]) - traj.tracked["h"][0]))

        assert drift(1e-11) < drift(1e-7)

    def test_fixed_step_order_at_least_four(self):
        # q0 = cos t, p0 = -sin t, S = -sin(2t)/4 over one period at 8, 16, 32
        # and 64 fixed steps: the largest end error falls by at least 2^7 per
        # halving down to 32 steps (about 2^8 today: 5.8e-8, 2.3e-10, 8.9e-13;
        # the propagating method is order eight) and is at round-off, 3.3e-15,
        # at 64; a weight off by 1e-13 or 1e-10 makes the tableau inconsistent,
        # and the error stalls above 1e-14
        sys1 = make_system("p0^2/2 + q0^2/2")

        def period_error(steps):
            h = 2 * math.pi / steps
            cfg = IntegratorConfig(rel_tol=1.0, abs_tol=1e6, max_step=h, min_step=h)
            traj = integrate(sys1, extended_field(sys1), point(1.0, 0.0), 2 * math.pi, cfg)
            t, y = traj.times[-1], traj.rows[-1]
            assert traj.error_tag is None and traj.stats.accepted == steps
            exact = (math.cos(t), -math.sin(t), -math.sin(2 * t) / 4)
            return max(abs(a - b) for a, b in zip(y, exact))

        errors = [period_error(steps) for steps in (8, 16, 32, 64)]
        assert all(a / b >= 2.0 ** 7 for a, b in zip(errors, errors[1:3])), errors
        assert errors[3] <= 1e-14, errors


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
            assert math.sqrt(float(np.asarray(pt.q) @ np.asarray(pt.q))) >= 1e-3

    @pytest.mark.parametrize("label, digest", [
        ("kepler", "9793ec3565d2aacf91a1505e7d4c2ce7b559905277f8ed53c256103da3be9585"),
        ("td-kepler", "5545e106cd97641470e3f164c7d6b8f1ecaaddc27828fe233c6f7d8b655a9f5f"),
    ])
    def test_guarded_samples_are_pinned(self, label, digest):
        # a margin of 1 makes both the radius guard and td-Kepler's t guard reject
        # points; the digest was taken when the guards were callables of a point
        import hashlib

        from contact_noether.systems import make_kepler, make_td_kepler

        system = make_kepler() if label == "kepler" else make_td_kepler(1.0, 0.25, 1.5)
        pts = sample_points(system, 60, seed=5, margin=1.0)
        data = b"".join(np.concatenate([p.q, p.p, [p.S, p.t]]).tobytes() for p in pts)
        assert hashlib.sha256(data).hexdigest() == digest

    def test_seed_determinism(self, kepler):
        a = sample_points(kepler, 10, seed=11)
        b = sample_points(kepler, 10, seed=11)
        for x, y in zip(a, b):
            assert np.array_equal(x.q, y.q) and np.array_equal(x.p, y.p)
            assert x.S == y.S and x.t == y.t
