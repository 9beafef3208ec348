import ctypes
import math
import os
import pathlib
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qflow import pde2d, radial
from qflow.cli import parse_config
from qflow.energy import LdGParams, derived_constants
from qflow.pde2d import Grid2D
from qflow.radial import (
    STOP_BACKWARD_DIFFUSION,
    STOP_NONFINITE,
    STOP_REACHED_T,
    STOP_SMALL,
    STOP_THRESHOLD,
    STEP_FRACTION,
    RadialProfile,
    blowup_certificate,
    blowup_functional,
    comparison_lower_bound,
    criterion_value,
    dominates_comparison,
    hedgehog_consistency_check,
    hedgehog_sample_points,
    run_radial,
    solve_banded,
    theta_rhs,
)


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def params(a=0.0, c=1.0, L1=0.5, L2=0.0, L3=0.0, L4=-1.0):
    # zeta = 2 L1 + L2 + L3
    return LdGParams(a=a, b=0.0, c=c, L1=L1, L2=L2, L3=L3, L4=L4)


class TestRadialProfile:
    def test_rejects_bad_annulus(self):
        with pytest.raises(ValueError):
            RadialProfile(4.0, 3.0, 10, np.zeros(12))

    def test_flow_rejects_negative_boundary(self):
        th = np.zeros(12)
        th[0] = th[-1] = -0.5
        prof = RadialProfile(3.0, 4.0, 10, th)
        with pytest.raises(ValueError, match="theta_b"):
            run_radial(prof, params(), 0.1, 1e-3)

    def test_flow_rejects_mismatched_boundary(self):
        th = np.zeros(12)
        th[-1] = 1.0
        prof = RadialProfile(3.0, 4.0, 10, th)
        with pytest.raises(ValueError, match="must agree"):
            run_radial(prof, params(), 0.1, 1e-3)

    def test_flow_rejects_a_stack(self):
        stack = RadialProfile(3.0, 4.0, 10, np.zeros((2, 12)))
        with pytest.raises(ValueError, match="not a stack"):
            stack.check_boundary()
        with pytest.raises(ValueError, match="not a stack"):
            run_radial(stack, params(), 0.1, 1e-3)
        with pytest.raises(ValueError, match="not a stack"):
            blowup_certificate(stack, params())
        with pytest.raises(ValueError, match="12 samples"):
            RadialProfile(3.0, 4.0, 10, np.zeros((2, 2, 12)))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(-1e5, 1e5), st.floats(0.05, 20.0), st.floats(0.01, 20.0),
           st.integers(3, 400))
    @example(-2e4, 3.0, 1.0, 200)  # the shipped blowup annulus
    def test_sine_bump_passes_boundary_check(self, amp, R0, width, nr):
        prof = RadialProfile.sine_bump(R0, R0 + width, nr, amp)
        prof.check_boundary()
        ends = prof.theta[[0, -1]]
        assert not ends.any() and not np.signbit(ends).any()

    def test_sine_bump_shape(self):
        prof = RadialProfile.sine_bump(3.0, 4.0, 99, -50.0)
        assert prof.theta[0] == 0.0 and prof.theta[-1] == pytest.approx(0.0, abs=1e-12)
        assert prof.theta.min() == pytest.approx(-50.0, abs=1e-8)


class TestThetaRhs:
    def test_zero_profile(self):
        prof = RadialProfile(3.0, 4.0, 20, np.zeros(22))
        assert np.all(theta_rhs(prof, params()) == 0.0)

    def test_constant_value_terms(self):
        # theta == 1 flat at r = 1: L4*6 - 4*zeta - c/2 = 6 - 8 - 1 = -3
        p = LdGParams(a=0.0, b=0.0, c=2.0, L1=1.0, L2=0.0, L3=0.0, L4=1.0)
        prof = RadialProfile.from_function(0.9, 1.1, 99, lambda r: np.ones_like(r))
        rhs = theta_rhs(prof, p)
        mid = len(rhs) // 2
        r_mid = prof.r[1:-1][mid]
        expected = 1.0 * 6.0 / r_mid**2 - 4.0 * 2.0 / r_mid**2 - 1.0
        assert rhs[mid] == pytest.approx(expected, abs=1e-10)
        assert rhs[mid] == pytest.approx(-3.0, abs=0.15)  # at r = 1 exactly -3

    def test_quadratic_profile_closed_form(self):
        # theta = r^2 at r = 2 with L4 = 0, zeta = 1, a = c = 0:
        # theta'' + theta'/r - 4 theta/r^2 = 2 + 2 - 4 = 0
        p = LdGParams(a=0.0, b=0.0, c=1e-300, L1=0.5, L2=0.0, L3=0.0, L4=0.0)
        prof = RadialProfile.from_function(1.5, 2.5, 199, lambda r: r * r)
        rhs = theta_rhs(prof, p)
        r = prof.r[1:-1]
        idx = int(np.argmin(np.abs(r - 2.0)))
        assert rhs[idx] == pytest.approx(0.0, abs=1e-8)


@st.composite
def profile_stacks(draw):
    """(stack, rows, params): 1-40 noisy sine bumps on one grid, each row
    with its own boundary value theta_b >= 0, and L4 of either sign."""
    nr, k = draw(st.integers(3, 40)), draw(st.integers(1, 40))
    R0 = draw(st.floats(0.2, 5.0))
    R1 = R0 + draw(st.floats(0.1, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [_sine_theta(amp, nr) + rng.normal(0.0, 0.1 * abs(amp), nr + 2)
            for amp in rng.uniform(-50.0, 50.0, k)]
    for row in rows:
        row[0] = row[-1] = draw(st.sampled_from([0.0, 0.25, 1.5]))
    L4 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 3.0))
    p = params(a=draw(st.floats(-1e3, 1e3)), c=draw(st.floats(1e-8, 10.0)),
               L1=draw(st.floats(0.1, 2.0)), L4=L4)
    return RadialProfile(R0, R1, nr, rows), rows, p


class TestStackedMonitors:
    """A stack of profiles gives each row's theta_rhs and blowup_functional,
    bit for bit, and run_radial's monitor passes move no bit."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(profile_stacks())
    def test_stack_equals_rows(self, case):
        stack, rows, p = case
        one = [RadialProfile(stack.R0, stack.R1, stack.nr, row) for row in rows]
        with np.errstate(all="ignore"):
            rhs = theta_rhs(stack, p)
            assert rhs.tobytes() == np.array([theta_rhs(prof, p) for prof in one]).tobytes()
            F = blowup_functional(stack, p)
            assert F.tobytes() == np.array([blowup_functional(prof, p) for prof in one]).tobytes()
        assert rhs.shape == (len(rows), stack.nr) and F.shape == (len(rows),)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_monitor_chunk_moves_no_bit(self, monkeypatch, chunk):
        # the deep quench on a coarse annulus: 136 records, a threshold stop
        prof = RadialProfile.sine_bump(3.0, 4.0, 20, -50.0)
        p = params(a=-6000.0, c=1e-8)
        ref = run_radial(prof, p, 0.01, 1e-5)
        assert len(ref.t) > radial.MONITOR_CHUNK and ref.stop.blown_up
        monkeypatch.setattr(radial, "MONITOR_CHUNK", chunk)
        trace = run_radial(prof, p, 0.01, 1e-5)
        assert trace.stop == ref.stop
        for name in ("t", "y", "y_minus", "y_plus", "max_abs_theta", "F", "rate"):
            assert getattr(trace, name).tobytes() == getattr(ref, name).tobytes(), name


class _FirstStepTaken(Exception):
    pass


def _first_step_size(profile, p, dt):
    """The stepper's first h on profile, where neither floor of the step rule acts."""
    return min(dt, STEP_FRACTION * np.abs(profile.theta).max()
               / np.abs(theta_rhs(profile, p)).max())


class TestStepperRhs:
    """theta_rhs gives, bit for bit, the RHS the stepper evaluates."""

    @staticmethod
    def _check_first_step(profile, p):
        calls, times = [], []
        real = radial._rhs_parts

        def recording(*args):
            calls.append(real(*args))
            return calls[-1]

        def record(t, theta, y):
            times.append(t)
            if t > 0.0:
                raise _FirstStepTaken

        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(radial, "_rhs_parts", recording)
            try:
                radial._march([profile], p, 1e300, 1e300, math.inf, record)
            except _FirstStepTaken:
                pass
        assert calls, "the stepper evaluated no RHS"
        full = calls[0][3]
        with np.errstate(all="ignore"):
            rhs = theta_rhs(profile, p)
        assert rhs.tobytes() == full.tobytes()
        if len(times) == 2:  # the step was taken: its size is set by max|rhs|
            scale = max(float(np.abs(profile.theta).max()), 1e-12)
            assert times[1] == STEP_FRACTION * scale / max(float(np.abs(rhs).max()), 1e-15)

    @pytest.mark.parametrize("name, amplitudes", [
        ("blowup", None),
        ("blowup-threshold-search", (-0.2, -60.0, -30.1)),
    ])
    def test_shipped_profiles(self, name, amplitudes):
        cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
        for amp in amplitudes or (cfg.amplitude,):
            self._check_first_step(RadialProfile.sine_bump(cfg.R0, cfg.R1, cfg.nr, amp),
                                   cfg.params())

    def test_lock_step_rows(self):
        # three rows of the shipped search in one flat run: each row's
        # segment of the first step's RHS is theta_rhs of its own profile
        # (the two ring nodes between rows are not compared)
        cfg = parse_config((CONFIGS / "blowup-threshold-search.cfg").read_text())
        p, nr = cfg.params(), cfg.nr
        profiles = [RadialProfile.sine_bump(cfg.R0, cfg.R1, nr, amp)
                    for amp in (-0.2, -60.0, -30.1)]
        calls, real = [], radial._rhs_parts

        def recording(*args):
            calls.append(real(*args))
            return calls[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radial, "_rhs_parts", recording)
            # every row reaches T in its first step
            batch = radial._march(profiles, p, 1e-300, cfg.dt, math.inf)
        assert batch.iterations == len(calls) == 1
        full = calls[0][3]
        assert full.size == len(profiles) * (nr + 2) - 2
        for k, prof in enumerate(profiles):
            row = full[k * (nr + 2):k * (nr + 2) + nr]
            assert row.tobytes() == theta_rhs(prof, p).tobytes()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(L4=st.floats(0.05, 3.0), sign=st.sampled_from([-1.0, 1.0]), a=st.floats(-1e3, 1e3),
           c=st.floats(1e-8, 10.0), L1=st.floats(0.1, 2.0), amp=st.floats(-5.0, 5.0),
           theta_b=st.floats(0.01, 2.0), R0=st.floats(0.2, 5.0), nr=st.integers(3, 40))
    # pinned boundary cases: the zero boundary value of every shipped sine
    # bump under a negative amplitude, the fewest nodes, a deep quench, and
    # both signs of L4
    @example(L4=1.0, sign=-1.0, a=0.0, c=1e-6, L1=0.5, amp=-5.0, theta_b=0.0, R0=0.3, nr=40)
    @example(L4=0.7, sign=1.0, a=0.3, c=1.0, L1=1.0, amp=2.0, theta_b=0.5, R0=3.0, nr=3)
    @example(L4=1.0, sign=-1.0, a=-1e3, c=1e-8, L1=0.5, amp=-5.0, theta_b=0.0, R0=3.0, nr=20)
    @example(L4=3.0, sign=1.0, a=-1e3, c=10.0, L1=2.0, amp=-1.0, theta_b=2.0, R0=5.0, nr=3)
    def test_sweep(self, L4, sign, a, c, L1, amp, theta_b, R0, nr):
        profile = RadialProfile.sine_bump(R0, R0 + 1.0, nr, amp)
        profile.theta[[0, -1]] = theta_b  # a nonzero boundary value
        self._check_first_step(profile, params(a=a, c=c, L1=L1, L4=sign * L4))


class TestBlowupCertificate:
    def test_criterion_true_geometry(self):
        prof = RadialProfile.sine_bump(3.0, 4.0, 50, -1.0)
        cert = blowup_certificate(prof, params())
        assert cert.criterion_value == pytest.approx(math.pi**2, rel=1e-12)
        assert cert.criterion_ok

    def test_criterion_false_geometry(self):
        prof = RadialProfile.sine_bump(1.0, 4.0, 50, -1.0)
        cert = blowup_certificate(prof, params())
        assert cert.criterion_value == pytest.approx(math.pi**2 / 81.0, rel=1e-12)
        assert not cert.criterion_ok

    def test_m0_reference_value(self):
        prof = RadialProfile.sine_bump(3.0, 4.0, 50, -1.0)
        cert = blowup_certificate(prof, params(L4=-1.0))
        m0 = 6.0 / math.sqrt(175.0) * (math.pi**2 / 9.0 - 1.0 / 9.0)
        assert cert.M0 == pytest.approx(m0, rel=1e-12)
        assert cert.M0 == pytest.approx(0.446986, abs=1e-6)

    def test_rejects_l4_zero(self):
        prof = RadialProfile.sine_bump(3.0, 4.0, 50, -1.0)
        with pytest.raises(ValueError):
            blowup_certificate(prof, params(L4=0.0))

    def test_scale_invariance_of_criterion(self):
        for lam in (0.5, 2.0, 7.3):
            assert criterion_value(3.0 * lam, 4.0 * lam) == pytest.approx(
                criterion_value(3.0, 4.0), rel=1e-12
            )

    def test_shipped_blowup_config_settles(self):
        # configs/blowup.cfg: P(s) = M0 s^3 - |a| s^2 + 4 F0 (s = sqrt(y)) has
        # the positive roots 92.24 and 13422.6; y0 = 4375 lies below the
        # first, so y settles at y* = 92.24^2
        p = LdGParams(a=-6000.0, b=0.0, c=1e-8, L1=0.5, L2=0.0, L3=0.0, L4=-1.0)
        cert = blowup_certificate(RadialProfile.sine_bump(3.0, 4.0, 200, -50.0), p)
        roots = np.roots([cert.M0, -6000.0, 0.0, 4.0 * cert.F0])
        s = np.sort(roots.real[(roots.imag == 0.0) & (roots.real > 0.0)])
        assert s == pytest.approx([92.2413, 13422.608], rel=1e-6)
        head, _, y_star = cert.reason.partition(" y* = ")
        assert head == "comparison ODE settles at its equilibrium"
        assert float(y_star) == pytest.approx(s[0] ** 2, rel=1e-12)
        assert cert.predicted_blowup_time is None and not cert.conclusive

    def test_divergence_predicted_at_the_crossing(self, monkeypatch):
        # with a = F0 = 0 the comparison ODE is y' = 2 M0 y^{3/2}
        monkeypatch.setattr(radial, "blowup_functional", lambda profile, params: 0.0)
        cert = blowup_certificate(RadialProfile.sine_bump(3.0, 4.0, 50, -1.0), params(L4=-1.0))
        assert cert.reason == "comparison ODE diverges" and cert.conclusive
        exact = (cert.y0**-0.5 - radial.COMPARISON_DIVERGENCE**-0.5) / cert.M0
        vals, crossing = comparison_lower_bound(
            cert.M0, 0.0, 0.0, cert.y0, [0.0, 0.999 * exact, exact, 2.0 * exact])
        assert cert.predicted_blowup_time == crossing
        assert crossing == pytest.approx(exact, rel=1e-12)
        # +inf from the crossing on
        assert vals[0] == cert.y0 < vals[1] < 1e12 and np.all(vals[2:] == np.inf)

    def test_y0_uses_signed_part(self):
        prof = RadialProfile.sine_bump(3.0, 4.0, 400, -2.0)
        cert = blowup_certificate(prof, params(L4=-1.0))
        r = prof.r
        expected = np.trapezoid(np.maximum(-prof.theta, 0.0) ** 2 * r, r)
        assert cert.y0 == pytest.approx(expected, rel=1e-12)
        # positive data contributes nothing to theta_minus
        prof_pos = RadialProfile.sine_bump(3.0, 4.0, 400, 2.0)
        assert blowup_certificate(prof_pos, params(L4=-1.0)).y0 == 0.0


COMPARISON = settings(max_examples=50, deadline=None, derandomize=True, database=None)


class TestComparisonLowerBound:
    def test_zero_stays_zero(self):
        vals, tdiv = comparison_lower_bound(0.447, 0.0, 0.0, 0.0, np.linspace(0, 5, 10))
        assert np.all(vals == 0.0)
        assert tdiv is None

    def test_pure_power_divergence_time(self):
        # F0 = 0, a = 0: y(t) = (y0^{-1/2} - M0 t)^{-2}, diverges at 1/(M0 sqrt(y0))
        M0, y0 = 0.4469895, 100.0
        t_star = 1.0 / (M0 * math.sqrt(y0))
        vals, tdiv = comparison_lower_bound(M0, 0.0, 0.0, y0, np.array([t_star * 2]))
        assert tdiv is not None
        assert tdiv == pytest.approx(t_star, rel=0.01)

    def test_matches_closed_form_before_divergence(self):
        M0, y0 = 0.3, 50.0
        ts = np.linspace(0.0, 0.5 / (M0 * math.sqrt(y0)), 20)
        vals, _ = comparison_lower_bound(M0, 0.0, 0.0, y0, ts)
        exact = (y0**-0.5 - M0 * ts) ** -2.0
        assert np.max(np.abs(vals / exact - 1.0)) < 1e-3

    def test_bounded_when_damping_dominates(self):
        vals, tdiv = comparison_lower_bound(1e-3, 10.0, 0.0, 1.0, np.array([100.0]))
        assert tdiv is None
        assert vals[0] < 10.0

    def test_decay_is_not_stalled(self):
        # y^{-1/2} = M0/|a| + (y0^{-1/2} - M0/|a|) e^{|a| t} = 0.05 + 0.95 e^20
        y = comparison_lower_bound(0.5, -10.0, 0.0, 1.0, 2.0)[0]
        assert y == pytest.approx((0.05 + 0.95 * math.exp(20.0)) ** -2.0, rel=1e-12)

    def test_negative_y0_rejected(self):
        with pytest.raises(ValueError, match="y0"):
            comparison_lower_bound(0.4, -1.0, 1.0, -1e-3, np.array([0.1]))

    @COMPARISON
    @given(st.floats(0.05, 5.0), st.floats(1e-2, 1e4), st.floats(0.0, 0.9))
    def test_pure_power_closed_form(self, M0, y0, frac):
        # a = F0 = 0: y = (y0^{-1/2} - M0 t)^{-2}, divergent at t* = 1/(M0 sqrt(y0))
        t = frac / (M0 * math.sqrt(y0))
        y = comparison_lower_bound(M0, 0.0, 0.0, y0, t)[0]
        assert y == pytest.approx((y0**-0.5 - M0 * t) ** -2.0, rel=1e-12)

    @COMPARISON
    @given(st.floats(0.05, 5.0), st.floats(0.1, 50.0), st.floats(0.05, 20.0),
           st.floats(0.0, 1.0))
    def test_no_source_closed_form(self, M0, A, ratio, frac):
        # F0 = 0: y^{-1/2} = rho + (y0^{-1/2} - rho) e^{|a| t}, rho = M0/|a|
        rho = M0 / A
        u0 = ratio * rho
        if u0 > rho:  # decays; stop before y underflows
            t = frac * 30.0 / A
        else:  # grows; stop where u = u0/2
            t = frac * math.log((rho - 0.5 * u0) / (rho - u0)) / A
        y = comparison_lower_bound(M0, -A, 0.0, u0**-2.0, t)[0]
        assert y == pytest.approx((rho + (u0 - rho) * math.exp(A * t)) ** -2.0, rel=1e-12)

    @COMPARISON
    @given(st.floats(-2.0, 2.0), st.floats(0.0, 20.0), st.floats(-50.0, -1e-3),
           st.floats(0.0, 5.0))
    def test_linear_branch_closed_form(self, M0, A, F0, t):
        # from y0 = 0 with F0 < 0, y <= 0 and y' = 2 (-|a| y + 4 F0):
        # y = (4 F0/|a|) (1 - e^{-2|a|t}), and 8 F0 t for a = 0
        y = comparison_lower_bound(M0, -A, F0, 0.0, t)[0]
        x = 2.0 * A * t
        exact = 8.0 * F0 * t * (1.0 if x == 0.0 else -math.expm1(-x) / x)
        assert y == pytest.approx(exact, rel=1e-12, abs=1e-300)

    @COMPARISON
    @given(st.floats(0.05, 3.0), st.floats(0.0, 20.0), st.floats(-50.0, 50.0),
           st.sampled_from([0.0, 0.5, 20.0]), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_flow_property(self, M0, A, F0, y0, f1, f2):
        # y(t1 + t2) from y0 equals y(t2) from y(t1), also from y0 = 0 and
        # across the time y reaches 0
        scale = 1.0 / (abs(F0) + 3.0 * M0 * math.sqrt(y0 + 1.0) + 2.0 * A)
        t1, t2 = f1 * scale, f2 * scale
        y1 = comparison_lower_bound(M0, -A, F0, y0, t1)[0]
        assume(0.0 <= y1 < 1e6)
        y12 = comparison_lower_bound(M0, -A, F0, y0, t1 + t2)[0]
        assert comparison_lower_bound(M0, -A, F0, y1, t2)[0] == pytest.approx(
            y12, rel=1e-9, abs=1e-9 * max(y0, abs(F0) * scale))

    def test_double_root_closed_form(self):
        # R(u) = 4 u^3 - 3 u + 1 = 4 (u + 1)(u - 1/2)^2, so from u0 = 1
        # t(u) = [(4/9) log((u0 + 1)(u - 1/2)/((u + 1)(u0 - 1/2)))
        #         + (2/3) (1/(u - 1/2) - 1/(u0 - 1/2))] / 4;
        # the closed-form roots know the double root, so the partial
        # fractions carry its second-order pole exactly
        u = np.array([0.9, 0.7, 0.55, 0.501, 0.5001])
        t = ((4.0 / 9.0) * np.log(2.0 * (u - 0.5) / ((u + 1.0) * 0.5))
             + (2.0 / 3.0) * (1.0 / (u - 0.5) - 2.0)) / 4.0
        vals, crossing = comparison_lower_bound(1.0, -3.0, 1.0, 1.0, t)
        assert crossing is None
        assert np.abs(vals * u * u - 1.0).max() < 1e-14

    @COMPARISON
    @given(st.floats(0.05, 3.0), st.floats(0.0, 20.0), st.floats(1e-3, 50.0),
           st.sampled_from([-1.0, 1.0]), st.floats(0.1, 100.0))
    def test_matches_fine_rk4(self, M0, A, F0_abs, sign, y0):
        F0 = sign * F0_abs

        def g(y):
            return 2.0 * (M0 * max(y, 0.0) ** 1.5 - A * y + 4.0 * F0)

        # two time scales of the initial rate in 500 RK4 steps (about 1e-12
        # relative error), cut where y leaves [y0/8, 8 y0]
        rate = abs(g(y0)) / y0 + 3.0 * M0 * math.sqrt(y0) + 2.0 * A
        h = 2.0 / rate / 500
        ts, ys = [], []
        y = y0
        for k in range(1, 501):
            k1 = g(y)
            k2 = g(y + 0.5 * h * k1)
            k3 = g(y + 0.5 * h * k2)
            k4 = g(y + h * k3)
            y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not y0 / 8.0 <= y <= 8.0 * y0:
                break
            ts.append(k * h)
            ys.append(y)
        vals, _ = comparison_lower_bound(M0, -A, F0, y0, np.array(ts))
        assert np.all(np.abs(vals / np.array(ys) - 1.0) <= 1e-10)


class TestCubicRoots:
    """radial._cubic_roots, the closed-form roots of u^3 + p u + q."""

    @COMPARISON
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.booleans())
    @example(2.0**-40, 1.0, False)  # a root of least magnitude 1e-12 beside +-1
    @example(1e-12, 1.0, True)  # one real root 1e-12, where A + B cancels
    def test_backward_error(self, x, y, pair):
        # roots x, y, -(x + y), or x and the pair -x/2 +- i y
        if pair:
            p, q = y * y - 0.75 * x * x, -x * (0.25 * x * x + y * y)
        else:
            p, q = -(x * x + x * y + y * y), x * y * (x + y)
        assume(p != 0.0 or q != 0.0)
        roots, double = radial._cubic_roots(p, q)
        assert roots.size == 2 if double else roots.size == 3
        for u in roots:
            scale = abs(u) ** 3 + abs(p * u) + abs(q)
            assert abs(u**3 + p * u + q) <= 1e-13 * scale

    def test_double_root_is_exact(self):
        # (u - 1/2)^2 (u + 1) = u^3 - 3/4 u + 1/4
        roots, double = radial._cubic_roots(-0.75, 0.25)
        assert double and roots.tolist() == [-1.0, 0.5]


class TestRunRadial:
    def test_zero_stays_zero(self):
        prof = RadialProfile(3.0, 4.0, 30, np.zeros(32))
        trace = run_radial(prof, params(), 0.1, 1e-3)
        assert np.all(trace.y == 0.0)
        assert not trace.stop.blown_up

    def test_small_data_decays(self):
        prof = RadialProfile.sine_bump(3.0, 4.0, 60, 0.01)
        trace = run_radial(prof, params(a=1.0, c=1.0), 2.0, 1e-2)
        assert not trace.stop.blown_up
        assert trace.y[-1] < 1e-4 * trace.y[0]

    def test_times_strictly_increasing(self):
        prof = RadialProfile.sine_bump(3.0, 4.0, 40, 0.5)
        trace = run_radial(prof, params(a=1.0), 0.2, 1e-2)
        assert np.all(np.diff(trace.t) > 0)

    def test_mirror_symmetry(self):
        # flipping the sign of both L4 and theta0 swaps y_minus and y_plus
        prof_m = RadialProfile.sine_bump(3.0, 4.0, 60, -5.0)
        prof_p = RadialProfile.sine_bump(3.0, 4.0, 60, 5.0)
        tr_m = run_radial(prof_m, params(a=0.5, L4=-1.0), 0.5, 1e-3)
        tr_p = run_radial(prof_p, params(a=0.5, L4=1.0), 0.5, 1e-3)
        assert len(tr_m.t) == len(tr_p.t)
        assert np.abs(tr_m.y_minus - tr_p.y_plus).max() < 1e-12 * max(1.0, tr_m.y.max())
        assert np.abs(tr_m.y_plus - tr_p.y_minus).max() < 1e-12 * max(1.0, tr_m.y.max())

    def test_deep_quench_blowup_and_domination(self):
        # the pinned geometry dissipates the cubic terms (Poincare), so the
        # runaway is driven by a deep quench a << 0; the comparison solution
        # must stay below the recorded signed series throughout
        p = params(a=-6000.0, c=1e-8, L4=-1.0)
        prof = RadialProfile.sine_bump(3.0, 4.0, 100, -50.0)
        cert = blowup_certificate(prof, p)
        trace = run_radial(prof, p, 0.01, 1e-5)
        assert trace.stop.blown_up and not trace.stop.nonfinite
        assert trace.stop.blowup_time < 0.01
        assert dominates_comparison(trace, p, cert, rtol=0.01)

    def test_backward_diffusion_flagged(self):
        # L4 = -1 with large positive theta makes zeta + L4 theta < 0
        prof = RadialProfile.sine_bump(3.0, 4.0, 40, 5.0)
        trace = run_radial(prof, params(L4=-1.0), 0.1, 1e-3)
        assert trace.stop.nonfinite


def flag_run(prof, p, T, dt):
    """One profile's outcome as threshold_search marches it: run_radial's
    steps without the monitors, with the smallness stop."""
    return radial._march([prof], p, T, dt, radial.BLOWUP_Y_THRESHOLD,
                         theta_small=radial._theta_small(p, prof.R0, prof.R1)).outcomes[0]


class TestRunRadialFlag:
    """The flag run of threshold_search (flag_run) against run_radial."""

    # (R0, R1, nr, amplitude, params, T, dt, expected stop)
    CASES = {
        # the thin inner annulus of the threshold search, on both sides of
        # its threshold
        "below_threshold": (0.3, 1.3, 20, -2.0, params(c=1e-6), 0.05, 1e-3, STOP_REACHED_T),
        "above_threshold": (0.3, 1.3, 20, -10.0, params(c=1e-6), 0.05, 1e-3, STOP_THRESHOLD),
        # y0 ~ 1.6e7 exceeds the 1e6 threshold before the first step
        "above_threshold_at_t0": (3.0, 4.0, 40, -3e3, params(), 0.1, 1e-3, STOP_THRESHOLD),
        "backward_diffusion": (3.0, 4.0, 40, 5.0, params(L4=-1.0), 0.1, 1e-3,
                               STOP_BACKWARD_DIFFUSION),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_run_radial(self, name):
        R0, R1, nr, amp, p, T, dt, stop = self.CASES[name]
        prof = RadialProfile.sine_bump(R0, R1, nr, amp)
        trace = run_radial(prof, p, T, dt)
        flag = flag_run(prof, p, T, dt)
        assert flag.reason == stop
        assert flag.blown_up == trace.stop.blown_up
        assert flag.nonfinite == trace.stop.nonfinite
        assert flag.blowup_time == trace.stop.blowup_time
        # both runs stop at the time of the last record
        assert flag.t == trace.t[-1]
        if name in ("above_threshold_at_t0", "backward_diffusion"):
            assert flag.t == 0.0  # stopped before the first step

    def test_overflowing_system_stops_nonfinite(self):
        # -c theta^3 overflows to inf in the explicit term, so the step's
        # banded system is rejected by solve_banded's finiteness check
        prof = RadialProfile.sine_bump(3.0, 4.0, 40, 10.0)
        p = params(c=-1e308, L4=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            flag = flag_run(prof, p, 0.1, 1e-3)
            trace = run_radial(prof, p, 0.1, 1e-3)
        assert flag.reason == STOP_NONFINITE and flag.t == 0.0
        assert trace.stop.reason == STOP_NONFINITE and trace.stop.nonfinite

    @pytest.mark.parametrize("path", ["system", "solution", "rectangle"])
    def test_first_step_failure_counts_the_step(self, monkeypatch, path):
        # a run that turns non-finite in its first step stops at that
        # step's end, after 1 step: a radial step whose system is not
        # finite (-c theta^3 overflows; h = 0 as max|rhs| = inf), one whose
        # solution is not finite, and a rectangle step that overflows
        if path == "rectangle":
            grid = Grid2D.from_extent(16, 16, 1.0, 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                trace = pde2d.run(pde2d.smooth_random_field(grid, 0.5, seed=7),
                                  params(a=-1e308, L4=0.0), 100.0, 10.0,
                                  scheme="explicit-euler")
            assert trace.stop == radial.Stop(STOP_NONFINITE, 10.0, 1)
            return
        if path == "system":
            prof, p = RadialProfile.sine_bump(3.0, 4.0, 40, 10.0), params(c=-1e308, L4=0.0)
            h = 0.0
        else:
            prof, p = RadialProfile.sine_bump(0.3, 1.3, 20, -2.0), params(c=1e-6)
            h = _first_step_size(prof, p, 1e-3)
            solve = radial.solve_banded

            def nan_solution(ab, b, *bound):
                x = solve(ab, b, *bound)
                x[0] = np.nan
                return x

            monkeypatch.setattr(radial, "solve_banded", nan_solution)
        with np.errstate(over="ignore", invalid="ignore"):
            flag = flag_run(prof, p, 0.05, 1e-3)
            trace = run_radial(prof, p, 0.05, 1e-3)
        assert flag == trace.stop == radial.Stop(STOP_NONFINITE, h, 1)

    @pytest.mark.parametrize("amp, p, stop", [
        (5.0, params(L4=-1.0), STOP_BACKWARD_DIFFUSION),
        # -c theta^3 overflows, so the step's system is not finite
        (10.0, params(c=-1e308, L4=0.0), STOP_NONFINITE),
    ], ids=["backward_diffusion", "overflow"])
    def test_abort_is_not_a_blowup(self, amp, p, stop):
        prof = RadialProfile.sine_bump(3.0, 4.0, 40, amp)
        with np.errstate(over="ignore", invalid="ignore"):
            flag = flag_run(prof, p, 0.1, 1e-3)
            trace = run_radial(prof, p, 0.1, 1e-3)
        for run in (flag, trace.stop):
            assert run.reason == stop and run.nonfinite
            assert not run.blown_up and run.blowup_time is None
        assert trace.stop.t == flag.t == 0.0

    def test_stop_time_of_a_threshold_crossing(self):
        R0, R1, nr, amp, p, T, dt, _ = self.CASES["above_threshold"]
        trace = run_radial(RadialProfile.sine_bump(R0, R1, nr, amp), p, T, dt)
        assert trace.stop.blown_up and trace.stop.t == trace.stop.blowup_time == trace.t[-1]

    def test_leaves_the_initial_profile_alone(self):
        prof = RadialProfile.sine_bump(0.3, 1.3, 20, -10.0)
        theta0 = prof.theta.copy()
        flag_run(prof, params(c=1e-6), 0.05, 1e-3)
        assert np.array_equal(prof.theta, theta0)


# Derandomized and without an example database, so tier-1 runs the same
# examples every time.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def tridiagonal_systems(draw):
    """(ab, b) in scipy's (1, 1) band layout, n in 3..300, entries O(1)..O(1e6)."""
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(0, 6))
    ab = scale * rng.standard_normal((3, n))
    # heavier diagonals pivot less often in gtsv
    ab[1] += draw(st.sampled_from([0.0, 1.0, 4.0])) * scale
    return ab, scale * rng.standard_normal(n)


CORNER_SYSTEM = (np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]), np.ones(3))
# gtsv swaps rows at every elimination step: the subdiagonal's 2 outweighs
# the diagonal as each step leaves it (1, then 0.5, -0.75, ...)
PIVOT_SYSTEM = (np.array([np.ones(40), np.ones(40), np.full(40, 2.0)]),
                np.cos(np.arange(40.0)))

# (ab, b) -> the same system in a layout that raw pointers cannot take as it
# is, or, for "wide band", one that they can: the stepper's per-row fallback
# passes a block of its system buffer, whose rows are a buffer row apart
LAYOUTS = {
    "Fortran ab": lambda ab, b: (np.asfortranarray(ab), b.copy()),
    "wide band": lambda ab, b: (np.hstack([ab, np.ones((3, 5))])[:, :b.size], b.copy()),
    "read-only ab": lambda ab, b: (np.frombuffer(ab.tobytes()).reshape(ab.shape), b.copy()),
    "strided b": lambda ab, b: (ab.copy(), np.repeat(b, 2)[::2]),
    "reversed b": lambda ab, b: (ab.copy(), b[::-1].copy()[::-1]),
    "float32 b": lambda ab, b: (ab.copy(), b.astype(np.float32)),
    "int b": lambda ab, b: (ab.copy(), np.round(b).astype(np.int64)),
}


class TestSolveBanded:
    @PROPERTY
    @given(tridiagonal_systems())
    @example(PIVOT_SYSTEM)
    @example(CORNER_SYSTEM)  # n = 3
    def test_bit_identical_to_scipy(self, system):
        ab, b = system
        ref = scipy.linalg.solve_banded((1, 1), ab.copy(), b.copy())
        assert solve_banded(ab.copy(), b.copy()).tobytes() == ref.tobytes()

    @PROPERTY
    @given(tridiagonal_systems(), st.sampled_from([np.inf, -np.inf, np.nan]),
           st.integers(0, 3), st.integers(-300, 299))
    # the band corners gtsv never reads, and the last entry of b
    @example(CORNER_SYSTEM, np.inf, 0, 0)
    @example(CORNER_SYSTEM, np.nan, 0, 0)
    @example(CORNER_SYSTEM, np.inf, 2, -1)
    @example(CORNER_SYSTEM, np.nan, 2, -1)
    @example(CORNER_SYSTEM, -np.inf, 3, -1)
    @example(CORNER_SYSTEM, np.nan, 3, -1)
    def test_non_finite_entry_raises(self, system, bad, row, col):
        # any band entry (row 0-2) or b (row 3); col is taken modulo n
        ab, b = (x.copy() for x in system)
        (ab[row] if row < 3 else b)[col % b.size] = bad
        with pytest.raises(ValueError):
            scipy.linalg.solve_banded((1, 1), ab.copy(), b.copy())
        with pytest.raises(ValueError):
            solve_banded(ab, b)

    @PROPERTY
    @given(tridiagonal_systems(), st.data())
    def test_singular_raises(self, system, data):
        # a zero column leaves gtsv an exact zero pivot
        ab, b = system
        j = data.draw(st.integers(0, b.size - 1))
        ab[1, j] = 0.0
        if j > 0:
            ab[0, j] = 0.0
        if j < b.size - 1:
            ab[2, j] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.solve_banded((1, 1), ab.copy(), b.copy())
        with pytest.raises(np.linalg.LinAlgError):
            solve_banded(ab, b)

    def test_solution_is_returned_in_b(self):
        ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
        b = np.array([5.0, 6.0, 5.0])
        x = solve_banded(ab, b)
        assert np.shares_memory(x, b)
        assert np.allclose(x, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("layout", LAYOUTS)
    @settings(PROPERTY, max_examples=30)
    @given(tridiagonal_systems())
    def test_layouts_keep_scipy_bits(self, layout, system):
        ab, b = LAYOUTS[layout](*system)
        ref = scipy.linalg.solve_banded((1, 1), ab.copy(), b.copy())
        before = ab.copy()
        x = solve_banded(ab, b)
        assert x.dtype == np.float64 and x.tobytes() == ref.tobytes()
        # an ab that raw pointers cannot take is solved in a copy and left as it was
        if layout in ("Fortran ab", "read-only ab"):
            assert ab.tobytes() == before.tobytes()
        # a float64 b with contiguous entries holds the solution; ab's copy leaves it there
        assert np.shares_memory(x, b) == (layout in ("Fortran ab", "wide band", "read-only ab"))

    def test_wide_band_leaves_the_buffer_around_it(self):
        # the per-row fallback of the stepper solves a block of its system buffer
        ab, b = CORNER_SYSTEM
        wide = np.full((4, 9), 7.0)
        wide[:3, 3:6], wide[3, 3:6] = ab, b
        ref = scipy.linalg.solve_banded((1, 1), ab.copy(), b.copy())
        assert solve_banded(wide[:3, 3:6], wide[3, 3:6]).tobytes() == ref.tobytes()
        assert (wide[:, :3] == 7.0).all() and (wide[:, 6:] == 7.0).all()

    @pytest.mark.parametrize("ab, b, error", [
        (np.ones((3, 4)), np.ones(4, dtype=complex), TypeError),
        (np.ones((3, 4), dtype=complex), np.ones(4), TypeError),
        (np.ones((3, 4)), np.ones(5), ValueError),
        (np.ones((4, 4)), np.ones(4), ValueError),
        (np.ones((3, 4)), np.ones((4, 1)), ValueError),
    ], ids=["complex b", "complex ab", "short ab", "four bands", "b a column"])
    def test_rejected_inputs(self, ab, b, error):
        with pytest.raises(error):
            solve_banded(ab, b)

    def test_illegal_argument_raises(self):
        # dgtsv's info < 0: here a negative order, which LAPACK rejects
        ab, b = (x.copy() for x in CORNER_SYSTEM)
        args = ((ctypes.c_int64 * 1)(-1),) + radial._gtsv_args(ab, b)[1:]
        with pytest.raises(ValueError, match="argument 1 of dgtsv") as info:
            solve_banded(ab, b, args)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_missing_library_names_its_path(self, tmp_path):
        pattern = str(tmp_path) + "/libscipy_openblas64_*"
        with pytest.raises(ImportError, match="scipy_dgtsv_64_") as info:
            radial._load_dgtsv(str(tmp_path))
        assert info.value.path == pattern and pattern in str(info.value)


@st.composite
def small_regime_runs(draw, a_sign):
    """(profile, params, 2 sqrt(eta1)) under the smallness hypotheses, sign(a) = a_sign."""
    L4 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 2.0))
    c = 10.0 ** draw(st.floats(-6.0, 1.0))
    L1 = draw(st.floats(0.3, 1.0))
    eta1 = derived_constants(params(c=c, L1=L1, L4=L4)).eta1
    # admissible bulk coefficient: |a| <= 2 c eta1
    a = a_sign * draw(st.floats(0.0, 1.0)) * 2.0 * c * eta1
    if draw(st.booleans()):
        # the threshold search's thin inner annulus, where data of the sign
        # of L4 run away once they are large enough
        R0, R1 = 0.3, 1.3
        amp = math.copysign(10.0 ** draw(st.floats(-1.0, 1.5)), L4)
    else:
        R0 = 10.0 ** draw(st.floats(-0.7, 0.5))
        R1 = R0 + draw(st.floats(0.3, 3.0))
        amp = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-1.5, 2.0))
    prof = RadialProfile.sine_bump(R0, R1, draw(st.integers(5, 40)), amp)
    return prof, params(a=a, c=c, L1=L1, L4=L4), 2.0 * math.sqrt(eta1)


class TestStopSmall:
    """threshold_search's runs stop when they enter the smallness regime.

    Each example runs run_radial and flag_run on the same data: the
    flags must agree, and the full trace shows what the early stop skips.
    """

    SWEEP = settings(max_examples=60, deadline=None, derandomize=True, database=None)

    def _both(self, prof, p):
        with np.errstate(all="ignore"):
            return run_radial(prof, p, 0.1, 1e-3), flag_run(prof, p, 0.1, 1e-3)

    def _entry(self, trace, cap):
        """Index of the first record after a step with max|theta| <= cap."""
        small = np.nonzero(trace.max_abs_theta[1:] <= cap)[0]
        return small[0] + 1 if small.size else None

    def _check_flags(self, trace, flag, cap):
        assert flag.blown_up == trace.stop.blown_up
        assert flag.nonfinite == trace.stop.nonfinite
        assert flag.blowup_time == trace.stop.blowup_time
        k = self._entry(trace, cap)
        if k is None:
            assert flag.reason == trace.stop.reason and flag.t == trace.stop.t
        else:
            assert trace.stop.reason == STOP_REACHED_T
            assert flag.reason == STOP_SMALL and flag.t == trace.t[k]
        return k

    @SWEEP
    @given(small_regime_runs(1.0))
    def test_flags_equal_and_no_growth_after_entry(self, run):
        prof, p, cap = run
        trace, flag = self._both(prof, p)
        k = self._check_flags(trace, flag, cap)
        if k is not None:
            assert np.all(np.diff(trace.max_abs_theta[k:]) <= 0.0)

    @SWEEP
    @given(small_regime_runs(-1.0))
    def test_flags_equal_under_a_quench(self, run):
        # with a < 0, small data grow towards theta^2 = 2|a|/c <= 4 eta1; the
        # explicit reaction term may overshoot that by one step's 2%
        prof, p, cap = run
        trace, flag = self._both(prof, p)
        k = self._check_flags(trace, flag, cap)
        if k is not None:
            assert trace.max_abs_theta[k:].max() <= cap * (1.0 + STEP_FRACTION)

    @pytest.mark.parametrize("R1, p", [
        (4.0, params(a=-0.05, c=1.0)),  # |a| > 2 c eta1 = 0.045
        (4.0, params(c=1.0, L4=0.0)),   # eta1 infinite
        # the regime only bounds y by 4 eta1 (R1^2 - R0^2)/2 ~ 3.6e6 here
        (9e3, params(c=1.0)),
    ], ids=["a_inadmissible", "L4_zero", "annulus_too_wide"])
    def test_not_taken_outside_the_hypotheses(self, R1, p):
        prof = RadialProfile.sine_bump(3.0, R1, 20, 0.01)
        trace, flag = self._both(prof, p)
        assert flag.reason == trace.stop.reason == STOP_REACHED_T
        assert flag.t == trace.t[-1]

    def test_run_radial_never_stops_small(self):
        prof = RadialProfile.sine_bump(3.0, 4.0, 20, 0.01)
        trace, flag = self._both(prof, params(c=1.0))
        assert flag.reason == STOP_SMALL and flag.t == trace.t[1]
        assert trace.stop.reason == STOP_REACHED_T and trace.t[-1] == 0.1


def _sine_theta(amp, nr):
    """amp sin(pi s) on nr+2 nodes, with both ends exactly 0."""
    theta = amp * np.sin(np.pi * np.linspace(0.0, 1.0, nr + 2))
    theta[0] = theta[-1] = 0.0
    return theta


@st.composite
def lockstep_batches(draw):
    """(profiles, params, T, dt, y_threshold, theta_small) for one lock-step batch.

    Either the threshold search's thin annulus with L4 = -1, where rows run
    away, start above the threshold, decay, enter the smallness regime or
    turn backward-diffusive (theta > zeta); or a growing flow (a < 0, L4 = 0)
    from near the float range, where rows overflow at different steps
    beside rows that reach T.  Each row has its own boundary value, and
    one row may fail its boundary check.
    """
    nr = draw(st.integers(3, 24))
    m = draw(st.integers(1, 7))
    if draw(st.booleans()):
        R0, R1, p, T, y_threshold = 0.3, 1.3, params(c=1e-6), 0.05, 1e6
        amp = st.one_of(st.floats(-60.0, -0.05), st.floats(1.5, 10.0), st.just(-3e3))
        theta_small = draw(st.sampled_from([-math.inf, 0.05, 0.5]))
    else:
        R0 = draw(st.floats(0.5, 3.0))
        R1, p, T, y_threshold = R0 + 1.0, params(a=-100.0, c=1e-300, L4=0.0), 0.02, math.inf
        amp = st.one_of(st.floats(-1.0, 1.0), st.floats(1e101, 5.6e102))
        theta_small = -math.inf
    thetas = [_sine_theta(a, nr) for a in draw(st.lists(amp, min_size=m, max_size=m))]
    for theta in thetas:  # the boundary value theta_b of each row
        theta[0] = theta[-1] = draw(st.sampled_from([0.0, 0.25]))
    if draw(st.booleans()):
        thetas[draw(st.integers(0, m - 1))][-1] = 1.0  # "boundary values ... must agree"
    profiles = [RadialProfile(R0, R1, nr, th) for th in thetas]
    return profiles, p, T, 1e-3, y_threshold, theta_small


def _thin_batch(amps, theta_b=(), theta_small=-math.inf):
    """A lockstep_batches draw on the threshold search's thin annulus: rows
    amp sin(pi s) on 14 nodes, with boundary values theta_b (0 past its end)."""
    thetas = [_sine_theta(a, 12) for a in amps]
    for theta, tb in zip(thetas, theta_b):
        theta[0] = theta[-1] = tb
    return ([RadialProfile(0.3, 1.3, 12, th) for th in thetas], params(c=1e-6), 0.05, 1e-3, 1e6,
            theta_small)


def _outcome_key(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return outcome


class TestLockStep:
    """_march over several profiles: every row gives its one-row run's bits."""

    SWEEP = settings(max_examples=60, deadline=None, derandomize=True, database=None)

    def _check_rows(self, profiles, p, T, dt, y_threshold, theta_small):
        with np.errstate(all="ignore"):
            batch = radial._march(profiles, p, T, dt, y_threshold, theta_small=theta_small)
            singles = [radial._march([prof], p, T, dt, y_threshold, theta_small=theta_small)
                       for prof in profiles]
        assert batch.iterations == max(s.iterations for s in singles)
        flags = [o for o in batch.outcomes if isinstance(o, radial.Stop)]
        assert batch.row_steps == sum(flag.steps for flag in flags)
        for i, single in enumerate(singles):
            assert _outcome_key(batch.outcomes[i]) == _outcome_key(single.outcomes[0])
            assert batch.theta[i].tobytes() == single.theta[0].tobytes()
        return batch

    @SWEEP
    @given(lockstep_batches())
    # the rows' h differ in the first 4 steps and agree from the 5th
    @example(_thin_batch([-3.0, -0.5]))
    # rows 1 and 2 reach T at steps 50 and 51, row 0 runs on to step 300
    @example(_thin_batch([-10.0, -0.5, -3.0]))
    # nonzero boundary values, and h that differ and agree by turns
    @example(_thin_batch([-2.0, -0.5, -3.0], theta_b=[0.25, 0.0, 0.5]))
    def test_rows_equal_one_row_runs(self, batch_args):
        self._check_rows(*batch_args)

    def test_every_stop_reason_in_one_batch(self):
        nr = 12
        thin = [_sine_theta(a, nr) for a in (-10.0, -3e3, -2.0, 5.0, -0.5)]
        batch = self._check_rows([RadialProfile(0.3, 1.3, nr, th) for th in thin],
                                 params(c=1e-6), 0.05, 1e-3, 1e6, 0.3)
        stops = [o.reason for o in batch.outcomes]
        assert stops == [STOP_THRESHOLD, STOP_THRESHOLD, STOP_REACHED_T,
                         STOP_BACKWARD_DIFFUSION, STOP_SMALL]
        assert len({o.t for o in batch.outcomes}) == 4  # t = 0 twice
        grow = [_sine_theta(a, nr) for a in (3e102, 5e102, 0.5)]
        batch = self._check_rows([RadialProfile(1.0, 2.0, nr, th) for th in grow],
                                 params(a=-100.0, c=1e-300, L4=0.0), 0.02, 1e-3, math.inf,
                                 -math.inf)
        assert [o.reason for o in batch.outcomes] == [STOP_NONFINITE] * 2 + [STOP_REACHED_T]
        assert 0.0 < batch.outcomes[1].t < batch.outcomes[0].t < 0.02

    def test_step_solves_the_semi_implicit_system(self):
        # one step h = T of rows with their own boundary values: (theta1 -
        # theta0)/h = expl(theta0) + D0 theta1'' + adv0 theta1' - 4 zeta
        # theta1/r^2, the diffusivity D0 and advection adv0 frozen at theta0
        nr, T, p = 12, 1e-5, params(c=1e-6)
        profiles = [RadialProfile(0.3, 1.3, nr, _sine_theta(a, nr) + tb)
                    for a, tb in ((-2.0, 0.25), (-5.0, 0.0), (-1.0, 0.5))]
        batch = radial._march(profiles, p, T, 1e-3, 1e6)
        assert [o.steps for o in batch.outcomes] == [1, 1, 1]
        r, dr, zeta, L4 = profiles[0].r[1:-1], profiles[0].dr, p.zeta, p.L4
        for prof, theta1 in zip(profiles, batch.theta):
            th0, th1 = prof.theta, theta1

            def d1(th):
                return (th[2:] - th[:-2]) / (2.0 * dr)

            def d2(th):
                return (th[2:] - 2.0 * th[1:-1] + th[:-2]) / (dr * dr)

            t0 = th0[1:-1]
            expl = L4 * (0.5 * d1(th0) ** 2 + 6.0 * t0 * t0 / r**2) - p.a * t0 - 0.5 * p.c * t0**3
            rhs = (expl + (zeta + L4 * t0) * d2(th1) + (zeta + L4 * t0) / r * d1(th1)
                   - 4.0 * zeta * th1[1:-1] / r**2)
            assert th1[0] == th0[0] and th1[-1] == th0[-1]
            assert np.abs((th1[1:-1] - t0) / T - rhs).max() <= 1e-10 * np.abs(rhs).max()

    @pytest.mark.parametrize("fault", ["singular", "nan"])
    def test_row_by_row_solve_keeps_the_bits(self, monkeypatch, fault):
        # a batched solve that fails (a singular block) or returns a NaN
        # (a block poisoned through the zero couplings) on every third step
        # is redone row by row
        solve, calls = radial.solve_banded, [0]

        def faulty(ab, b, *bound):
            x = solve(ab, b, *bound)
            if b.size > nr:
                calls[0] += 1
                if calls[0] % 3 == 0:
                    if fault == "singular":
                        raise np.linalg.LinAlgError("singular matrix")
                    x[-1] = np.nan
            return x

        nr = 10
        profiles = [RadialProfile.sine_bump(0.3, 1.3, nr, a) for a in (-10.0, -2.0, -0.3)]
        expected = [radial._march([prof], params(c=1e-6), 0.05, 1e-3, 1e6) for prof in profiles]
        monkeypatch.setattr(radial, "solve_banded", faulty)
        batch = radial._march(profiles, params(c=1e-6), 0.05, 1e-3, 1e6)
        assert calls[0] > 3
        for i, single in enumerate(expected):
            assert batch.outcomes[i] == single.outcomes[0]
            assert batch.theta[i].tobytes() == single.theta[0].tobytes()

    def test_singular_block_stops_its_row_only(self, monkeypatch):
        # the batched solve fails, and so does the middle row's own block:
        # that row stops as non-finite, as its own run does, and the other
        # rows march on
        solve, nr = radial.solve_banded, 10

        def singular(ab, b, *bound):
            if b.size > nr or np.abs(b).max() < 1e-2:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(ab, b, *bound)

        profiles = [RadialProfile.sine_bump(0.3, 1.3, nr, a) for a in (-2.0, 5e-3, -0.3)]
        expected = [radial._march([prof], params(c=1e-6), 0.05, 1e-3, 1e6) for prof in profiles]
        monkeypatch.setattr(radial, "solve_banded", singular)
        batch = radial._march(profiles, params(c=1e-6), 0.05, 1e-3, 1e6)
        flag = flag_run(profiles[1], params(c=1e-6), 0.05, 1e-3)
        # the stop is at the end of the failed first step
        h = _first_step_size(profiles[1], params(c=1e-6), 1e-3)
        assert batch.outcomes[1] == flag == radial.Stop(STOP_NONFINITE, h, 1)
        for i in (0, 2):
            assert batch.outcomes[i] == expected[i].outcomes[0]
            assert batch.theta[i].tobytes() == expected[i].theta[0].tobytes()

    def test_one_row_raises_its_exception(self):
        th = _sine_theta(-1.0, 10)
        th[-1] = 1.0
        with pytest.raises(ValueError, match="must agree"):
            run_radial(RadialProfile(0.3, 1.3, 10, th), params(c=1e-6), 0.05, 1e-3)

    def test_needs_one_grid(self):
        profiles = [RadialProfile.sine_bump(0.3, 1.3, 10, -1.0),
                    RadialProfile.sine_bump(0.3, 1.4, 10, -1.0)]
        with pytest.raises(ValueError, match="one grid"):
            radial._march(profiles, params(c=1e-6), 0.05, 1e-3, 1e6)


def sequential_search(R0, R1, nr, p, T, dt, amp_lo, amp_hi):
    """The bisection threshold_search batches, one flag_run at a time.

    Returns the (amplitude, flag) runs in order, ending at an aborted run,
    and the final (lo, hi).
    """
    runs = []

    def flag(amp):
        runs.append((amp, flag_run(RadialProfile.sine_bump(R0, R1, nr, amp), p, T, dt)))
        return runs[-1][1]

    lo, hi = amp_lo, amp_hi
    lo_flag = flag(lo)
    if lo_flag.nonfinite:
        return runs, lo, hi
    hi_flag = flag(hi)
    if hi_flag.nonfinite or lo_flag.blown_up == hi_flag.blown_up:
        return runs, lo, hi
    for _ in range(radial.SEARCH_LEVELS):
        mid = 0.5 * (lo + hi)
        mid_flag = flag(mid)
        if mid_flag.nonfinite:
            break
        if mid_flag.blown_up == hi_flag.blown_up:
            hi = mid
        else:
            lo = mid
    return runs, lo, hi


# the thin inner annulus of the shipped search, on a coarse grid and to
# T = 0.05: amplitudes below about -8 run away, positive ones above
# zeta = 1 turn backward-diffusive
SEARCH_SETUP = (0.3, 1.3, 8, params(c=1e-6), 0.05, 1e-3)


@st.composite
def search_brackets(draw):
    ends = st.one_of(st.floats(-40.0, -0.05), st.floats(0.05, 3.0))
    return draw(ends), draw(ends)


class TestThresholdSearch:
    SWEEP = settings(max_examples=15, deadline=None, derandomize=True, database=None)

    @SWEEP
    @given(search_brackets())
    def test_equals_sequential_bisection(self, bracket):
        runs, lo, hi = sequential_search(*SEARCH_SETUP, *bracket)
        search = radial.threshold_search(*SEARCH_SETUP, *bracket)
        assert search.runs == tuple(runs)
        assert (search.lo, search.hi) == (lo, hi)

    @SWEEP
    @given(search_brackets(), st.sampled_from(["nonfinite", "backward", "singular", "boundary"]))
    def test_runs_off_the_path_are_never_read(self, bracket, fault):
        # every candidate the sequential search does not run gets an abort
        # or an exception in place of its outcome
        runs, lo, hi = sequential_search(*SEARCH_SETUP, *bracket)
        nr = SEARCH_SETUP[2]
        path = {RadialProfile.sine_bump(0.3, 1.3, nr, amp).theta.tobytes() for amp, _ in runs}
        bad = {"nonfinite": radial.Stop(STOP_NONFINITE, 0.0, 1),
               "backward": radial.Stop(STOP_BACKWARD_DIFFUSION, 0.0, 0),
               "singular": np.linalg.LinAlgError("singular matrix"),
               "boundary": ValueError("boundary values must agree")}[fault]
        march = radial._march

        def faulty(profiles, *args, **kwargs):
            batch = march(profiles, *args, **kwargs)
            for i, prof in enumerate(profiles):
                if prof.theta.tobytes() not in path:
                    batch.outcomes[i] = bad
            return batch

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(radial, "_march", faulty)
            search = radial.threshold_search(*SEARCH_SETUP, *bracket)
        assert search.runs == tuple(runs)
        assert (search.lo, search.hi) == (lo, hi)

    def test_exception_on_the_path_is_raised(self, monkeypatch):
        # amp_hi's profile gets a mismatched end, so it fails the boundary
        # check, as it does for run_radial
        bump = RadialProfile.sine_bump

        def mismatched(cls, R0, R1, nr, amplitude):
            prof = bump(R0, R1, nr, amplitude)
            if amplitude == -1e5:
                prof.theta[-1] = 1e-6
            return prof

        monkeypatch.setattr(RadialProfile, "sine_bump", classmethod(mismatched))
        with pytest.raises(ValueError, match="must agree"):
            radial.threshold_search(*SEARCH_SETUP, -0.2, -1e5)

    def test_aborted_run_ends_the_search(self):
        search = radial.threshold_search(*SEARCH_SETUP, -0.2, -40.0)
        assert not search.aborted and len(search.history) == radial.SEARCH_LEVELS
        search = radial.threshold_search(*SEARCH_SETUP, -0.2, 2.0)
        amp, flag = search.aborted
        assert amp == 2.0 and flag.reason == STOP_BACKWARD_DIFFUSION
        assert len(search.runs) == 2 and not search.history

    @pytest.mark.parametrize("depth", [3, 5])
    def test_last_batch_marches_the_remaining_levels(self, monkeypatch, depth):
        # 16 levels in batches of 3 or 5 end with a 1-level batch
        monkeypatch.setattr(radial, "SEARCH_DEPTH", depth)
        runs, lo, hi = sequential_search(*SEARCH_SETUP, -0.2, -40.0)
        search = radial.threshold_search(*SEARCH_SETUP, -0.2, -40.0)
        assert len(search.history) == radial.SEARCH_LEVELS
        assert search.runs == tuple(runs)
        assert (search.lo, search.hi) == (lo, hi)

    def test_shipped_search_work_counts(self, shipped_search):
        # configs/blowup-threshold-search.cfg: 16 levels in 4 batches of 15
        # candidates take 13,757 lock-step steps and 143,953 row steps,
        # where the 18 runs one after another take 45,670 steps
        assert shipped_search.args == (0.3, 1.3, 100, params(c=1e-6), 0.5, 1e-4, -0.2, -60.0)
        search = shipped_search.search
        assert (search.lo, search.hi) == (-3.670144653320313, -3.6710571289062504)
        assert sum(flag.steps for _, flag in search.runs) == 45_670
        assert (search.iterations, search.row_steps) == (13_757, 143_953)

    def test_shipped_search_stops_pinned(self, shipped_search):
        # every run's stop, to the bit: amp_lo, amp_hi, then the 16 midpoints
        assert [(amp, f.reason, f.t, f.steps) for amp, f in shipped_search.search.runs] == [
            (-0.2, STOP_SMALL, 0.0001, 1),
            (-60.0, STOP_THRESHOLD, 0.003036655882054587, 202),
            (-30.1, STOP_THRESHOLD, 0.006385467941925631, 239),
            (-15.15, STOP_THRESHOLD, 0.013739375732659041, 295),
            (-7.675, STOP_THRESHOLD, 0.032032170646141576, 477),
            (-3.9375, STOP_THRESHOLD, 0.13291102477243255, 1486),
            (-2.06875, STOP_SMALL, 0.14690000000000014, 1469),
            (-3.003125, STOP_SMALL, 0.21019999999999317, 2102),
            (-3.4703125, STOP_SMALL, 0.2777999999999857, 2778),
            (-3.70390625, STOP_THRESHOLD, 0.23302901212390043, 2487),
            (-3.587109375, STOP_SMALL, 0.3231999999999807, 3232),
            (-3.6455078125, STOP_SMALL, 0.384399999999974, 3844),
            (-3.67470703125, STOP_THRESHOLD, 0.3335038625062006, 3492),
            (-3.660107421875, STOP_SMALL, 0.4289999999999691, 4290),
            (-3.6674072265625, STOP_SMALL, 0.4923999999999621, 4924),
            (-3.6710571289062504, STOP_THRESHOLD, 0.41930100438749784, 4350),
            (-3.6692321777343753, STOP_REACHED_T, 0.5, 5001),
            (-3.670144653320313, STOP_REACHED_T, 0.5, 5001),
        ]


class TestPoincareStep:
    def test_gradient_cubed_inequality(self):
        # int (theta_-')^2 theta_- dr >= (4 pi^2 / 9 dR^2) int theta_-^3 dr
        rng = np.random.default_rng(17)
        R0, R1, n = 3.0, 4.0, 400
        r = np.linspace(R0, R1, n)
        const = 4.0 * math.pi**2 / (9.0 * (R1 - R0) ** 2)
        for _ in range(1000):
            coeffs = rng.normal(size=4)
            th = sum(
                c * np.sin((k + 1) * np.pi * (r - R0) / (R1 - R0))
                for k, c in enumerate(coeffs)
            )
            tm = np.maximum(-th, 0.0)
            dtm = np.gradient(tm, r, edge_order=2)
            lhs = np.trapezoid(dtm * dtm * tm, r)
            rhs = const * np.trapezoid(tm**3, r)
            assert lhs >= rhs - 1e-6 * max(abs(rhs), 1.0)


class TestHedgehogSamplePoints:
    BAND = (3.0, 4.0)
    H_S = 4e-3

    def test_multipliers_round_two_to_the_64_over_powers_of_the_plastic_number(self):
        with localcontext() as ctx:
            ctx.prec = 60
            g = Decimal(1)
            for _ in range(100):  # Newton on g^3 = g + 1
                g -= (g**3 - g - 1) / (3 * g * g - 1)
            assert abs(g**3 - g - 1) < Decimal(10) ** -55
            assert radial._R2 == tuple(int((Decimal(2**64) / g**i).to_integral_value())
                                       for i in (1, 2))

    @pytest.mark.parametrize("seed", [*range(64), 2**64 + 12345])
    def test_points_cover_the_band(self, seed):
        pts = hedgehog_sample_points(20, seed, self.BAND, self.H_S)
        assert pts.shape == (20, 2)
        lo, hi = 3.0 + 6 * self.H_S, 4.0 - 6 * self.H_S
        # hypot of (r cos, r sin) can be an ulp or two off r
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all((r >= lo * (1 - 1e-15)) & (r <= hi * (1 + 1e-15)))
        ang = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
        assert np.all((ang >= 0.0) & (ang <= 2 * math.pi))
        # well spread: every quarter of the band and every quadrant holds a point
        assert set(np.minimum((r - lo) / (hi - lo) * 4, 3).astype(int)) == {0, 1, 2, 3}
        assert set(np.minimum(ang / (math.pi / 2), 3).astype(int)) == {0, 1, 2, 3}

    def test_a_seed_selects_its_points(self):
        def points(seed):
            return hedgehog_sample_points(20, seed, self.BAND, self.H_S).tobytes()

        assert points(0) == points(0) and points(2**70 + 3) == points(2**70 + 3)
        assert points(0) != points(1)
        # exact integer arithmetic: the points depend on seed * n_samples
        # mod 2^64, so at n_samples = 20 seeds 2^62 apart coincide
        assert points(2**64 + 12345) == points(12345) == points(2**62 + 12345)
        assert points(12345) != points(2**61 + 12345)
        # point j of seed s is point s n + j of one sequence
        both = hedgehog_sample_points(6, 0, self.BAND, self.H_S)
        assert hedgehog_sample_points(3, 1, self.BAND, self.H_S).tobytes() == both[3:].tobytes()
        # the first point of the sequence sits on the band's inner edge
        assert both[0].tolist() == [3.0 + 6 * self.H_S, 0.0]


class TestHedgehogConsistency:
    @pytest.mark.parametrize(
        "name,triple",
        [
            (
                "constant",
                (lambda r: np.full_like(np.asarray(r, dtype=float), 0.7),
                 lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                 lambda r: np.zeros_like(np.asarray(r, dtype=float))),
            ),
            (
                "linear",
                (lambda r: np.asarray(r, dtype=float),
                 lambda r: np.ones_like(np.asarray(r, dtype=float)),
                 lambda r: np.zeros_like(np.asarray(r, dtype=float))),
            ),
        ],
    )
    def test_richardson_ratio(self, name, triple):
        p = LdGParams(a=0.3, b=0.0, c=1.0, L1=1.0, L2=0.1, L3=0.2, L4=0.7)
        rng = np.random.default_rng(18)
        rr = rng.uniform(3.2, 3.8, size=8)
        ang = rng.uniform(0, 2 * np.pi, size=8)
        pts = np.stack([rr * np.cos(ang), rr * np.sin(ang)], axis=1)
        h = 4e-3  # large enough to stay above the FD roundoff floor
        m1 = hedgehog_consistency_check(triple, p, pts, h, r_bounds=(3.0, 4.0))
        m2 = hedgehog_consistency_check(triple, p, pts, h / 2, r_bounds=(3.0, 4.0))
        assert m1 / m2 == pytest.approx(4.0, abs=0.5)

    def test_pure_laplacian_case(self):
        # L4 = L2 = L3 = 0 reduces to the Laplacian identity
        p = LdGParams(a=0.0, b=0.0, c=1e-300, L1=0.5, L2=0.0, L3=0.0, L4=0.0)
        triple = (
            lambda r: np.sin(np.asarray(r, dtype=float)),
            lambda r: np.cos(np.asarray(r, dtype=float)),
            lambda r: -np.sin(np.asarray(r, dtype=float)),
        )
        pts = np.array([[3.5, 0.0], [0.0, 3.3], [2.5, 2.5]])
        h = 4e-3
        m1 = hedgehog_consistency_check(triple, p, pts, h, r_bounds=(3.0, 4.0))
        m2 = hedgehog_consistency_check(triple, p, pts, h / 2, r_bounds=(3.0, 4.0))
        assert m1 / m2 == pytest.approx(4.0, abs=0.5)

    def test_spline_input(self):
        from scipy.interpolate import CubicSpline

        rs = np.linspace(3.0, 4.0, 200)
        s = CubicSpline(rs, np.sin(rs))
        p = LdGParams(a=0.1, b=0.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.5)
        pts = np.array([[3.5, 0.1]])
        mism = hedgehog_consistency_check((s, s.derivative(1), s.derivative(2)), p, pts, 1e-3,
                                          r_bounds=(3.0, 4.0))
        assert mism < 1e-2

    def test_rejects_samples_near_boundary(self):
        p = params()
        triple = (
            lambda r: np.asarray(r, dtype=float),
            lambda r: np.ones_like(np.asarray(r, dtype=float)),
            lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )
        with pytest.raises(ValueError, match="annulus boundary"):
            hedgehog_consistency_check(triple, p, [[3.0005, 0.0]], 1e-3, r_bounds=(3.0, 4.0))

    SINE = (lambda r: np.sin(np.pi * (np.asarray(r) - 3.0)),
            lambda r: np.pi * np.cos(np.pi * (np.asarray(r) - 3.0)),
            lambda r: -np.pi**2 * np.sin(np.pi * (np.asarray(r) - 3.0)))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.floats(3.05, 3.95), st.floats(0.0, 2.0 * math.pi)),
                    min_size=1, max_size=24),
           st.sampled_from([4e-3, 2e-3]))
    def test_one_stacked_rhs_equals_one_call_per_sample(self, polar, h):
        # the stencils of all samples go through one rhs_pq call, and each
        # sample keeps the bits of a check of its own
        p = LdGParams(a=0.3, b=0.0, c=1.0, L1=1.0, L2=0.1, L3=0.2, L4=0.7)
        pts = [[r * math.cos(t), r * math.sin(t)] for r, t in polar]
        with mock.patch.object(radial, "rhs_pq", wraps=pde2d.rhs_pq) as rhs:
            whole = hedgehog_consistency_check(self.SINE, p, pts, h, r_bounds=(3.0, 4.0))
            assert rhs.call_count == 1
        each = [hedgehog_consistency_check(self.SINE, p, [x], h, r_bounds=(3.0, 4.0)) for x in pts]
        assert whole == max(each)

    def test_non_finite_sample_is_not_dropped(self):
        # a profile that is NaN beyond r = 3.6 gives a NaN mismatch at the
        # second sample, and the check returns it instead of the first's
        nan_past = (lambda r: np.where(np.asarray(r) > 3.6, np.nan, np.asarray(r, dtype=float)),
                    lambda r: np.ones_like(np.asarray(r, dtype=float)),
                    lambda r: np.zeros_like(np.asarray(r, dtype=float)))
        mism = hedgehog_consistency_check(nan_past, params(), [[3.3, 0.0], [0.0, 3.8]], 1e-3,
                                          r_bounds=(3.0, 4.0))
        assert math.isnan(mism)
