import math

import numpy as np
import pytest

from laycon.iss_cert import (
    SettlingTimes,
    calibrate_overshoot,
    coordinate_bound,
    decay_time,
    envelope_decay,
    iss_gain,
    noise_floor,
    settling_time,
    timing_check,
    ultimate_level_optimized,
)
from laycon.numkit import SpdMatrix, invert_spd, solve_lyapunov

A_SCEN_A = np.array([[0.0, 1.0], [-25.0, -11.0]])
R_SCEN_A = np.diag([50.0, 1.0])
A_SCEN_B = np.array([[0.0, 1.0], [-35.0, -12.0]])
R_SCEN_B = np.diag([100.0, 10.0])


@pytest.fixture(scope="module")
def p_scen_a():
    return solve_lyapunov(A_SCEN_A, R_SCEN_A)


@pytest.fixture(scope="module")
def p_scen_b():
    return solve_lyapunov(A_SCEN_B, R_SCEN_B)


class TestUltimateLevelOptimized:
    def test_zero_input_direction(self, p_scen_a):
        V, theta, z = ultimate_level_optimized(p_scen_a, SpdMatrix(R_SCEN_A), np.zeros(2), 3.0)
        assert V == 0.0
        assert np.all(z == 0.0)

    def test_published_level(self, p_scen_a):
        V, theta, z = ultimate_level_optimized(p_scen_a, SpdMatrix(R_SCEN_A), np.array([0.0, 1.0]), 3.0)
        assert abs(V - 0.51) <= 0.01
        assert abs(math.degrees(theta) - 79.7) <= 0.5
        assert np.all(np.abs(z - np.array([0.13, 0.72])) <= 0.01)

    def test_analytic_circular_case(self):
        # P = I, R = 2I, B = (0,1): a(theta) = |sin theta|, V = sin^2 theta
        V, theta, z = ultimate_level_optimized(
            SpdMatrix(np.eye(2)), SpdMatrix(2.0 * np.eye(2)), np.array([0.0, 1.0]), 1.0
        )
        assert V == pytest.approx(1.0, abs=1e-9)
        assert math.degrees(theta) == pytest.approx(90.0, abs=1e-3)

    def test_monotone_in_disturbance_bound(self, p_scen_a):
        R = SpdMatrix(R_SCEN_A)
        B = np.array([0.0, 1.0])
        levels = [ultimate_level_optimized(p_scen_a, R, B, h)[0] for h in np.linspace(0.0, 5.0, 11)]
        assert all(b >= a for a, b in zip(levels, levels[1:]))
        # quadratic scaling in H_max for fixed geometry
        v1 = ultimate_level_optimized(p_scen_a, R, B, 1.0)[0]
        v2 = ultimate_level_optimized(p_scen_a, R, B, 2.0)[0]
        assert v2 == pytest.approx(4.0 * v1, rel=1e-9)


class TestCoordinateBound:
    def test_identity(self):
        assert coordinate_bound(np.eye(2), 1.0, 0) == pytest.approx(1.0)

    def test_published_bounds(self, p_scen_a, p_scen_b):
        V_a, _, _ = ultimate_level_optimized(p_scen_a, SpdMatrix(R_SCEN_A), np.array([0.0, 1.0]), 3.0)
        assert abs(coordinate_bound(invert_spd(p_scen_a).mat, V_a, 0) - 0.27) <= 0.01
        assert abs(coordinate_bound(invert_spd(p_scen_b).mat, 0.50, 0) - 0.13) <= 0.01

    def test_consistency_with_inverse(self, p_scen_a):
        inv = invert_spd(p_scen_a)
        for i in range(2):
            bound = coordinate_bound(inv.mat, 0.7, i)
            assert abs(bound**2 / inv.mat[i, i] - 0.7) <= 1e-10

    def test_index_out_of_range(self, p_scen_a):
        with pytest.raises(IndexError):
            coordinate_bound(invert_spd(p_scen_a).mat, 1.0, 2)


class TestIssGain:
    def test_published_chain(self):
        g = iss_gain(2.94, 1.0, 3.21)
        assert abs(g - 0.92) <= 0.005
        assert abs(noise_floor(g, 3.0) - 2.75) <= 0.02

    def test_zero_input_matrix(self):
        assert iss_gain(1.0, 0.0, 4.0) == 0.0

    def test_direct_arithmetic(self):
        assert iss_gain(1.0, 2.0, 4.0) == pytest.approx(0.5)


class TestCalibrateOvershoot:
    def test_exact_exponential(self):
        lam, e0 = 3.0, 2.0
        times = np.linspace(0.0, 2.0, 101)
        norms = [e0 * math.exp(-lam * t) for t in times]
        assert calibrate_overshoot(norms, envelope_decay(times, lam), 0.7, e0) == pytest.approx(1.0)

    def test_scaled_exponential(self):
        lam, e0 = 2.0, 1.5
        times = np.linspace(0.0, 1.0, 51)
        norms = [2.0 * e0 * math.exp(-lam * t) for t in times]
        assert calibrate_overshoot(norms, envelope_decay(times, lam), 0.3, e0) == pytest.approx(2.0)

    def test_minimality(self):
        rng = np.random.default_rng(17)
        lam, e0, eps = 3.21, 3.0, 2.75
        times = np.linspace(0.0, 2.0, 200)
        norms = e0 * np.exp(-lam * times) * (1.0 + 0.5 * rng.random(times.size))
        m = calibrate_overshoot(norms, envelope_decay(times, lam), eps, e0)
        envelope = lambda mm: mm * np.exp(-lam * times) * e0 + eps * (1.0 - np.exp(-lam * times))
        assert np.all(norms <= envelope(m) + 1e-12)
        assert np.any(norms > envelope(m - 1e-6))

    def test_empty_and_zero_initial(self):
        with pytest.raises(ValueError):
            envelope_decay([], 1.0)
        assert calibrate_overshoot([0.0, 0.0], envelope_decay([0.0, 1.0], 1.0), 0.1, 0.0) == 1.0

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            envelope_decay([0.0, 1.0, 1.0], 1.0)


class TestSettlingTime:
    def test_hand_evaluation(self):
        st = settling_time(
            m=2.0, lambda_e=2.0, gamma_iss=1.0, r_bar=1.0, eps=0.5,
            kappa_lo=1.0, r_lo=1.0, delta=0.1, H_max=1.0, M=0.0, mode="absolute",
        )
        assert st.tau1 == pytest.approx(1.5)
        assert st.z_peak == pytest.approx(2.0 * math.exp(-3.0) * 1.5 + 1.0, abs=1e-6)
        assert st.tau2 == pytest.approx(0.5 * math.log(2.0 * st.z_peak / 0.1), abs=1e-9)
        assert st.tau2 == pytest.approx(1.568, abs=2e-3)
        assert st.tau_LL == pytest.approx(st.tau1 + st.tau2)

    def test_instantaneous_settling(self):
        st = settling_time(2.0, 2.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.1, 1.0, mode="absolute")
        st2 = settling_time(2.0, 2.0, 1.0, 1.0, 0.5, 1.0, 1.0, 2.0 * st.z_peak, 1.0, mode="absolute")
        assert st2.tau2 == 0.0

    def test_published_decay_time(self):
        assert abs(decay_time(2.94, 8.81, 3.21, 0.1, 2.75, "relative") - 1.42) <= 0.02

    def test_monotonicity(self):
        base = dict(m=2.0, lambda_e=2.0, gamma_iss=1.0, r_bar=1.0, eps=0.5,
                    kappa_lo=1.0, r_lo=1.0, H_max=1.0, mode="absolute")
        taus = [settling_time(delta=d, **base).tau2 for d in (0.05, 0.1, 0.2, 0.5)]
        assert all(b <= a for a, b in zip(taus, taus[1:]))
        ms = [settling_time(delta=0.1, **{**base, "m": m}).tau2 for m in (1.0, 1.5, 2.0, 3.0)]
        assert all(b >= a for a, b in zip(ms, ms[1:]))


class TestTimingCheck:
    def test_exact_period(self):
        st = SettlingTimes(tau1=0.4, tau2=0.6, tau_LL=1.0, z_peak=2.0)
        assert timing_check(1.0, st).period_covers_settling
        assert not timing_check(1.0 - 1e-12, st).period_covers_settling

    def test_window_boundary(self):
        st = SettlingTimes(tau1=0.01, tau2=0.6, tau_LL=0.61, z_peak=2.0)
        assert not timing_check(0.6 + 0.01 + 0.01, st).window_within_transit

    def test_short_period_flagged(self):
        st = SettlingTimes(tau1=0.2, tau2=1.42, tau_LL=1.62, z_peak=8.81)
        v = timing_check(0.1, st)
        assert not v.period_covers_settling
        assert not v.window_within_transit
