import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import level_search
from hypothesis import given, settings
from hypothesis import strategies as st

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


def exact_level(theta: float, P: SpdMatrix, R: SpdMatrix, B, H_max: float) -> Fraction:
    """f(b) = 4 H^2 (b'PB)^2 (b'Pb) / (b'Rb)^2 at the float pair
    b = (cos theta, sin theta), in exact rational arithmetic."""
    b = [Fraction(math.cos(theta)), Fraction(math.sin(theta))]
    Pm, Rm = ([[Fraction(x) for x in row] for row in M.mat.tolist()] for M in (P, R))

    def form(M, e, f):
        return sum(e[i] * M[i][j] * f[j] for i in range(2) for j in range(2))

    L = form(Pm, b, [Fraction(float(x)) for x in B])
    return 4 * Fraction(H_max) ** 2 * L * L * form(Pm, b, b) / form(Rm, b, b) ** 2


@st.composite
def planar_levels(draw):
    """A Hurwitz companion error matrix's P, an SPD R with its off-diagonal
    entry, B of any direction and H_max."""
    k1 = draw(st.floats(0.1, 1e5))
    k2 = draw(st.floats(0.1, 1e3))
    r0, r2 = draw(st.floats(0.01, 100.0)), draw(st.floats(0.01, 100.0))
    r1 = draw(st.floats(-0.99, 0.99)) * math.sqrt(r0 * r2)
    R = SpdMatrix([[r0, r1], [r1, r2]])
    beta, size = draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.1, 10.0))
    B = np.array([size * math.cos(beta), size * math.sin(beta)])
    return solve_lyapunov([[0.0, 1.0], [-k1, -k2]], R), R, B, draw(st.floats(0.1, 10.0))


def check_against_search(P: SpdMatrix, R: SpdMatrix, B, H: float):
    """The closed form's level is the search's within 1e-12 relative, and its
    direction is never worse than the search's by more than 1e-15 relative."""
    V, theta, z = ultimate_level_optimized(P, R, B, H)
    V_search, theta_search = level_search(P, R, B, H)
    assert V == pytest.approx(V_search, rel=1e-12)
    # f's float value carries the rounding of b'Rb's cancellation (up to
    # ~3e-14 relative where R is far from round), so the directions are
    # compared by f in exact arithmetic
    exact, exact_search = exact_level(theta, P, R, B, H), exact_level(theta_search, P, R, B, H)
    assert exact >= exact_search * (1 - Fraction(1, 10**15))
    assert float(exact) == pytest.approx(V, rel=1e-12)
    assert P.quad(z) == pytest.approx(V, rel=1e-12)


class TestUltimateLevelOptimized:
    def test_zero_input_direction(self, p_scen_a):
        assert ultimate_level_optimized(p_scen_a, SpdMatrix(R_SCEN_A), np.zeros(2), 3.0) == (0.0, 0.0, (0.0, 0.0))
        assert ultimate_level_optimized(p_scen_a, SpdMatrix(R_SCEN_A), np.array([0.0, 1.0]), 0.0) == (
            0.0, 0.0, (0.0, 0.0))

    def test_published_level(self, p_scen_a):
        V, theta, z = ultimate_level_optimized(p_scen_a, SpdMatrix(R_SCEN_A), np.array([0.0, 1.0]), 3.0)
        assert abs(V - 0.51) <= 0.01
        assert abs(math.degrees(theta) - 79.7) <= 0.5
        assert np.all(np.abs(np.array(z) - np.array([0.13, 0.72])) <= 0.01)

    def test_analytic_circular_case(self):
        # P = I, R = 2I, B = (0,1): a(theta) = |sin theta|, V = sin^2 theta; the
        # cubic degenerates to 4 (1 + t^2), with no real root, so the maximum
        # is the root at infinity
        assert ultimate_level_optimized(SpdMatrix(np.eye(2)), SpdMatrix(2.0 * np.eye(2)),
                                        np.array([0.0, 1.0]), 1.0) == (1.0, math.pi / 2, (0.0, 1.0))

    def test_circular_case_with_horizontal_input(self):
        # B = (1,0): V = cos^2 theta; the cubic -2 t (1 + t^2) has the one real root 0
        assert ultimate_level_optimized(SpdMatrix(np.eye(2)), SpdMatrix(2.0 * np.eye(2)),
                                        np.array([1.0, 0.0]), 1.0) == (1.0, 0.0, (1.0, 0.0))

    @pytest.mark.parametrize("k1, k2, R, B, H", [
        (25.0, 11.0, R_SCEN_A, (0.0, 1.0), 3.0),
        (25.0, 11.0, R_SCEN_A, (1.0, 0.0), 3.0),
        (25.0, 11.0, R_SCEN_A, (0.3, -2.0), 3.0),
        (35.0, 12.0, R_SCEN_B, (0.0, 1.0), 3.0),
        # three real roots (-182.9, -72.1, 0.486): the maximum is at the smallest
        (6718.688382129133, 47.81910281388983,
         [[53.45526106029907, -10.253700626234137], [-10.253700626234137, 23.011656419992466]],
         (-0.0037911832533663536, -0.9999928134389464), 1.0),
        # roots -8.7e7 and +-0.0663: shifted by -c2 / (3 c3) = 2.9e7, the
        # pair rounds to a complex one, so only dividing out -8.7e7 finds it
        (9419.626813823821, 116.19107055655681, np.diag([0.36836536175366064, 83.78923702134098]),
         (0.0, 1.0), 4.123764165465168),
    ], ids=["a", "a_b_horizontal", "a_b_oblique", "b", "three_real_roots", "pair_dwarfed_by_a_root"])
    def test_matches_the_search_on_chosen_cases(self, k1, k2, R, B, H):
        R = SpdMatrix(R)
        check_against_search(solve_lyapunov([[0.0, 1.0], [-k1, -k2]], R), R, np.array(B), H)

    @settings(max_examples=150)
    @given(planar_levels())
    def test_matches_the_search(self, case):
        check_against_search(*case)

    @settings(max_examples=50)
    @given(planar_levels())
    def test_theta_star_is_the_representative_of_plus_minus_b(self, case):
        P, R, B, H = case
        V, theta, z = ultimate_level_optimized(P, R, B, H)
        assert -math.pi / 2 < theta <= math.pi / 2
        # f(b) = f(-b), so the level at theta + pi is the same, bit for bit
        b = np.array([math.cos(theta), math.sin(theta)])
        for f in (lambda e: abs(e @ P.mat @ B), lambda e: e @ P.mat @ e, lambda e: e @ R.mat @ e):
            assert f(b) == f(-b)
        assert P.quad(z) == P.quad((-z[0], -z[1]))

    def test_scenario_b_direction_is_the_half_plane_representative(self, p_scen_b):
        # the search's grid picked the opposite direction, 241.83 degrees
        V, theta, z = ultimate_level_optimized(p_scen_b, SpdMatrix(R_SCEN_B), np.array([0.0, 1.0]), 2.0)
        assert math.degrees(theta) == pytest.approx(61.83, abs=0.01)
        assert z[0] > 0.0 and z[1] > 0.0

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
            kappa_lo=1.0, r_lo=1.0, delta=0.1, w_max=1.0, M=0.0,
        )
        assert st.tau1 == pytest.approx(1.5)
        assert st.z_peak == pytest.approx(2.0 * math.exp(-3.0) * 1.5 + 1.0, abs=1e-6)
        # the tolerance is delta eps = 0.05, relative to the noise floor
        assert st.tau2 == pytest.approx(0.5 * math.log(2.0 * st.z_peak / (0.1 * 0.5)), abs=1e-9)
        assert st.tau2 == pytest.approx(1.914, abs=2e-3)
        assert st.tau_LL == pytest.approx(st.tau1 + st.tau2)

    def test_instantaneous_settling(self):
        # m z_peak / (delta eps) = 1 once delta = m z_peak / eps = 4 z_peak
        st = settling_time(2.0, 2.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.1, 1.0)
        st2 = settling_time(2.0, 2.0, 1.0, 1.0, 0.5, 1.0, 1.0, 4.0 * st.z_peak, 1.0)
        assert st2.tau2 == 0.0

    def test_published_decay_time(self):
        assert abs(decay_time(2.94, 8.81, 3.21, 0.1, 2.75) - 1.42) <= 0.02

    def test_monotonicity(self):
        base = dict(m=2.0, lambda_e=2.0, gamma_iss=1.0, r_bar=1.0, eps=0.5,
                    kappa_lo=1.0, r_lo=1.0, w_max=1.0)
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
