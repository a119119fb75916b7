import math

import numpy as np
import pytest
from helpers import GAINS, bundle, gamma_iterated, load_reference

from laycon.erg import GammaEvaluator
from laycon.hess import (
    ConstraintConfig,
    HessParams,
    LoadProfile,
    LoadSegment,
    OutOfSpanError,
    battery_interface_bounds,
    feedback_law,
    hess_constraints,
    load,
    plant_rhs,
)
from laycon.numkit import solve_lyapunov
from laycon.scenarios import scenario_a, scenario_b
from laycon.sim import run_layered

P_B = HessParams()  # published full-stack gain set (k1=35, k2=12)
P_A = HessParams(k1=25.0, k2=11.0)
LAW_B = feedback_law(P_B)


class TestPlantRhs:
    def test_zero_everything(self):
        dx = np.array(plant_rhs(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, P_B))
        assert np.all(dx == 0.0)

    def test_balanced_bus(self):
        v_gr, i_s, i_b = 400.0, 3.0, 2.0
        dx = plant_rhs(v_gr, i_s, i_b, 0.0, 0.0, 0.0, -5.0, P_B)
        assert dx[0] == 0.0

    def test_energy_rate_normalization(self):
        # lambda_b_energy = 1/V_nom makes dE_B/dt read in amperes at V_nom
        v_gr, i_s, i_b = 400.0, 0.0, 0.125
        dx = plant_rhs(v_gr, i_s, i_b, 0.0, 0.0, 0.0, 0.0, P_B)
        assert dx[4] == pytest.approx(0.125)


class TestControllers:
    """law(v_gr, i_s, i_b, v, i_b_ref, d, d_dot) -> (u_S, u_B, e1, e2)."""

    def test_ub_at_reference(self):
        assert LAW_B(400.0, 0.0, 1.5, 400.0, 1.5, 0.0, 0.0)[1] == 0.0

    def test_ub_saturation_boundary(self):
        err = P_B.u_b_bar / P_B.lambda_b_gain
        assert abs(LAW_B(400.0, 0.0, err, 400.0, 0.0, 0.0, 0.0)[1]) == pytest.approx(P_B.u_b_bar)

    def test_ub_direct(self):
        law = feedback_law(HessParams(k1=2.0, k2=3.0, lambda_b_gain=2.0))
        assert law(400.0, 0.0, 1.0, 400.0, 0.0, 0.0, 0.0)[1] == pytest.approx(-2.0)

    def test_us_on_reference(self):
        # balanced bus (I_S = -(d + I_B)), zero load rate
        assert LAW_B(400.0, -3.0, 0.0, 400.0, 0.0, 3.0, 0.0)[0] == 0.0

    def test_us_pure_voltage_error(self):
        assert LAW_B(401.0, -3.0, 0.0, 400.0, 0.0, 3.0, 0.0)[0] == pytest.approx(-P_B.c_bus * P_B.k1)

    def test_us_hand_value(self):
        # voltage error 1, bus imbalance 2, load rate 3
        expected = -P_B.c_bus * P_B.k1 * 1.0 - P_B.k2 * 2.0 - 3.0
        assert LAW_B(401.0, -1.0, 0.0, 400.0, 0.0, 3.0, 3.0)[0] == pytest.approx(expected)

    def test_us_cancels_the_battery_input(self):
        # balance -1 + (2 + 1) = 2 again, and d_dot + u_B = 53 - 50 = 3
        expected = -P_B.c_bus * P_B.k1 * 1.0 - P_B.k2 * 2.0 - 3.0
        assert LAW_B(401.0, -1.0, 1.0, 400.0, 0.0, 2.0, 53.0)[0] == pytest.approx(expected)

    @pytest.mark.parametrize("maker", [scenario_a, scenario_b], ids=["a", "b"])
    def test_columns_equal_floats_bit_for_bit(self, maker):
        law = feedback_law(bundle(maker()).plant)
        rng = np.random.default_rng(13)
        n = 2000
        args = [
            400.0 + rng.normal(0.0, 3.0, n),  # V_gr
            rng.normal(0.0, 5.0, n),  # I_S
            rng.normal(0.0, 2.0, n),  # I_B
            400.0 + rng.normal(0.0, 1.0, n),  # v
            rng.normal(0.0, 2.0, n),  # I_B reference
            rng.normal(0.0, 5.0, n),  # d
            rng.normal(0.0, 10.0, n),  # d_dot
        ]
        # signed zeros: every argument +0.0 or -0.0, and the exact cancellations
        # V_gr = v and I_B = reference, whose differences are +0.0
        for row in range(2 ** 7):
            for j, arg in enumerate(args):
                arg[row] = -0.0 if row >> j & 1 else 0.0
        args[0][200:300] = args[3][200:300]
        args[2][200:300] = args[4][200:300]
        columns = law(*args)
        floats = [law(*row) for row in zip(*(a.tolist() for a in args))]
        assert [tuple(map(float.hex, out)) for out in zip(*(c.tolist() for c in columns))] == [
            tuple(map(float.hex, out)) for out in floats]


class TestErrorCoordinates:
    def test_exact_tracking(self):
        assert np.allclose(LAW_B(400.0, -3.0, 1.0, 400.0, 0.0, 2.0, 0.0)[2:], 0.0)

    def test_balanced_bus_zero_rate_error(self):
        e = LAW_B(402.0, -3.0, 1.0, 400.0, 0.0, 2.0, 0.0)[2:]
        assert e[0] == pytest.approx(2.0)
        assert e[1] == 0.0

    def test_numeric(self):
        law = feedback_law(HessParams(c_bus=2.0))
        e = law(401.0, 2.0, 0.0, 400.0, 0.0, 1.0, 0.0)[2:]
        assert e[1] == pytest.approx(3.0 / 2.0)

    def test_error_matrix_published_eigenvalues(self):
        eigs = np.sort(np.linalg.eigvals(P_A.error_matrix()).real)
        assert abs(eigs[1] + 3.21) <= 0.01
        assert abs(eigs[0] + 7.79) <= 0.01

    def test_companion_identities(self):
        A = P_B.error_matrix()
        assert np.trace(A) == pytest.approx(-P_B.k2)
        assert np.linalg.det(A) == pytest.approx(P_B.k1)

    def test_unstable_gains_rejected(self):
        with pytest.raises(ValueError):
            HessParams(k1=0.0, k2=0.0)


class TestConstraints:
    def test_published_bottleneck_threshold(self):
        P = solve_lyapunov(P_B.error_matrix(), np.diag([100.0, 10.0]))
        rows = hess_constraints(P_B, ConstraintConfig(mode="input_only"))
        assert len(rows) == 2
        g = GammaEvaluator(rows, P, GAINS).gamma(400.0)
        assert abs(g - 9.3) <= 0.1

    def test_voltage_row_closes_at_bound(self):
        P = solve_lyapunov(P_B.error_matrix(), np.diag([100.0, 10.0]))
        rows = hess_constraints(P_B, ConstraintConfig())
        v_max_row = next(r for r in rows if r.label == "v_max")
        assert GammaEvaluator([v_max_row], P, GAINS).gamma_i(0, P_B.v_max) == 0.0

    def test_full_set_is_min_over_rows(self):
        P = solve_lyapunov(P_B.error_matrix(), np.diag([100.0, 10.0]))
        rows = hess_constraints(P_B, ConstraintConfig(d_bar_max=6.0))
        v = 400.0
        assert GammaEvaluator(rows, P, GAINS).gamma(v) == pytest.approx(
            min(GammaEvaluator([r], P, GAINS).gamma_i(0, v) for r in rows)
        )

    def test_full_mode_threshold_is_the_settled_fixed_point(self):
        # every logged Gamma_v of a governed-full run is the settled fixed point
        full = {"constraints": {"mode": "full", "kappa_bar": 0.05, "d_bar_max": 5.5, "d_bar_dot_max": 10.0}}
        run = bundle(scenario_b(seed=7, t_end=0.5), full)
        log, _ = run_layered(run)
        for v, g in zip(log.columns["v"].tolist(), log.columns["Gamma_v"].tolist()):
            assert g == pytest.approx(gamma_iterated(run.governor, v), rel=1e-12, abs=0.0)


class TestBatteryInterface:
    def test_limits(self):
        budget = P_B.u_b_bar / P_B.lambda_b_gain
        r_long, eps_long = battery_interface_bounds(P_B, 1e6)
        assert r_long == pytest.approx(budget)
        assert eps_long == pytest.approx(0.0, abs=1e-12)
        r_zero, eps_zero = battery_interface_bounds(P_B, 0.0)
        assert r_zero == 0.0
        assert eps_zero == pytest.approx(budget)

    def test_budget_identity(self):
        for t_s in (0.01, 0.1, 1.0):
            r, eps = battery_interface_bounds(P_B, t_s)
            assert r + eps == pytest.approx(P_B.u_b_bar / P_B.lambda_b_gain)


class TestLoad:
    def test_constant_segment(self):
        prof = LoadProfile((LoadSegment(0.0, 1.0, "constant", -2.0),))
        d, d_dot = load([0.5], prof)
        assert (d[0], d_dot[0]) == (-2.0, 0.0)

    def test_ramp_midpoint_with_ripple(self):
        prof = bundle(scenario_b()).load_profile
        d, _ = load([0.65], prof)
        assert d[0] == pytest.approx(-2.5 + 0.5 * math.sin(2.0 * math.pi * 2.0 * 0.65))

    def test_joins_are_c1(self):
        prof = bundle(scenario_b()).load_profile
        for t_join in (0.5, 0.8):
            (d_lo, d_hi), (dd_lo, dd_hi) = load([t_join - 1e-9, t_join + 1e-9], prof)
            assert abs(d_hi - d_lo) <= 1e-7
            assert abs(dd_hi - dd_lo) <= 1e-6

    def test_derivative_matches_finite_difference(self):
        prof = bundle(scenario_b()).load_profile
        h = 1e-6
        for t in (0.2, 0.6, 0.75, 2.0):
            (d_minus, _, d_plus), (_, d_dot, _) = load([t - h, t, t + h], prof)
            assert d_dot == pytest.approx((d_plus - d_minus) / (2 * h), abs=1e-4)

    def test_out_of_span(self):
        prof = bundle(scenario_b()).load_profile
        with pytest.raises(OutOfSpanError):
            load([0.0, -0.5], prof)
        with pytest.raises(OutOfSpanError):
            load([100.0], prof)

    def test_equals_scalar_evaluation_at_run_times(self):
        # a scenario-B run reads the load at every step time i h and at every
        # forecast time t_k + j t_s (clamped to the span); the vector
        # evaluation must give the scalar bits there, ramp polynomial included
        b = bundle(scenario_b())
        prof, h = b.load_profile, b.sim.h
        n_steps, spp, horizon = round(b.sim.t_end / h), round(b.sim.t_s / h), b.planner_cfg.horizon
        steps = np.arange(n_steps + 1) * h
        forecasts = steps[:n_steps:spp, None] + np.arange(horizon) * (spp * h)
        assert forecasts.tolist() == [[i * h + j * (spp * h) for j in range(horizon)]
                                      for i in range(0, n_steps, spp)]
        lo, hi = prof.t_span
        for times in (steps, forecasts):
            d, d_dot = load(np.clip(times, lo, hi), prof)
            for t, got in zip(times.ravel().tolist(), zip(d.ravel().tolist(), d_dot.ravel().tolist())):
                assert got == load_reference(min(max(t, lo), hi), prof)
        ramp = prof.segments[1]
        assert np.sum((steps > ramp.t_start) & (steps < ramp.t_end)) >= 299
