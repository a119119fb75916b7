import dataclasses

import numpy as np
import pytest
from helpers import NO_PLAN_STEPS, bundle, no_plan_step, plan_reference, planner_qp_reference

from laycon import mpc
from laycon.hess import HessParams
from laycon.mpc import (
    AllInfeasibleError,
    Planner,
    PlannerConfig,
    abstract_step,
    build_qp,
    descent_check,
    estimate_lipschitz,
    plan,
    planner_iss_bound,
    qp_matrices,
)
from laycon.qp import QpSolver, QpStatus
from laycon.scenarios import scenario_b
from laycon.sim import run_layered


def make_cfg(**overrides):
    base = dict(
        horizon=8,
        t_s=0.1,
        q_weight=1.0,
        e_b_goal=5.0,
        v_nom=400.0,
        i_b_bar=5.0,
        i_s_bar=12.0,
        e_b_range=(0.0, 10.0),
        e_s_range=(-20.0, 20.0),
        slew_bound=0.596,
        tighten_eps_e=0.0,
        lambda_b_energy=1.0 / 400.0,
        lambda_s=1.0 / 400.0,
    )
    base.update(overrides)
    return PlannerConfig(**base)


def scenario_b_cfg():
    # goal sits on the battery's upper SOC bound: charge to full, no overshoot
    return PlannerConfig.from_hess(
        HessParams(), horizon=20, t_s=0.1, q_weight=1.0, e_b_goal=5.0,
        e_b_range=(0.0, 5.0), e_s_range=(-40.0, 40.0),
    )


def first_current(y, d_forecast, r_prev, cfg):
    """The battery current of the QP's first step, read from x_1 = E_B,1 - goal."""
    sol = QpSolver(*qp_matrices(cfg)).solve(np.zeros(cfg.horizon), build_qp(y, d_forecast, r_prev, cfg))
    return (sol.x[0] - (y[0] - cfg.e_b_goal)) / cfg.gain_b


def count_qp_matrices(monkeypatch):
    calls = []
    original = mpc.qp_matrices

    def counted(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setattr(mpc, "qp_matrices", counted)
    return calls


class TestAbstractStep:
    def test_rest_is_fixed_point(self):
        cfg = make_cfg()
        y = np.array([3.0, 1.0])
        assert np.allclose(abstract_step(y, 0.0, 0.0, cfg), y)

    def test_battery_gain_arithmetic(self):
        cfg = make_cfg(lambda_b_energy=1.0)
        y1 = abstract_step(np.array([0.0, 0.0]), 0.125, 0.0, cfg)
        assert y1[0] == pytest.approx(0.1 * 1.0 * 400.0 * 0.125)

    def test_balanced_bus_leaves_supercap(self):
        cfg = make_cfg(lambda_s=1.0)
        y1 = abstract_step(np.array([0.0, 2.0]), 1.5, -1.5, cfg)
        assert y1[1] == pytest.approx(2.0)


class TestBuildQp:
    def test_one_step_reaches_goal(self):
        cfg = make_cfg(horizon=1, e_b_goal=5.0, slew_bound=100.0, i_b_bar=100.0, i_s_bar=200.0)
        y = np.array([4.99, 0.0])
        assert first_current(y, np.zeros(1), 0.0, cfg) == pytest.approx((5.0 - 4.99) / cfg.gain_b)

    def test_binding_slew_only(self):
        cfg = make_cfg(horizon=1, i_b_bar=100.0, i_s_bar=200.0)
        assert first_current(np.array([0.0, 0.0]), np.zeros(1), 0.2, cfg) == pytest.approx(0.2 + cfg.slew_bound)

    def test_scenario_b_first_step_feasible(self):
        cfg = scenario_b_cfg()
        res = plan(np.array([0.0, 0.0]), np.zeros(20), 0.0, cfg, QpSolver(*qp_matrices(cfg)))
        assert not res.fallback_used


class TestPlan:
    def test_at_goal(self):
        cfg = make_cfg()
        res = plan(np.array([5.0, 0.0]), np.zeros(cfg.horizon), 0.0, cfg, QpSolver(*qp_matrices(cfg)))
        assert res.r_ib == pytest.approx(0.0, abs=1e-10)
        assert res.V_N_star == pytest.approx(0.0, abs=1e-10)

    def test_value_positive_beyond_reach(self):
        cfg = make_cfg()
        reach_1 = cfg.gain_b * cfg.slew_bound
        solver = QpSolver(*qp_matrices(cfg))
        near = plan(np.array([5.0 - 0.5 * reach_1, 0.0]), np.zeros(cfg.horizon), 0.0, cfg, solver)
        assert near.V_N_star == pytest.approx(0.0, abs=1e-10)
        far = plan(np.array([0.0, 0.0]), np.zeros(cfg.horizon), 0.0, cfg, solver)
        assert far.V_N_star > 1.0

    def test_contradictory_tightening_falls_back(self):
        cfg = make_cfg(tighten_eps_e=100.0)
        res = plan(np.array([5.0, 0.0]), np.zeros(cfg.horizon), 0.25, cfg, QpSolver(*qp_matrices(cfg)))
        assert res.fallback_used
        assert res.r_ib == 0.25
        assert res.V_N_star is None

    def test_abstract_closed_loop_monotone_approach(self):
        cfg = scenario_b_cfg()
        planner = Planner(cfg)
        y = np.array([0.0, 0.0])
        levels = [y[0]]
        for _ in range(60):
            res = planner.step(y, np.zeros(cfg.horizon))
            assert not res.fallback_used
            y = abstract_step(y, res.r_ib, 0.0, cfg)
            levels.append(y[0])
        assert all(b >= a - 1e-9 for a, b in zip(levels, levels[1:]))
        assert levels[-1] == pytest.approx(5.0, abs=1e-6)
        assert max(levels) <= 5.0 + 1e-9

    def test_matrices_built_once_per_planner(self, monkeypatch):
        calls = count_qp_matrices(monkeypatch)
        cfg = scenario_b_cfg()
        planner = Planner(cfg)
        y = np.array([0.0, 0.0])
        for _ in range(60):
            res = planner.step(y, np.zeros(cfg.horizon))
            y = abstract_step(y, res.r_ib, 0.0, cfg)
        assert len(calls) == 1

    def test_zero_weight_planner_rejected_at_construction(self):
        with pytest.raises(ValueError, match="q_weight must be > 0"):
            Planner(make_cfg(q_weight=0.0))

    def test_slew_guarantee_across_fallbacks(self):
        cfg = make_cfg()
        planner = Planner(cfg)
        rng = np.random.default_rng(8)
        prev = planner.r_prev
        for k in range(40):
            if k % 7 == 3:
                # poison the problem so this step must fall back
                planner.cfg = make_cfg(tighten_eps_e=1e3)
            else:
                planner.cfg = cfg
            y = np.array([rng.uniform(0.0, 10.0), rng.uniform(-5.0, 5.0)])
            res = planner.step(y, np.zeros(cfg.horizon))
            assert abs(res.r_ib - prev) <= cfg.slew_bound + 1e-9
            prev = res.r_ib

    @pytest.mark.parametrize("q_weight, tighten", NO_PLAN_STEPS)
    def test_infeasible_start_falls_back(self, q_weight, tighten):
        # E_S starts outside its range, so no plan exists; on the way there
        # a violated row turns dependent on the working set, and its pure
        # dual step ends the solve with a Farkas certificate
        res = no_plan_step(q_weight, tighten)
        assert res.qp.status is QpStatus.INFEASIBLE
        assert res.fallback_used
        assert res.r_ib == 0.5

    def test_nominal_recursive_feasibility(self):
        cfg = make_cfg(horizon=6)
        rng = np.random.default_rng(99)
        for _ in range(100):
            y = np.array([rng.uniform(0.5, 9.5), rng.uniform(-15.0, 15.0)])
            planner = Planner(cfg)
            first = planner.step(y, np.zeros(cfg.horizon))
            if first.fallback_used:
                continue
            y = abstract_step(y, first.r_ib, 0.0, cfg)
            for _ in range(15):
                res = planner.step(y, np.zeros(cfg.horizon))
                assert not res.fallback_used
                y = abstract_step(y, res.r_ib, 0.0, cfg)


class TestOracleGrid:
    """The planner over the predicted SOC path against the dense QP over the
    battery current sequence (helpers.plan_reference), each hot-started
    through the same sequence of states and held references."""

    @pytest.mark.parametrize("q_weight", [1e-6, 1e-3, 1.0])
    def test_matches_the_current_space_oracle(self, q_weight):
        statuses = set()
        for tighten in (0.0, 0.02, 0.1, 0.2):
            cfg = dataclasses.replace(scenario_b_cfg(), q_weight=q_weight, tighten_eps_e=tighten)
            for e_s in (35.0, -45.0):  # inside E_S's range (-40, 40), near its top, and outside
                for load in (-5.0, 0.0, 5.0):
                    planner, oracle = Planner(cfg), QpSolver(*planner_qp_reference(cfg))
                    d = np.full(cfg.horizon, load)
                    for e_b in np.linspace(-0.5, 5.2, 8):
                        y = np.array([e_b, e_s])
                        status, r, value = plan_reference(y, d, planner.r_prev, cfg, oracle)
                        res = planner.step(y, d)
                        assert res.qp.status is status
                        statuses.add(status)
                        if status is QpStatus.OPTIMAL:
                            assert abs(res.r_ib - r) <= 1e-9 * max(1.0, abs(r))
                            floor = q_weight * cfg.horizon * (e_b - cfg.e_b_goal) ** 2
                            assert abs(res.V_N_star - value) <= 1e-9 * max(1.0, floor)
        assert statuses == {QpStatus.OPTIMAL, QpStatus.INFEASIBLE}

    def test_value_floor_at_the_goal(self):
        # the goal sits on the upper SOC bound, tightened by 0.02 per step, so
        # the closest plan holds x_j = -0.02 j: V* = q sum (0.02 j)^2 = 1.148
        cfg = bundle(scenario_b()).planner_cfg
        res = Planner(cfg).step(np.array([cfg.e_b_goal, 0.0]), np.zeros(cfg.horizon))
        floor = cfg.q_weight * sum((0.02 * j) ** 2 for j in range(1, cfg.horizon + 1))
        assert floor == pytest.approx(1.148, rel=1e-12)
        assert res.V_N_star == pytest.approx(floor, rel=1e-12)


def count_qp_iterations(monkeypatch) -> list[int]:
    iterations = []
    original = QpSolver.solve

    def counted(self, *args, **kwargs):
        sol = original(self, *args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(QpSolver, "solve", counted)
    return iterations


class TestPlannerWork:
    """The planner's deterministic work, so a change to the QP shows its
    cost here and not only in a traced benchmark pass."""

    def test_scenario_b_run(self, monkeypatch):
        iterations = count_qp_iterations(monkeypatch)
        run_layered(bundle(scenario_b(seed=0)))
        assert (len(iterations), sum(iterations)) == (60, 174)

    def test_lipschitz_estimate(self, monkeypatch):
        # the call and arguments of `certify`. The solver's BLAS rounding
        # moves a few iterations with the kernel: 3896 under OpenBLAS's
        # SkylakeX and Prescott kernels, 3894 under Haswell and Zen, 3888
        # under Nehalem
        iterations = count_qp_iterations(monkeypatch)
        estimate_lipschitz(bundle(scenario_b()).planner_cfg, sample_count=200, sample_radius=0.5, seed=0)
        assert len(iterations) == 400
        assert sum(iterations) == pytest.approx(3896, rel=0.01)


class TestPlannerIssBound:
    def test_zero_mismatch(self):
        assert planner_iss_bound(1.0, 4.0, 1.0, 1.0, 0.0) == 0.0

    def test_hand_value(self):
        assert planner_iss_bound(1.0, 4.0, 1.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_sqrt_homogeneity(self):
        data = (0.5, 3.0, 2.0, 1.5)
        assert planner_iss_bound(*data, 4.0) == pytest.approx(2.0 * planner_iss_bound(*data, 1.0))


class TestEstimateLipschitz:
    def test_matrices_built_once(self, monkeypatch):
        calls = count_qp_matrices(monkeypatch)
        estimate_lipschitz(make_cfg(), 200, 0.5)
        assert len(calls) == 1

    def test_deterministic(self):
        cfg = make_cfg(horizon=4)
        a = estimate_lipschitz(cfg, 30, 0.5, seed=5)
        b = estimate_lipschitz(cfg, 30, 0.5, seed=5)
        assert a == b

    def test_one_step_gradient_bound(self):
        # the goal is the SOC box's lower edge, so delta = E_B - goal lies in
        # [0, 1]; the input bound binds wherever delta > reach, where
        # V* = q (delta - reach)^2, and V* = 0 within reach of the goal
        cfg = make_cfg(horizon=1, q_weight=2.0, i_b_bar=0.1, slew_bound=10.0,
                       e_b_goal=1.0, e_b_range=(1.0, 2.0), e_s_range=(-5.0, 5.0))
        reach = cfg.gain_b * cfg.i_b_bar
        L = estimate_lipschitz(cfg, 400, 0.3, seed=1)
        analytic_sup = 2.0 * cfg.q_weight * (1.0 - reach)
        assert L <= analytic_sup + 1e-9
        assert L >= 0.7 * analytic_sup

    def test_all_infeasible(self):
        cfg = make_cfg(tighten_eps_e=1e3)
        with pytest.raises(AllInfeasibleError):
            estimate_lipschitz(cfg, 10, 0.5)


class TestDescentCheck:
    DATA = (1.0, 10.0)  # (lambda_min_Q, L_V)

    def test_at_goal_zero_mismatch(self):
        traj = [((5.0, 0.0), 0.0), ((5.0, 0.0), 0.0)]
        assert descent_check(traj, *self.DATA, 0.0, 5.0) == [True]

    def test_nominal_descent_passes_on_approach(self):
        # the value function is exactly zero once the goal is slew-reachable,
        # so the quadratic descent demand is monitored on the approach phase
        cfg = scenario_b_cfg()
        planner = Planner(cfg)
        y = np.array([0.0, 0.0])
        traj = []
        for _ in range(50):
            res = planner.step(y, np.zeros(cfg.horizon))
            if abs(y[0] - cfg.e_b_goal) >= 0.8:
                traj.append((y.copy(), res.V_N_star))
            y = abstract_step(y, res.r_ib, 0.0, cfg)
        assert len(traj) > 5
        assert all(descent_check(traj, 0.05, 1.0, 0.0, cfg.e_b_goal))

    def test_injected_violation_is_reported(self):
        traj = [((0.0, 0.0), 1.0), ((0.0, 0.0), 50.0)]
        verdicts = descent_check(traj, *self.DATA, 0.0, 5.0)
        assert verdicts == [False]

    def test_requires_optimal_values(self):
        with pytest.raises(ValueError):
            descent_check([((0.0, 0.0), 1.0), ((0.0, 0.0), None)], *self.DATA, 0.0, 5.0)
