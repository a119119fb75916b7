import math

import numpy as np
import pytest
from helpers import bundle, calibrated_overshoot_iterated, rk4_step_reference
from scipy.linalg import expm

from laycon import sim as sim_module
from laycon.erg import GammaEvaluator
from laycon.numkit import SpdMatrix, UniformStream
from laycon.scenarios import scenario_a, scenario_b
from laycon.sim import (
    COLUMNS,
    NonFiniteStateError,
    TrajectoryLog,
    calibrated_overshoot_for_run,
    disturbance_adversarial,
    disturbance_mixed,
    invariant_violations,
    omega_entry_time,
    rk4_step,
    run_layered,
)


class TestRk4:
    def test_zero_field(self):
        x0 = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0]
        x = rk4_step(lambda *x: np.zeros_like(x), x0, 0.0, 0.1)
        assert np.allclose(x, x0)

    def test_exponential_decay(self):
        x = [1.0] * 6
        for i in range(10):
            x = rk4_step(lambda *x: [-a for a in x], x, i * 0.1, 0.1)
        assert abs(x[0] - math.exp(-1.0)) <= 1e-6

    def test_fourth_order_scaling(self):
        def final_error(h):
            x = [1.0] * 6
            for i in range(round(1.0 / h)):
                x = rk4_step(lambda *x: [-a for a in x], x, i * h, h)
            return abs(x[0] - math.exp(-1.0))

        e1, e2 = final_error(0.1), final_error(0.05)
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_non_finite_aborts(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError):
            rk4_step(lambda *x: [a * 1e308 for a in x], [1.0] * 6, 0.0, 1.0)

    def test_unrolled_step_equals_reference_bit_for_bit(self):
        # random states and stage derivatives, mixed with signed zeros,
        # subnormals and entries near the overflow threshold
        rng = np.random.default_rng(41)
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.3e-315,
                    1e300, -3e300, 1.7e308, -1.7e308]

        def draw():
            x = rng.standard_normal(6) * 10.0 ** rng.integers(-3, 4, 6)
            for j in np.flatnonzero(rng.random(6) < 0.3):
                x[j] = specials[rng.integers(len(specials))]
            return x.tolist()

        def bits(x):
            return [float(a).hex() for a in x]

        def run(step, x, ks, h):
            seen = []

            def rhs(*z):
                seen.append(bits(z))
                return ks[len(seen) - 1]

            try:
                out = bits(step(rhs, x, 0.25, h))
            except NonFiniteStateError:
                out = "non-finite"
            return out, seen

        raised = 0
        for _ in range(2000):
            x, ks = draw(), [tuple(draw()) for _ in range(4)]
            h = float(rng.choice([1e-3, 0.1, 1.0, 3.0]))
            got, want = run(rk4_step, x, ks, h), run(rk4_step_reference, x, ks, h)
            assert got == want
            raised += got[0] == "non-finite"
        assert 0 < raised < 2000


class TestDisturbances:
    class _ZeroStream:
        def uniform(self, lo, hi, size):
            return np.zeros(size)

    def test_mixed_zero_noise_at_origin(self):
        assert disturbance_mixed(np.zeros(1), 3.0, self._ZeroStream())[0] == 0.0

    def test_mixed_bounded(self):
        ws = disturbance_mixed(np.linspace(0.0, 10.0, 5000), 3.0, UniformStream(1))
        assert np.max(np.abs(ws)) <= 3.0

    def test_mixed_deterministic_replay(self):
        ts = np.linspace(0.0, 2.0, 100)
        a = disturbance_mixed(ts, 3.0, UniformStream(7))
        b = disturbance_mixed(ts, 3.0, UniformStream(7))
        assert np.array_equal(a, b)

    def test_mixed_equals_per_step_scalar_draws(self):
        # the sequence a run reads: step times i * h, one scalar draw per step
        h, n = 1e-3, 6001
        for seed in (0, 19):
            stream = UniformStream(seed)
            scalar = [float(3.0 * (0.7 * np.sin(15.0 * (i * h)) + 0.3 * stream.uniform(-1.0, 1.0)))
                      for i in range(n)]
            times = np.arange(n) * h
            assert times.tolist() == [i * h for i in range(n)]
            assert disturbance_mixed(times, 3.0, UniformStream(seed)).tolist() == scalar

    def test_mixed_equals_numpy_generator(self):
        # numpy's Generator is the oracle: the published seeded runs drew from it
        times = np.arange(4001) * 1e-3
        for seed in (0, 3, 19):
            want = disturbance_mixed(times, 3.0, np.random.default_rng(seed))
            assert disturbance_mixed(times, 3.0, UniformStream(seed)).tobytes() == want.tobytes()

    def test_adversarial_sign_convention(self):
        P = SpdMatrix(np.eye(2))
        B = np.array([0.0, 1.0])
        assert disturbance_adversarial(np.zeros(2), P, B, 3.0) == 3.0  # sign(0) -> +
        assert disturbance_adversarial(np.array([0.0, -1.0]), P, B, 3.0) == -3.0

    def test_adversarial_dominates_sampled_disturbances(self):
        base = bundle(scenario_a())
        P, B = base.P, np.array([0.0, 1.0])
        R = base.R
        rng = np.random.default_rng(2)
        for _ in range(200):
            e = rng.uniform(-2.0, 2.0, 2)
            w_star = disturbance_adversarial(e, P, B, 3.0)
            vdot_star = -e @ R @ e + 2.0 * (e @ P.mat @ B) * w_star
            for w in np.linspace(-3.0, 3.0, 21):
                assert vdot_star >= -e @ R @ e + 2.0 * (e @ P.mat @ B) * w - 1e-12


class TestRunLayered:
    def test_stationary_equilibrium(self):
        at_rest = bundle(scenario_a(t_end=1.0),
                         {"sim": {"disturbance": "none", "x0": [400.0, 0.0, 0.0, 0.0, 0.0]}})
        log, report = run_layered(at_rest)
        assert np.all(log.columns["V_gr"] == 400.0)
        assert np.all(log.columns["I_S"] == 0.0)
        assert report.all_pass()

    def test_zero_order_hold(self):
        b = bundle(scenario_b(seed=3, t_end=2.0))
        log, _ = run_layered(b)
        spp = round(0.1 / b.sim.h)
        r_ib = log.columns["r_IB"]
        for k in range(log.n_periods):
            seg = r_ib[k * spp:(k + 1) * spp]
            assert np.all(seg == seg[0])

    def test_partial_last_period(self):
        # 1.05 s: ten full periods, then 50 steps from row 1000, which is read
        # as the tenth period's end but takes no planner step
        log, report = run_layered(bundle(scenario_b(seed=3, t_end=1.05)))
        c = log.columns
        assert log.steps_per_period == 100
        assert log.n_periods == len(log.plans) == 10
        assert log.y_samples.tolist() == [[c["E_B"][i], c["E_S"][i]] for i in range(0, 1001, 100)]
        assert np.all(c["r_IB"][900:] == log.plans[-1].r_k[1])
        assert log.fallback_steps.tolist() == [p.fallback_used for p in log.plans]
        assert {name: len(v) for name, v in report.verdicts.items() if name not in ("A_env", "G_safe")} == {
            "G_ref": 10, "G_track": 10, "A_mis": 10, "G_iss": 11}

    def test_bit_identical_replay(self):
        a, _ = run_layered(bundle(scenario_a(seed=11, t_end=1.0)))
        b, _ = run_layered(bundle(scenario_a(seed=11, t_end=1.0)))
        for name in a.columns:
            assert np.array_equal(a.columns[name], b.columns[name])
        assert np.array_equal(a.y_samples, b.y_samples)

    def test_logged_lyapunov_value_and_barrier(self):
        # V_e and Phi are filled in per block of rows; each row must equal the
        # per-step scalar evaluation V(e) = e'Pe and Phi = V(e) - Gamma(v)
        for b in (bundle(scenario_a(seed=3, t_end=1.0)), bundle(scenario_b(seed=1, t_end=1.0))):
            log, _ = run_layered(b)
            c = log.columns
            for i in range(log.data.shape[1]):
                v_e = b.P.quad((c["e1"][i], c["e2"][i]))
                assert c["V_e"][i] == v_e
                assert c["Phi"][i] == v_e - c["Gamma_v"][i]

    @pytest.mark.parametrize("overlay", [
        None,
        {"sim": {"t_end": 1.05}},  # the run ends mid-period
        {"planner": None, "sim": {"frozen_reference": [400.0, 0.0]}},
    ], ids=["planner", "mid_period", "no_planner"])
    def test_last_load_time_is_the_last_time_read(self, monkeypatch, overlay):
        # the bundle checks the load's span against SimConfig.last_load_time,
        # so it must be the latest time the run evaluates the load at
        latest = []
        original = sim_module.load_eval

        def recorded(times, profile):
            latest.append(float(np.max(times)))
            return original(times, profile)

        monkeypatch.setattr(sim_module, "load_eval", recorded)
        b = bundle(scenario_b(t_end=1.0), overlay)
        run_layered(b)
        assert max(latest) == b.sim.last_load_time(b.planner_cfg and b.planner_cfg.horizon)

    def test_period_rounding_warns(self):
        off_grid = bundle(scenario_a(t_end=0.5), {"sim": {
            "t_s": 0.0995, "disturbance": "none", "x0": [400.0, 0.0, 0.0, 0.0, 0.0], "v0": None}})
        with pytest.warns(UserWarning, match=r"; using 0\.1$"):
            run_layered(off_grid)

    def test_matches_matrix_exponential_without_noise(self):
        noiseless = bundle(scenario_a(t_end=2.0), {"sim": {"disturbance": "none"}})
        log, _ = run_layered(noiseless)
        A = noiseless.plant.error_matrix()
        e0 = np.array([3.0, 0.0])
        for i in range(0, log.data.shape[1], 200):
            t = log.columns["t"][i]
            exact = expm(A * t) @ e0
            sim_e = np.array([log.columns["e1"][i], log.columns["e2"][i]])
            assert np.linalg.norm(sim_e - exact) <= 1e-6

    def test_energy_bookkeeping_consistent(self):
        b = bundle(scenario_b(seed=0, t_end=3.0))
        log, _ = run_layered(b)
        c = log.columns
        integrand = b.plant.lambda_s * c["V_gr"] * c["I_S"]
        trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0
        quad = trapezoid(integrand, c["t"])
        delta = c["E_S"][-1] - c["E_S"][0]
        assert abs(quad - delta) <= 1e-6 * max(1.0, abs(delta))

    def test_battery_input_never_saturates_past_budget(self):
        # rides the saturation boundary exactly; integrator dust allowance 1e-8
        b = bundle(scenario_b(seed=0, t_end=3.0))
        log, _ = run_layered(b)
        assert np.max(np.abs(log.columns["u_B"])) <= b.plant.u_b_bar * (1.0 + 1e-8)


class TestCallGraph:
    def test_per_step_calls(self, monkeypatch):
        """rk4_step once per step, plant_rhs once per stage, and Gamma once
        per logged row. A stage evaluates Gamma only where the governor's
        field can be nonzero: in B, r_V = v = v_nom throughout, so without
        repelling rows no stage does, also when the governed-full rows make
        Gamma depend on v and on itself; with repulsion on, each stage's
        navigation field takes the stage's Gamma. The benchmark's tracer
        counts these calls and its closed forms assume them."""
        counts = {"rk4_step": 0, "plant_rhs": 0, "gamma": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sim_module, "rk4_step", counted("rk4_step", sim_module.rk4_step))
        monkeypatch.setattr(sim_module, "plant_rhs", counted("plant_rhs", sim_module.plant_rhs))
        monkeypatch.setattr(GammaEvaluator, "gamma", counted("gamma", GammaEvaluator.gamma))
        governed_full = {"constraints": {"mode": "full", "kappa_bar": 0.05, "d_bar_max": 5.5,
                                         "d_bar_dot_max": 10.0}}
        steps = 500
        repulsion = {**governed_full, "erg": {"eta_rep": [0.2, 0.05, 0.05, 0.05, 0.1, 0.1]}}
        for overlay in (None, governed_full, repulsion):
            counts.update(rk4_step=0, plant_rhs=0, gamma=0)
            run = bundle(scenario_b(seed=0, t_end=0.5), overlay)
            assert (run.governor.constant is None) is (overlay is not None)
            run_layered(run)
            stages = 4 * steps if overlay is repulsion else 0
            assert counts == {"rk4_step": steps, "plant_rhs": 4 * steps, "gamma": steps + 1 + stages}

    def test_per_step_calls_governor_off(self, monkeypatch):
        """With the governor off, v is constant up to the sign of a zero, so
        Gamma is computed once per run, and each logged row still holds the
        Gamma of its own state's v."""
        counts = {"rk4_step": 0, "plant_rhs": 0, "gamma": 0}
        states = []
        rk4 = sim_module.rk4_step

        def step(rhs, x, t, h):
            counts["rk4_step"] += 1
            states.append(x)
            x_next = rk4(rhs, x, t, h)
            if len(states) == steps:
                states.append(x_next)
            return x_next

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sim_module, "rk4_step", step)
        monkeypatch.setattr(sim_module, "plant_rhs", counted("plant_rhs", sim_module.plant_rhs))
        monkeypatch.setattr(GammaEvaluator, "gamma", counted("gamma", GammaEvaluator.gamma))
        base = bundle(scenario_a(seed=0, t_end=0.5))
        signed_zero = bundle(scenario_a(seed=1, t_end=0.5), {"sim": {"v0": -0.0}})
        steps = 500
        gam = base.governor
        for run in (base, signed_zero):
            assert not run.sim.erg_on
            counts.update(rk4_step=0, plant_rhs=0, gamma=0)
            states.clear()
            log, _ = run_layered(run)
            assert counts == {"rk4_step": steps, "plant_rhs": 4 * steps, "gamma": 1}
            assert math.copysign(1.0, states[0][5]) == math.copysign(1.0, run.sim.v0)
            per_row = [gam.gamma(z[5]) for z in states]
            assert log.columns["Gamma_v"].tolist() == per_row


class TestFusedStage:
    def test_stage_values_equal_the_logged_columns(self, monkeypatch):
        """The stage RHS calls the feedback law on floats, and the logged
        u_S, u_B, e1 and e2 columns come from the same law on each block's
        columns. A step's first stage sees the logged state, so its
        inputs and its governor error must equal the row's logged values
        bit for bit."""
        inputs, errors = [], []
        plant_rhs, erg_rhs = sim_module.plant_rhs, GammaEvaluator.erg_rhs

        def record_inputs(v_gr, i_s, i_b, u_s, u_b, w, d, p):
            inputs.append((u_s, u_b))
            return plant_rhs(v_gr, i_s, i_b, u_s, u_b, w, d, p)

        def record_error(self, e1, e2, v, r):
            errors.append((e1, e2))
            return erg_rhs(self, e1, e2, v, r)

        monkeypatch.setattr(sim_module, "plant_rhs", record_inputs)
        monkeypatch.setattr(GammaEvaluator, "erg_rhs", record_error)
        log, _ = run_layered(bundle(scenario_b(seed=0, t_end=0.5)))
        c = {name: col[:-1].tolist() for name, col in log.columns.items()}
        assert len(inputs) == len(errors) == 4 * len(c["t"])
        assert [tuple(map(float.hex, u)) for u in inputs[::4]] == [
            (a.hex(), b.hex()) for a, b in zip(c["u_S"], c["u_B"])]
        assert [tuple(map(float.hex, e)) for e in errors[::4]] == [
            (a.hex(), b.hex()) for a, b in zip(c["e1"], c["e2"])]


class TestScenarioA:
    def test_entry_and_invariance(self):
        a = bundle(scenario_a(seed=0))
        log, report = run_layered(a)
        from laycon.iss_cert import ultimate_level_optimized

        v_bar, _, _ = ultimate_level_optimized(
            a.P, SpdMatrix(a.R), np.array([0.0, 1.0]), a.sim.w_max / a.plant.c_bus
        )
        entry = omega_entry_time(log, v_bar)
        assert 0.82 <= entry <= 1.12
        assert invariant_violations(log, v_bar) == 0
        assert report.first_violation["G_safe"] is None
        assert report.first_violation["A_env"] is None

    def test_calibrated_envelope_holds_everywhere(self):
        a = bundle(scenario_a(seed=0))
        log, _ = run_layered(a)
        lam_e = 3.2087121525220805
        m, eps = calibrated_overshoot_for_run(log, lam_e, 1.0, a.sim.w_max)
        assert 2.5 <= m <= 3.4
        c = log.columns
        norms = np.hypot(c["e1"], c["e2"])
        envelope = m * np.exp(-lam_e * c["t"]) * norms[0] + eps * (1.0 - np.exp(-lam_e * c["t"]))
        assert np.all(norms <= envelope + 1e-9)

    @pytest.mark.parametrize("late_norm, m_star", [(2.0, 2.0), (0.5, 1.0)])
    def test_calibrated_overshoot_two_samples(self, late_norm, m_star):
        # decay (1, 1/2) and kappa = norm_b w_max / lambda_e = 1 from |e_0| = 1:
        # the late sample has a = 2 |e_1| and c = 1, so m* = max(1, |e_1|)
        data = np.zeros((len(COLUMNS), 2))
        c = dict(zip(COLUMNS, data))
        c["t"][:] = 0.0, 1.0
        c["e1"][:] = 1.0, 0.0
        c["e2"][:] = 0.0, late_norm
        log = TrajectoryLog(data=data, steps_per_period=1, plans=[])
        m, eps = calibrated_overshoot_for_run(log, math.log(2.0), 1.0, math.log(2.0))
        assert m == pytest.approx(m_star, rel=1e-12)
        assert eps == pytest.approx(m_star, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_calibrated_overshoot_is_the_iteration_fixed_point(self, seed):
        a = bundle(scenario_a(seed=seed))
        log, _ = run_layered(a)
        args = (log, a.plant.lambda_e, 1.0 / a.plant.c_bus, a.sim.w_max)
        m, eps = calibrated_overshoot_for_run(*args)
        m_ref, eps_ref = calibrated_overshoot_iterated(*args)
        assert m > 1.0
        assert m == pytest.approx(m_ref, rel=1e-12)
        assert eps == pytest.approx(eps_ref, rel=1e-12)


class TestScenarioB:
    def test_full_stack_published_behavior(self):
        log, report = run_layered(bundle(scenario_b(seed=0)))
        c = log.columns
        assert c["V_gr"].min() >= 399.99
        assert c["V_gr"].max() <= 400.02
        assert c["V_e"].max() <= 0.05
        assert c["Phi"].max() < 0.0
        assert log.fallback_steps.sum() == 0
        late = c["t"] >= 4.5
        assert np.max(np.abs(c["E_B"][late] - 5.0)) <= 0.05
        assert report.k_live is not None
        assert report.all_pass()

    def test_behavior_is_not_seed_fragile(self):
        for seed in (1, 2, 3):
            log, report = run_layered(bundle(scenario_b(seed=seed, t_end=4.0)))
            c = log.columns
            assert c["V_gr"].min() >= 399.99 and c["V_gr"].max() <= 400.02
            assert c["Phi"].max() < 0.0
            assert log.fallback_steps.sum() == 0
            assert report.all_pass()


class TestErgInvarianceUnderMotion:
    def test_barrier_nonpositive_while_reference_transits(self):
        # command steps the voltage target toward the box edge; the governor
        # must slew v without ever spending more margin than it has
        for seed in range(10):
            transit = bundle(scenario_a(seed=seed, t_end=3.0), {
                "sim": {"erg_on": True, "frozen_reference": [415.0, 0.0]}, "erg": {"kappa_erg": 0.005}})
            log, _ = run_layered(transit)
            assert log.columns["Phi"].max() <= 1e-9
            assert log.columns["v"][-1] > 410.0  # transit actually happened

    def test_inadmissible_command_is_stopped_at_the_boundary(self):
        # the command sits beyond the voltage limit and the gain is set high
        # enough that the tracking lag reaches the shrinking threshold: the
        # gate must clamp with the plant never crossing the physical bound
        contact = False
        for seed in range(5):
            clamped = bundle(scenario_a(seed=seed, t_end=3.0), {
                "sim": {"erg_on": True, "frozen_reference": [425.0, 0.0]}, "erg": {"kappa_erg": 5.0}})
            log, _ = run_layered(clamped)
            assert log.columns["Phi"].max() <= 1e-9
            assert log.columns["V_gr"].max() <= clamped.plant.v_max + 1e-6
            assert log.columns["v"].max() < clamped.plant.v_max
            contact = contact or log.columns["Phi"].max() > -1.0
        assert contact  # the clamp was actually exercised, not just approached
