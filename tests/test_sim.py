import dataclasses
import math

import numpy as np
import pytest
from helpers import rk4_step_reference
from scipy.linalg import expm

from laycon import sim as sim_module
from laycon.erg import GammaEvaluator
from laycon.numkit import SpdMatrix
from laycon.scenarios import scenario_a, scenario_b
from laycon.sim import (
    NonFiniteStateError,
    SimConfig,
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
        x0 = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0]
        x = rk4_step(lambda x, t: np.zeros_like(x), x0, 0.0, 0.1)
        assert np.allclose(x, x0)

    def test_exponential_decay(self):
        x = [1.0] * 7
        for i in range(10):
            x = rk4_step(lambda x, t: [-a for a in x], x, i * 0.1, 0.1)
        assert abs(x[0] - math.exp(-1.0)) <= 1e-6

    def test_fourth_order_scaling(self):
        def final_error(h):
            x = [1.0] * 7
            for i in range(round(1.0 / h)):
                x = rk4_step(lambda x, t: [-a for a in x], x, i * h, h)
            return abs(x[0] - math.exp(-1.0))

        e1, e2 = final_error(0.1), final_error(0.05)
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_non_finite_aborts(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError):
            rk4_step(lambda x, t: [a * 1e308 for a in x], [1.0] * 7, 0.0, 1.0)

    def test_unrolled_step_equals_reference_bit_for_bit(self):
        # random states and stage derivatives, mixed with signed zeros,
        # subnormals and entries near the overflow threshold
        rng = np.random.default_rng(41)
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.3e-315,
                    1e300, -3e300, 1.7e308, -1.7e308]

        def draw():
            x = rng.standard_normal(7) * 10.0 ** rng.integers(-3, 4, 7)
            for j in np.flatnonzero(rng.random(7) < 0.3):
                x[j] = specials[rng.integers(len(specials))]
            return x.tolist()

        def bits(x):
            return [float(a).hex() for a in x]

        def run(step, x, ks, h):
            seen = []

            def rhs(z, tau):
                seen.append((bits(z), tau))
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
        ws = disturbance_mixed(np.linspace(0.0, 10.0, 5000), 3.0, np.random.default_rng(1))
        assert np.max(np.abs(ws)) <= 3.0

    def test_mixed_deterministic_replay(self):
        ts = np.linspace(0.0, 2.0, 100)
        a = disturbance_mixed(ts, 3.0, np.random.default_rng(7))
        b = disturbance_mixed(ts, 3.0, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_mixed_equals_per_step_scalar_draws(self):
        # the sequence a run reads: step times i * h, one scalar draw per step
        h, n = 1e-3, 6001
        for seed in (0, 19):
            stream = np.random.default_rng(seed)
            scalar = [float(3.0 * (0.7 * np.sin(15.0 * (i * h)) + 0.3 * stream.uniform(-1.0, 1.0)))
                      for i in range(n)]
            times = np.arange(n) * h
            assert times.tolist() == [i * h for i in range(n)]
            assert disturbance_mixed(times, 3.0, np.random.default_rng(seed)).tolist() == scalar

    def test_adversarial_sign_convention(self):
        P = SpdMatrix(np.eye(2))
        B = np.array([0.0, 1.0])
        assert disturbance_adversarial(np.zeros(2), P, B, 3.0) == 3.0  # sign(0) -> +
        assert disturbance_adversarial(np.array([0.0, -1.0]), P, B, 3.0) == -3.0

    def test_adversarial_dominates_sampled_disturbances(self):
        bundle = scenario_a()
        P, B = bundle.P, np.array([0.0, 1.0])
        R = bundle.R
        rng = np.random.default_rng(2)
        for _ in range(200):
            e = rng.uniform(-2.0, 2.0, 2)
            w_star = disturbance_adversarial(e, P, B, 3.0)
            vdot_star = -e @ R @ e + 2.0 * (e @ P.mat @ B) * w_star
            for w in np.linspace(-3.0, 3.0, 21):
                assert vdot_star >= -e @ R @ e + 2.0 * (e @ P.mat @ B) * w - 1e-12


class TestRunLayered:
    def test_stationary_equilibrium(self):
        bundle = scenario_a()
        sim = SimConfig(
            t_end=1.0, t_s=0.1, seed=0, disturbance="none",
            erg_on=False, frozen_reference=(400.0, 0.0),
            x0=(400.0, 0.0, 0.0, 0.0, 0.0), v0=(400.0, 0.0),
        )
        log, report = run_layered(dataclasses.replace(bundle, sim=sim))
        assert np.all(log.columns["V_gr"] == 400.0)
        assert np.all(log.columns["I_S"] == 0.0)
        assert report.all_pass()

    def test_zero_order_hold(self):
        bundle = scenario_b(seed=3, t_end=2.0)
        log, _ = run_layered(bundle)
        spp = round(0.1 / bundle.sim.h)
        r_ib = log.columns["r_IB"]
        for k in range(log.n_periods):
            seg = r_ib[k * spp:(k + 1) * spp]
            assert np.all(seg == seg[0])

    def test_bit_identical_replay(self):
        a, _ = run_layered(scenario_a(seed=11, t_end=1.0))
        b, _ = run_layered(scenario_a(seed=11, t_end=1.0))
        for name in a.columns:
            assert np.array_equal(a.columns[name], b.columns[name])
        assert np.array_equal(a.y_samples, b.y_samples)

    def test_logged_lyapunov_value_and_barrier(self):
        # V_e and Phi are filled in after the loop; each row must equal the
        # per-step scalar evaluation V(e) = e'Pe and Phi = V(e) - Gamma(v)
        for bundle in (scenario_a(seed=3, t_end=1.0), scenario_b(seed=1, t_end=1.0)):
            log, _ = run_layered(bundle)
            c = log.columns
            for i in range(log.n_rows):
                v_e = bundle.P.quad((c["e1"][i], c["e2"][i]))
                assert c["V_e"][i] == v_e
                assert c["Phi"][i] == v_e - c["Gamma_v"][i]

    def test_period_rounding_warns(self):
        bundle = scenario_a()
        sim = SimConfig(
            t_end=0.5, t_s=0.0995, seed=0, disturbance="none",
            erg_on=False, frozen_reference=(400.0, 0.0),
        )
        with pytest.warns(UserWarning):
            log, _ = run_layered(dataclasses.replace(bundle, sim=sim))
        assert log.t_s_eff == pytest.approx(0.1)

    def test_matches_matrix_exponential_without_noise(self):
        bundle = scenario_a(t_end=2.0)
        sim = SimConfig(
            t_end=2.0, t_s=0.1, seed=0, disturbance="none",
            erg_on=False, frozen_reference=(400.0, 0.0),
            x0=(403.0, 0.0, 0.0, 0.0, 0.0), v0=(400.0, 0.0),
        )
        log, _ = run_layered(dataclasses.replace(bundle, sim=sim))
        A = bundle.plant.error_matrix()
        e0 = np.array([3.0, 0.0])
        for i in range(0, log.n_rows, 200):
            t = log.columns["t"][i]
            exact = expm(A * t) @ e0
            sim_e = np.array([log.columns["e1"][i], log.columns["e2"][i]])
            assert np.linalg.norm(sim_e - exact) <= 1e-6

    def test_energy_bookkeeping_consistent(self):
        bundle = scenario_b(seed=0, t_end=3.0)
        log, _ = run_layered(bundle)
        c = log.columns
        integrand = bundle.plant.lambda_s * c["V_gr"] * c["I_S"]
        trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0
        quad = trapezoid(integrand, c["t"])
        delta = c["E_S"][-1] - c["E_S"][0]
        assert abs(quad - delta) <= 1e-6 * max(1.0, abs(delta))

    def test_battery_input_never_saturates_past_budget(self):
        # rides the saturation boundary exactly; integrator dust allowance 1e-8
        bundle = scenario_b(seed=0, t_end=3.0)
        log, _ = run_layered(bundle)
        assert np.max(np.abs(log.columns["u_B"])) <= bundle.plant.u_b_bar * (1.0 + 1e-8)


class TestCallGraph:
    def test_per_step_calls(self, monkeypatch):
        """rk4_step once per step, plant_rhs once per stage, Gamma once per
        logged row and once per stage with the governor on; the benchmark's
        tracer counts these calls and its closed forms assume them."""
        counts = {"rk4_step": 0, "plant_rhs": 0, "gamma": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sim_module, "rk4_step", counted("rk4_step", sim_module.rk4_step))
        monkeypatch.setattr(sim_module, "plant_rhs", counted("plant_rhs", sim_module.plant_rhs))
        monkeypatch.setattr(GammaEvaluator, "gamma", counted("gamma", GammaEvaluator.gamma))
        run_layered(scenario_b(seed=0, t_end=0.5))
        steps = 500
        assert counts == {"rk4_step": steps, "plant_rhs": 4 * steps, "gamma": steps + 1 + 4 * steps}

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
        bundle = scenario_a(seed=0, t_end=0.5)
        signed_zero = SimConfig(
            t_end=0.5, t_s=bundle.sim.t_s, seed=1, erg_on=False,
            frozen_reference=(400.0, 0.0), x0=(403.0, 0.0, 0.0, 0.0, 0.0), v0=(400.0, -0.0),
        )
        steps = 500
        gam = bundle.governor
        for sim in (bundle.sim, signed_zero):
            assert not sim.erg_on
            counts.update(rk4_step=0, plant_rhs=0, gamma=0)
            states.clear()
            log, _ = run_layered(dataclasses.replace(bundle, sim=sim))
            assert counts == {"rk4_step": steps, "plant_rhs": 4 * steps, "gamma": 1}
            assert math.copysign(1.0, states[0][6]) == math.copysign(1.0, sim.v0[1])
            per_row = [gam.gamma((z[5], z[6])) for z in states]
            assert log.columns["Gamma_v"].tolist() == per_row


class TestScenarioA:
    def test_entry_and_invariance(self):
        bundle = scenario_a(seed=0)
        log, report = run_layered(bundle)
        from laycon.iss_cert import ultimate_level_optimized

        v_bar, _, _ = ultimate_level_optimized(
            bundle.P, SpdMatrix(bundle.R), np.array([0.0, 1.0]), bundle.cert.h_max
        )
        entry = omega_entry_time(log, v_bar)
        assert 0.82 <= entry <= 1.12
        assert invariant_violations(log, v_bar) == 0
        assert report.first_violation["G_safe"] is None
        assert report.first_violation["A_env"] is None

    def test_calibrated_envelope_holds_everywhere(self):
        bundle = scenario_a(seed=0)
        log, _ = run_layered(bundle)
        lam_e = 3.2087121525220805
        m, eps = calibrated_overshoot_for_run(log, lam_e, 1.0, bundle.sim.w_max)
        assert 2.5 <= m <= 3.4
        c = log.columns
        norms = np.hypot(c["e1"], c["e2"])
        envelope = m * np.exp(-lam_e * c["t"]) * norms[0] + eps * (1.0 - np.exp(-lam_e * c["t"]))
        assert np.all(norms <= envelope + 1e-9)


class TestScenarioB:
    def test_full_stack_published_behavior(self):
        bundle = scenario_b(seed=0)
        log, report = run_layered(bundle)
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
            bundle = scenario_b(seed=seed, t_end=4.0)
            log, report = run_layered(bundle)
            c = log.columns
            assert c["V_gr"].min() >= 399.99 and c["V_gr"].max() <= 400.02
            assert c["Phi"].max() < 0.0
            assert log.fallback_steps.sum() == 0
            assert report.all_pass()


class TestErgInvarianceUnderMotion:
    def test_barrier_nonpositive_while_reference_transits(self):
        # command steps the voltage target toward the box edge; the governor
        # must slew v without ever spending more margin than it has
        base = scenario_a()
        from laycon.erg import ErgConfig

        erg_cfg = ErgConfig(kappa_erg=0.005, eta=0.05)
        for seed in range(10):
            sim = SimConfig(
                t_end=3.0, t_s=0.1, seed=seed, disturbance="mixed", w_max=3.0,
                erg_on=True, frozen_reference=(415.0, 0.0),
                x0=(403.0, 0.0, 0.0, 0.0, 0.0), v0=(400.0, 0.0),
            )
            log, _ = run_layered(dataclasses.replace(base, sim=sim, erg_cfg=erg_cfg))
            assert log.columns["Phi"].max() <= 1e-9
            assert log.columns["v"][-1] > 410.0  # transit actually happened

    def test_inadmissible_command_is_stopped_at_the_boundary(self):
        # the command sits beyond the voltage limit and the gain is set high
        # enough that the tracking lag reaches the shrinking threshold: the
        # gate must clamp with the plant never crossing the physical bound
        base = scenario_a()
        from laycon.erg import ErgConfig

        erg_cfg = ErgConfig(kappa_erg=5.0, eta=0.05)
        contact = False
        for seed in range(5):
            sim = SimConfig(
                t_end=3.0, t_s=0.1, seed=seed, disturbance="mixed", w_max=3.0,
                erg_on=True, frozen_reference=(425.0, 0.0),
                x0=(403.0, 0.0, 0.0, 0.0, 0.0), v0=(400.0, 0.0),
            )
            log, _ = run_layered(dataclasses.replace(base, sim=sim, erg_cfg=erg_cfg))
            assert log.columns["Phi"].max() <= 1e-9
            assert log.columns["V_gr"].max() <= base.plant.v_max + 1e-6
            assert log.columns["v"].max() < base.plant.v_max
            contact = contact or log.columns["Phi"].max() > -1.0
        assert contact  # the clamp was actually exercised, not just approached
