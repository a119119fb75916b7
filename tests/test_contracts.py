import numpy as np
import pytest
from helpers import GAINS

from laycon.contracts import (
    ContractSpec,
    MonitorReport,
    certificate_report,
    check_A_env,
    check_A_mis,
    check_G_iss,
    check_G_ref,
    check_G_safe,
    check_G_track,
    mismatch_bound_hess,
    vertical_compat,
)
from laycon.erg import GammaEvaluator, HalfspaceConstraint
from laycon.hess import HessParams
from laycon.iss_cert import SettlingTimes, TimingVerdict
from laycon.numkit import solve_lyapunov


def make_spec(**overrides):
    base = dict(
        eps_e=0.05, eps_t=0.1, eps_l=(0.27, 0.01), eps_h=0.5,
        r_bar=(0.0, 0.596), w_max=3.0, t_s=0.1, delta=0.1,
        v_box=(380.0, 420.0), i_s_box=(-12.0, 12.0), i_b_box=(-5.0, 5.0),
        u_bounds=(50.0, 30.0), y_goal=5.0,
    )
    base.update(overrides)
    return ContractSpec(**base)


class TestClauseCheckers:
    def test_env_zero_and_boundary(self):
        assert np.all(check_A_env(np.zeros(10), 3.0))
        assert check_A_env([3.0], 3.0)[0]  # closed set
        assert not check_A_env([3.0 + 1e-6], 3.0)[0]

    def test_ref_constant_and_exact_step(self):
        r = np.array([[400.0, 0.0], [400.0, 0.0], [400.0, 0.596]])
        assert np.all(check_G_ref(r, (0.0, 0.596)))
        r_bad = np.array([[400.0, 0.0], [400.0, 0.7]])
        assert not check_G_ref(r_bad, (0.0, 0.596))[0]

    def test_safe_interior_and_boundary(self):
        spec = make_spec()
        states = np.array([[400.0, 0.0, 0.0], [420.0, 12.0, 5.0]])
        inputs = np.array([[0.0, 0.0], [50.0, 30.0]])
        assert np.all(check_G_safe(states, inputs, spec))
        assert not check_G_safe([[421.0, 0.0, 0.0]], [[0.0, 0.0]], spec)[0]

    def test_track_perfect_and_exact_tolerance(self):
        r = np.array([[400.0, 1.0], [400.0, 2.0]])
        assert np.all(check_G_track(r, r, (0.27, 0.01)))
        ends = r + np.array([0.27, 0.01])
        assert np.all(check_G_track(ends, r, (0.27, 0.01)))
        assert not check_G_track(r + np.array([0.28, 0.0]), r, (0.27, 0.01))[0]

    def test_mismatch_exact_abstraction(self):
        y = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]])
        pred = y[1:]
        verdicts, w_tilde = check_A_mis(y, pred, 0.0)
        assert np.all(verdicts)
        assert np.all(w_tilde == 0.0)

    def test_mismatch_zero_budget_flags_any_error(self):
        y = np.array([[0.0, 0.0], [1.0, 0.0]])
        pred = np.array([[0.9, 0.0]])
        verdicts, w_tilde = check_A_mis(y, pred, 0.0)
        assert not verdicts[0]
        assert w_tilde[0, 0] == pytest.approx(0.1)

    def test_iss_immediate(self):
        verdicts, k_live = check_G_iss(np.full(5, 5.0), 5.0, 0.1, 0.1)
        assert k_live == 0
        assert np.all(verdicts)

    def test_iss_monotone_crossing(self):
        e_b = 5.0 - np.array([3.0, 2.5, 2.0, 1.6, 1.2, 0.9, 0.6, 0.15, 0.1, 0.05])
        verdicts, k_live = check_G_iss(e_b, 5.0, 0.1, 0.1)
        assert k_live == 7

    def test_iss_divergent(self):
        _, k_live = check_G_iss(np.arange(10.0), 0.0, 0.1, 0.1)
        assert k_live is None

    def test_tolerance_monotonicity(self):
        rng = np.random.default_rng(77)
        w = rng.uniform(-4, 4, 50)
        for w_lo, w_hi in ((1.0, 2.0), (2.0, 3.5)):
            loose, tight = check_A_env(w, w_hi), check_A_env(w, w_lo)
            assert np.all(loose | ~tight)  # tight pass implies loose pass
        y = rng.uniform(-1, 1, (21, 2)).cumsum(axis=0)
        pred = y[1:] + rng.uniform(-0.2, 0.2, (20, 2))
        v_tight, _ = check_A_mis(y, pred, 0.1)
        v_loose, _ = check_A_mis(y, pred, 0.3)
        assert np.all(v_loose | ~v_tight)


class TestMonitorReport:
    def test_records_first_violation(self):
        rep = MonitorReport()
        rep.record("A_env", [True, True, False, True, False])
        assert rep.first_violation["A_env"] == 2
        assert rep.violation_counts()["A_env"] == 2
        assert not rep.all_pass()

    def test_all_pass(self):
        rep = MonitorReport()
        rep.record("G_safe", [True, True])
        assert rep.all_pass()


class TestVerticalCompat:
    def test_cases(self):
        assert vertical_compat(0.0, 0.0, 0.1, 0.2)
        assert not vertical_compat(0.1, 0.0, 0.1, 0.2)  # strict inequality
        assert vertical_compat(0.05, 0.1, 0.01, 0.2)


MISMATCH_INPUTS = dict(
    z_peak=1.0, eta=0.0, eps1=0.0, eps2=0.0, delta=0.1,
    tau1=1.0, tau2=0.5, kappa_max=0.0,
)
# unit energy rates and current bounds
UNIT_PLANT = HessParams(
    v_nom=400.0, lambda_b_energy=1.0, lambda_b_gain=100.0, lambda_s=1.0,
    i_b_bar=1.0, i_s_bar=1.0, c_bus=1.0, u_b_bar=1.0,
)


def mismatch(**overrides):
    """mismatch_bound_hess on UNIT_PLANT, with MISMATCH_INPUTS overridden by name."""
    v = {**MISMATCH_INPUTS, **overrides}
    settling = SettlingTimes(tau1=v["tau1"], tau2=v["tau2"], tau_LL=v["tau1"] + v["tau2"], z_peak=v["z_peak"])
    return mismatch_bound_hess(UNIT_PLANT, settling, (v["eps1"], v["eps2"]), v["kappa_max"], v["eta"], v["delta"])


class TestMismatchBound:
    def test_all_terms_vanish(self):
        assert mismatch(z_peak=0.0, tau1=0.0, tau2=0.0, eps1=0.0, eps2=0.0, eta=0.0).eps_e == 0.0

    def test_battery_hand_value(self):
        # unit energy-rate and current bound, settled current loop:
        # transit = 1*1*1*1 + 401 * 0.01 * (1 - e^-100) = 5.01
        b = mismatch()
        assert b.delta_tr_b == pytest.approx(5.01, abs=1e-6)

    def test_monotone_in_each_driver(self):
        base = dict(eps1=0.1, eps2=0.05, eta=0.01, kappa_max=0.2)
        e0 = mismatch(**base).eps_e
        for name in ("z_peak", "tau1", "tau2", "eps1", "eps2", "eta"):
            overrides = dict(base)
            overrides[name] = {**MISMATCH_INPUTS, **base}[name] + 0.05
            assert mismatch(**overrides).eps_e >= e0 - 1e-12

    def test_channel_decomposition(self):
        b = mismatch(eps1=0.2, eps2=0.1)
        assert b.eps_e == pytest.approx(max(b.battery_channel, b.supercap_channel))


class TestCertificateReport:
    TIMING = TimingVerdict(True, True)

    def test_admissibility_from_constraints(self):
        P = solve_lyapunov(np.array([[0.0, 1.0], [-25.0, -11.0]]), np.diag([50.0, 1.0]))
        rows = [
            HalfspaceConstraint(c_a=(1.0,), c_b=(0.0,), d0=420.0, c_v=1.0, label="v_max"),
            HalfspaceConstraint(c_a=(-1.0,), c_b=(0.0,), d0=-380.0, c_v=-1.0, label="v_min"),
        ]
        gamma_inf = GammaEvaluator(rows, P, GAINS).gamma(400.0)
        rep = certificate_report(
            make_spec(eps_h=1e4), 0.51, self.TIMING, eps_t=0.1,
            eps_e=mismatch().eps_e, gamma_inf=gamma_inf,
        )
        assert rep["admissibility"]
        assert gamma_inf > 0.51

    def test_admissibility_is_strict(self):
        eps_e = mismatch().eps_e
        verdicts = [
            certificate_report(
                make_spec(eps_h=1e4), 0.51, self.TIMING, eps_t=0.1,
                eps_e=eps_e, gamma_inf=gamma_inf,
            )["admissibility"]
            for gamma_inf in (0.52, 0.51, 0.5)
        ]
        assert verdicts == [True, False, False]

    def test_tight_budget_fails_overall(self):
        rep = certificate_report(
            make_spec(eps_h=0.0001), 0.51, self.TIMING, eps_t=0.1,
            eps_e=mismatch().eps_e, gamma_inf=1e4,
        )
        assert rep["admissibility"]
        assert not rep["vertical_compat"]
        assert not rep["all_ok"]
