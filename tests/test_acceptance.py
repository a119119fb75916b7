"""Acceptance gate: the published operating points and the property suites,
each asserted at its stated tolerance. One pass/fail line prints per
criterion (run with -s or check the captured output)."""

import itertools
import json
import math

import numpy as np
from helpers import QpProblem, bundle, solve_qp
from laycon.cli import main
from laycon.iss_cert import (
    coordinate_bound,
    decay_time,
    iss_gain,
    noise_floor,
    ultimate_level_optimized,
)
from laycon.numkit import SpdMatrix, decay_rate, invert_spd, solve_lyapunov
from laycon.qp import QpStatus
from laycon.scenarios import scenario_a, scenario_b
from laycon.sim import (
    calibrated_overshoot_for_run,
    invariant_violations,
    omega_entry_time,
    rk4_step,
    run_layered,
)

A_GAINS_A = np.array([[0.0, 1.0], [-25.0, -11.0]])
R_A = np.diag([50.0, 1.0])
A_GAINS_B = np.array([[0.0, 1.0], [-35.0, -12.0]])
R_B = np.diag([100.0, 10.0])


def report(criterion: int, description: str, ok: bool) -> bool:
    print(f"criterion {criterion:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    return ok


def test_criterion_01_lyapunov_solve():
    P = solve_lyapunov(A_GAINS_A, R_A)
    expected = np.array([[14.41, 1.00], [1.00, 0.14]])
    ok = bool(np.all(np.abs(P.mat - expected) <= 0.01)) and abs(P.cond() - 217.0) <= 3.0
    assert report(1, "Lyapunov matrix entries within 0.01, condition number 217 +/- 3", ok)


def test_criterion_02_eigenvalues():
    eig_a = np.sort(np.linalg.eigvals(A_GAINS_A).real)
    eig_b = np.sort(np.linalg.eigvals(A_GAINS_B).real)
    ok = (
        abs(eig_a[1] + 3.21) <= 0.01 and abs(eig_a[0] + 7.79) <= 0.01
        and abs(eig_b[1] + 5.0) <= 1e-9 and abs(eig_b[0] + 7.0) <= 1e-9
        and abs(decay_rate(A_GAINS_B) - 5.0) <= 1e-9
    )
    assert report(2, "closed-loop eigenvalues at both gain sets", ok)


def test_criterion_03_optimized_invariant_level():
    P = solve_lyapunov(A_GAINS_A, R_A)
    v_bar, theta, z = ultimate_level_optimized(P, SpdMatrix(R_A), np.array([0.0, 1.0]), 3.0)
    ok = (
        abs(v_bar - 0.51) <= 0.01
        and abs(math.degrees(theta) - 79.7) <= 0.5
        and np.all(np.abs(z - np.array([0.13, 0.72])) <= 0.01)
    )
    assert report(3, "optimized invariant level 0.51 with worst-case direction", ok)


def test_criterion_04_coordinate_bounds():
    P_a = solve_lyapunov(A_GAINS_A, R_A)
    v_bar_a, _, _ = ultimate_level_optimized(P_a, SpdMatrix(R_A), np.array([0.0, 1.0]), 3.0)
    P_b = solve_lyapunov(A_GAINS_B, R_B)
    ok = (
        abs(coordinate_bound(invert_spd(P_a).mat, v_bar_a, 0) - 0.27) <= 0.01
        and abs(coordinate_bound(invert_spd(P_b).mat, 0.50, 0) - 0.13) <= 0.01
    )
    assert report(4, "voltage tracking bounds 0.27 V and 0.13 V", ok)


def test_criterion_05_iss_gain_chain():
    g = iss_gain(2.94, 1.0, 3.21)
    eps = noise_floor(g, 3.0)
    tau2 = decay_time(2.94, 8.81, 3.21, 0.1, 2.75)
    ok = abs(g - 0.92) <= 0.005 and abs(eps - 2.75) <= 0.02 and abs(tau2 - 1.42) <= 0.02
    assert report(5, "ISS gain 0.92, noise floor 2.75 V, decay time 1.42 s", ok)


def test_criterion_06_erg_threshold():
    g = bundle(scenario_b()).governor.gamma(400.0)
    ok = abs(g - 9.3) <= 0.1
    assert report(6, "actuator-limited governor threshold 9.3", ok)


def test_criterion_07_scenario_a_run():
    a = bundle(scenario_a(seed=0))
    log, _ = run_layered(a)
    v_bar, _, _ = ultimate_level_optimized(
        a.P, SpdMatrix(a.R), np.array([0.0, 1.0]), a.sim.w_max / a.plant.c_bus
    )
    entry = omega_entry_time(log, v_bar)
    m, _ = calibrated_overshoot_for_run(log, decay_rate(A_GAINS_A), 1.0, a.sim.w_max)
    ok = (
        entry is not None and 0.82 <= entry <= 1.12
        and invariant_violations(log, v_bar) == 0
        and 2.5 <= m <= 3.4
    )
    assert report(7, f"invariant-set entry at {entry:.2f} s, no exits, overshoot {m:.2f}", ok)


def test_criterion_08_scenario_b_run():
    log, report_b = run_layered(bundle(scenario_b(seed=0)))
    c = log.columns
    late = c["t"] >= 4.5
    ok = (
        c["V_gr"].min() >= 399.99 and c["V_gr"].max() <= 400.02
        and c["V_e"].max() <= 0.05
        and c["Phi"].max() < 0.0
        and np.max(np.abs(c["E_B"][late] - 5.0)) <= 0.05
        and log.fallback_steps.sum() == 0
    )
    assert report(8, "full-stack run: voltage band, barrier negative, charge target, no fallback", ok)


def test_criterion_09_erg_robust_invariance(tmp_path):
    code = main(["sweep", "--scenario", "a", "--seeds", "100", "--out", str(tmp_path / "mixed")])
    agg = json.loads((tmp_path / "mixed" / "aggregate.json").read_text())
    adv_cfg = tmp_path / "adversarial.json"
    adv_cfg.write_text(json.dumps({"sim": {"disturbance": "adversarial"}}))
    code_adv = main([
        "sweep", "--scenario", "a", "--config", str(adv_cfg),
        "--seeds", "20", "--out", str(tmp_path / "adv"),
    ])
    agg_adv = json.loads((tmp_path / "adv" / "aggregate.json").read_text())
    ok = (
        code == 0 and code_adv == 0
        and agg["phi_violation_total"] == 0
        and agg_adv["phi_violation_total"] == 0
    )
    assert report(9, "barrier never positive over 100 mixed + 20 adversarial seeds", ok)


def test_criterion_10_upward_handshake_soundness():
    from laycon.cli import build_certificate

    b = bundle(scenario_b(seed=0))
    _, monitor = run_layered(b)
    eps_e = build_certificate(b)["eps_E"]
    measured = float(np.max(np.abs(monitor.w_tilde)))
    ok = measured <= eps_e
    assert report(10, f"measured mismatch {measured:.3f} below certified bound {eps_e:.1f}", ok)


def test_criterion_11_oracle_equivalence():
    # QP solver against exhaustive active-set enumeration
    rng = np.random.default_rng(2025)
    qp_ok = True
    for i in range(500):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(3, 7))
        L = rng.standard_normal((n, n))
        H = L @ L.T + 0.5 * np.eye(n)
        g = rng.standard_normal(n)
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m) + 1.0
        if i % 6 == 5 and m >= 2:
            A[1] = -A[0]
            b[0] = rng.uniform(-1.0, 0.0)
            b[1] = -b[0] - rng.uniform(0.5, 2.0)
        p = QpProblem(H, g, A, b)
        sol = solve_qp(p, max_iters=400)
        ref = _brute_force(p)
        if sol.status is QpStatus.OPTIMAL:
            if ref is None or abs(sol.objective - ref) > 1e-6:
                qp_ok = False
                break
        elif sol.status is QpStatus.INFEASIBLE:
            if ref is not None:
                qp_ok = False
                break
        else:
            qp_ok = False
            break

    # Lyapunov residuals over 1000 random stable planar systems
    rng = np.random.default_rng(7)
    lyap_ok = True
    for _ in range(1000):
        M = rng.standard_normal((2, 2))
        A_mat = M - (np.max(np.linalg.eigvals(M).real) + rng.uniform(0.5, 2.0)) * np.eye(2)
        Lr = rng.standard_normal((2, 2))
        R = Lr @ Lr.T + 0.1 * np.eye(2)
        P = solve_lyapunov(A_mat, R)
        if np.linalg.norm(A_mat.T @ P.mat + P.mat @ A_mat + R, np.inf) > 1e-9 * np.linalg.norm(R, np.inf):
            lyap_ok = False
            break

    # fourth-order error scaling of the integrator
    def final_error(h):
        x = [1.0] * 6
        for i in range(round(1.0 / h)):
            x = rk4_step(lambda *x: [-a for a in x], x, i * h, h)
        return abs(x[0] - math.exp(-1.0))

    ratio = final_error(0.1) / final_error(0.05)
    rk4_ok = abs(ratio - 16.0) <= 4.0

    ok = qp_ok and lyap_ok and rk4_ok
    assert report(11, f"500 QPs vs enumeration, 1000 Lyapunov residuals, RK4 ratio {ratio:.1f}", ok)


def _brute_force(p: QpProblem):
    best = None
    for k in range(min(p.m, p.n) + 1):
        for subset in itertools.combinations(range(p.m), k):
            S = list(subset)
            A_s = p.A_ineq[S]
            kkt = np.block([[p.H, A_s.T], [A_s, np.zeros((k, k))]])
            rhs = np.concatenate([-p.g, p.b_ineq[S]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.linalg.norm(kkt @ sol - rhs, np.inf) > 1e-8:
                continue
            x, lam = sol[:p.n], sol[p.n:]
            if np.any(lam < -1e-9):
                continue
            if p.m and np.max(p.A_ineq @ x - p.b_ineq) > 1e-8:
                continue
            obj = float(0.5 * x @ p.H @ x + p.g @ x)
            if best is None or obj < best:
                best = obj
    return best


def test_criterion_12_monitor_reconstruction():
    # nominal: no disturbance, no load, planner sees an almost exact model
    nominal = bundle(scenario_b(seed=0), {"sim": {"disturbance": "none"}, "load": None})
    log, monitor = run_layered(nominal)
    spec = nominal.spec
    band = spec.eps_e + spec.eps_t + spec.delta
    k_live = monitor.k_live
    ok = monitor.all_pass() and k_live is not None
    if ok:
        settled = np.abs(log.y_samples[k_live:, 0] - nominal.planner_cfg.e_b_goal)
        ok = bool(np.all(settled <= band))
    assert report(12, f"nominal run: all clauses pass, liveness index {k_live}, band {band:.2f}", ok)
