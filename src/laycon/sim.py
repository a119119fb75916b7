"""Sampled-data simulation of the layered loop.

Fixed-step RK4 integrates the plant and the governor jointly; the planner
runs at multiples of the sampling period on the sampled slow states, and
its reference is held over the period (zero-order hold), so information
flow within a period is strictly sequential. Exogenous signals
(disturbance, load, held reference) are frozen across the four stages of
each step, while the feedback controllers follow the stage states; runs
are bit-reproducible for a given seed.

The loop runs on Python floats: the joint state is a list of seven floats
(V_gr, I_S, I_B, E_S, E_B, v_V, v_IB), RK4 is unrolled over its entries,
and each logged step is one row of a preallocated array. The reductions
whose rounding numpy's kernels set stay on arrays (V(e) = e'Pe, the
adversarial disturbance's e'PB and the governor's Euclidean norms), so
every value equals the array evaluation. Work that depends only on time,
or that only the log reads, stays out of the loop: the mixed disturbance
and the load (at every step and forecast time) are evaluated for the
whole run before it, so is Gamma(v) when the governor is off, and the
logged V(e) and Phi columns are computed from the logged error after it.

The governor's safety gate uses the held-reference error (the reference
rate enters the physical loop as a feedforward residual, not the gate);
in the published operating points the reference is stationary and the
two coincide.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, get_args

import numpy as np

from .contracts import (
    ContractSpec,
    MonitorReport,
    check_A_env,
    check_A_mis,
    check_G_iss,
    check_G_ref,
    check_G_safe,
    check_G_track,
)
from .errors import FieldValueError
from .hess import control_uB, control_uS, error_state
from .hess import load as load_eval
from .hess import outputs, plant_rhs
from .iss_cert import calibrate_overshoot, envelope_decay, iss_gain, noise_floor
from .mpc import Planner, abstract_step
from .numkit import SpdMatrix
from .qp import QpSolution

if TYPE_CHECKING:  # scenarios imports this module
    from .scenarios import RunBundle


class NonFiniteStateError(RuntimeError):
    """Integration produced a non-finite state."""


DisturbanceMode = Literal["none", "mixed", "adversarial"]

COLUMNS = (
    "t", "V_gr", "I_S", "I_B", "E_S", "E_B", "v", "r_V", "r_IB",
    "e1", "e2", "V_e", "Gamma_v", "Phi", "w", "d", "u_S", "u_B", "fallback",
)


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    t_s: float
    h: float = 1e-3
    seed: int = 0
    disturbance: DisturbanceMode = "mixed"
    w_max: float = 3.0
    erg_on: bool = True
    frozen_reference: tuple[float, float] | None = None
    x0: tuple[float, float, float, float, float] = (400.0, 0.0, 0.0, 0.0, 0.0)
    v0: tuple[float, float] | None = None
    r_init_ib: float = 0.0

    def __post_init__(self):
        for name in ("h", "t_end", "t_s"):
            if getattr(self, name) <= 0.0:
                raise FieldValueError(name, f"{name} must be positive")
        if self.disturbance not in get_args(DisturbanceMode):
            raise FieldValueError("disturbance", f"unknown disturbance mode {self.disturbance!r}")
        if self.w_max < 0.0:
            raise FieldValueError("w_max", "w_max must be nonnegative")


@dataclass
class TrajectoryLog:
    """Uniformly sampled run record plus the per-period planner data.

    data holds one row per name in COLUMNS and one column per logged step;
    columns maps each name to its row (a view into data). The simulator
    logs step by step into an (n_rows, len(COLUMNS)) array and data is its
    transpose, a view, so each column's values are strided.
    """

    data: np.ndarray  # (len(COLUMNS), n_rows)
    y_samples: np.ndarray  # (K+1, 2) sampled (E_B, E_S)
    predictions: np.ndarray  # (K, 2) one-step-ahead abstract states
    v_n_star: np.ndarray  # (K,) optimal values, NaN on fallback steps
    ref_points: np.ndarray  # (K+1, 2) held references, row 0 = initial
    fallback_steps: np.ndarray  # (K,) bool
    plan_qps: list[QpSolution]  # (K,) the planner's QP per period; empty without planner
    t_s_eff: float
    columns: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.columns = dict(zip(COLUMNS, self.data))

    @property
    def n_rows(self) -> int:
        return self.data.shape[1]

    @property
    def n_periods(self) -> int:
        return self.fallback_steps.shape[0]


def rk4_step(rhs, x, t: float, h: float) -> list[float]:
    """Classical 4-stage step with inputs held constant over the step.

    x and each rhs(x, t) are sequences of seven floats, the joint state
    (V_gr, I_S, I_B, E_S, E_B, v_V, v_IB). The step is unrolled over the
    entries: stages 2 and 3 are a + (h/2) k, stage 4 is a + h k, and the
    result is a + (h/6) (k1 + 2 k2 + 2 k3 + k4), each summed left to right.
    """
    x0, x1, x2, x3, x4, x5, x6 = x
    half = 0.5 * h
    a0, a1, a2, a3, a4, a5, a6 = rhs(x, t)
    b0, b1, b2, b3, b4, b5, b6 = rhs([x0 + half * a0, x1 + half * a1, x2 + half * a2, x3 + half * a3,
                                      x4 + half * a4, x5 + half * a5, x6 + half * a6], t + half)
    c0, c1, c2, c3, c4, c5, c6 = rhs([x0 + half * b0, x1 + half * b1, x2 + half * b2, x3 + half * b3,
                                      x4 + half * b4, x5 + half * b5, x6 + half * b6], t + half)
    d0, d1, d2, d3, d4, d5, d6 = rhs([x0 + h * c0, x1 + h * c1, x2 + h * c2, x3 + h * c3,
                                      x4 + h * c4, x5 + h * c5, x6 + h * c6], t + h)
    sixth = h / 6.0
    x_next = [
        x0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
        x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
        x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
        x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
        x4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
        x5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
        x6 + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6),
    ]
    if not all(map(math.isfinite, x_next)):
        raise NonFiniteStateError(f"non-finite state at t={t + h:.6f}: {x_next}")
    return x_next


def disturbance_mixed(times: np.ndarray, w_max: float, stream: np.random.Generator) -> np.ndarray:
    """Sinusoid plus uniform noise at each step time, held constant over its
    integration step; the coefficient split keeps |w| <= w_max pointwise.

    The noise is one stream.uniform(-1, 1, size=n) draw, which yields the
    same values as n scalar draws, so a run's w sequence does not depend on
    how it is drawn."""
    xi = stream.uniform(-1.0, 1.0, size=len(times))
    return w_max * (0.7 * np.sin(15.0 * times) + 0.3 * xi)


def disturbance_adversarial(e, P: SpdMatrix, B, w_max: float) -> float:
    """Worst-case alignment with the Lyapunov gradient's input channel;
    sign(0) is taken as +1."""
    s = 2.0 * float(np.asarray(e) @ P.mat @ np.asarray(B))
    return w_max if s >= 0.0 else -w_max


def run_layered(bundle: RunBundle) -> tuple[TrajectoryLog, MonitorReport]:
    """Simulate the full layered loop of one configuration and monitor every
    contract clause.

    The planner runs iff the bundle has one; without it the reference is
    sim.frozen_reference throughout. The reference starts at bundle.r_start
    and the governor (bundle.governor) at bundle.v_start. At each sampling
    instant the planner sees only the sampled slow state; its reference is
    held for the whole period while plant and governor integrate
    continuously. Safety clauses are monitored at every integration step,
    the discrete clauses at period boundaries.
    """
    plant, planner_cfg, erg_cfg, sim = bundle.plant, bundle.planner_cfg, bundle.erg_cfg, bundle.sim
    P, load_profile = bundle.P, bundle.load_profile
    spp = max(1, round(sim.t_s / sim.h))
    t_s_eff = spp * sim.h
    if abs(t_s_eff - sim.t_s) > 1e-9 * max(1.0, sim.t_s):
        warnings.warn(
            f"t_s={sim.t_s} is not an integer multiple of h={sim.h}; using {t_s_eff}",
            stacklevel=2,
        )
    n_steps = round(sim.t_end / sim.h)
    n_periods = n_steps // spp

    r, v, gam = bundle.r_start, bundle.v_start, bundle.governor
    planner = None if planner_cfg is None else Planner(planner_cfg, r_init=r[1])
    z = [*map(float, sim.x0), *v]  # (V_gr, I_S, I_B, E_S, E_B, v_V, v_IB)
    B_w = np.array([0.0, 1.0 / plant.c_bus])
    gain_b = plant.lambda_b_gain
    erg_on = sim.erg_on
    h = sim.h
    adversarial = sim.disturbance == "adversarial"
    step_times = np.arange(n_steps + 1) * h
    if sim.disturbance == "mixed":
        stream = np.random.default_rng(sim.seed)
        w_steps = disturbance_mixed(step_times, sim.w_max, stream).tolist()
    else:
        w_steps = [0.0] * (n_steps + 1)

    def load_table(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = load_profile.t_span
        return load_eval(np.clip(times, lo, hi), load_profile)

    if load_profile is None:
        d_steps = d_dot_steps = [0.0] * (n_steps + 1)
    else:
        d_steps, d_dot_steps = (values.tolist() for values in load_table(step_times))
    if planner is not None:
        # row k holds the planner's forecast times t_k + j t_s_eff
        period_starts = step_times[:n_periods * spp:spp]
        forecast_times = period_starts[:, None] + np.arange(planner_cfg.horizon) * t_s_eff
        if load_profile is None:
            forecasts = np.zeros_like(forecast_times)
        else:
            forecasts, _ = load_table(forecast_times)
    # with the governor off v only loses the sign of a zero, which no margin
    # d0 - (c_v0 v0 + c_v1 v1) can see, so Gamma(v) is one value per run
    gamma_fixed = None if erg_on else gam.gamma(v)

    rows = np.zeros((n_steps + 1, len(COLUMNS)))
    y_samples = np.zeros((n_periods + 1, 2))
    predictions = np.zeros((n_periods, 2))
    v_n_star = np.full(n_periods, np.nan)
    ref_points = np.zeros((n_periods + 1, 2))
    ref_points[0] = r
    fallback_steps = np.zeros(n_periods, dtype=bool)
    plan_qps = []
    fallback_now = 0.0

    def joint_rhs(z, tau):
        # the exogenous signals w, d, d_dot and r are the step's held values,
        # which the loop rebinds once per step, so they are frozen over its
        # four stages; the feedback controllers follow the stage states
        ub = control_uB(z[2], r[1], gain_b)
        dbar = d + z[2]
        us = control_uS(z[0], z[1], z[5], dbar, d_dot + ub, plant)
        dx = plant_rhs(z, (us, ub), w, d, plant)
        if not erg_on:
            return dx + (0.0, 0.0)
        ee = error_state(z, z[5], 0.0, dbar, plant)
        return dx + gam.erg_rhs(ee, (z[5], z[6]), r, erg_cfg)

    for i in range(n_steps + 1):
        t = i * h
        d = d_steps[i]
        if i % spp == 0:
            k = i // spp
            if k <= n_periods:
                _, y_k = outputs(z)
                y_samples[k] = y_k
                if k < n_periods:
                    if planner is not None:
                        res = planner.step(y_k, forecasts[k])
                        r = tuple(map(float, res.r_k))
                        fallback_now = float(res.fallback_used)
                        fallback_steps[k] = res.fallback_used
                        plan_qps.append(res.qp)
                        if res.V_N_star is not None:
                            v_n_star[k] = res.V_N_star
                        predictions[k] = abstract_step(y_k, r[1], d, planner_cfg)
                    ref_points[k + 1] = r

        d_dot = d_dot_steps[i]
        v_gr, i_s, i_b, e_s, e_b, v_v, v_ib = z
        u_b = control_uB(i_b, r[1], gain_b)
        d_bar = d + i_b
        u_s = control_uS(v_gr, i_s, v_v, d_bar, d_dot + u_b, plant)
        e = error_state(z, v_v, 0.0, d_bar, plant)
        w = disturbance_adversarial(e, P, B_w, sim.w_max) if adversarial else w_steps[i]
        gamma_v = gam.gamma((v_v, v_ib)) if gamma_fixed is None else gamma_fixed
        # V_e and Phi are filled in after the loop; nothing in it reads them
        rows[i] = (t, v_gr, i_s, i_b, e_s, e_b, v_v, r[0], r[1], e[0], e[1],
                   0.0, gamma_v, 0.0, w, d, u_s, u_b, fallback_now)

        if i == n_steps:
            break
        z = rk4_step(joint_rhs, z, t, h)

    log = TrajectoryLog(
        data=rows.T,
        y_samples=y_samples,
        predictions=predictions,
        v_n_star=v_n_star,
        ref_points=ref_points,
        fallback_steps=fallback_steps,
        plan_qps=plan_qps,
        t_s_eff=t_s_eff,
    )
    cols = log.columns
    E = np.column_stack((cols["e1"], cols["e2"]))
    cols["V_e"][:] = np.vecdot(E @ P.mat, E)
    cols["Phi"][:] = cols["V_e"] - cols["Gamma_v"]
    return log, _build_report(log, bundle.spec, spp)


def _build_report(log: TrajectoryLog, spec: ContractSpec, spp: int) -> MonitorReport:
    report = MonitorReport()
    cols = log.columns
    report.record("A_env", check_A_env(cols["w"], spec.w_max))
    states = np.stack([cols["V_gr"], cols["I_S"], cols["I_B"]], axis=1)
    inputs = np.stack([cols["u_S"], cols["u_B"]], axis=1)
    report.record("G_safe", check_G_safe(states, inputs, spec))
    if log.n_periods >= 1:
        report.record("G_ref", check_G_ref(log.ref_points, spec.r_bar))
        end_idx = [(k + 1) * spp for k in range(log.n_periods)]
        ends = np.stack([cols["V_gr"][end_idx], cols["I_B"][end_idx]], axis=1)
        report.record("G_track", check_G_track(ends, log.ref_points[1:], spec.eps_l))
    if log.plan_qps:  # the planner ran at least one period
        verdicts, w_tilde = check_A_mis(log.y_samples, log.predictions, spec.eps_e)
        report.record("A_mis", verdicts)
        report.w_tilde = w_tilde
        iss_verdicts, k_live = check_G_iss(log.y_samples[:, 0], spec.y_goal, spec.eps_t, spec.delta)
        report.record("G_iss", iss_verdicts)
        report.k_live = k_live
    return report


def calibrated_overshoot_for_run(
    log: TrajectoryLog, lambda_e: float, norm_b: float, w_max: float, iters: int = 80
) -> tuple[float, float]:
    """Self-consistent hindsight overshoot for one run.

    The envelope's noise floor depends on the overshoot factor through the
    ISS gain, so the tightest factor solves a scalar fixed point. The plain
    map alternates around it, so iterate with averaging, then take one
    final calibration pass so the returned (m, eps) pair satisfies the
    envelope exactly at every sample.
    """
    cols = log.columns
    norms = np.hypot(cols["e1"], cols["e2"])
    decay = envelope_decay(cols["t"], lambda_e)
    e0 = norms[0]
    m = 1.0
    for _ in range(iters):
        eps = noise_floor(iss_gain(m, norm_b, lambda_e), w_max)
        m_next = 0.5 * (m + calibrate_overshoot(norms, decay, eps, e0))
        if abs(m_next - m) <= 1e-13:
            m = m_next
            break
        m = m_next
    eps = noise_floor(iss_gain(m, norm_b, lambda_e), w_max)
    return calibrate_overshoot(norms, decay, eps, e0), eps


def omega_entry_time(log: TrajectoryLog, v_bar_h: float) -> float | None:
    """First time the Lyapunov value enters the invariant sublevel set."""
    inside = log.columns["V_e"] <= v_bar_h
    idx = np.flatnonzero(inside)
    return float(log.columns["t"][idx[0]]) if idx.size else None


def invariant_violations(log: TrajectoryLog, v_bar_h: float, after: float | None = None) -> int:
    """Count samples with V(e) above the invariant level (after entry)."""
    t0 = omega_entry_time(log, v_bar_h) if after is None else after
    if t0 is None:
        return 0
    mask = log.columns["t"] >= t0
    return int(np.sum(log.columns["V_e"][mask] > v_bar_h + 1e-9))
