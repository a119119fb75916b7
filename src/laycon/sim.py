"""Sampled-data simulation of the layered loop.

Fixed-step RK4 integrates the plant and the governor jointly; the planner
runs at multiples of the sampling period on the sampled slow states, and
its reference is held over the period (zero-order hold), so information
flow within a period is strictly sequential. Exogenous signals
(disturbance, load, held reference) are frozen across the four stages of
each step, while the feedback controllers follow the stage states; runs
are bit-reproducible for a given seed.

The loop runs on Python floats: the joint state is a tuple of six floats
(V_gr, I_S, I_B, E_S, E_B, v), v the governed voltage reference (the
battery loop tracks r_IB ungoverned), RK4 is unrolled over its entries,
and each logged step is one row of a preallocated array. Every stage
evaluator takes floats and returns floats: the stage RHS receives the six
stage floats and no time, and passes floats on to hess.feedback_law,
hess.plant_rhs and GammaEvaluator.erg_rhs. The reductions (V(e) = e'Pe and
the adversarial e'PB) are fixed-order float sums and each margin d0 - c_v v
is exact (c_v in {1, -1, 0}), so none depends on the BLAS kernel. Work
that depends only on time, or that only the log reads, stays out of the
loop: the mixed disturbance and the load (at every step and forecast
time) are evaluated for the whole run before it, and Gamma(v) is computed
again only on a step whose v differs from the last one's. The logged
inputs, error, V(e) and Phi are filled in per block of rows, by the same
law and SpdMatrix.quad on the block's columns, whose every row equals the
float form (so a row holds its step's first-stage values). A block
closes at the first period boundary with at least STREAM_ROWS rows
pending, and the last one after the loop; each finished block is handed
to the caller's on_rows, so a writer can render the log while the loop
runs.

The governor's safety gate uses the held-reference error (the reference
rate enters the physical loop as a feedforward residual, not the gate);
in the published operating points the reference is stationary and the
two coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

import numpy as np

from .contracts import (
    MonitorReport,
    check_A_env,
    check_A_mis,
    check_G_iss,
    check_G_ref,
    check_G_safe,
    check_G_track,
)
from .errors import FieldValueError, NonNegative, NonNegativeInt, Positive, check_fields
from .hess import feedback_law, plant_rhs
from .hess import load as load_eval
from .iss_cert import calibrate_overshoot, envelope_decay, iss_gain, noise_floor
from .mpc import Planner, PlanResult, abstract_step
from .numkit import SpdMatrix, UniformStream

if TYPE_CHECKING:  # scenarios imports this module
    from .scenarios import RunBundle


class NonFiniteStateError(RuntimeError):
    """Integration produced a non-finite state."""


DisturbanceMode = Literal["none", "mixed", "adversarial"]

COLUMNS = (
    "t", "V_gr", "I_S", "I_B", "E_S", "E_B", "v", "r_V", "r_IB",
    "e1", "e2", "V_e", "Gamma_v", "Phi", "w", "d", "u_S", "u_B", "fallback",
)

STREAM_ROWS = 512  # a block of logged rows closes at a period boundary once this many are pending

MAX_STEPS = 1_000_000  # integration steps a run may take; its log of 19 floats per step is then 152 MB


@dataclass(frozen=True)
class SimConfig:
    t_end: Positive
    t_s: Positive
    r0: tuple[float, float]  # the reference (r_V, r_IB) at t = 0
    h: Positive = 1e-3
    seed: NonNegativeInt = 0
    disturbance: DisturbanceMode = "mixed"
    w_max: NonNegative = 3.0
    x0: tuple[float, float, float, float, float] = (400.0, 0.0, 0.0, 0.0, 0.0)
    v0: float | None = None

    def __post_init__(self):
        check_fields(self)
        if self.t_end / self.h > MAX_STEPS + 0.5:  # round(t_end / h) > MAX_STEPS; the quotient may be inf
            raise FieldValueError("t_end", f"t_end / h = {self.t_end / self.h:.6g} steps, "
                                           f"above MAX_STEPS {MAX_STEPS}")
        # the loop, the planner and the certificate all read t_s, so it must
        # be the period the loop runs: a whole number of steps
        k = self.t_s / self.h
        if not (math.isfinite(k) and round(k) >= 1
                and abs(round(k) * self.h - self.t_s) <= 1e-9 * max(1.0, self.t_s)):
            raise FieldValueError("t_s", f"t_s / h = {k:.9g} is not a whole number of steps, at least 1")

    @property
    def steps_per_period(self) -> int:
        """Integration steps per sampling period, t_s / h."""
        return round(self.t_s / self.h)

    @property
    def n_steps(self) -> int:
        """Integration steps of the run, t_end / h rounded."""
        return round(self.t_end / self.h)

    def last_load_time(self, horizon: int | None) -> float:
        """The last time run_layered reads the load at: the last step time,
        or, with a planner of this horizon, its last forecast time if later."""
        spp, n_steps = self.steps_per_period, self.n_steps
        last_period = (n_steps // spp - 1) * spp  # the last period's first step
        if horizon is None or last_period < 0:
            return n_steps * self.h
        return max(n_steps * self.h, last_period * self.h + (horizon - 1) * (spp * self.h))


@dataclass
class TrajectoryLog:
    """A run's one record: the step log plus the planner's result per period.

    data holds one row per name in COLUMNS and one column per logged step;
    columns maps each name to its row (a view into data), and data is the
    transpose of the (n_rows, len(COLUMNS)) array the simulator logs into,
    so each column is strided. Period k starts at logged step
    k * steps_per_period, whose row holds its sampled state, held reference
    and fallback flag.
    """

    data: np.ndarray  # (len(COLUMNS), n_rows)
    steps_per_period: int
    plans: list[PlanResult]  # one per full period; empty without a planner
    columns: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.columns = dict(zip(COLUMNS, self.data))

    def at_period_starts(self, name: str) -> np.ndarray:
        """Column name at each full period's first step and the last one's end."""
        return self.columns[name][::self.steps_per_period]

    @property
    def n_periods(self) -> int:
        return (self.data.shape[1] - 1) // self.steps_per_period

    @property
    def y_samples(self) -> np.ndarray:
        """(K+1, 2) sampled slow outputs (E_B, E_S), the planner's state."""
        return np.stack([self.at_period_starts("E_B"), self.at_period_starts("E_S")], axis=1)

    @property
    def fallback_steps(self) -> np.ndarray:
        """(K,) bool: the period held its previous reference."""
        return self.at_period_starts("fallback")[:self.n_periods] != 0.0

    @property
    def v_n_star(self) -> np.ndarray:
        """The planner's optimal value per period, NaN on fallback periods."""
        return np.array([np.nan if p.V_N_star is None else p.V_N_star for p in self.plans])


def rk4_step(rhs, x, t: float, h: float) -> tuple[float, ...]:
    """Classical 4-stage step with inputs held constant over the step.

    x is the joint state (V_gr, I_S, I_B, E_S, E_B, v) as six floats,
    and rhs(x0, ..., x5) returns its derivative as six floats.
    No stage reads a time, since every time-varying input is held over the
    step; t only dates a non-finite state. The step is unrolled over the
    entries: stages 2 and 3 are x + (h/2) s, stage 4 is x + h s, and the
    result is x + (h/6) (s1 + 2 s2 + 2 s3 + s4), each summed left to right.
    """
    x0, x1, x2, x3, x4, x5 = x
    half = 0.5 * h
    a0, a1, a2, a3, a4, a5 = rhs(x0, x1, x2, x3, x4, x5)
    b0, b1, b2, b3, b4, b5 = rhs(x0 + half * a0, x1 + half * a1, x2 + half * a2, x3 + half * a3,
                                 x4 + half * a4, x5 + half * a5)
    c0, c1, c2, c3, c4, c5 = rhs(x0 + half * b0, x1 + half * b1, x2 + half * b2, x3 + half * b3,
                                 x4 + half * b4, x5 + half * b5)
    d0, d1, d2, d3, d4, d5 = rhs(x0 + h * c0, x1 + h * c1, x2 + h * c2, x3 + h * c3,
                                 x4 + h * c4, x5 + h * c5)
    sixth = h / 6.0
    x_next = (
        x0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
        x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
        x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
        x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
        x4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
        x5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
    )
    if not all(map(math.isfinite, x_next)):
        raise NonFiniteStateError(f"non-finite state at t={t + h:.6f}: {list(x_next)}")
    return x_next


def disturbance_mixed(times: np.ndarray, w_max: float, stream: UniformStream) -> np.ndarray:
    """Sinusoid plus uniform noise at each step time, held constant over its
    integration step; the coefficient split keeps |w| <= w_max pointwise.

    The noise is one stream.uniform(-1, 1, size=n) draw, which yields the
    same values as n scalar draws, so a run's w sequence does not depend on
    how it is drawn."""
    xi = stream.uniform(-1.0, 1.0, size=len(times))
    return w_max * (0.7 * np.sin(15.0 * times) + 0.3 * xi)


def disturbance_adversarial(e, P: SpdMatrix, B, w_max: float) -> float:
    """Worst-case alignment with the Lyapunov gradient's input channel,
    the sign of 2 e'PB (P.bilinear's float form); sign(0) is taken as +1."""
    return w_max if P.bilinear(e, B) >= 0.0 else -w_max


def run_layered(bundle: RunBundle, on_rows=None) -> tuple[TrajectoryLog, MonitorReport]:
    """Simulate the full layered loop of one configuration and monitor every
    contract clause.

    The planner runs iff the bundle has one; without it the reference is
    sim.r0 throughout. The reference starts at bundle.r_start
    and the governor (bundle.governor) at bundle.v_start; a run whose v
    cannot move (bundle.v_moves false) takes the governor's rate as the
    constant 0.0 and never calls erg_rhs. At each sampling
    instant the planner sees only the sampled slow state; its reference is
    held for the whole period while plant and governor integrate
    continuously. Safety clauses are monitored at every integration step,
    the discrete clauses at period boundaries.

    on_rows, if given, is called with each finished block of logged rows,
    in order: a C-contiguous (k, len(COLUMNS)) view of the log that starts
    at a period boundary.
    """
    plant, planner_cfg, sim = bundle.plant, bundle.planner_cfg, bundle.sim
    P, load_profile = bundle.P, bundle.load_profile
    spp, n_steps = sim.steps_per_period, sim.n_steps
    n_periods = n_steps // spp

    (r_v, r_ib), gam = bundle.r_start, bundle.governor
    planner = None if planner_cfg is None else Planner(planner_cfg, r_init=r_ib)
    z = (*map(float, sim.x0), bundle.v_start)  # (V_gr, I_S, I_B, E_S, E_B, v)
    B_w = (0.0, 1.0 / plant.c_bus)
    law = feedback_law(plant)
    v_moves = bundle.v_moves
    h = sim.h
    adversarial = sim.disturbance == "adversarial"
    step_times = np.arange(n_steps + 1) * h
    if sim.disturbance == "mixed":
        stream = UniformStream(sim.seed)
        w_steps = disturbance_mixed(step_times, sim.w_max, stream).tolist()
    else:
        w_steps = [0.0] * (n_steps + 1)

    # the bundle checked that the load's span covers every time read here
    if load_profile is None:
        d_run = d_dot_run = np.zeros(n_steps + 1)
    else:
        d_run, d_dot_run = load_eval(step_times, load_profile)
    d_steps, d_dot_steps = d_run.tolist(), d_dot_run.tolist()
    if planner is not None:
        # row k holds the planner's forecast times t_k + j t_s
        period_starts = step_times[:n_periods * spp:spp]
        forecast_times = period_starts[:, None] + np.arange(planner_cfg.horizon) * (spp * h)
        if load_profile is None:
            forecasts = np.zeros_like(forecast_times)
        else:
            forecasts, _ = load_eval(forecast_times, load_profile)
    v_gamma = bundle.v_start
    gamma_v = gam.gamma(v_gamma)

    rows = np.zeros((n_steps + 1, len(COLUMNS)))
    plans = []
    fallback_now = 0.0

    def joint_rhs(v_gr, i_s, i_b, e_s, e_b, v):
        # the exogenous signals w, d, d_dot and r_ib are the step's held
        # values, which the loop rebinds once per step (r_ib once per period;
        # r_v is one value per run), so they are frozen over its four stages;
        # the feedback law follows the stage states
        u_s, u_b, e1, e2 = law(v_gr, i_s, i_b, v, r_ib, d, d_dot)
        dx = plant_rhs(v_gr, i_s, i_b, u_s, u_b, w, d, plant)
        return dx + ((gam.erg_rhs(e1, e2, v, r_v),) if v_moves else (0.0,))

    def finish(lo: int, hi: int) -> None:
        # the inputs, error, V_e and Phi of rows lo..hi-1, from their columns
        block = rows[lo:hi]
        cols = dict(zip(COLUMNS, block.T))
        cols["u_S"][:], cols["u_B"][:], cols["e1"][:], cols["e2"][:] = law(
            cols["V_gr"], cols["I_S"], cols["I_B"], cols["v"], cols["r_IB"], cols["d"], d_dot_run[lo:hi])
        cols["V_e"][:] = P.quad((cols["e1"], cols["e2"]))
        cols["Phi"][:] = cols["V_e"] - cols["Gamma_v"]
        if on_rows is not None:
            on_rows(block)

    done = 0  # rows before this one are finished
    for i in range(n_steps + 1):
        t = i * h
        d = d_steps[i]
        if i % spp == 0:
            if i - done >= STREAM_ROWS:
                finish(done, i)
                done = i
            if planner is not None and i < n_periods * spp:
                # the planner sees the sampled slow outputs (E_B, E_S)
                res = planner.step((z[4], z[3]), forecasts[i // spp])
                r_ib = res.r_ib
                fallback_now = float(res.fallback_used)
                plans.append(res)

        d_dot = d_dot_steps[i]
        v_gr, i_s, i_b, e_s, e_b, v = z
        w = w_steps[i]
        if adversarial:  # the loop's one use of the error: the sign of e'PB sets w
            w = disturbance_adversarial(law(v_gr, i_s, i_b, v, r_ib, d, d_dot)[2:], P, B_w, sim.w_max)
        if v != v_gamma:  # Gamma(v) moves only with v; no margin d0 - c_v v sees the sign of a zero
            v_gamma, gamma_v = v, gam.gamma(v)
        # the error, V_e, Phi and the inputs are filled in per block
        rows[i] = (t, v_gr, i_s, i_b, e_s, e_b, v, r_v, r_ib, 0.0, 0.0,
                   0.0, gamma_v, 0.0, w, d, 0.0, 0.0, fallback_now)

        if i == n_steps:
            break
        z = rk4_step(joint_rhs, z, t, h)
    finish(done, n_steps + 1)

    log = TrajectoryLog(data=rows.T, steps_per_period=spp, plans=plans)
    return log, _build_report(log, bundle)


def _build_report(log: TrajectoryLog, bundle: RunBundle) -> MonitorReport:
    """Every contract clause, read from the logged rows: a period's
    sampled state, held reference and load are its first step's row, and
    its end is the next period's first step."""
    report = MonitorReport()
    spec, cols, n = bundle.spec, log.columns, log.n_periods
    report.record("A_env", check_A_env(cols["w"], bundle.sim.w_max))
    states = np.stack([cols["V_gr"], cols["I_S"], cols["I_B"]], axis=1)
    inputs = np.stack([cols["u_S"], cols["u_B"]], axis=1)
    report.record("G_safe", check_G_safe(states, inputs, spec))
    if n == 0:  # no full period, so no discrete clause
        return report
    start = {name: log.at_period_starts(name) for name in ("V_gr", "I_B", "r_V", "r_IB", "d")}
    held = np.stack([start["r_V"][:n], start["r_IB"][:n]], axis=1)
    report.record("G_ref", check_G_ref(np.vstack([bundle.r_start, held]), spec.r_bar))
    ends = np.stack([start["V_gr"][1:], start["I_B"][1:]], axis=1)
    report.record("G_track", check_G_track(ends, held, spec.eps_l))
    if log.plans:  # the planner ran, once per period
        y = log.y_samples
        predictions = [abstract_step(y_k, r_ib, d, bundle.planner_cfg)
                       for y_k, r_ib, d in zip(y, start["r_IB"][:n], start["d"][:n])]
        verdicts, w_tilde = check_A_mis(y, predictions, spec.eps_e)
        report.record("A_mis", verdicts)
        report.w_tilde = w_tilde
        iss_verdicts, k_live = check_G_iss(y[:, 0], bundle.planner_cfg.e_b_goal, spec.eps_t, spec.delta)
        report.record("G_iss", iss_verdicts)
        report.k_live = k_live
    return report


def calibrated_overshoot_for_run(
    log: TrajectoryLog, lambda_e: float, norm_b: float, w_max: float
) -> tuple[float, float]:
    """Self-consistent hindsight overshoot for one run.

    The noise floor eps = m kappa (kappa = norm_b w_max / lambda_e) grows
    with m, so the tightest m is the fixed point of the decreasing map
    F(m) = max(1, max_t (a_t - m c_t)), a_t = |e_t| / (decay_t |e_0|) and
    c_t = kappa (1 - decay_t) / (decay_t |e_0|): m* = max(1, max_t a_t / (1 + c_t)).
    A final calibration pass makes (m, eps) hold at every sample.
    """
    cols = log.columns
    norms = np.hypot(cols["e1"], cols["e2"])
    decay = envelope_decay(cols["t"], lambda_e)
    e0 = norms[0]
    m = 1.0
    if e0 != 0.0:
        kappa = norm_b * w_max / lambda_e
        m = max(1.0, float(np.max(norms / (decay * e0 + kappa * (1.0 - decay)))))
    eps = noise_floor(iss_gain(m, norm_b, lambda_e), w_max)
    return calibrate_overshoot(norms, decay, eps, e0), eps


def omega_entry_time(log: TrajectoryLog, v_bar_h: float) -> float | None:
    """First time the Lyapunov value enters the invariant sublevel set."""
    inside = log.columns["V_e"] <= v_bar_h
    idx = np.flatnonzero(inside)
    return float(log.columns["t"][idx[0]]) if idx.size else None


def invariant_violations(log: TrajectoryLog, v_bar_h: float) -> int:
    """Count samples with V(e) above the invariant level after entry."""
    t0 = omega_entry_time(log, v_bar_h)
    if t0 is None:
        return 0
    mask = log.columns["t"] >= t0
    return int(np.sum(log.columns["V_e"][mask] > v_bar_h + 1e-9))
