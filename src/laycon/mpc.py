"""Discrete-time battery-energy planner.

Condenses the receding-horizon energy tracking problem (quadratic cost on
the battery state of charge, affine abstract dynamics, current/slew/
supercapacitor-coupling/SOC constraints) into a dense QP over the battery
current sequence, applies the hold-previous-reference fallback when the
tightened problem is infeasible, and evaluates the planner-side ISS
certificate bounding how far persistent model mismatch can push the
closed loop off its goal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldValueError
from .hess import DERIVED, HessParams, battery_interface_bounds
from .qp import QpSolution, QpSolver, QpStatus


class AllInfeasibleError(RuntimeError):
    """No sampled state admitted a feasible plan."""


@dataclass(frozen=True)
class PlannerConfig:
    horizon: int
    t_s: float = field(metadata=DERIVED)
    q_weight: float
    e_b_goal: float
    v_nom: float = field(metadata=DERIVED)
    i_b_bar: float = field(metadata=DERIVED)
    i_s_bar: float = field(metadata=DERIVED)
    e_b_range: tuple[float, float]
    e_s_range: tuple[float, float]
    slew_bound: float = field(metadata=DERIVED)
    lambda_b_energy: float = field(metadata=DERIVED)
    lambda_s: float = field(metadata=DERIVED)
    tighten_eps_e: float = 0.0

    def __post_init__(self):
        if self.horizon < 1:
            raise FieldValueError("horizon", "horizon must be at least one step")
        # t_s and slew_bound are derived from other sections, so their check
        # names only this one
        if self.t_s <= 0.0 or self.slew_bound <= 0.0:
            raise ValueError("t_s and slew_bound must be positive")
        for name in ("q_weight", "tighten_eps_e"):
            if getattr(self, name) < 0.0:
                raise FieldValueError(name, f"{name} must be nonnegative")
        for name in ("e_b_range", "e_s_range"):
            lo, hi = getattr(self, name)
            if hi <= lo:
                raise FieldValueError(name, "SOC ranges must be nonempty intervals")
        if not self.e_b_range[0] <= self.e_b_goal <= self.e_b_range[1]:
            raise FieldValueError("e_b_goal", f"e_b_goal {self.e_b_goal} must lie within e_b_range {self.e_b_range}")

    @classmethod
    def from_hess(cls, p: HessParams, t_s: float, **settings) -> "PlannerConfig":
        """Copy the plant constants and derive the slew bound from the battery
        loop's per-period capacity; `settings` are the remaining fields."""
        slew, _ = battery_interface_bounds(p, t_s)
        return cls(
            t_s=t_s, v_nom=p.v_nom, i_b_bar=p.i_b_bar, i_s_bar=p.i_s_bar,
            slew_bound=slew, lambda_b_energy=p.lambda_b_energy, lambda_s=p.lambda_s,
            **settings,
        )

    @property
    def gain_b(self) -> float:
        """Battery energy gained per unit current over one period."""
        return self.t_s * self.lambda_b_energy * self.v_nom

    @property
    def gain_s(self) -> float:
        return self.t_s * self.lambda_s * self.v_nom

    @functools.cached_property
    def _rhs_terms(self) -> tuple[np.ndarray, ...]:
        """The arrays of build_qp that depend only on this config, built on
        first use: the prediction matrix S, its column sums, the SOC
        tightening, the constant current and slew blocks, and the upper SOC
        bounds less the tightening. Every call shares them, so they are
        read-only."""
        N = self.horizon
        S = np.tril(np.ones((N, N)))
        tighten = np.arange(1, N + 1, dtype=float) * self.tighten_eps_e
        terms = (
            S, S.T @ np.ones(N), tighten,
            np.full(N, self.i_b_bar), np.full(N, self.slew_bound), np.full(N, self.i_s_bar),
            self.e_b_range[1] - tighten, self.e_s_range[1] - tighten,
        )
        for a in terms:
            a.flags.writeable = False
        return terms


@dataclass(frozen=True)
class PlanResult:
    r_k: tuple[float, float]  # (voltage target, battery current reference)
    V_N_star: float | None
    fallback_used: bool
    qp: QpSolution  # the period's QP: status, iterations, active set, KKT residual


def abstract_step(y_hat, i_b_ref: float, d_hat: float, cfg: PlannerConfig) -> np.ndarray:
    """One step of the planner's abstract energy model: the bus is taken as
    regulated at V_nom, so the supercapacitor absorbs -I_B - d."""
    e_b, e_s = float(y_hat[0]), float(y_hat[1])
    return np.array([
        e_b + cfg.gain_b * i_b_ref,
        e_s + cfg.gain_s * (-i_b_ref - d_hat),
    ])


def qp_matrices(cfg: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The period-invariant part of the condensed QP: the cost Hessian H and
    the constraint rows A_ineq over the battery current sequence. They
    depend only on the horizon, the cost weight and the two energy gains."""
    if cfg.q_weight <= 0.0:
        raise ValueError("condensed cost requires q_weight > 0")
    N = cfg.horizon
    S = np.tril(np.ones((N, N)))
    c_b, c_s = cfg.gain_b, cfg.gain_s
    H = 2.0 * cfg.q_weight * c_b * c_b * (S.T @ S)
    eye = np.eye(N)
    # slew: first step against the held reference, then consecutive steps
    D = eye - np.diag(np.ones(N - 1), -1) if N > 1 else eye
    A_ineq = np.vstack([
        eye, -eye,  # battery current box
        D, -D,  # slew
        -eye, eye,  # supercapacitor coverage of the bus balance: |-u - d| <= i_s_bar
        c_b * S, -c_b * S, -c_s * S, c_s * S,  # tightened SOC corridors
    ])
    return H, A_ineq


def build_qp(y_k, d_forecast, r_prev: float, cfg: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The per-period part of the condensed QP: the cost gradient g and the
    right-hand sides b_ineq of the rows of `qp_matrices`, in their order.

    SOC rows for prediction step j are tightened by j * tighten_eps_e on
    both sides, so per-step mismatch cannot strand a nominally feasible
    plan inside the horizon.
    """
    N = cfg.horizon
    d = np.asarray(d_forecast, dtype=float).reshape(-1)
    if d.shape[0] < N:
        raise ValueError(f"disturbance forecast shorter than horizon ({d.shape[0]} < {N})")
    d = d[:N]
    e_b0, e_s0 = float(y_k[0]), float(y_k[1])
    S, col_sums, tighten, i_b_rhs, slew, i_s_rhs, e_b_hi, e_s_hi = cfg._rhs_terms
    c_s = cfg.gain_s
    delta = e_b0 - cfg.e_b_goal

    g = 2.0 * cfg.q_weight * cfg.gain_b * delta * col_sums

    slew_rhs = slew.copy()
    slew_rhs[0] += r_prev
    slew_rhs_neg = slew.copy()
    slew_rhs_neg[0] -= r_prev
    sd = S @ d
    b_ineq = np.concatenate([
        i_b_rhs, i_b_rhs,
        slew_rhs, slew_rhs_neg,
        i_s_rhs + d, i_s_rhs - d,
        e_b_hi - e_b0,
        e_b0 - cfg.e_b_range[0] - tighten,
        e_s_hi - e_s0 + c_s * sd,
        e_s0 - cfg.e_s_range[0] - tighten - c_s * sd,
    ])
    return g, b_ineq


def plan(y_k, d_forecast, r_prev: float, cfg: PlannerConfig, solver: QpSolver) -> PlanResult:
    """Receding-horizon step: solve the condensed QP and extract the first
    reference; on infeasibility hold the previous reference (a zero step,
    so the slew guarantee survives the fallback). `solver` must be bound to
    `qp_matrices(cfg)`."""
    g, b_ineq = build_qp(y_k, d_forecast, r_prev, cfg)
    sol = solver.solve(g, b_ineq, max_iters=50 * max(cfg.horizon, 4))
    if sol.status is QpStatus.OPTIMAL:
        offset = cfg.q_weight * cfg.horizon * (float(y_k[0]) - cfg.e_b_goal) ** 2
        value = max(0.0, sol.objective + offset)
        return PlanResult(r_k=(cfg.v_nom, float(sol.x[0])), V_N_star=value, fallback_used=False, qp=sol)
    return PlanResult(r_k=(cfg.v_nom, r_prev), V_N_star=None, fallback_used=True, qp=sol)


class Planner:
    """Receding-horizon wrapper owning the held reference and QP workspace.

    The workspace is bound to `qp_matrices(cfg)` at construction, so a
    config swapped in later must keep the horizon, cost weight and gains.
    One planner per simulation; not shared across concurrent runs.
    """

    def __init__(self, cfg: PlannerConfig, r_init: float = 0.0):
        self.cfg = cfg
        self.solver = QpSolver(*qp_matrices(cfg))
        self.r_prev = r_init

    def step(self, y_k, d_forecast) -> PlanResult:
        result = plan(y_k, d_forecast, self.r_prev, self.cfg, self.solver)
        self.r_prev = result.r_k[1]
        return result


def planner_iss_bound(lambda_min_P: float, lambda_max_P: float, L_V: float, lambda_min_Q: float,
                      eps_e: float) -> float:
    """Ultimate goal-tracking radius induced by per-step mismatch eps_e:
    sqrt((lambda_max_P / lambda_min_P) * (L_V / lambda_min_Q) * eps_e), for
    the value-function sandwich lambda_min_P |E_B - goal|^2 <= V* <=
    lambda_max_P |E_B - goal|^2 and the descent coefficients L_V and
    lambda_min_Q (checked where the config is read)."""
    if eps_e < 0.0:
        raise ValueError("eps_e must be nonnegative")
    return float(np.sqrt((lambda_max_P / lambda_min_P) * (L_V / lambda_min_Q) * eps_e))


def estimate_lipschitz(
    cfg: PlannerConfig,
    sample_count: int,
    sample_radius: float,
    seed: int = 0,
) -> float:
    """Empirical lower estimate of the value function's Lipschitz constant.

    Samples state pairs within sample_radius uniformly from the SOC box
    (seeded, so repeated runs agree) and takes the steepest observed
    difference quotient. Zero cost weight short-circuits to zero: the
    value function is then constant.
    """
    if sample_count < 2:
        raise ValueError("need at least two samples")
    if cfg.q_weight == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    solver = QpSolver(*qp_matrices(cfg))
    d_zero = np.zeros(cfg.horizon)

    def value(y):
        res = plan(y, d_zero, 0.0, cfg, solver)
        return res.V_N_star

    best = None
    for _ in range(sample_count):
        y = np.array([
            rng.uniform(*cfg.e_b_range),
            rng.uniform(*cfg.e_s_range),
        ])
        step = rng.uniform(-sample_radius, sample_radius, size=2) / np.sqrt(2.0)
        y2 = np.clip(y + step, [cfg.e_b_range[0], cfg.e_s_range[0]], [cfg.e_b_range[1], cfg.e_s_range[1]])
        gap = float(np.linalg.norm(y2 - y))
        if gap < 1e-9:
            continue
        v1, v2 = value(y), value(y2)
        if v1 is None or v2 is None:
            continue
        ratio = abs(v2 - v1) / gap
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise AllInfeasibleError("no sampled state pair was feasible")
    return float(best)


def descent_check(traj, lambda_min_Q: float, L_V: float, eps_e: float, e_b_goal: float,
                  tol: float = 1e-9):
    """Per-step monitor of the planner's dissipation inequality:
    V*(y+) - V*(y) <= -lambda_min_Q |E_B - goal|^2 + L_V eps_e.
    Failures are reported, not raised; callers log them."""
    traj = list(traj)
    verdicts = []
    for (y_k, v_k), (_, v_next) in zip(traj, traj[1:]):
        if v_k is None or v_next is None:
            raise ValueError("descent check requires consecutive optimal values (no fallback steps)")
        dist2 = (float(y_k[0]) - e_b_goal) ** 2
        verdicts.append(bool(v_next - v_k <= -lambda_min_Q * dist2 + L_V * eps_e + tol))
    return verdicts
