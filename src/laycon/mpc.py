"""Discrete-time battery-energy planner.

Poses the receding-horizon energy tracking problem (quadratic cost on the
battery state of charge, affine abstract dynamics, current/slew/
supercapacitor-coupling/SOC constraints) as a QP over the predicted SOC
path: the Euclidean projection of the goal onto a polytope whose rows have
at most 3 nonzeros. It applies the hold-previous-reference fallback when
the tightened problem is infeasible, and evaluates the planner-side ISS
certificate bounding how far persistent model mismatch can push the
closed loop off its goal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldValueError, NonNegative, Positive, PositiveInt, check_fields
from .hess import DERIVED, HessParams, battery_interface_bounds
from .numkit import UniformStream
from .qp import QpSolution, QpSolver, QpStatus


MAX_HORIZON = 1000  # planner steps; the QP workspace then holds about 21 N^2 floats, 170 MB


class AllInfeasibleError(RuntimeError):
    """No sampled state admitted a feasible plan."""


@dataclass(frozen=True)
class PlannerConfig:
    horizon: PositiveInt
    t_s: float = field(metadata=DERIVED)
    q_weight: Positive
    e_b_goal: float
    v_nom: float = field(metadata=DERIVED)
    i_b_bar: float = field(metadata=DERIVED)
    i_s_bar: float = field(metadata=DERIVED)
    e_b_range: tuple[float, float]
    e_s_range: tuple[float, float]
    slew_bound: float = field(metadata=DERIVED)
    lambda_b_energy: float = field(metadata=DERIVED)
    lambda_s: float = field(metadata=DERIVED)
    tighten_eps_e: NonNegative = 0.0

    def __post_init__(self):
        check_fields(self)
        if self.horizon > MAX_HORIZON:
            raise FieldValueError("horizon", f"horizon {self.horizon} above MAX_HORIZON {MAX_HORIZON}")
        # the QP bounds x = E_B - e_b_goal and E_S times gain_b / gain_s
        for name, scale in (("e_b_range", 1.0), ("e_s_range", self.lambda_b_energy / self.lambda_s)):
            lo, hi = getattr(self, name)
            if hi <= lo:
                raise FieldValueError(name, "SOC ranges must be nonempty intervals")
            if not np.isfinite((hi - lo) * scale):
                raise FieldValueError(name, f"width {hi - lo:g} times {scale:g} is not finite")
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
    def _bounds(self) -> tuple[np.ndarray, ...]:
        """The arrays of plan and build_qp that depend only on this config,
        built on first use: the zero cost gradient, the tightened battery
        corridor as bounds on x, the tightened supercapacitor corridor scaled
        by gain_b / gain_s, the slew band, and the coefficients of x_0 and
        u_0 in b. Every call shares them, so they are read-only."""
        N = self.horizon
        tighten = np.arange(1, N + 1, dtype=float) * self.tighten_eps_e
        (e_b_lo, e_b_hi), (e_s_lo, e_s_hi) = self.e_b_range, self.e_s_range
        ratio = self.gain_b / self.gain_s
        first, second = np.eye(1, N).ravel(), np.eye(1, N, 1).ravel()
        zero = np.zeros(N)
        terms = (
            zero,
            e_b_hi - tighten - self.e_b_goal, self.e_b_goal - e_b_lo - tighten,
            ratio * (e_s_lo + tighten), ratio * (e_s_hi - tighten),
            np.full(N, self.gain_b * self.slew_bound),
            np.concatenate([first, -first, first - second, second - first, zero, zero]),
            np.concatenate([zero, zero, first, -first, zero, zero]),
        )
        for a in terms:
            a.flags.writeable = False
        return terms


@dataclass(frozen=True)
class PlanResult:
    r_ib: float  # the battery current reference held over the period
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
    """The period-invariant part of the planner QP over the predicted SOC
    path x_j = E_B,j - e_b_goal (j = 1..N): H = 2qI and rows of at most 3
    nonzeros, which depend only on the horizon and the cost weight. Step
    j's current is u_j = (x_j - x_j-1) / gain_b, so the rows are a band on
    Delta x_j (current box and supercapacitor coverage), the slew band on
    Delta^2 x_j, and a box on x_j (battery and supercapacitor corridors)."""
    N = cfg.horizon
    eye = np.eye(N)
    step = eye - np.eye(N, k=-1)
    slew = step - np.eye(N, k=-1) + np.eye(N, k=-2)
    A_ineq = np.vstack([step, -step, slew, -slew, eye, -eye])
    return 2.0 * cfg.q_weight * eye, A_ineq


def build_qp(y_k, d_forecast, r_prev: float, cfg: PlannerConfig) -> np.ndarray:
    """The per-period part of the planner QP: the right-hand sides b_ineq of
    the rows of `qp_matrices`, in their order. The cost gradient is zero.

    The forecast load d enters through the supercapacitor, whose SOC is
    E_S,j = E_S - (gain_s / gain_b)(x_j - x_0) - gain_s (d_1 + ... + d_j),
    and its coverage |-u_j - d_j| <= i_s_bar. SOC rows for prediction step j
    are tightened by j * tighten_eps_e on both sides, so per-step mismatch
    cannot strand a nominally feasible plan inside the horizon. Where two
    rows bound the same x_j or Delta x_j, the tighter one is kept.
    """
    N = cfg.horizon
    d = np.asarray(d_forecast, dtype=float).reshape(-1)
    if d.shape[0] < N:
        raise ValueError(f"disturbance forecast shorter than horizon ({d.shape[0]} < {N})")
    d = d[:N]
    _, x_hi, x_lo_neg, e_s_lo, e_s_hi, slew, x_0, u_0 = cfg._bounds
    c_b = cfg.gain_b
    delta = float(y_k[0]) - cfg.e_b_goal
    cd = c_b * d
    # the x_j at which E_S,j would be zero
    empty = (delta + c_b / cfg.gain_s * float(y_k[1])) - np.cumsum(cd)
    i_b, i_s = c_b * cfg.i_b_bar, c_b * cfg.i_s_bar
    b_ineq = np.concatenate([
        np.minimum(i_b, i_s - cd), np.minimum(i_b, i_s + cd),
        slew, slew,
        np.minimum(x_hi, empty - e_s_lo), np.minimum(x_lo_neg, e_s_hi - empty),
    ])
    # x_0 = delta and u_0 = r_prev, moved from the first rows into b
    return b_ineq + (delta * x_0 + (c_b * r_prev) * u_0)


def plan(y_k, d_forecast, r_prev: float, cfg: PlannerConfig, solver: QpSolver) -> PlanResult:
    """Receding-horizon step: solve the planner QP and extract the first
    reference; on infeasibility hold the previous reference (a zero step,
    so the slew guarantee survives the fallback). The optimal value is
    V* = q |x*|^2, summed in step order. `solver` must be bound to
    `qp_matrices(cfg)`."""
    b_ineq = build_qp(y_k, d_forecast, r_prev, cfg)
    sol = solver.solve(cfg._bounds[0], b_ineq, max_iters=50 * max(cfg.horizon, 4))
    if sol.status is QpStatus.OPTIMAL:
        x = sol.x.tolist()
        r = (x[0] - (float(y_k[0]) - cfg.e_b_goal)) / cfg.gain_b
        value = cfg.q_weight * sum(x_j * x_j for x_j in x)
        return PlanResult(r_ib=r, V_N_star=value, fallback_used=False, qp=sol)
    return PlanResult(r_ib=r_prev, V_N_star=None, fallback_used=True, qp=sol)


class Planner:
    """Receding-horizon wrapper owning the held reference and QP workspace.

    The workspace is bound to `qp_matrices(cfg)` at construction, which
    depends only on the horizon and the cost weight, so a config swapped in
    later must keep those two. One planner per simulation; not shared
    across concurrent runs.
    """

    def __init__(self, cfg: PlannerConfig, r_init: float = 0.0):
        self.cfg = cfg
        self.solver = QpSolver(*qp_matrices(cfg))
        self.r_prev = r_init

    def step(self, y_k, d_forecast) -> PlanResult:
        result = plan(y_k, d_forecast, self.r_prev, self.cfg, self.solver)
        self.r_prev = result.r_ib
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
    difference quotient.
    """
    if sample_count < 2:
        raise ValueError("need at least two samples")
    rng = UniformStream(seed)
    solver = QpSolver(*qp_matrices(cfg))
    d_zero = np.zeros(cfg.horizon)
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
        v_y, v_y2 = (plan(z, d_zero, 0.0, cfg, solver).V_N_star for z in (y, y2))
        if v_y is None or v_y2 is None:
            continue
        ratio = abs(v_y2 - v_y) / gap
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
