"""Helpers shared by the tests, and the reference implementations that the
tests compare the package's optimized code against."""

import csv
import math
from dataclasses import astuple, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from laycon import cli
from laycon.erg import ErgConfig, GammaEvaluator
from laycon.hess import HessParams, LoadProfile, OutOfSpanError
from laycon.iss_cert import calibrate_overshoot, envelope_decay, iss_gain, noise_floor
from laycon.mpc import Planner, PlannerConfig, PlanResult
from laycon.numkit import SpdMatrix
from laycon.qp import QpSolution, QpSolver, QpStatus
from laycon.scenarios import RunBundle
from laycon.sim import NonFiniteStateError, TrajectoryLog


# governor gains for the tests that read only Gamma, which the gains do not change
GAINS = ErgConfig(kappa_erg=1.0, eta=0.5)


def bundle(doc: dict, overlay: dict | None = None) -> RunBundle:
    """The run bundle of a scenario document with overlay merged over it;
    the overlay replaces only the keys it names, as a --config file does."""
    return cli.load_bundle(cli._merge(doc, overlay or {}))


def _dump(obj) -> dict | None:
    """The serialised fields of a config dataclass, tuples as lists (and
    rows as lists of their field values)."""
    if obj is None:
        return None
    out = {}
    for name in cli._schema(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, tuple):
            value = [list(astuple(v)) if is_dataclass(v) else v for v in value]
        out[name] = value
    return out


def bundle_to_config(b: RunBundle) -> dict:
    """Serialise a run bundle back into its config document: the inverse of
    cli.load_bundle, so a document that loads must round-trip through it."""
    return {
        "scenario": b.name,
        "plant": _dump(b.plant),
        "lyapunov_weight": np.asarray(b.R).tolist(),
        "constraints": _dump(b.constraint_cfg),
        "erg": _dump(b.erg_cfg),
        "planner": _dump(b.planner_cfg),
        "contract": _dump(b.spec),
        "sim": _dump(b.sim),
        "load": _dump(b.load_profile),
        "certificates": _dump(b.cert),
    }


def read_trajectory_csv(path: Path) -> dict[str, np.ndarray]:
    """Parse a trajectory.csv back into one float array per column."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    data = np.array(rows)
    return {name: data[:, j] for j, name in enumerate(names)}


def rk4_step_reference(rhs, x, t: float, h: float) -> list[float]:
    """Classical 4-stage step on a float sequence of any length, with the
    stage sums taken per entry in the order x + (h/6) (k1 + 2 k2 + 2 k3 + k4).
    rhs takes the stage's entries as its arguments; t only dates a
    non-finite state."""
    half = 0.5 * h
    k1 = rhs(*x)
    k2 = rhs(*[a + half * k for a, k in zip(x, k1)])
    k3 = rhs(*[a + half * k for a, k in zip(x, k2)])
    k4 = rhs(*[a + h * k for a, k in zip(x, k3)])
    sixth = h / 6.0
    x_next = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
              for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, x_next)):
        raise NonFiniteStateError(f"non-finite state at t={t + h:.6f}: {x_next}")
    return x_next


def calibrated_overshoot_iterated(log: TrajectoryLog, lambda_e: float, norm_b: float,
                                  w_max: float) -> tuple[float, float]:
    """The hindsight overshoot by averaged fixed-point iteration: up to 80
    steps of m <- (m + F(m)) / 2 with F(m) the calibration at eps(m), then
    one final calibration pass."""
    norms = np.hypot(log.columns["e1"], log.columns["e2"])
    decay = envelope_decay(log.columns["t"], lambda_e)
    m = 1.0
    for _ in range(80):
        eps = noise_floor(iss_gain(m, norm_b, lambda_e), w_max)
        m_next = 0.5 * (m + calibrate_overshoot(norms, decay, eps, norms[0]))
        if abs(m_next - m) <= 1e-13:
            m = m_next
            break
        m = m_next
    eps = noise_floor(iss_gain(m, norm_b, lambda_e), w_max)
    return calibrate_overshoot(norms, decay, eps, norms[0]), eps


def gamma_iterated(gam: GammaEvaluator, v: float) -> float:
    """Gamma(v) by fixed-point iteration, the form the closed form replaced:
    seeded from the rows free of Gamma (from every row, its Gamma term
    dropped, when none is), then g <- min_i (b_i - a_i g)_+^2 / d_i until g
    stops changing, or repeats the value two steps back (a float two-cycle
    at the fixed point). It converges where 2 a_i sqrt(g / d_i) < 1."""
    terms = [(d0 - c_v * v, g_gamma, denom) for d0, c_v, g_gamma, denom in gam.rows]

    def level(margin, denom):
        return margin * margin / denom if margin > 0.0 else 0.0

    g = min(level(b, d) for b, a, d in [t for t in terms if t[1] == 0.0] or terms)
    before = None
    for _ in range(10_000):
        g_next = min(level(b - a * g, d) for b, a, d in terms)
        if g_next in (g, before):
            return g_next
        before, g = g, g_next
    raise AssertionError(f"the iteration did not settle at v = {v}")


def planar_level_reference(theta: float, P: SpdMatrix, R: SpdMatrix, B, H_max: float) -> float:
    """f(b) = a^2 b'Pb along b = (cos theta, sin theta), with the radius
    a = 2 |b'PB| H_max / (b'Rb), as numpy's matrix products."""
    b = np.array([math.cos(theta), math.sin(theta)])
    a = 2.0 * abs(b @ P.mat @ np.asarray(B, dtype=float)) * H_max / (b @ R.mat @ b)
    return float(a * a * (b @ P.mat @ b))


def level_search(P: SpdMatrix, R: SpdMatrix, B, H_max: float) -> tuple[float, float]:
    """(V_bar_h, theta_star) by the search the closed form replaced: the
    largest f on a 3600-point grid over [0, 2 pi), refined by golden-section
    search on the two grid steps around it until the bracket is below
    1e-12 rad (the search stopped at 1e-6 rad, which leaves f up to ~1e-9
    relative short of its maximum where f is sharply peaked)."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
    bs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    a = 2.0 * np.abs(bs @ P.mat @ np.asarray(B, dtype=float)) * H_max / np.einsum("ij,jk,ik->i", bs, R.mat, bs)
    k = int(np.argmax(a * a * np.einsum("ij,jk,ik->i", bs, P.mat, bs)))
    step = thetas[1] - thetas[0]
    lo, hi = thetas[k] - step, thetas[k] + step
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    f1, f2 = (planar_level_reference(x, P, R, B, H_max) for x in (x1, x2))
    while hi - lo > 1e-12:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = planar_level_reference(x2, P, R, B, H_max)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = planar_level_reference(x1, P, R, B, H_max)
    theta = 0.5 * (lo + hi)
    return planar_level_reference(theta, P, R, B, H_max), theta


def quad_reference(P: SpdMatrix, e) -> float:
    """Quadratic form e'Pe as numpy's matrix products, whose rounding the
    BLAS kernel sets."""
    e = np.asarray(e, dtype=float)
    return float(e @ P.mat @ e)


def quad_sum_reference(m, e):
    """e'Me for an n x n symmetric matrix M as the fixed-order sum that
    SpdMatrix.quad documents for n = 2: the diagonal terms m_ii e_i e_i,
    then (2 m_ij) e_i e_j for i < j row by row, each taken as (c e_i) e_j
    and summed left to right from 0.0. Like quad, it takes floats or arrays
    of one shape."""
    m = np.asarray(m, dtype=float).tolist()
    n = len(m)
    terms = [(m[i][i], i, i) for i in range(n)] + [
        (2.0 * m[i][j], i, j) for i in range(n) for j in range(i + 1, n)]
    acc = 0.0
    for c, i, j in terms:
        acc = acc + c * e[i] * e[j]
    return acc


def bilinear_sum_reference(m, e, f):
    """e'Mf for an n x n matrix M as the fixed-order sum that
    SpdMatrix.bilinear documents for n = 2: over rows i and then columns j
    of (m_ij e_i) f_j, summed left to right from 0.0."""
    acc = 0.0
    for e_i, row in zip(e, np.asarray(m, dtype=float).tolist()):
        for m_ij, f_j in zip(row, f):
            acc = acc + m_ij * e_i * f_j
    return acc


def solve_lyapunov_reference(A, R) -> np.ndarray:
    """P with A'P + PA = -R for an n x n Hurwitz A, from the n^2 x n^2
    Kronecker system (I kron A' + A' kron I) vec(P) = -vec(R), solved by
    LAPACK, whose rounding the BLAS kernel sets."""
    A, R = np.asarray(A, dtype=float), np.asarray(R, dtype=float)
    eye = np.eye(A.shape[0])
    P = np.linalg.solve(np.kron(eye, A.T) + np.kron(A.T, eye), -R.ravel()).reshape(A.shape)
    return 0.5 * (P + P.T)


def invert_spd_reference(P) -> np.ndarray:
    """The inverse of an n x n SPD matrix, solved by LAPACK."""
    P = np.asarray(P, dtype=float)
    inv = np.linalg.solve(P, np.eye(P.shape[0]))
    return 0.5 * (inv + inv.T)


def spd_extremes_reference(S) -> tuple[float, float]:
    """(lambda_min, lambda_max) of an n x n symmetric matrix, by LAPACK."""
    w = np.linalg.eigvalsh(S)
    return float(w[0]), float(w[-1])


def decay_rate_reference(A) -> float:
    """min over the eigenvalues of an n x n Hurwitz matrix of |Re|, by LAPACK."""
    return float(np.min(-np.linalg.eigvals(A).real))


def load_reference(t: float, profile: LoadProfile) -> tuple[float, float]:
    """Load value and exact derivative at one time, in scalar arithmetic."""
    t0, t1 = profile.t_span
    if t < t0 - 1e-12 or t > t1 + 1e-12:
        raise OutOfSpanError(f"t={t} outside load profile span [{t0}, {t1}]")
    t = min(max(t, t0), t1)
    seg = profile.segments[-1]
    for s in profile.segments:
        if t <= s.t_end:
            seg = s
            break
    if seg.kind == "constant":
        d, d_dot = seg.level_start, 0.0
    else:
        dur = seg.t_end - seg.t_start
        s_rel = (t - seg.t_start) / dur
        rise = seg.level_end - seg.level_start
        d = seg.level_start + rise * (3.0 * s_rel**2 - 2.0 * s_rel**3)
        d_dot = rise * 6.0 * (s_rel - s_rel**2) / dur
    if profile.osc_amplitude != 0.0:
        omega = 2.0 * np.pi * profile.osc_freq_hz
        d += profile.osc_amplitude * np.sin(omega * t)
        d_dot += profile.osc_amplitude * omega * np.cos(omega * t)
    return float(d), float(d_dot)


@dataclass(frozen=True)
class QpProblem:
    """min 1/2 x'Hx + g'x  s.t.  A_ineq x <= b_ineq (rowwise), as one record
    for `solve_qp`; `QpSolver` checks and symmetrizes the arrays."""

    H: np.ndarray
    g: np.ndarray
    A_ineq: np.ndarray
    b_ineq: np.ndarray

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.A_ineq.shape[0]


def solve_qp(p: QpProblem, max_iters: int = 200) -> QpSolution:
    """Solve one QP with a fresh (cold-started) solver."""
    return QpSolver(p.H, p.A_ineq).solve(p.g, p.b_ineq, max_iters)


# planner QPs that have no solution: one planner step per (q_weight,
# tighten_eps_e) of NO_PLAN_STEPS, and a scenario-B run overlaid with
# NO_PLAN_RUN, whose tightened SOC corridors close inside the horizon
NO_PLAN_STEPS = [(1e-4, 0.0), (1e-2, 0.02)]
NO_PLAN_RUN = {"sim": {"t_end": 1.0}, "planner": {"q_weight": 1e-4, "tighten_eps_e": 0.25}}


def no_plan_step(q_weight: float, tighten: float) -> PlanResult:
    """One planner step from E_S = -45, outside E_S's range (-40, 40), so
    that no plan exists, with 0.5 as the reference to hold."""
    cfg = PlannerConfig.from_hess(
        HessParams(), horizon=20, t_s=0.1, q_weight=q_weight, e_b_goal=5.0,
        e_b_range=(0.0, 5.0), e_s_range=(-40.0, 40.0), tighten_eps_e=tighten,
    )
    return Planner(cfg, r_init=0.5).step(np.array([0.0, -45.0]), np.zeros(cfg.horizon))


def planner_qp_reference(cfg: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The planner QP over the battery current sequence u, condensed through
    the prediction matrix S (lower triangle of ones): the dense Hessian
    2 q c_b^2 S'S and 10 blocks of N rows each, current box, slew,
    supercapacitor coverage and the four tightened SOC corridors."""
    N = cfg.horizon
    S = np.tril(np.ones((N, N)))
    c_b, c_s = cfg.gain_b, cfg.gain_s
    H = 2.0 * cfg.q_weight * c_b * c_b * (S.T @ S)
    eye = np.eye(N)
    D = eye - np.eye(N, k=-1)
    A_ineq = np.vstack([eye, -eye, D, -D, -eye, eye, c_b * S, -c_b * S, -c_s * S, c_s * S])
    return H, A_ineq


def plan_reference(y_k, d_forecast, r_prev: float, cfg: PlannerConfig,
                   solver: QpSolver) -> tuple[QpStatus, float | None, float | None]:
    """One planner step over u with `solver` bound to planner_qp_reference:
    (status, first current, V*), V* being the QP's objective plus the
    constant q N (E_B - goal)^2 that the condensation drops."""
    N = cfg.horizon
    d = np.asarray(d_forecast, dtype=float)[:N]
    S = np.tril(np.ones((N, N)))
    e_b0, e_s0 = float(y_k[0]), float(y_k[1])
    delta = e_b0 - cfg.e_b_goal
    tighten = np.arange(1, N + 1) * cfg.tighten_eps_e
    slew = np.full(N, cfg.slew_bound)
    sd = cfg.gain_s * (S @ d)
    g = 2.0 * cfg.q_weight * cfg.gain_b * delta * (S.T @ np.ones(N))
    b_ineq = np.concatenate([
        np.full(2 * N, cfg.i_b_bar),
        slew + np.eye(1, N).ravel() * r_prev, slew - np.eye(1, N).ravel() * r_prev,
        cfg.i_s_bar + d, cfg.i_s_bar - d,
        cfg.e_b_range[1] - tighten - e_b0, e_b0 - cfg.e_b_range[0] - tighten,
        cfg.e_s_range[1] - tighten - e_s0 + sd, e_s0 - cfg.e_s_range[0] - tighten - sd,
    ])
    sol = solver.solve(g, b_ineq, max_iters=50 * max(N, 4))
    if sol.status is not QpStatus.OPTIMAL:
        return sol.status, None, None
    return sol.status, float(sol.x[0]), max(0.0, sol.objective + cfg.q_weight * N * delta**2)
