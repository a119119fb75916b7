"""Dense convex QP solver for the planner.

Solves min 1/2 x'Hx + g'x subject to A x <= b with H symmetric positive
definite, by the dual active-set method of Goldfarb and Idnani: start from
a dual-feasible point, repeatedly pick the most violated row, and take
primal/dual steps that keep the working-set multipliers nonnegative.

A `QpSolver` is a workspace for a sequence of problems that share H and
A (the receding-horizon planner re-solves the same condensed QP with a new
g and b every period). It factors (H, A) once and refactors only when a
problem's H or A differs in value; each working-set change then costs a
Gram matrix of cached columns and one small solve. Each solve is
hot-started from the previous optimal active set, in the spirit of the
online active-set strategy of qpOASES: the equality-constrained problem on
that set is solved and negative multipliers are dropped until the start is
dual feasible. An empty start set is the classical cold start.

Infeasibility is a first-class status, detected when a violated row is a
nonnegative combination of active rows with no compatible bound (a Farkas
certificate), so the planner's fallback can trigger without exceptions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITER_LIMIT = "iter_limit"


@dataclass(frozen=True)
class QpProblem:
    """min 1/2 x'Hx + g'x  s.t.  A_ineq x <= b_ineq (rowwise)."""

    H: np.ndarray
    g: np.ndarray
    A_ineq: np.ndarray
    b_ineq: np.ndarray

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        g = np.asarray(self.g, dtype=float).reshape(-1)
        A = np.asarray(self.A_ineq, dtype=float).reshape(-1, H.shape[0]) if np.size(self.A_ineq) else np.zeros((0, H.shape[0]))
        b = np.asarray(self.b_ineq, dtype=float).reshape(-1)
        if H.shape[0] != H.shape[1] or H.shape[0] != g.shape[0]:
            raise ValueError("H must be square and match g")
        if A.shape[0] != b.shape[0]:
            raise ValueError("A_ineq row count must match b_ineq length")
        H = 0.5 * (H + H.T)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "A_ineq", A)
        object.__setattr__(self, "b_ineq", b)

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.A_ineq.shape[0]


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    objective: float
    status: QpStatus
    active_set: tuple[int, ...]
    kkt_residual: float
    lam: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0


class QpSolver:
    """QP workspace for one caller's sequence of problems (a planner's
    periods, a Lipschitz estimate's samples); not shared across threads.

    Keeps the factors of the last (H, A_ineq) it saw and refactors only when
    a problem's H or A_ineq differs in value. `last_active_set` is the
    active set of the last optimal solve; the next solve starts from it,
    ignoring indices that are not rows of the new problem.
    """

    def __init__(self):
        self.last_active_set: tuple[int, ...] = ()
        self._H: np.ndarray | None = None
        self._A: np.ndarray | None = None

    def solve(self, p: QpProblem, max_iters: int = 200) -> QpSolution:
        self._factor(p)
        start = sorted({i for i in self.last_active_set if 0 <= i < p.m})
        sol = _dual_active_set(p, self, start, max_iters)
        if sol.status is QpStatus.OPTIMAL:
            self.last_active_set = sol.active_set
        return sol

    def _factor(self, p: QpProblem) -> None:
        """Cache Y = L^-1 A' (the rows of A in the H^-1 metric, H = LL'),
        H^-1 and H^-1 A' for the problem's (H, A_ineq)."""
        if self._H is not None and np.array_equal(p.H, self._H) and np.array_equal(p.A_ineq, self._A):
            return
        try:
            L = np.linalg.cholesky(p.H)
        except np.linalg.LinAlgError as exc:
            raise ValueError("cost Hessian must be symmetric positive definite") from exc
        L_inv = np.linalg.inv(L)
        self._Y = L_inv @ p.A_ineq.T
        self._H_inv = L_inv.T @ L_inv
        self._H_inv_At = L_inv.T @ self._Y
        self._H, self._A = p.H.copy(), p.A_ineq.copy()


def _hot_start(p: QpProblem, ws: QpSolver, work: list[int]):
    """Dual-feasible start on the rows `work`: the minimizer with those rows
    held at equality, dropping the most negative multiplier until none is
    negative. A start set whose rows are numerically dependent is replaced
    by the empty set. Returns (x, work, u, drops)."""
    x = -ws._H_inv @ p.g
    if work and not _independent(ws._Y[:, work]):
        work = []
    drops = 0
    while work:
        Y_w = ws._Y[:, work]
        u = np.linalg.solve(Y_w.T @ Y_w, p.A_ineq[work] @ x - p.b_ineq[work])
        k = int(np.argmin(u))
        if u[k] >= 0.0:
            return x - ws._H_inv_At[:, work] @ u, work, u.tolist(), drops
        work.pop(k)
        drops += 1
    return x, [], [], drops


def _dual_active_set(p: QpProblem, ws: QpSolver, start: list[int], max_iters: int) -> QpSolution:
    A, b = p.A_ineq, p.b_ineq
    Y, H_inv_At = ws._Y, ws._H_inv_At
    x, work, u, iters = _hot_start(p, ws, start)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 0.0)
    tol_violation = 1e-10 * scale

    def directions(idx):
        """Primal/dual step directions for bringing row idx into the set.
        Returns None when the working-set Gram matrix has gone numerically
        rank-deficient; the caller stalls out with a status rather than an
        exception."""
        h_inv_a = H_inv_At[:, idx]
        if not work:
            return h_inv_a, np.zeros(0)
        Y_w = Y[:, work]
        B = Y_w.T @ Y_w  # working-set Gram matrix in the H^-1 metric
        try:
            np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            return None
        r = np.linalg.solve(B, Y_w.T @ Y[:, idx])
        return h_inv_a - H_inv_At[:, work] @ r, r

    while iters < max_iters:
        iters += 1
        violations = A @ x - b if p.m else np.zeros(0)
        if work:
            violations = violations.copy()
            violations[work] = -np.inf  # active rows hold with equality
        if p.m == 0 or np.max(violations) <= tol_violation:
            return _finish(p, x, work, u, QpStatus.OPTIMAL, iters)
        idx = int(np.argmax(violations))
        a_new = A[idx]
        u_new = 0.0

        while iters < max_iters:
            step = directions(idx)
            if step is None:
                return _finish(p, x, work, u, QpStatus.ITER_LIMIT, iters)
            z, r = step
            # dual blocking step: first active multiplier driven to zero
            t1, k_drop = np.inf, -1
            for j, rj in enumerate(r):
                if rj > 1e-12 and u[j] / rj < t1:
                    t1, k_drop = u[j] / rj, j
            zta = float(z @ a_new)
            if zta > 1e-12 * max(1.0, float(a_new @ a_new)):
                t2 = (float(a_new @ x) - b[idx]) / zta
            else:
                t2 = np.inf
            t = min(t1, t2)
            if not np.isfinite(t):
                # violated row is a nonnegative combination of active rows:
                # no point can satisfy them jointly (Farkas certificate)
                return _finish(p, x, work, u, QpStatus.INFEASIBLE, iters)
            if np.isfinite(t2):
                x = x - t * z
            u = [uj - t * rj for uj, rj in zip(u, r)]
            u_new += t
            if t == t2:
                work.append(idx)
                u.append(u_new)
                break
            work.pop(k_drop)
            u.pop(k_drop)
            iters += 1
    return _finish(p, x, work, u, QpStatus.ITER_LIMIT, iters)


def _independent(Y_w: np.ndarray) -> bool:
    """Whether the columns of Y_w are numerically independent: each Cholesky
    pivot of their Gram matrix keeps more than 1e-12 of its column's squared
    norm (the squared sine of its angle to the span of the columns before)."""
    B = Y_w.T @ Y_w
    try:
        Lb = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.diag(Lb) ** 2 > 1e-12 * np.diag(B)))


def _finish(p, x, work, u, status, iters):
    lam = np.zeros(p.m)
    for j, idx in enumerate(work):
        lam[idx] = u[j]
    stationarity = p.H @ x + p.g + p.A_ineq.T @ lam if p.m else p.H @ x + p.g
    kkt = float(np.max(np.abs(stationarity))) if stationarity.size else 0.0
    obj = float(0.5 * x @ p.H @ x + p.g @ x)
    return QpSolution(
        x=x,
        objective=obj,
        status=status,
        active_set=tuple(sorted(work)),
        kkt_residual=kkt,
        lam=lam,
        iterations=iters,
    )


def solve_qp(p: QpProblem, max_iters: int = 200, solver: QpSolver | None = None) -> QpSolution:
    """Solve a strictly convex inequality-constrained QP. Never raises for
    infeasible or stalled problems; inspect QpSolution.status."""
    return (solver or QpSolver()).solve(p, max_iters)


def feasibility_check(p: QpProblem, max_iters: int = 200) -> bool:
    """True iff some x satisfies every inequality (within 1e-8).

    Runs the same active-set machinery on the least-norm-point problem
    min 1/2 ||x||^2 over the constraint set; only the status matters.
    """
    if p.m == 0:
        return True
    probe = QpProblem(np.eye(p.n), np.zeros(p.n), p.A_ineq, p.b_ineq)
    sol = solve_qp(probe, max_iters)
    if sol.status is QpStatus.INFEASIBLE:
        return False
    return bool(np.max(p.A_ineq @ sol.x - p.b_ineq) <= 1e-8)
