"""Dense convex QP solver for the planner.

Solves min 1/2 x'Hx + g'x subject to A x <= b with H symmetric positive
definite, by the dual active-set method of Goldfarb and Idnani: start from
a dual-feasible point, repeatedly pick the most violated row, and take
primal/dual steps that keep the working-set multipliers nonnegative.

A `QpSolver` is a workspace bound to one (H, A) and solved for a sequence
of (g, b) (the receding-horizon planner re-solves the same condensed QP
with a new g and b every period). It factors (H, A) once, at
construction; each working-set change then costs a Gram matrix of cached
columns and one small solve. Each solve is
hot-started from the previous optimal active set, in the spirit of the
online active-set strategy of qpOASES: the equality-constrained problem on
that set is solved and negative multipliers are dropped until the start is
dual feasible. An empty start set is the classical cold start.

One dependence test, Goldfarb and Idnani's, serves the whole solver: a row
whose squared sine to the working set (H^-1 metric) is at most `_SIN2_MIN`
gets a pure dual step. That step drops a blocking row, or else proves the
problem INFEASIBLE (a Farkas certificate: the row is a nonnegative
combination of active rows with no compatible bound). So no dependent
working set forms, and the fallback reads the same status on every kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITER_LIMIT = "iter_limit"
    RANK_DEFICIENT = "rank_deficient"  # guard: a working-set solve raised LinAlgError


_SIN2_MIN = 1e-12  # a row at or below this squared sine to a set depends on it


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
    """QP workspace bound to one (H, A_ineq), for one caller's sequence of
    problems that differ only in (g, b_ineq): a planner's periods, a
    Lipschitz estimate's samples. Not shared across threads.

    The constructor checks the shapes, symmetrizes H, keeps its own copies
    and caches Y = L^-1 A' (the rows of A in the H^-1 metric, H = LL'),
    their squared norms, H^-1 and H^-1 A'. `last_active_set` is the active
    set of the last optimal solve; the next solve starts from it, ignoring
    indices that are not rows of A_ineq.
    """

    def __init__(self, H, A_ineq):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        n = H.shape[0]
        A = np.atleast_2d(np.array(A_ineq, dtype=float))
        if A.size == 0:
            A = np.zeros((0, n))
        if H.shape != (n, n) or A.ndim != 2 or A.shape[1] != n:
            raise ValueError("H must be square and A_ineq must have one column per variable")
        self._H = 0.5 * (H + H.T)
        self._A = A
        try:
            L = np.linalg.cholesky(self._H)
        except np.linalg.LinAlgError as exc:
            raise ValueError("cost Hessian must be symmetric positive definite") from exc
        L_inv = np.linalg.inv(L)
        self._Y = L_inv @ A.T
        self._Y_sq = np.einsum("ij,ij->j", self._Y, self._Y)
        self._H_inv = L_inv.T @ L_inv
        self._H_inv_At = L_inv.T @ self._Y
        self.last_active_set: tuple[int, ...] = ()

    def solve(self, g, b_ineq, max_iters: int = 200) -> QpSolution:
        g = np.asarray(g, dtype=float).reshape(-1)
        b = np.asarray(b_ineq, dtype=float).reshape(-1)
        m, n = self._A.shape
        if g.shape[0] != n or b.shape[0] != m:
            raise ValueError(f"g must have length {n} and b_ineq length {m}")
        start = sorted({i for i in self.last_active_set if 0 <= i < m})
        sol = _dual_active_set(self, g, b, start, max_iters)
        if sol.status is QpStatus.OPTIMAL:
            self.last_active_set = sol.active_set
        return sol


def _hot_start(ws: QpSolver, g, b, work: list[int]):
    """Dual-feasible start on the rows `work`: the minimizer with those rows
    held at equality, dropping the most negative multiplier until none is
    negative. A start set whose rows are numerically dependent is replaced
    by the empty set. Returns (x, work, u, drops)."""
    x = -ws._H_inv @ g
    drops = 0
    while work:
        Y_w = ws._Y[:, work]
        B = Y_w.T @ Y_w
        if not drops and not _independent(B):
            break  # start cold; a subset of an independent set needs no test
        u = np.linalg.solve(B, ws._A[work] @ x - b[work])
        k = int(np.argmin(u))
        if u[k] >= 0.0:
            return x - ws._H_inv_At[:, work] @ u, work, u.tolist(), drops
        work.pop(k)
        drops += 1
    return x, [], [], drops


def _dual_active_set(ws: QpSolver, g, b, start: list[int], max_iters: int) -> QpSolution:
    A, m = ws._A, ws._A.shape[0]
    Y, Y_sq, H_inv_At = ws._Y, ws._Y_sq, ws._H_inv_At
    x, work, u, iters = _hot_start(ws, g, b, start)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 0.0)
    tol_violation = 1e-10 * scale

    def directions(idx):
        """Primal/dual step directions for bringing row idx into the set:
        one solve with the working-set Gram matrix, which the dependence
        test keeps independent. Returns None if the solve still finds it
        singular; the caller then stops with RANK_DEFICIENT."""
        h_inv_a = H_inv_At[:, idx]
        if not work:
            return h_inv_a, np.zeros(0)
        Y_w = Y[:, work]
        try:  # Gram matrix of the working set in the H^-1 metric
            r = np.linalg.solve(Y_w.T @ Y_w, Y_w.T @ Y[:, idx])
        except np.linalg.LinAlgError:
            return None
        return h_inv_a - H_inv_At[:, work] @ r, r

    while iters < max_iters:
        iters += 1
        violations = A @ x - b if m else np.zeros(0)
        violations[work] = -np.inf  # active rows hold with equality
        if m == 0 or np.max(violations) <= tol_violation:
            return _finish(ws, g, x, work, u, QpStatus.OPTIMAL, iters)
        idx = int(np.argmax(violations))
        a_new = A[idx]
        u_new = 0.0

        while iters < max_iters:
            step = directions(idx)
            if step is None:
                return _finish(ws, g, x, work, u, QpStatus.RANK_DEFICIENT, iters)
            z, r = step
            # dual blocking step: first active multiplier driven to zero
            t1, k_drop = np.inf, -1
            for j, rj in enumerate(r):
                if rj > 1e-12 and u[j] / rj < t1:
                    t1, k_drop = u[j] / rj, j
            # z'a = sin^2 * |L^-1 a|^2: a dependent row takes a pure dual step
            zta = float(z @ a_new)
            t2 = (float(a_new @ x) - b[idx]) / zta if zta > _SIN2_MIN * Y_sq[idx] else np.inf
            t = min(t1, t2)
            if not np.isfinite(t):
                # violated row is a nonnegative combination of active rows:
                # no point can satisfy them jointly (Farkas certificate)
                return _finish(ws, g, x, work, u, QpStatus.INFEASIBLE, iters)
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
    return _finish(ws, g, x, work, u, QpStatus.ITER_LIMIT, iters)


def _independent(B: np.ndarray) -> bool:
    """Whether the columns with Gram matrix B are numerically independent:
    each Cholesky pivot keeps more than _SIN2_MIN of its column's squared
    norm (the squared sine of its angle to the columns before)."""
    try:
        Lb = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.diag(Lb) ** 2 > _SIN2_MIN * np.diag(B)))


def _finish(ws, g, x, work, u, status, iters):
    H, A = ws._H, ws._A
    lam = np.zeros(A.shape[0])
    lam[work] = u
    stationarity = H @ x + g + A.T @ lam if A.shape[0] else H @ x + g
    kkt = float(np.max(np.abs(stationarity))) if stationarity.size else 0.0
    obj = float(0.5 * x @ H @ x + g @ x)
    return QpSolution(
        x=x,
        objective=obj,
        status=status,
        active_set=tuple(sorted(work)),
        kkt_residual=kkt,
        lam=lam,
        iterations=iters,
    )
