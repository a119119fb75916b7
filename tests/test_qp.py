import itertools

import numpy as np
import pytest
from helpers import QpProblem, solve_qp

from laycon.qp import QpSolver, QpStatus


def brute_force_qp(p: QpProblem):
    """Exhaustive active-set enumeration oracle: solve the KKT system for
    every subset of rows, keep primal/dual feasible candidates, return the
    best objective (or None when no subset yields a feasible point)."""
    n, m = p.n, p.m
    best = None
    for k in range(min(m, n) + 1):
        for subset in itertools.combinations(range(m), k):
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
            x, lam = sol[:n], sol[n:]
            if np.any(lam < -1e-9):
                continue
            if m and np.max(p.A_ineq @ x - p.b_ineq) > 1e-8:
                continue
            obj = float(0.5 * x @ p.H @ x + p.g @ x)
            if best is None or obj < best[0]:
                best = (obj, x)
    return best


def random_problem(rng, n=4, m=6, force_infeasible=False):
    L = rng.standard_normal((n, n))
    H = L @ L.T + 0.5 * np.eye(n)
    g = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m) + 1.0
    if force_infeasible:
        A[1] = -A[0]
        b[0] = rng.uniform(-1.0, 0.0)
        b[1] = -b[0] - rng.uniform(0.5, 2.0)  # a'x <= b0 and a'x >= b0 + gap
    return QpProblem(H, g, A, b)


class TestSolveQp:
    def test_unconstrained(self):
        H = np.diag([2.0, 4.0])
        g = np.array([-2.0, -8.0])
        sol = solve_qp(QpProblem(H, g, np.zeros((0, 2)), np.zeros(0)))
        assert sol.status is QpStatus.OPTIMAL
        assert np.allclose(sol.x, np.linalg.solve(H, -g))
        assert sol.active_set == ()

    def test_scalar_clamp(self):
        # min (x-3)^2 s.t. x <= 1
        sol = solve_qp(QpProblem(np.array([[2.0]]), np.array([-6.0]), np.array([[1.0]]), np.array([1.0])))
        assert sol.status is QpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.active_set == (0,)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        n_optimal = n_infeasible = 0
        for i in range(150):
            p = random_problem(rng, force_infeasible=(i % 5 == 4))
            sol = solve_qp(p, max_iters=300)
            ref = brute_force_qp(p)
            if sol.status is QpStatus.OPTIMAL:
                assert ref is not None
                assert sol.objective == pytest.approx(ref[0], abs=1e-6)
                n_optimal += 1
            else:
                assert sol.status is QpStatus.INFEASIBLE
                assert ref is None
                n_infeasible += 1
        assert n_optimal >= 100
        assert n_infeasible >= 20

    def test_kkt_certificates_on_optimal(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = random_problem(rng)
            sol = solve_qp(p, max_iters=300)
            if sol.status is not QpStatus.OPTIMAL:
                continue
            assert sol.kkt_residual <= 1e-7
            assert np.all(sol.lam >= -1e-9)
            assert np.max(p.A_ineq @ sol.x - p.b_ineq) <= 1e-8
            # complementarity: inactive rows carry zero multiplier
            slack = p.b_ineq - p.A_ineq @ sol.x
            assert np.all(sol.lam[slack > 1e-6] <= 1e-9)

    def test_scaling_invariance_of_minimizer(self):
        # the dependence test is relative to each row's norm in the H^-1
        # metric, so a row as short as 1e-7 still enters the working set
        rng = np.random.default_rng(3)
        p = random_problem(rng)
        for c in (1e-7, 0.1, 2.0, 50.0):
            for scaled in (QpProblem(c * p.H, c * p.g, p.A_ineq, p.b_ineq),
                           QpProblem(p.H, p.g, c * p.A_ineq, c * p.b_ineq)):
                assert np.allclose(solve_qp(scaled).x, solve_qp(p).x, atol=1e-8)

    def test_non_binding_row_is_inert(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng)
        sol = solve_qp(p)
        assert sol.status is QpStatus.OPTIMAL
        loose_row = np.ones(p.n)
        loose_b = float(loose_row @ sol.x) + 10.0
        augmented = QpProblem(p.H, p.g, np.vstack([p.A_ineq, loose_row]), np.append(p.b_ineq, loose_b))
        assert np.allclose(solve_qp(augmented).x, sol.x, atol=1e-8)

    def test_solver_instance_tracks_active_set(self):
        solver = QpSolver(np.array([[2.0]]), np.array([[1.0]]))
        solver.solve(np.array([-6.0]), np.array([1.0]))
        assert solver.last_active_set == (0,)


class TestQpWorkspace:
    """One QpSolver reused across problems must agree with fresh solves."""

    def test_reuse_across_shared_h_and_a(self):
        rng = np.random.default_rng(21)
        base = random_problem(rng, n=6, m=14, force_infeasible=True)  # rows 0 and 1 opposed
        solver = QpSolver(base.H, base.A_ineq)
        n_optimal = n_infeasible = warm_iters = cold_iters = 0
        for i in range(120):
            g = base.g + 0.3 * rng.standard_normal(base.n)
            b = base.b_ineq + 0.1 * rng.standard_normal(base.m)
            gap = rng.uniform(0.5, 2.0)
            b[1] = -b[0] - gap if i % 5 == 4 else -b[0] + gap
            p = QpProblem(base.H, g, base.A_ineq, b)
            sol, ref = solver.solve(g, b, max_iters=300), solve_qp(p, max_iters=300)
            assert sol.status is ref.status
            if ref.status is QpStatus.OPTIMAL:
                assert sol.objective == pytest.approx(ref.objective, abs=1e-9)
                assert sol.active_set == ref.active_set
                n_optimal += 1
                warm_iters += sol.iterations
                cold_iters += ref.iterations
            else:
                n_infeasible += 1
        assert n_optimal >= 90
        assert n_infeasible >= 20
        assert warm_iters < cold_iters

    def test_ignores_caller_changes_to_h_and_a(self):
        rng = np.random.default_rng(34)
        p = random_problem(rng, n=5, m=8)
        H, A = p.H.copy(), p.A_ineq.copy()
        solver = QpSolver(H, A)
        # the caller's arrays, changed in place after construction
        H += 3.0 * np.eye(p.n)
        A += 0.5 * rng.standard_normal(A.shape)
        moved = 0
        for _ in range(10):
            g = p.g + 0.3 * rng.standard_normal(p.n)
            sol, ref = solver.solve(g, p.b_ineq), solve_qp(QpProblem(p.H, g, p.A_ineq, p.b_ineq))
            assert ref.status is QpStatus.OPTIMAL
            assert sol.status is ref.status
            assert sol.active_set == ref.active_set
            assert np.allclose(sol.x, ref.x, atol=1e-9)
            changed = solve_qp(QpProblem(H, g, A, p.b_ineq))
            moved += changed.status is not ref.status or not np.allclose(changed.x, ref.x, atol=1e-6)
        assert moved == 10  # the changes would have mattered

    @pytest.mark.parametrize("H", [np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2))], ids=["indefinite", "zero"])
    def test_non_spd_hessian_raises(self, H):
        with pytest.raises(ValueError, match="positive definite"):
            QpSolver(H, np.eye(2))

    @pytest.mark.parametrize("case", ["A_columns", "H_not_square", "g_length", "b_length"])
    def test_shape_mismatch_raises(self, case):
        H, A, g, b = np.eye(3), np.ones((4, 3)), np.zeros(3), np.ones(4)
        if case == "A_columns":
            A = np.ones((6, 2))
        elif case == "H_not_square":
            H = np.ones((3, 4))
        elif case == "g_length":
            g = np.zeros(4)
        else:
            b = np.ones(1)  # would broadcast against A x
        with pytest.raises(ValueError):
            QpSolver(H, A).solve(g, b)

    @pytest.mark.parametrize("bad_start", ["out_of_range", "dependent_rows"])
    def test_bad_start_set(self, bad_start):
        rng = np.random.default_rng(23)
        p = random_problem(rng, n=5, m=10)
        k = solve_qp(p).active_set[0]
        if bad_start == "out_of_range":
            start = (-1, k, p.m, p.m + 7)
        else:
            # row k twice: the start set's Gram matrix is singular
            p = QpProblem(p.H, p.g, np.vstack([p.A_ineq, p.A_ineq[k]]), np.append(p.b_ineq, p.b_ineq[k]))
            start = (k, p.m - 1)
        solver = QpSolver(p.H, p.A_ineq)
        solver.last_active_set = start
        sol, ref = solver.solve(p.g, p.b_ineq), solve_qp(p)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.active_set == ref.active_set
        assert sol.objective == pytest.approx(ref.objective, abs=1e-9)

