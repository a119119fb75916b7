import numpy as np
import pytest
from helpers import quad_reference, quad_sum_reference
from scipy.linalg import solve_lyapunov as scipy_lyapunov

from laycon.numkit import (
    NotHurwitzError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SpdMatrix,
    decay_rate,
    invert_spd,
    solve_lyapunov,
)

# Controller gains of the two published operating points.
A_SCEN_A = np.array([[0.0, 1.0], [-25.0, -11.0]])
R_SCEN_A = np.diag([50.0, 1.0])
A_SCEN_B = np.array([[0.0, 1.0], [-35.0, -12.0]])


def random_stable(rng, n):
    """Random Hurwitz matrix: shift a random matrix left of the imaginary axis."""
    M = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(M).real) + rng.uniform(0.5, 2.0)
    return M - shift * np.eye(n)


def random_spd(rng, n):
    """Cholesky-style generator: L L' + small diagonal."""
    L = rng.standard_normal((n, n))
    return L @ L.T + 0.1 * np.eye(n)


def charpoly_roots(S):
    """Independent eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial, then real roots (closed form for n=2)."""
    n = S.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.zeros_like(S)
    for k in range(1, n + 1):
        M = S @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(S @ M) / k
    if n == 2:
        b, c = coeffs[1], coeffs[2]
        disc = np.sqrt(b * b - 4 * c)
        roots = np.array([(-b - disc) / 2, (-b + disc) / 2])
    else:
        roots = np.roots(coeffs).real
    return np.sort(roots)


class TestSolveLyapunov:
    def test_identity_case(self):
        # -2P = -R with A = -I
        P = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(P.mat, np.eye(2), atol=1e-12)

    def test_published_operating_point(self):
        P = solve_lyapunov(A_SCEN_A, R_SCEN_A)
        expected = np.array([[14.41, 1.00], [1.00, 0.14]])
        assert np.all(np.abs(P.mat - expected) <= 0.01)

    def test_random_residual_and_scipy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = random_stable(rng, 3)
            R = random_spd(rng, 3)
            P = solve_lyapunov(A, R)
            res = np.linalg.norm(A.T @ P.mat + P.mat @ A + R, np.inf)
            assert res <= 1e-9 * np.linalg.norm(R, np.inf)
            P_ref = scipy_lyapunov(A.T, -R)
            assert np.allclose(P.mat, P_ref, rtol=1e-8, atol=1e-10)

    def test_property_1000_random_systems(self):
        # SPD result + bounded residual across dimensions 2..4
        rng = np.random.default_rng(2024)
        for i in range(1000):
            n = int(rng.integers(2, 5))
            A = random_stable(rng, n)
            R = random_spd(rng, n)
            P = solve_lyapunov(A, R)
            assert P.lam_min > 0.0
            res = np.linalg.norm(A.T @ P.mat + P.mat @ A + R, np.inf)
            assert res <= 1e-9 * np.linalg.norm(R, np.inf)

    def test_not_hurwitz_rejected(self):
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(np.eye(2), np.eye(2))


class TestSymEigen:
    """SpdMatrix's extreme eigenvalues and condition number."""

    def test_diagonal(self):
        P = SpdMatrix(np.diag([1.0, 2.0, 3.0]))
        assert P.lam_min == pytest.approx(1.0, abs=1e-12)
        assert P.lam_max == pytest.approx(3.0, abs=1e-12)
        assert P.cond() == pytest.approx(3.0, abs=1e-12)

    def test_condition_number_published(self):
        P = SpdMatrix(np.array([[14.409, 1.0], [1.0, 0.1364]]))
        assert abs(P.cond() - 217.0) <= 3.0

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 4):
            for _ in range(50):
                S = random_spd(rng, n)
                w = charpoly_roots(S)
                P = SpdMatrix(S)
                assert np.allclose([P.lam_min, P.lam_max], w[[0, -1]], rtol=1e-8, atol=1e-8)
                assert P.cond() == pytest.approx(w[-1] / w[0], rel=1e-6)

    def test_orthogonal_similarity_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            S = random_spd(rng, 4)
            Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            P1, P2 = SpdMatrix(S), SpdMatrix(Q @ S @ Q.T)
            assert np.allclose([P1.lam_min, P1.lam_max], [P2.lam_min, P2.lam_max], rtol=1e-9, atol=1e-9)

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            SpdMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestDecayRate:
    def test_published_gains(self):
        assert abs(decay_rate(A_SCEN_A) - 3.21) <= 0.01
        assert abs(decay_rate(A_SCEN_B) - 5.0) <= 1e-9

    def test_scalar_matrix(self):
        assert decay_rate(-2.0 * np.eye(3)) == pytest.approx(2.0)

    def test_scaling_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = random_stable(rng, 3)
            c = rng.uniform(0.1, 10.0)
            assert decay_rate(c * A) == pytest.approx(c * decay_rate(A), rel=1e-10)

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitzError):
            decay_rate(np.zeros((2, 2)))


class TestInvertSpd:
    def test_identity(self):
        assert np.allclose(invert_spd(np.eye(3)).mat, np.eye(3), atol=1e-14)

    def test_scenario_a_adjugate(self):
        P = solve_lyapunov(A_SCEN_A, R_SCEN_A)
        p = P.mat
        det = p[0, 0] * p[1, 1] - p[0, 1] ** 2
        inv = invert_spd(P)
        assert abs(inv.mat[0, 0] - p[1, 1] / det) <= 1e-12
        assert abs(inv.mat[0, 0] - 0.141) <= 0.002

    def test_round_trip_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            P = SpdMatrix(random_spd(rng, 3))
            inv = invert_spd(P)
            assert np.linalg.norm(P.mat @ inv.mat - np.eye(3), np.inf) <= 1e-10
            assert inv.lam_min > 0.0

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            invert_spd(np.diag([1.0, -1.0]))


class TestSpdMatrix:
    def test_caches_extremes(self):
        P = SpdMatrix(np.diag([2.0, 5.0]))
        assert P.lam_min == pytest.approx(2.0)
        assert P.lam_max == pytest.approx(5.0)
        assert P.cond() == pytest.approx(2.5)

    def test_quadratic_form(self):
        P = SpdMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert P.quad([1.0, -1.0]) == pytest.approx(3.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_float_forms_equal_column_forms_bit_for_bit(self, n):
        # the simulator takes V(e) on floats in its loop and on each block of
        # logged error columns; both must give the same bits per row
        rng = np.random.default_rng(n)
        mats = [solve_lyapunov(A_SCEN_A, R_SCEN_A), solve_lyapunov(A_SCEN_B, np.eye(2))] if n == 2 else []
        for P in mats + [SpdMatrix(random_spd(rng, n)) for _ in range(3)]:
            E = rng.standard_normal((n, 500)) * 10.0 ** rng.integers(-3, 4, (n, 500))
            f = rng.standard_normal(n)
            cols = tuple(E)
            quads, bilinears = P.quad(cols), P.bilinear(cols, f)
            for k, e in enumerate(E.T.tolist()):
                assert P.quad(e).hex() == float(quads[k]).hex()
                assert P.bilinear(e, f.tolist()).hex() == float(bilinears[k]).hex()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_quad_is_the_documented_sum_bit_for_bit(self, n):
        # the planar form is written out as one expression; it must keep the
        # general loop's terms and order, signed zeros and subnormals included
        rng = np.random.default_rng(20 + n)
        mats = [solve_lyapunov(A_SCEN_A, R_SCEN_A), solve_lyapunov(A_SCEN_B, np.eye(2))] if n == 2 else []
        specials = [0.0, -0.0, 5e-324, -5e-324, 1e-160, -3.0, 1.3e150]
        for P in mats + [SpdMatrix(random_spd(rng, n)) for _ in range(3)]:
            vectors = [rng.choice(specials, n).tolist() for _ in range(200)]
            vectors += (rng.standard_normal((200, n)) * 10.0 ** rng.integers(-3, 4, (200, n))).tolist()
            for e in vectors:
                assert P.quad(e).hex() == quad_sum_reference(P, e).hex(), e

    def test_float_forms_match_matrix_products(self):
        # both are sums of the same products in another order, so they agree
        # to within a few roundings of the sum of the terms' magnitudes
        eps = np.finfo(float).eps
        rng = np.random.default_rng(12)
        for P in (solve_lyapunov(A_SCEN_A, R_SCEN_A), solve_lyapunov(A_SCEN_B, np.eye(2))):
            for _ in range(2000):
                e = rng.standard_normal(2) * 10.0 ** rng.integers(-4, 3)
                f = rng.standard_normal(2)
                scale = float(np.abs(e) @ np.abs(P.mat) @ np.abs(e))
                assert abs(P.quad(e.tolist()) - quad_reference(P, e)) <= 8.0 * eps * scale
                scale = float(np.abs(e) @ np.abs(P.mat) @ np.abs(f))
                assert abs(P.bilinear(e.tolist(), f.tolist()) - float(e @ P.mat @ f)) <= 8.0 * eps * scale

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            SpdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
