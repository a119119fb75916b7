from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    bilinear_sum_reference,
    decay_rate_reference,
    invert_spd_reference,
    quad_reference,
    quad_sum_reference,
    solve_lyapunov_reference,
    spd_extremes_reference,
)
from scipy.linalg import solve_lyapunov as scipy_lyapunov

from laycon.numkit import (
    NotHurwitzError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SpdMatrix,
    UniformStream,
    cubic_roots,
    decay_rate,
    eigenvalues,
    invert_spd,
    solve_lyapunov,
)

# Controller gains of the two published operating points.
A_SCEN_A = np.array([[0.0, 1.0], [-25.0, -11.0]])
R_SCEN_A = np.diag([50.0, 1.0])
A_SCEN_B = np.array([[0.0, 1.0], [-35.0, -12.0]])
R_SCEN_B = np.diag([100.0, 10.0])


def random_stable(rng, n=2):
    """Random Hurwitz matrix: shift a random matrix left of the imaginary axis."""
    M = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(M).real) + rng.uniform(0.5, 2.0)
    return M - shift * np.eye(n)


def random_companion(rng):
    """The error matrix [[0, 1], [-k1, -k2]] of random positive gains, with
    real eigenvalues for k2^2 > 4 k1 and a complex pair otherwise."""
    k1, k2 = 10.0 ** rng.uniform(-1.0, 3.0), 10.0 ** rng.uniform(-1.0, 2.0)
    return np.array([[0.0, 1.0], [-k1, -k2]])


def random_hurwitz(rng, i):
    """A companion matrix for even i, a general Hurwitz matrix for odd i."""
    return random_companion(rng) if i % 2 == 0 else random_stable(rng)


def random_spd(rng, n=2):
    """Cholesky-style generator: L L' + small diagonal, symmetrized."""
    L = rng.standard_normal((n, n))
    S = L @ L.T + 0.1 * np.eye(n)
    return 0.5 * (S + S.T)


def residual_ok(A, P, R) -> bool:
    res = np.linalg.norm(A.T @ P + P @ A + R, np.inf)
    return res <= 1e-9 * np.linalg.norm(R, np.inf)


def charpoly_roots(S):
    """Independent eigenvalue oracle for 2x2: the roots of the characteristic
    polynomial z^2 + b z + c, b = -tr S and c = det S, in closed form."""
    b, c = -np.trace(S), np.linalg.det(S)
    disc = np.sqrt(b * b - 4 * c)
    return np.array([(-b - disc) / 2, (-b + disc) / 2])


def exact_lyapunov(A, R) -> list[Fraction]:
    """(p11, p12, p22) of A'P + PA = -R in exact rational arithmetic, by
    Gaussian elimination on the 3x3 system in those unknowns."""
    (a, b), (c, d) = [[Fraction(x) for x in row] for row in np.asarray(A).tolist()]
    (r11, r12), (_, r22) = [[Fraction(x) for x in row] for row in np.asarray(R).tolist()]
    rows = [[2 * a, 2 * c, Fraction(0), -r11], [b, a + d, c, -r12], [Fraction(0), 2 * b, 2 * d, -r22]]
    for k in range(3):
        pivot = next(r for r in range(k, 3) if rows[r][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for r in range(3):
            if r != k:
                factor = rows[r][k] / rows[k][k]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[k])]
    return [rows[k][3] / rows[k][k] for k in range(3)]


class TestSolveLyapunov:
    def test_identity_case(self):
        # -2P = -R with A = -I
        P = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(P.mat, np.eye(2), atol=1e-12)

    def test_published_operating_point(self):
        P = solve_lyapunov(A_SCEN_A, R_SCEN_A)
        expected = np.array([[14.41, 1.00], [1.00, 0.14]])
        assert np.all(np.abs(P.mat - expected) <= 0.01)

    def test_published_points_are_correctly_rounded(self):
        # every Cramer determinant of the published points is an exact
        # integer, so P is the exact solution rounded once
        for A, R in ((A_SCEN_A, R_SCEN_A), (A_SCEN_B, R_SCEN_B)):
            P = solve_lyapunov(A, R).mat
            assert [P[0, 0], P[0, 1], P[1, 1]] == [float(x) for x in exact_lyapunov(A, R)]

    def test_random_residual_and_scipy_oracle(self):
        rng = np.random.default_rng(7)
        for i in range(40):
            A = random_hurwitz(rng, i)
            R = random_spd(rng)
            P = solve_lyapunov(A, R)
            assert residual_ok(A, P.mat, R)
            assert np.allclose(P.mat, scipy_lyapunov(A.T, -R), rtol=1e-8, atol=1e-10)
            assert np.allclose(P.mat, solve_lyapunov_reference(A, R), rtol=1e-8, atol=1e-10)

    def test_property_1000_random_systems(self):
        # SPD result + bounded residual over companion and general Hurwitz A
        rng = np.random.default_rng(2024)
        for i in range(1000):
            A = random_hurwitz(rng, i)
            R = random_spd(rng)
            P = solve_lyapunov(A, R)
            assert P.lam_min > 0.0
            assert residual_ok(A, P.mat, R)

    def test_kronecker_oracle_in_higher_dimensions(self):
        # the general-n oracle the closed form is checked against
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            for _ in range(20):
                A, R = random_stable(rng, n), random_spd(rng, n)
                P = solve_lyapunov_reference(A, R)
                assert residual_ok(A, P, R)
                assert np.allclose(P, scipy_lyapunov(A.T, -R), rtol=1e-8, atol=1e-10)

    def test_not_hurwitz_rejected(self):
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(np.eye(2), np.eye(2))

    @pytest.mark.parametrize("n", [1, 3])
    def test_other_shapes_rejected(self, n):
        with pytest.raises(ValueError, match="must be 2x2"):
            solve_lyapunov(-np.eye(n), np.eye(n))
        with pytest.raises(ValueError, match="must be 2x2"):
            solve_lyapunov(-np.eye(2), np.eye(n))
        with pytest.raises(ValueError, match="must be 2x2"):
            SpdMatrix(np.eye(n))
        with pytest.raises(ValueError, match="must be 2x2"):
            decay_rate(-np.eye(n))


class TestSymEigen:
    """SpdMatrix's extreme eigenvalues and condition number, and the
    eigenvalues of a general 2x2 matrix."""

    def test_diagonal(self):
        P = SpdMatrix(np.diag([3.0, 1.0]))
        assert P.lam_min == pytest.approx(1.0, abs=1e-12)
        assert P.lam_max == pytest.approx(3.0, abs=1e-12)
        assert P.cond() == pytest.approx(3.0, abs=1e-12)

    def test_condition_number_published(self):
        P = SpdMatrix(np.array([[14.409, 1.0], [1.0, 0.1364]]))
        assert abs(P.cond() - 217.0) <= 3.0

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            S = random_spd(rng)
            w = charpoly_roots(S)
            P = SpdMatrix(S)
            assert np.allclose([P.lam_min, P.lam_max], w, rtol=1e-8, atol=1e-8)
            assert np.allclose([P.lam_min, P.lam_max], spd_extremes_reference(S), rtol=1e-12, atol=0.0)
            assert P.cond() == pytest.approx(w[-1] / w[0], rel=1e-6)

    def test_orthogonal_similarity_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            S = random_spd(rng)
            Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            S2 = Q @ S @ Q.T
            P1, P2 = SpdMatrix(S), SpdMatrix(0.5 * (S2 + S2.T))
            assert np.allclose([P1.lam_min, P1.lam_max], [P2.lam_min, P2.lam_max], rtol=1e-9, atol=1e-9)

    def test_small_eigenvalue_has_no_cancellation(self):
        # lam_min = det / lam_max keeps its relative accuracy; t/2 - sqrt(q)
        # would be a difference of two numbers near 1, off by about 2%
        delta = (1.0 + 1e-14) - 1.0
        P = SpdMatrix(np.array([[1.0, 1.0], [1.0, 1.0 + delta]]))
        assert P.lam_min == pytest.approx(delta / 2.0, rel=1e-12, abs=0.0)

    def test_general_eigenvalues_match_lapack(self):
        rng = np.random.default_rng(17)
        for i in range(200):
            M = random_hurwitz(rng, i) if i % 3 else rng.standard_normal((2, 2))
            got = eigenvalues(M)
            ref = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag), reverse=True)
            assert got[0].real >= got[1].real
            assert np.allclose(sorted(got, key=lambda z: (z.real, z.imag), reverse=True), ref,
                               rtol=1e-12, atol=1e-12 * np.abs(M).max())

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            SpdMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestDecayRate:
    def test_published_gains(self):
        assert abs(decay_rate(A_SCEN_A) - 3.21) <= 0.01
        assert abs(decay_rate(A_SCEN_B) - 5.0) <= 1e-9

    def test_published_gains_are_correctly_rounded(self):
        # the slow root of z^2 + 11 z + 25, (11 - sqrt(21)) / 2, rounded once
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (Decimal(11) - Decimal(21).sqrt()) / 2
        assert decay_rate(A_SCEN_A) == float(exact)
        assert decay_rate(A_SCEN_B) == 5.0

    def test_scalar_matrix(self):
        assert decay_rate(-2.0 * np.eye(2)) == pytest.approx(2.0)

    def test_scaling_property(self):
        rng = np.random.default_rng(3)
        for i in range(50):
            A = random_hurwitz(rng, i)
            c = rng.uniform(0.1, 10.0)
            assert decay_rate(c * A) == pytest.approx(c * decay_rate(A), rel=1e-10)
            assert decay_rate(A) == pytest.approx(decay_rate_reference(A), rel=1e-10)

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitzError):
            decay_rate(np.zeros((2, 2)))


class TestInvertSpd:
    def test_identity(self):
        assert np.allclose(invert_spd(np.eye(2)).mat, np.eye(2), atol=1e-14)

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
            P = SpdMatrix(random_spd(rng))
            inv = invert_spd(P)
            assert np.linalg.norm(P.mat @ inv.mat - np.eye(2), np.inf) <= 1e-10
            assert inv.lam_min > 0.0
            assert np.allclose(inv.mat, invert_spd_reference(P.mat), rtol=1e-10, atol=0.0)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            invert_spd(np.diag([1.0, -1.0]))


class TestCubicRoots:
    @pytest.mark.parametrize("coeffs, roots", [
        ((1.0, -6.0, 11.0, -6.0), [1.0, 2.0, 3.0]),  # three real roots, trigonometric form
        ((1.0, 0.0, 1.0, 2.0), [-1.0, 0.5, 0.5]),  # -1 and the pair 0.5 +- i sqrt(7)/2 (Cardano)
        ((1.0, -6.0, 12.0, -8.0), [2.0, 2.0, 2.0]),  # a triple root
        # 1e8 and +-0.0663: shifted by 3.3e7, the pair rounds into a complex
        # one, and dividing out 1e8 recovers it
        ((1.0, -1e8, -0.0044, 440000.0), [-0.066332495807108, 0.066332495807108, 1e8]),
        ((0.0, 1.0, 0.0, -1.0), [-1.0, 1.0]),  # leading zeros lower the degree
        ((0.0, 0.0, 2.0, -4.0), [2.0]),
        ((0.0, 0.0, 0.0, 5.0), []),
    ])
    def test_known_roots(self, coeffs, roots):
        assert sorted(cubic_roots(*coeffs)) == pytest.approx(roots, rel=1e-9, abs=1e-12)

    def test_matches_numpy_on_random_cubics(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            coeffs = rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 3, 4)
            got = cubic_roots(*coeffs)
            assert len(got) == 3
            for z in np.roots(coeffs):
                if abs(z.imag) <= 1e-9 * max(1.0, abs(z)):
                    assert min(abs(z.real - t) for t in got) <= 1e-6 * max(1.0, abs(z.real))


def spd_forms(n, rng):
    """(matrix, quad, bilinear) triples: SpdMatrix's float forms for n = 2,
    on the published P's and random SPD matrices; else the general-n
    oracles, on random SPD matrices that SpdMatrix rejects."""
    if n == 2:
        mats = [solve_lyapunov(A_SCEN_A, R_SCEN_A), solve_lyapunov(A_SCEN_B, np.eye(2))]
        mats += [SpdMatrix(random_spd(rng)) for _ in range(3)]
        return [(P.mat, P.quad, P.bilinear) for P in mats]
    out = []
    for _ in range(3):
        m = random_spd(rng, n)
        with pytest.raises(ValueError, match="must be 2x2"):
            SpdMatrix(m)
        out.append((m, lambda e, m=m: quad_sum_reference(m, e),
                    lambda e, f, m=m: bilinear_sum_reference(m, e, f)))
    return out


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
        # logged error columns; both must give the same bits per row. For
        # n > 2 this checks the general-n oracles the planar forms come from.
        rng = np.random.default_rng(n)
        for _, quad, bilinear in spd_forms(n, rng):
            E = rng.standard_normal((n, 500)) * 10.0 ** rng.integers(-3, 4, (n, 500))
            f = rng.standard_normal(n)
            cols = tuple(E)
            quads, bilinears = quad(cols), bilinear(cols, f)
            for k, e in enumerate(E.T.tolist()):
                assert quad(e).hex() == float(quads[k]).hex()
                assert bilinear(e, f.tolist()).hex() == float(bilinears[k]).hex()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_quad_is_the_documented_sum_bit_for_bit(self, n):
        # the planar form is written out as one expression; it must keep the
        # general sum's terms and order, signed zeros and subnormals included.
        # For n > 2 the general sum over a coordinate plane (the other
        # entries +0.0) must give the planar form of that plane's block.
        rng = np.random.default_rng(20 + n)
        specials = [0.0, -0.0, 5e-324, -5e-324, 1e-160, -3.0, 1.3e150]
        for m, quad, bilinear in spd_forms(n, rng):
            i, j = sorted(rng.choice(n, 2, replace=False)) if n > 2 else (0, 1)
            plane = SpdMatrix(m[np.ix_([i, j], [i, j])])
            vectors = [rng.choice(specials, 2).tolist() for _ in range(200)]
            vectors += (rng.standard_normal((200, 2)) * 10.0 ** rng.integers(-3, 4, (200, 2))).tolist()
            for u in vectors:
                e, f = [0.0] * n, [0.0] * n
                e[i], e[j] = u
                f[i], f[j] = u[::-1]
                assert quad(e).hex() == quad_sum_reference(m, e).hex() == plane.quad(u).hex(), e
                assert bilinear(e, f).hex() == bilinear_sum_reference(m, e, f).hex(), e
                assert bilinear(e, f).hex() == plane.bilinear(u, u[::-1]).hex(), e

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


def assert_same_draw(got, want):
    """A scalar draw is a Python float, a sized draw a float64 array; the
    values equal bit for bit."""
    assert type(got) is type(want)
    if isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestUniformStream:
    """numpy's default_rng(seed).uniform is the oracle: the published seeded
    runs drew from it."""

    # single-word seeds, and seeds of two, three and four 32-bit words
    SEEDS = [*range(64), 2**32 - 1, 2**32, 2**64 + 1, 10**30]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_numpy_generator(self, seed):
        ours, oracle = UniformStream(seed), np.random.default_rng(seed)
        for size in (None, 1, 2, 4001, None, 6001, 2):
            assert_same_draw(ours.uniform(-1.0, 1.0, size), oracle.uniform(-1.0, 1.0, size))

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 10**30])
    def test_estimate_lipschitz_pattern(self, seed):
        # scalar, scalar, size=2 per sample, over scenario B's SOC ranges
        e_b_range, e_s_range, radius = (0.0, 5.0), (-40.0, 40.0), 0.5
        ours, oracle = UniformStream(seed), np.random.default_rng(seed)
        for _ in range(200):
            for low, high, size in ((*e_b_range, None), (*e_s_range, None), (-radius, radius, 2)):
                assert_same_draw(ours.uniform(low, high, size), oracle.uniform(low, high, size))

    def test_sized_draw_equals_scalar_draws(self):
        scalar = UniformStream(11)
        want = [scalar.uniform(0.3, 9.7) for _ in range(4001)]
        assert UniformStream(11).uniform(0.3, 9.7, 4001).tolist() == want

    def test_same_seed_same_sequence(self):
        a, b = UniformStream(7), UniformStream(7)
        assert a.uniform(-1.0, 1.0, 100).tobytes() == b.uniform(-1.0, 1.0, 100).tobytes()
        assert a.uniform(-1.0, 1.0) == b.uniform(-1.0, 1.0)
        assert UniformStream(8).uniform(-1.0, 1.0) != UniformStream(7).uniform(-1.0, 1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            UniformStream(-1)
