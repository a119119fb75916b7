"""Small dense linear algebra for control certificates.

Everything here operates on matrices no larger than 8x8 (the plant and
error models are 2-5 dimensional), so all solvers are direct: the Lyapunov
equation is solved through its Kronecker-product linear system, and the
extreme eigenvalues of an SPD matrix come from np.linalg.eigvalsh.

The forms an SPD matrix evaluates on a vector, e'Pe and e'Pf, are
fixed-order sums of products in Python floats, not BLAS dot products, so
their rounding does not depend on the BLAS kernel. The same expression
applied to arrays evaluates the form elementwise; each numpy elementwise
operation is correctly rounded, so every element equals the float form.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 8

SYMMETRY_RTOL = 1e-12


class NotHurwitzError(ValueError):
    """Matrix has an eigenvalue with nonnegative real part."""


class SingularSystemError(ValueError):
    """Direct linear solve hit a (numerically) singular system."""


class NotSymmetricError(ValueError):
    """Matrix is not symmetric within tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Symmetric matrix has a nonpositive eigenvalue."""


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] < 1 or M.shape[0] > MAX_DIM:
        raise ValueError(f"{name} dimension {M.shape[0]} outside 1..{MAX_DIM}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def _check_symmetric(M, name="matrix"):
    scale = np.max(np.abs(M))
    if scale == 0.0:
        return
    if np.max(np.abs(M - M.T)) > SYMMETRY_RTOL * scale:
        raise NotSymmetricError(f"{name} is not symmetric within {SYMMETRY_RTOL} relative tolerance")


class SpdMatrix:
    """Symmetric positive-definite matrix with cached extreme eigenvalues.

    Houses the quadratic form V(e) = e' P e used throughout the certificate
    computations. Construction validates symmetry (1e-12 relative) and
    positive definiteness, and folds the coefficients of the float forms.
    """

    def __init__(self, mat):
        mat = _as_square(mat, "SpdMatrix")
        _check_symmetric(mat, "SpdMatrix")
        mat = 0.5 * (mat + mat.T)
        w = np.linalg.eigvalsh(mat)
        if w[0] <= 0.0:
            raise NotPositiveDefiniteError(f"smallest eigenvalue {w[0]:.3e} is not positive")
        self.mat = mat
        self.lam_min = float(w[0])
        self.lam_max = float(w[-1])
        n = mat.shape[0]
        self._rows = mat.tolist()
        # e'Pe = sum_i p_ii e_i e_i + sum_{i<j} (2 p_ij) e_i e_j; 2 p_ij is exact
        self._quad_terms = [(self._rows[i][i], i, i) for i in range(n)] + [
            (2.0 * self._rows[i][j], i, j) for i in range(n) for j in range(i + 1, n)]
        # the planar case, which the governor evaluates at every RK4 stage:
        # (p00, p11, 2 p01), summed as one expression in the same order,
        # about a third of the time of the loop over the terms
        self._plane = tuple(c for c, _, _ in self._quad_terms) if n == 2 else None

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def cond(self) -> float:
        """Spectral condition number lambda_max / lambda_min."""
        return self.lam_max / self.lam_min

    def quad(self, e):
        """Quadratic form e' P e as a fixed-order float sum: the diagonal
        terms p_ii e_i e_i, then the upper-triangle terms (2 p_ij) e_i e_j row
        by row, each taken as (c e_i) e_j and summed left to right from 0.0.

        e holds n floats, or n arrays of one shape (the columns of a batch of
        vectors), for which the form is taken elementwise and each element
        equals the float form of its vector bit for bit."""
        if self._plane is not None:
            p00, p11, p01_2 = self._plane
            return ((0.0 + p00 * e[0] * e[0]) + p11 * e[1] * e[1]) + p01_2 * e[0] * e[1]
        acc = 0.0
        for c, i, j in self._quad_terms:
            acc = acc + c * e[i] * e[j]
        return acc

    def bilinear(self, e, f):
        """Bilinear form e' P f as the fixed-order float sum over rows i and
        then columns j of (p_ij e_i) f_j, summed left to right from 0.0.
        Like quad, it takes floats or arrays of one shape."""
        acc = 0.0
        for e_i, row in zip(e, self._rows):
            for p_ij, f_j in zip(row, f):
                acc = acc + p_ij * e_i * f_j
        return acc

    def __repr__(self):
        return f"SpdMatrix({self.mat!r})"


def solve_lyapunov(A, R):
    """Solve A' P + P A = -R for P, with A Hurwitz and R SPD.

    Uses the vectorized Kronecker linear system; the returned P satisfies
    the residual bound ||A'P + PA + R||_inf <= 1e-9 ||R||_inf and is
    returned as an SpdMatrix.
    """
    A = _as_square(A, "A")
    R_mat = R.mat if isinstance(R, SpdMatrix) else SpdMatrix(R).mat
    n = A.shape[0]
    if R_mat.shape[0] != n:
        raise ValueError(f"dimension mismatch: A is {n}x{n}, R is {R_mat.shape[0]}x{R_mat.shape[0]}")
    eigs = np.linalg.eigvals(A)
    if np.max(eigs.real) >= 0.0:
        raise NotHurwitzError(f"A has eigenvalue with real part {np.max(eigs.real):.3e} >= 0")
    eye = np.eye(n)
    K = np.kron(eye, A.T) + np.kron(A.T, eye)
    try:
        vec_p = np.linalg.solve(K, -R_mat.ravel())
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("Kronecker Lyapunov system is singular") from exc
    P = vec_p.reshape(n, n)
    P = 0.5 * (P + P.T)
    residual = np.linalg.norm(A.T @ P + P @ A + R_mat, np.inf)
    if residual > 1e-9 * np.linalg.norm(R_mat, np.inf):
        raise SingularSystemError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return SpdMatrix(P)


def decay_rate(A) -> float:
    """Slowest decay rate of a Hurwitz matrix: min over eigenvalues of |Re|."""
    A = _as_square(A, "A")
    eigs = np.linalg.eigvals(A)
    if np.max(eigs.real) >= 0.0:
        raise NotHurwitzError(f"A has eigenvalue with real part {np.max(eigs.real):.3e} >= 0")
    return float(np.min(-eigs.real))


def invert_spd(P):
    """Inverse of an SPD matrix, validated to ||P P^-1 - I|| <= 1e-10."""
    if not isinstance(P, SpdMatrix):
        P = SpdMatrix(P)
    n = P.n
    inv = np.linalg.solve(P.mat, np.eye(n))
    inv = 0.5 * (inv + inv.T)
    if np.linalg.norm(P.mat @ inv - np.eye(n), np.inf) > 1e-10:
        raise SingularSystemError("SPD inversion failed round-trip check")
    return SpdMatrix(inv)
