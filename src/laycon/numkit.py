"""Planar linear algebra for control certificates, in closed form.

Every matrix here is 2x2 (the error matrix, R, P and P^-1). Each value is a
fixed-order expression in Python floats, so none depends on the BLAS or
LAPACK kernel (Gajic & Qureshi 1995, "Lyapunov Matrix Equation in System
Stability and Control"). The forms e'Pe and e'Pf applied to arrays evaluate
elementwise; each numpy elementwise operation is correctly rounded, so every
element equals the float form.
"""

from __future__ import annotations

import math

import numpy as np

SYMMETRY_RTOL = 1e-12


class NotHurwitzError(ValueError):
    """Matrix has an eigenvalue with nonnegative real part."""


class SingularSystemError(ValueError):
    """Direct linear solve hit a (numerically) singular system."""


class NotSymmetricError(ValueError):
    """Matrix is not symmetric within tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Symmetric matrix has a nonpositive eigenvalue."""


def _entries(M, name="matrix") -> tuple[float, float, float, float]:
    """The entries (a, b, c, d) of a finite 2x2 matrix [[a, b], [c, d]]."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return tuple(M.ravel().tolist())


def eigenvalues(M):
    """The two eigenvalues of a 2x2 matrix [[a, b], [c, d]], the larger real
    part first: floats for a real pair, complex for a conjugate pair. With
    t = a + d and q = ((a - d)/2)^2 + bc (a sum of squares when b = c), a
    real pair's root of larger magnitude is t/2 + sign(t) sqrt(q) and the
    other det over it, so neither is a difference of near-equal numbers."""
    a, b, c, d = _entries(M)
    half_t, half_gap = 0.5 * (a + d), 0.5 * (a - d)
    q = half_gap * half_gap + b * c
    if q < 0.0:
        s = math.sqrt(-q)
        return complex(half_t, s), complex(half_t, -s)
    big = half_t + math.copysign(math.sqrt(q), half_t)
    small = (a * d - b * c) / big if big != 0.0 else 0.0
    return (big, small) if big >= small else (small, big)


def _hurwitz(A) -> tuple[float, float, float, float]:
    """The entries of A; NotHurwitzError unless tr(A) < 0 and det(A) > 0."""
    a, b, c, d = _entries(A, "A")
    if not (a + d < 0.0 and a * d - b * c > 0.0):
        raise NotHurwitzError(f"A has eigenvalue with real part {eigenvalues(A)[0].real:.3e} >= 0")
    return a, b, c, d


class SpdMatrix:
    """Symmetric positive-definite 2x2 matrix with cached extreme
    eigenvalues, housing the quadratic form V(e) = e' P e of the
    certificates. Construction validates symmetry (1e-12 relative) and
    positive definiteness, and folds the coefficients of the float forms."""

    def __init__(self, mat):
        a, b, c, d = _entries(mat, "SpdMatrix")
        if abs(b - c) > SYMMETRY_RTOL * max(abs(a), abs(b), abs(c), abs(d)):
            raise NotSymmetricError(f"SpdMatrix is not symmetric within {SYMMETRY_RTOL} relative tolerance")
        b = 0.5 * (b + c)
        self.lam_max, self.lam_min = eigenvalues([[a, b], [b, d]])
        if self.lam_min <= 0.0:
            raise NotPositiveDefiniteError(f"smallest eigenvalue {self.lam_min:.3e} is not positive")
        self.mat = np.array([[a, b], [b, d]])
        # e'Pe = p00 e0 e0 + p11 e1 e1 + (2 p01) e0 e1; 2 p01 is exact
        self._quad, self._bilinear = (a, d, 2.0 * b), (a, b, d)

    def cond(self) -> float:
        """Spectral condition number lambda_max / lambda_min."""
        return self.lam_max / self.lam_min

    def quad(self, e):
        """Quadratic form e' P e as the fixed-order float sum from 0.0 of
        p00 e0 e0, p11 e1 e1 and (2 p01) e0 e1, each taken as (c e_i) e_j.
        e holds two floats, or two arrays of one shape (the columns of a
        batch of vectors), for which the form is taken elementwise and each
        element equals the float form of its vector bit for bit."""
        p00, p11, p01_2 = self._quad
        return ((0.0 + p00 * e[0] * e[0]) + p11 * e[1] * e[1]) + p01_2 * e[0] * e[1]

    def bilinear(self, e, f):
        """Bilinear form e' P f as the fixed-order float sum over rows i and
        then columns j of (p_ij e_i) f_j, summed left to right from 0.0.
        Like quad, it takes floats or arrays of one shape."""
        p00, p01, p11 = self._bilinear
        return (((0.0 + p00 * e[0] * f[0]) + p01 * e[0] * f[1]) + p01 * e[1] * f[0]) + p11 * e[1] * f[1]


def _det3(m) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion along its first row."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def solve_lyapunov(A, R):
    """Solve A' P + P A = -R for P, with A Hurwitz and R SPD.

    With A = [[a, b], [c, d]] the equation reads, in x = (p11, p12, p22),
        2a p11 + 2c p12 = -r11,  b p11 + (a + d) p12 + c p22 = -r12,
        2b p12 + 2d p22 = -r22,
    whose determinant 4 tr(A) det(A) is nonzero for Hurwitz A; each unknown
    is its Cramer quotient. The returned SpdMatrix P satisfies the residual
    bound ||A'P + PA + R||_inf <= 1e-9 ||R||_inf."""
    a, b, c, d = _hurwitz(A)
    (r11, r12), (_, r22) = (R if isinstance(R, SpdMatrix) else SpdMatrix(R)).mat.tolist()
    M = ((2.0 * a, 2.0 * c, 0.0), (b, a + d, c), (0.0, 2.0 * b, 2.0 * d))
    y = (-r11, -r12, -r22)
    det = _det3(M)
    if det == 0.0:
        raise SingularSystemError("Lyapunov system is singular")
    x = [_det3([row[:k] + (y_i,) + row[k + 1:] for row, y_i in zip(M, y)]) / det for k in range(3)]
    # the residual's entries (0,0), (0,1) and (1,1) are the rows of M x - y
    res = [sum(m * x_j for m, x_j in zip(row, x)) - y_i for row, y_i in zip(M, y)]
    residual = max(abs(res[0]) + abs(res[1]), abs(res[1]) + abs(res[2]))
    if not residual <= 1e-9 * max(abs(r11) + abs(r12), abs(r12) + abs(r22)):
        raise SingularSystemError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return SpdMatrix([[x[0], x[1]], [x[1], x[2]]])


def decay_rate(A) -> float:
    """Slowest decay rate of a Hurwitz matrix: min over eigenvalues of |Re|."""
    _hurwitz(A)
    return -eigenvalues(A)[0].real


def invert_spd(P):
    """Inverse of an SPD matrix, its adjugate over its determinant,
    validated to ||P P^-1 - I||_inf <= 1e-10."""
    (p11, p12), (_, p22) = (P if isinstance(P, SpdMatrix) else SpdMatrix(P)).mat.tolist()
    det = p11 * p22 - p12 * p12
    q11, q12, q22 = p22 / det, -p12 / det, p11 / det
    round_trip = max(abs(p11 * q11 + p12 * q12 - 1.0) + abs(p11 * q12 + p12 * q22),
                     abs(p12 * q11 + p22 * q12) + abs(p12 * q12 + p22 * q22 - 1.0))
    if not round_trip <= 1e-10:
        raise SingularSystemError("SPD inversion failed round-trip check")
    return SpdMatrix([[q11, q12], [q12, q22]])
