"""Planar linear algebra for control certificates, in closed form, the real
roots of a cubic, and the seeded uniform stream of the runs.

Every matrix here is 2x2 (the error matrix, R, P and P^-1). Each value is a
fixed-order expression in Python floats, so none depends on the BLAS or
LAPACK kernel (Gajic & Qureshi 1995, "Lyapunov Matrix Equation in System
Stability and Control"). The forms e'Pe and e'Pf applied to arrays evaluate
elementwise; each numpy elementwise operation is correctly rounded, so every
element equals the float form.

UniformStream draws the values numpy's default_rng(seed).uniform draws, bit
for bit, without importing numpy's random package: numpy's SeedSequence
hash of the seed seeds PCG64 (O'Neill 2014, "PCG: A family of simple fast
space-efficient statistically good algorithms for random number
generation"), whose XSL-RR outputs become 53-bit doubles. NumPy guarantees
the stream of a bit generator, not that of a Generator method (NEP 19), so
the published seeded runs pin the whole chain here.
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


def cubic_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Real parts of the roots of c3 t^3 + c2 t^2 + c1 t + c0, one per root
    (a complex pair's twice); zero leading coefficients lower the degree,
    and a quadratic's roots are the eigenvalues of its companion matrix.
    One root t1 of the shifted cubic y^3 + 3p y + 2q is Cardano's (one real
    root) or the largest in magnitude of the trigonometric form's three;
    t - t1 is divided out from the end that is stable for it (Press et al.
    2007, "Numerical Recipes", 3rd ed., section 9.5), so roots that t1
    dwarfs keep their own scale."""
    if c3 == 0.0:
        if c2 == 0.0:
            return [-c0 / c1] if c1 != 0.0 else []
        return [z.real for z in eigenvalues([[-c1 / c2, -c0 / c2], [1.0, 0.0]])]
    shift, b, c = c2 / (3.0 * c3), c1 / c3, c0 / c3
    p = b / 3.0 - shift * shift
    q = 0.5 * c + shift * (shift * shift - 0.5 * b)
    disc = q * q + p * p * p
    if disc >= 0.0:
        s = -q - math.copysign(math.sqrt(disc), q)
        u = math.copysign(abs(s) ** (1.0 / 3.0), s)
        # y = u - p/u, taken as -2q / (u^2 + p + (p/u)^2), free of cancellation
        t1 = (-2.0 * q / (u * u + p + (p / u) ** 2) if u != 0.0 else 0.0) - shift
    else:
        r = math.sqrt(-p)
        phi = math.acos(max(-1.0, min(1.0, q / (p * r))))
        t1 = max((2.0 * r * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift for k in range(3)), key=abs)
    if abs(c3 * t1 ** 3) > abs(c0):  # |t1|^2 > |t2 t3|: from the constant end
        e0 = -c0 / t1
        return [t1] + cubic_roots(0.0, c3, (e0 - c1) / t1, e0)
    e1 = c2 + c3 * t1
    return [t1] + cubic_roots(0.0, c3, e1, c1 + e1 * t1)


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


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# numpy's SeedSequence constants (numpy's bit_generator.pyx), pool of 4 words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _seed_words(seed: int) -> tuple[int, int, int, int]:
    """The four 64-bit words SeedSequence(seed).generate_state(4, uint64)
    returns: the seed's 32-bit words (least significant first) are hashed
    into a pool of four, every pool word is mixed into every other, and the
    pool is hashed out into eight 32-bit words, paired low word first."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    mult = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = (mult * _MULT_A) & _MASK32
        value = (value * mult) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = (mult * _MULT_B) & _MASK32
        value = (value * mult) & _MASK32
        out.append(value ^ (value >> 16))
    return tuple(out[k] | out[k + 1] << 32 for k in range(0, 8, 2))


class UniformStream:
    """A seeded stream of uniform doubles, equal bit for bit to numpy's
    default_rng(seed).uniform.

    PCG64's 128-bit LCG state s steps to s * M + inc before each draw; the
    draw's XSL-RR output x rotates (s >> 64) ^ s (low 64 bits) right by
    s >> 122, and the draw is low + (high - low) * ((x >> 11) * 2^-53). The
    seed's SeedSequence words (s0, s1, i0, i1), read as the 128-bit words
    s0:s1 = s0 2^64 + s1 and i0:i1, set inc = (i0:i1 << 1) | 1 and the state
    to inc + s0:s1 stepped once, as numpy's pcg64_set_seed does."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, low: float, high: float, size: int | None = None):
        """One draw as a Python float (size None), or size draws as a float64
        array, in stream order. The states step on Python ints; a sized
        draw's outputs are taken as uint64 array operations over the states'
        joined little-endian bytes."""
        low, high = float(low), float(high)
        span = high - low
        state, inc = self._state, self._inc
        if size is None:
            self._state = state = (state * _PCG_MULT + inc) & _MASK128
            x, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
            x = ((x >> rot) | (x << (64 - rot))) & _MASK64
            return low + span * ((x >> 11) * 2.0 ** -53)
        states = [state := (state * _PCG_MULT + inc) & _MASK128 for _ in range(size)]
        self._state = state
        words = np.frombuffer(b"".join([s.to_bytes(16, "little") for s in states]), dtype="<u8")
        lo, hi = words[0::2], words[1::2]
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        return low + span * ((x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53)
