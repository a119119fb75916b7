"""ISS certificates for the frozen tracking loop.

Computes the ultimate invariant level of the disturbed planar error
dynamics, the per-coordinate tracking bounds it induces, the linear ISS
gain and noise floor, hindsight calibration of the overshoot factor, and
the two-phase (transit + decay) settling time with its timing-compatibility
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import SpdMatrix, cubic_roots


@dataclass(frozen=True)
class SettlingTimes:
    """Two-phase settling decomposition tau_LL = tau1 (transit) + tau2 (decay)."""

    tau1: float
    tau2: float
    tau_LL: float
    z_peak: float


@dataclass(frozen=True)
class TimingVerdict:
    """Both timing-compatibility readings, reported side by side.

    period_covers_settling checks T_s >= tau_LL; window_within_transit
    checks 0 <= T_s - tau2 <= tau1. The two differ when the sampling
    period covers the decay phase but not the full transit, so both are
    reported rather than reconciled.
    """

    period_covers_settling: bool
    window_within_transit: bool


def ultimate_level_optimized(P: SpdMatrix, R: SpdMatrix, B, H_max: float):
    """Tight invariant level for planar error dynamics, in closed form.

    The worst-case disturbance can hold V steady along direction b at radius
    a(b) = 2 |b'PB| H_max / (b'Rb); V_bar_h is the maximum of
    f(b) = a(b)^2 b'Pb, homogeneous of degree 0. With b = (1, t), L = b'PB,
    Q = b'Pb and q = b'Rb, the numerator of f' is L (2 L' Q q + L Q' q -
    2 L Q q'), whose second factor is twice the cubic below (its t^4 terms
    cancel). f is taken at the cubic's roots and at b = (0, 1), the root at
    infinity. Returns (V_bar_h, theta_star, z_star = a(b*) b*), theta_star
    in (-pi/2, pi/2] since f(b) = f(-b).
    """
    B0, B1 = map(float, B)  # a ValueError unless B is planar
    if B0 == B1 == 0.0 or H_max == 0.0:
        return 0.0, 0.0, (0.0, 0.0)
    (p0, p1), (_, p2) = P.mat.tolist()
    (r0, r1), (_, r2) = R.mat.tolist()
    l0, l1 = p0 * B0 + p1 * B1, p1 * B0 + p2 * B1  # PB, so that b'PB = l0 b0 + l1 b1
    roots = cubic_roots(l1 * (2.0 * p2 * r1 - p1 * r2) - l0 * p2 * r2,
                        l1 * (2.0 * p2 * r0 + 2.0 * p1 * r1 - p0 * r2) - 3.0 * l0 * p1 * r2,
                        l0 * (p2 * r0 - 2.0 * p0 * r2 - 2.0 * p1 * r1) + 3.0 * l1 * p1 * r0,
                        l0 * (p1 * r0 - 2.0 * p0 * r1) + l1 * p0 * r0)

    def level(b):  # a(b) b and f(b) do not depend on the length of b
        a = 2.0 * abs(l0 * b[0] + l1 * b[1]) * H_max / R.quad(b)
        return a * a * P.quad(b), b, a

    V_bar, b, a = max(map(level, [(0.0, 1.0)] + [(1.0, t) for t in roots]), key=lambda c: c[0])
    return V_bar, math.atan2(b[1], b[0]), (a * b[0], a * b[1])


def coordinate_bound(P_inv: np.ndarray, V_bar_h: float, i: int) -> float:
    """Per-coordinate tracking bound |e_i| <= sqrt(V_bar_h * [P^-1]_ii),
    given the inverse P_inv of the Lyapunov matrix."""
    if i not in (0, 1):
        raise IndexError(f"coordinate {i} out of range for the planar error")
    return math.sqrt(V_bar_h * P_inv[i, i])


def iss_gain(m: float, norm_B: float, lambda_e: float) -> float:
    """Linear ISS gain gamma = m ||B|| / lambda_e."""
    return m * norm_B / lambda_e


def noise_floor(gamma_iss: float, w_max: float) -> float:
    """Ultimate bound epsilon = gamma_iss * w_max; gamma_iss already holds
    ||B||, so it takes the disturbance bound w_max itself."""
    return gamma_iss * w_max


def envelope_decay(times, lambda_e: float) -> np.ndarray:
    """Envelope decay e^{-lambda_e t} at a trajectory's sample times, which
    must be strictly increasing. Computed once per trajectory and passed to
    every calibrate_overshoot call on it."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty trajectory")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("trajectory times must be strictly increasing")
    return np.exp(-lambda_e * times)


def calibrate_overshoot(norms, decay, eps: float, e0_norm: float) -> float:
    """Tightest overshoot factor m for which the exponential envelope
    ||e(t)|| <= m e^{-lambda_e t} ||e0|| + eps (1 - e^{-lambda_e t})
    holds at every sample, given the sampled norms and envelope_decay of
    their times. Clamped below at 1 since the envelope must admit the
    initial error itself.
    """
    if e0_norm == 0.0:
        return 1.0
    ratios = (np.asarray(norms, dtype=float) - eps * (1.0 - decay)) / (decay * e0_norm)
    return max(1.0, float(np.max(ratios)))


def decay_time(m: float, z_peak: float, lambda_e: float, delta: float, eps: float) -> float:
    """Decay phase duration: time for m e^{-lambda_e t} z_peak to reach the
    settling tolerance delta * eps, relative to the noise floor eps.
    Returns 0 when the tolerance already exceeds the peak."""
    arg = m * z_peak / (delta * eps)
    if arg <= 1.0:
        return 0.0
    return math.log(arg) / lambda_e


def settling_time(
    m: float,
    lambda_e: float,
    gamma_iss: float,
    r_bar: float,
    eps: float,
    kappa_lo: float,
    r_lo: float,
    delta: float,
    w_max: float,
    M: float = 0.0,
) -> SettlingTimes:
    """Two-phase settling time of the governed tracking loop.

    Transit: the governor traverses a reference step of size r_bar (plus
    the noise floor eps) at worst-case speed kappa_lo * r_lo, taking
    tau1 = (r_bar + eps) / (kappa_lo * r_lo). The error at the end of
    transit is bounded by
    z_peak = m e^{-lambda_e tau1} (r_bar + eps) + gamma_iss (w_max + M),
    with w_max the disturbance bound (gamma_iss already holds ||B||) and M
    bounding the reference-motion feedforward residual. Decay then
    brings the envelope down to the settling tolerance in tau2.
    """
    if min(m, lambda_e, r_bar + eps, kappa_lo, r_lo, delta) <= 0.0:
        raise ValueError("settling-time inputs must be positive")
    tau1 = (r_bar + eps) / (kappa_lo * r_lo)
    z_peak = m * math.exp(-lambda_e * tau1) * (r_bar + eps) + gamma_iss * (w_max + M)
    tau2 = decay_time(m, z_peak, lambda_e, delta, eps)
    return SettlingTimes(
        tau1=tau1,
        tau2=tau2,
        tau_LL=tau1 + tau2,
        z_peak=z_peak,
    )


def timing_check(T_s: float, times: SettlingTimes) -> TimingVerdict:
    """Evaluate both timing-compatibility readings for a sampling period."""
    window = T_s - times.tau2
    return TimingVerdict(
        period_covers_settling=T_s >= times.tau_LL,
        window_within_transit=0.0 <= window <= times.tau1,
    )
