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

from .numkit import SpdMatrix


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


def _planar_level(theta, P, R, B, H_max):
    b = np.array([math.cos(theta), math.sin(theta)])
    a = 2.0 * abs(b @ P @ B) * H_max / (b @ R @ b)
    return a * a * (b @ P @ b), a


def ultimate_level_optimized(P: SpdMatrix, R: SpdMatrix, B, H_max: float):
    """Tight invariant level for planar error dynamics.

    Maximizes V(z) over the locus where the worst-case disturbance can hold
    V steady: along direction b(theta) that radius is
    a(theta) = 2 |b'PB| H_max / (b'Rb). Returns (V_bar_h, theta_star,
    z_star) with the maximizer found on a 3600-point grid and refined by
    golden-section search to 1e-6 rad.
    """
    B = np.asarray(B, dtype=float).reshape(-1)
    if B.shape[0] != 2:
        raise ValueError("optimized level requires a planar (2-D) error space")
    Pm = P.mat
    Rm = R.mat if isinstance(R, SpdMatrix) else SpdMatrix(R).mat
    if np.all(B == 0.0) or H_max == 0.0:
        return 0.0, 0.0, np.zeros(2)

    thetas = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
    bs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    a = 2.0 * np.abs(bs @ Pm @ B) * H_max / np.einsum("ij,jk,ik->i", bs, Rm, bs)
    vals = a * a * np.einsum("ij,jk,ik->i", bs, Pm, bs)
    k = int(np.argmax(vals))
    step = thetas[1] - thetas[0]

    # golden-section refinement on the bracketing interval
    lo, hi = thetas[k] - step, thetas[k] + step
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, _ = _planar_level(x1, Pm, Rm, B, H_max)
    f2, _ = _planar_level(x2, Pm, Rm, B, H_max)
    while hi - lo > 1e-6:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2, _ = _planar_level(x2, Pm, Rm, B, H_max)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1, _ = _planar_level(x1, Pm, Rm, B, H_max)
    theta_star = 0.5 * (lo + hi)
    V_bar, a_star = _planar_level(theta_star, Pm, Rm, B, H_max)
    z_star = a_star * np.array([math.cos(theta_star), math.sin(theta_star)])
    return float(V_bar), float(theta_star), z_star


def coordinate_bound(P_inv: np.ndarray, V_bar_h: float, i: int) -> float:
    """Per-coordinate tracking bound |e_i| <= sqrt(V_bar_h * [P^-1]_ii),
    given the inverse P_inv of the Lyapunov matrix."""
    if V_bar_h < 0.0:
        raise ValueError("V_bar_h must be nonnegative")
    if i not in (0, 1):
        raise IndexError(f"coordinate {i} out of range for the planar error")
    return math.sqrt(V_bar_h * P_inv[i, i])


def iss_gain(m: float, norm_B: float, lambda_e: float) -> float:
    """Linear ISS gain gamma = m ||B|| / lambda_e."""
    if m < 1.0:
        raise ValueError("overshoot factor m must be >= 1")
    if lambda_e <= 0.0:
        raise ValueError("decay rate must be positive")
    return m * norm_B / lambda_e


def noise_floor(gamma_iss: float, H_max: float) -> float:
    """Ultimate bound epsilon = gamma_iss * H_max."""
    return gamma_iss * H_max


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


def decay_time(m: float, z_peak: float, lambda_e: float, delta: float, eps: float, mode: str = "relative") -> float:
    """Decay phase duration: time for m e^{-lambda_e t} z_peak to reach the
    settling tolerance (delta absolute, or delta*eps relative to the noise
    floor). Returns 0 when the tolerance already exceeds the peak."""
    if mode == "absolute":
        arg = m * z_peak / delta
    elif mode == "relative":
        arg = m * z_peak / (delta * eps)
    else:
        raise ValueError(f"unknown settling mode {mode!r}")
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
    H_max: float,
    M: float = 0.0,
    mode: str = "relative",
) -> SettlingTimes:
    """Two-phase settling time of the governed tracking loop.

    Transit: the governor traverses a reference step of size r_bar (plus
    the noise floor eps) at worst-case speed kappa_lo * r_lo, taking
    tau1 = (r_bar + eps) / (kappa_lo * r_lo). The error at the end of
    transit is bounded by
    z_peak = m e^{-lambda_e tau1} (r_bar + eps) + gamma_iss (H_max + M),
    with M bounding the reference-motion feedforward residual. Decay then
    brings the envelope down to the settling tolerance in tau2.
    """
    if min(m, lambda_e, r_bar + eps, kappa_lo, r_lo, delta) <= 0.0:
        raise ValueError("settling-time inputs must be positive")
    tau1 = (r_bar + eps) / (kappa_lo * r_lo)
    z_peak = m * math.exp(-lambda_e * tau1) * (r_bar + eps) + gamma_iss * (H_max + M)
    tau2 = decay_time(m, z_peak, lambda_e, delta, eps, mode)
    return SettlingTimes(
        tau1=tau1,
        tau2=tau2,
        tau_LL=tau1 + tau2,
        z_peak=z_peak,
    )


def timing_check(T_s: float, times: SettlingTimes) -> TimingVerdict:
    """Evaluate both timing-compatibility readings for a sampling period."""
    if T_s <= 0.0:
        raise ValueError("sampling period must be positive")
    window = T_s - times.tau2
    return TimingVerdict(
        period_covers_settling=T_s >= times.tau_LL,
        window_within_transit=0.0 <= window <= times.tau1,
    )
