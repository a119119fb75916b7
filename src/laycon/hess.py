"""Hybrid battery/supercapacitor storage plant and its low-level controllers.

State is (V_gr, I_S, I_B, E_S, E_B): DC bus voltage, supercapacitor and
battery currents, and their accumulated energies. The battery current is
regulated by a proportional loop toward the planner's current reference;
the supercapacitor regulates bus voltage with disturbance-cancelling PD
feedback. The module also builds the governor's constraint library and
the battery-side interface bounds that tie the current loop to the
planner's slew limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

from .erg import HalfspaceConstraint
from .errors import FieldValueError
from .numkit import decay_rate


# Field metadata for a config field that is computed from the plant (and the
# sampling period) by a from_hess constructor, and so is never serialised.
DERIVED = {"derived": True}

ConstraintMode = Literal["full", "input_only", "voltage_only"]


class OutOfSpanError(ValueError):
    """Load profile evaluated outside its time span."""


@dataclass(frozen=True)
class HessParams:
    """Plant constants, controller gains, and operating bounds.

    lambda_b_energy and lambda_s convert bus power to stored energy rate
    (defaulting to 1/V_nom so energies read in ampere-seconds at nominal
    voltage); lambda_b_gain is the battery current-loop gain and must
    exceed the voltage-loop decay rate lambda_e (derived, never serialised)
    so the current settles well within each sampling period.
    """

    c_bus: float = 1.0
    v_nom: float = 400.0
    k1: float = 35.0
    k2: float = 12.0
    lambda_b_gain: float = 50.0
    lambda_b_energy: float = 1.0 / 400.0
    lambda_s: float = 1.0 / 400.0
    v_min: float = 380.0
    v_max: float = 420.0
    i_s_bar: float = 12.0
    i_b_bar: float = 5.0
    u_s_bar: float = 50.0
    u_b_bar: float = 30.0
    lambda_e: float = field(init=False)

    def __post_init__(self):
        for name in ("c_bus", "v_nom", "k1", "k2", "lambda_b_gain", "lambda_b_energy",
                     "lambda_s", "i_s_bar", "i_b_bar", "u_s_bar", "u_b_bar"):
            if getattr(self, name) <= 0.0:
                raise FieldValueError(name, f"{name} must be positive")
        lam_e = decay_rate(self.error_matrix())  # raises NotHurwitzError for bad gains
        if self.lambda_b_gain <= lam_e:
            raise FieldValueError(
                "lambda_b_gain",
                f"battery loop gain {self.lambda_b_gain} must exceed the "
                f"voltage-loop decay rate {lam_e:.3f}",
            )
        object.__setattr__(self, "lambda_e", lam_e)

    def error_matrix(self) -> np.ndarray:
        return np.array([[0.0, 1.0], [-self.k1, -self.k2]])


@dataclass(frozen=True)
class LoadSegment:
    """One piece of the load profile: constant level or a cubic ramp
    (zero slope at both ends, so joins with constant neighbours are C^1)."""

    t_start: float
    t_end: float
    kind: str  # "constant" | "cubic-ramp"
    level_start: float
    level_end: float = 0.0

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise FieldValueError("t_end", "segment must have positive duration")
        if self.kind not in ("constant", "cubic-ramp"):
            raise FieldValueError("kind", f"unknown segment kind {self.kind!r}")


@dataclass(frozen=True)
class LoadProfile:
    """Piecewise C^1 load d(t) with an optional superimposed sinusoid."""

    segments: tuple[LoadSegment, ...]
    osc_amplitude: float = 0.0
    osc_freq_hz: float = 0.0

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise FieldValueError("segments", "load profile needs at least one segment")
        for a, b in zip(segs, segs[1:]):
            if abs(a.t_end - b.t_start) > 1e-12:
                raise FieldValueError("segments", "segments must be contiguous")
        object.__setattr__(self, "segments", segs)

    @property
    def t_span(self) -> tuple[float, float]:
        return self.segments[0].t_start, self.segments[-1].t_end


def scenario_b_load(t_end: float = 6.0) -> LoadProfile:
    """Default time-varying load: 0 A, cubic ramp to -5 A over [0.5, 0.8] s,
    then constant, with a 0.5 A / 2 Hz ripple throughout."""
    return LoadProfile(
        segments=(
            LoadSegment(0.0, 0.5, "constant", 0.0),
            LoadSegment(0.5, 0.8, "cubic-ramp", 0.0, -5.0),
            LoadSegment(0.8, t_end, "constant", -5.0),
        ),
        osc_amplitude=0.5,
        osc_freq_hz=2.0,
    )


def load(times, profile: LoadProfile) -> tuple[np.ndarray, np.ndarray]:
    """Load values and exact derivatives at each of the given times (an
    array of any shape; times within 1e-12 of the span are clamped into it).

    The segment polynomials are evaluated per time in Python floats, since
    numpy's vector s**3 may round differently from the scalar power; the
    ripple takes numpy's vector sin and cos."""
    t = np.asarray(times, dtype=float)
    t0, t1 = profile.t_span
    if t.size and (t.min() < t0 - 1e-12 or t.max() > t1 + 1e-12):
        bad = t[(t < t0 - 1e-12) | (t > t1 + 1e-12)]
        raise OutOfSpanError(f"t={bad[0]} outside load profile span [{t0}, {t1}]")
    t = np.clip(t, t0, t1)
    d = np.zeros_like(t)
    d_dot = np.zeros_like(t)
    prev_end = -np.inf
    for seg in profile.segments:
        # each time belongs to the first segment whose end is at or after it
        on = (t > prev_end) & (t <= seg.t_end)
        prev_end = seg.t_end
        if seg.kind == "constant":
            d[on] = seg.level_start
            continue
        dur = seg.t_end - seg.t_start
        rise = seg.level_end - seg.level_start
        s_rel = [(tk - seg.t_start) / dur for tk in t[on].tolist()]
        d[on] = [seg.level_start + rise * (3.0 * s**2 - 2.0 * s**3) for s in s_rel]
        d_dot[on] = [rise * 6.0 * (s - s**2) / dur for s in s_rel]
    if profile.osc_amplitude != 0.0:
        omega = 2.0 * np.pi * profile.osc_freq_hz
        phase = omega * t
        d += profile.osc_amplitude * np.sin(phase)
        d_dot += profile.osc_amplitude * omega * np.cos(phase)
    return d, d_dot


def plant_rhs(x, u, w: float, d: float, p: HessParams) -> tuple[float, ...]:
    """Continuous-time plant derivative for state (V_gr, I_S, I_B, E_S, E_B),
    as five floats. Only x[0], x[1] and x[2] are read, so x may carry
    further entries (the simulator passes its joint plant/governor state)."""
    v_gr, i_s, i_b = x[0], x[1], x[2]
    u_s, u_b = u
    return (
        (i_s + i_b + d) / p.c_bus,
        u_s + w,
        u_b,
        p.lambda_s * v_gr * i_s,
        p.lambda_b_energy * v_gr * i_b,
    )


def control_uB(i_b: float, i_b_ref: float, lambda_b_gain: float) -> float:
    """Proportional battery current loop; converges exponentially at the gain rate."""
    return -lambda_b_gain * (i_b - i_b_ref)


def control_uS(v_gr: float, i_s: float, v: float, d_bar: float, d_bar_dot: float, p: HessParams) -> float:
    """Supercapacitor input: proportional voltage feedback, damping on the
    bus current balance, and cancellation of the known load rate."""
    return -p.c_bus * p.k1 * (v_gr - v) - p.k2 * (i_s + d_bar) - d_bar_dot


def error_state(x, v: float, v_dot: float, d_bar: float, p: HessParams) -> tuple[float, float]:
    """Voltage-loop tracking error: (V_gr - v, bus-rate error)."""
    return x[0] - v, (x[1] + d_bar) / p.c_bus - v_dot


@dataclass(frozen=True)
class ConstraintConfig:
    """Which governor rows hess_constraints builds, and the margins they reserve."""

    mode: ConstraintMode = "full"
    kappa_bar: float = 0.0
    d_bar_max: float = 0.0
    d_bar_dot_max: float = 0.0

    def __post_init__(self):
        if self.kappa_bar < 0.0:
            raise FieldValueError("kappa_bar", "kappa_bar must be nonnegative")


def hess_constraints(
    p: HessParams,
    erg_mode: ConstraintMode = "full",
    kappa_bar: float = 0.0,
    d_bar_max: float = 0.0,
    d_bar_dot_max: float = 0.0,
) -> list[HalfspaceConstraint]:
    """Governor constraint rows in error coordinates.

    "full" emits the six half-spaces: the voltage box (coupled to the
    reference), the supercapacitor current limit (margin reserved for the
    worst-case load and governor rate, the latter through the threshold
    itself), and the actuator limit on the supercapacitor input.
    "input_only" emits just the actuator pair with no threshold coupling,
    the configuration whose bottleneck value is reported for the full-stack
    scenario. "voltage_only" emits just the voltage box, which shapes the
    logged threshold when the governor is idle.
    """
    if erg_mode not in get_args(ConstraintMode):
        raise ValueError(f"unknown erg_mode {erg_mode!r}")
    voltage_rows = [
        HalfspaceConstraint(c_a=(1.0,), c_b=(0.0,), d0=p.v_max, c_v=(1.0, 0.0), label="v_max"),
        HalfspaceConstraint(c_a=(-1.0,), c_b=(0.0,), d0=-p.v_min, c_v=(-1.0, 0.0), label="v_min"),
    ]
    if erg_mode == "voltage_only":
        return voltage_rows
    k2_eff = p.k2 * p.c_bus
    u_s_eff = p.u_s_bar - d_bar_dot_max / p.c_bus
    input_rows = [
        HalfspaceConstraint(
            c_a=(p.k1,), c_b=(k2_eff,), d0=u_s_eff, c_v=(0.0, 0.0),
            g_gamma=(k2_eff * kappa_bar if erg_mode == "full" else 0.0),
            label="u_s_upper",
        ),
        HalfspaceConstraint(
            c_a=(-p.k1,), c_b=(-k2_eff,), d0=u_s_eff, c_v=(0.0, 0.0),
            g_gamma=(k2_eff * kappa_bar if erg_mode == "full" else 0.0),
            label="u_s_lower",
        ),
    ]
    if erg_mode == "input_only":
        return input_rows
    i_s_eff = p.i_s_bar - d_bar_max
    return voltage_rows + [
        HalfspaceConstraint(
            c_a=(0.0,), c_b=(p.c_bus,), d0=i_s_eff, c_v=(0.0, 0.0),
            g_gamma=p.c_bus * kappa_bar, label="i_s_upper",
        ),
        HalfspaceConstraint(
            c_a=(0.0,), c_b=(-p.c_bus,), d0=i_s_eff, c_v=(0.0, 0.0),
            g_gamma=p.c_bus * kappa_bar, label="i_s_lower",
        ),
    ] + input_rows


def battery_interface_bounds(p: HessParams, t_s: float) -> tuple[float, float]:
    """Slew capacity and residual of the battery current loop over one period.

    Returns (r_bar_b, eps_l_ib): the largest admissible per-period
    reference step and the worst-case leftover current error at the next
    sample. Their sum is identically u_b_bar / lambda_b_gain, which is the
    induction invariant keeping the loop inside its saturation budget.
    """
    if t_s < 0.0:
        raise ValueError("sampling period must be nonnegative")
    budget = p.u_b_bar / p.lambda_b_gain
    decay = np.exp(-p.lambda_b_gain * t_s)
    return budget * (1.0 - decay), budget * decay


def outputs(x) -> tuple[np.ndarray, np.ndarray]:
    """Tracked fast outputs (V_gr, I_B) and sampled slow outputs (E_B, E_S)."""
    return np.array([x[0], x[2]]), np.array([x[4], x[3]])
