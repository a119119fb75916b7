"""Hybrid battery/supercapacitor storage plant and its low-level controllers.

State is (V_gr, I_S, I_B, E_S, E_B): DC bus voltage, supercapacitor and
battery currents, and their accumulated energies. The battery current is
regulated by a proportional loop toward the planner's current reference;
the supercapacitor regulates bus voltage with disturbance-cancelling PD
feedback; both loops and the tracking error are one feedback law. The
module also builds the governor's constraint library and the battery-side
interface bounds that tie the current loop to the planner's slew limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .erg import HalfspaceConstraint
from .errors import FieldValueError, NonNegative, Positive, check_fields
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

    c_bus: Positive = 1.0
    v_nom: Positive = 400.0
    k1: Positive = 35.0
    k2: Positive = 12.0
    lambda_b_gain: Positive = 50.0
    lambda_b_energy: Positive = 1.0 / 400.0
    lambda_s: Positive = 1.0 / 400.0
    v_min: float = 380.0
    v_max: float = 420.0
    i_s_bar: Positive = 12.0
    i_b_bar: Positive = 5.0
    u_s_bar: Positive = 50.0
    u_b_bar: Positive = 30.0
    lambda_e: float = field(init=False)

    def __post_init__(self):
        check_fields(self)
        if not np.isfinite(self.lambda_b_energy / self.lambda_s):
            # the planner scales the supercapacitor SOC by this ratio
            raise FieldValueError("lambda_s", f"lambda_b_energy / lambda_s = "
                                  f"{self.lambda_b_energy:g} / {self.lambda_s:g} is not finite")
        if self.v_min >= self.v_max:
            raise FieldValueError("v_min", f"v_min {self.v_min} must be below v_max {self.v_max}")
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
    kind: Literal["constant", "cubic-ramp"]
    level_start: float
    level_end: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if self.t_end <= self.t_start:
            raise FieldValueError("t_end", "segment must have positive duration")


@dataclass(frozen=True)
class LoadProfile:
    """Piecewise C^1 load d(t) with an optional superimposed sinusoid."""

    segments: tuple[LoadSegment, ...]
    osc_amplitude: float = 0.0
    osc_freq_hz: float = 0.0

    def __post_init__(self):
        check_fields(self)
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


def plant_rhs(v_gr: float, i_s: float, i_b: float, u_s: float, u_b: float,
              w: float, d: float, p: HessParams) -> tuple[float, ...]:
    """Continuous-time plant derivative for state (V_gr, I_S, I_B, E_S, E_B),
    as five floats. The derivative reads only V_gr, I_S and I_B of the
    state, with the inputs (u_S, u_B), the disturbance w and the load d."""
    return (
        (i_s + i_b + d) / p.c_bus,
        u_s + w,
        u_b,
        p.lambda_s * v_gr * i_s,
        p.lambda_b_energy * v_gr * i_b,
    )


def feedback_law(p: HessParams):
    """law(v_gr, i_s, i_b, v, i_b_ref, d, d_dot) -> (u_S, u_B, e1, e2), with
    p's constants folded once: the battery current loop, the supercapacitor
    input (voltage feedback, damping on the bus balance I_S + d + I_B, and
    cancellation of the load rate and of u_B) and the voltage-loop tracking
    error (V_gr - v, balance / c_bus). It takes floats, or arrays of one
    shape whose every element equals the float form bit for bit."""
    neg_gain = -p.lambda_b_gain
    k_v = -p.c_bus * p.k1
    k2, c_bus = p.k2, p.c_bus

    def law(v_gr, i_s, i_b, v, i_b_ref, d, d_dot):
        u_b = neg_gain * (i_b - i_b_ref)
        balance = i_s + (d + i_b)
        u_s = k_v * (v_gr - v) - k2 * balance - (d_dot + u_b)
        return u_s, u_b, v_gr - v, balance / c_bus

    return law


@dataclass(frozen=True)
class ConstraintConfig:
    """Which governor rows hess_constraints builds, and the margins they reserve."""

    mode: ConstraintMode = "full"
    kappa_bar: NonNegative = 0.0
    d_bar_max: NonNegative = 0.0
    d_bar_dot_max: NonNegative = 0.0

    def __post_init__(self):
        check_fields(self)


def hess_constraints(p: HessParams, con: ConstraintConfig) -> list[HalfspaceConstraint]:
    """Governor constraint rows in error coordinates, by con.mode.

    "full" emits the six half-spaces: the voltage box (coupled to the
    reference), the supercapacitor current limit (margin reserved for the
    worst-case load and governor rate, the latter through the threshold
    itself), and the actuator limit on the supercapacitor input.
    "input_only" emits just the actuator pair with no threshold coupling,
    the configuration whose bottleneck value is reported for the full-stack
    scenario. "voltage_only" emits just the voltage box, which shapes the
    logged threshold when the governor is idle.
    """
    voltage_rows = [
        HalfspaceConstraint(c_a=(1.0,), c_b=(0.0,), d0=p.v_max, c_v=1.0, label="v_max"),
        HalfspaceConstraint(c_a=(-1.0,), c_b=(0.0,), d0=-p.v_min, c_v=-1.0, label="v_min"),
    ]
    if con.mode == "voltage_only":
        return voltage_rows
    k2_eff = p.k2 * p.c_bus
    u_s_eff = p.u_s_bar - con.d_bar_dot_max / p.c_bus
    input_rows = [
        HalfspaceConstraint(
            c_a=(p.k1,), c_b=(k2_eff,), d0=u_s_eff, c_v=0.0,
            g_gamma=(k2_eff * con.kappa_bar if con.mode == "full" else 0.0),
            label="u_s_upper",
        ),
        HalfspaceConstraint(
            c_a=(-p.k1,), c_b=(-k2_eff,), d0=u_s_eff, c_v=0.0,
            g_gamma=(k2_eff * con.kappa_bar if con.mode == "full" else 0.0),
            label="u_s_lower",
        ),
    ]
    if con.mode == "input_only":
        return input_rows
    i_s_eff = p.i_s_bar - con.d_bar_max
    return voltage_rows + [
        HalfspaceConstraint(
            c_a=(0.0,), c_b=(p.c_bus,), d0=i_s_eff, c_v=0.0,
            g_gamma=p.c_bus * con.kappa_bar, label="i_s_upper",
        ),
        HalfspaceConstraint(
            c_a=(0.0,), c_b=(-p.c_bus,), d0=i_s_eff, c_v=0.0,
            g_gamma=p.c_bus * con.kappa_bar, label="i_s_lower",
        ),
    ] + input_rows


def battery_interface_bounds(p: HessParams, t_s: float) -> tuple[float, float]:
    """Slew capacity and residual of the battery current loop over one period.

    Returns (r_bar_b, eps_l_ib): the largest admissible per-period
    reference step and the worst-case leftover current error at the next
    sample. Their sum is identically u_b_bar / lambda_b_gain, which is the
    induction invariant keeping the loop inside its saturation budget.
    """
    budget = p.u_b_bar / p.lambda_b_gain
    decay = np.exp(-p.lambda_b_gain * t_s)
    return budget * (1.0 - decay), budget * decay
