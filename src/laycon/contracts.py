"""Assume-guarantee clause monitors and cross-layer budget checks.

Each clause checker is a pure function over a completed (or accumulating)
trajectory: environment disturbance bound, reference slew, state/input
safety, end-of-period tracking, one-step model mismatch, and the
goal-convergence guarantee. Violations are reported, never raised, so
safety monitoring keeps running after a liveness clause fails.

The module also evaluates the two cross-layer budgets: the vertical
compatibility inequality eps_E + eps_T + delta < eps_H, and the
plant-specific mismatch bound eps_E assembled from transit and settling
contributions of both energy channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonNegative, Positive, check_fields
from .hess import DERIVED, HessParams, battery_interface_bounds
from .iss_cert import SettlingTimes, TimingVerdict


@dataclass(frozen=True)
class ContractSpec:
    """All contract tolerances and the safe-set geometry."""

    eps_e: NonNegative  # one-step abstraction mismatch budget (A-s)
    eps_t: NonNegative  # planner ultimate tracking radius (A-s)
    eps_l: tuple[NonNegative, NonNegative]  # end-of-period tracking tolerance (V, A)
    eps_h: NonNegative  # end-to-end liveness band (A-s)
    r_bar: tuple[float, float] = field(metadata=DERIVED)  # per-period reference step bound (V, A)
    delta: Positive  # settling slack
    v_box: tuple[float, float] = field(metadata=DERIVED)
    i_s_box: tuple[float, float] = field(metadata=DERIVED)
    i_b_box: tuple[float, float] = field(metadata=DERIVED)
    u_bounds: tuple[NonNegative, NonNegative]  # (u_s_bar, u_b_bar)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def from_hess(cls, p: HessParams, t_s: float, **tolerances) -> "ContractSpec":
        """Derive the safe-set boxes from the plant, and the reference step
        bound from the battery loop's per-period slew capacity."""
        return cls(
            r_bar=(0.0, battery_interface_bounds(p, t_s)[0]),
            v_box=(p.v_min, p.v_max),
            i_s_box=(-p.i_s_bar, p.i_s_bar),
            i_b_box=(-p.i_b_bar, p.i_b_bar),
            **tolerances,
        )


@dataclass
class MonitorReport:
    """Per-clause verdict arrays over one run, plus derived liveness data."""

    verdicts: dict[str, np.ndarray] = field(default_factory=dict)
    first_violation: dict[str, int | None] = field(default_factory=dict)
    w_tilde: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    k_live: int | None = None

    def record(self, clause: str, values) -> None:
        arr = np.asarray(values, dtype=bool)
        self.verdicts[clause] = arr
        bad = np.flatnonzero(~arr)
        self.first_violation[clause] = int(bad[0]) if bad.size else None

    def all_pass(self) -> bool:
        """Every invariance-style clause clean; the convergence clause is
        judged by a finite K_live, not by its pre-settling samples."""
        for name, first in self.first_violation.items():
            if name != "G_iss" and first is not None:
                return False
        if "G_iss" in self.verdicts:
            return self.k_live is not None
        return True

    def violation_counts(self) -> dict[str, int]:
        return {k: int(np.sum(~v)) for k, v in self.verdicts.items()}


def _tol(bound):
    """Closed comparisons survive integrator dust at exactly-saturated
    boundaries: 1e-8 absolute plus 1e-8 relative to the bound."""
    return 1e-8 + 1e-8 * np.abs(np.asarray(bound, dtype=float))


def check_A_env(w_samples, w_max: float):
    """Disturbance stays inside its assumed magnitude bound (closed)."""
    w = np.asarray(w_samples, dtype=float)
    return np.abs(w) <= w_max + _tol(w_max)


def check_G_ref(r_seq, r_bar):
    """Per-transition reference step bound, componentwise."""
    r = np.asarray(r_seq, dtype=float)
    if r.ndim == 1:
        r = r[:, None]
    if r.shape[0] < 2:
        raise ValueError("need at least two reference samples")
    steps = np.abs(np.diff(r, axis=0))
    bounds = np.asarray(r_bar, dtype=float)
    return np.all(steps <= bounds + _tol(bounds), axis=1)


def check_G_safe(states, inputs, spec: ContractSpec):
    """Per-sample safety: (V_gr, I_S, I_B) in the safe box and both inputs
    within their saturation limits."""
    x = np.asarray(states, dtype=float)
    u = np.asarray(inputs, dtype=float)
    boxes = (spec.v_box, spec.i_s_box, spec.i_b_box)
    ok = np.ones(x.shape[0], dtype=bool)
    for j, (lo, hi) in enumerate(boxes):
        ok &= (x[:, j] >= lo - _tol(lo)) & (x[:, j] <= hi + _tol(hi))
    ok &= np.abs(u[:, 0]) <= spec.u_bounds[0] + _tol(spec.u_bounds[0])
    ok &= np.abs(u[:, 1]) <= spec.u_bounds[1] + _tol(spec.u_bounds[1])
    return ok


def check_G_track(h_r_at_period_ends, r_seq, eps_l):
    """End-of-period tracking: the fast outputs reached the reference that
    was held over the period, within the componentwise tolerance."""
    ends = np.asarray(h_r_at_period_ends, dtype=float)
    refs = np.asarray(r_seq, dtype=float)
    if ends.shape != refs.shape:
        raise ValueError("sample-end outputs and references must align")
    bounds = np.asarray(eps_l, dtype=float)
    return np.all(np.abs(ends - refs) <= bounds + _tol(bounds), axis=1)


def check_A_mis(y_samples, predictions, eps_e: float):
    """One-step abstraction mismatch w~_k = y_{k+1} - prediction_k, with the
    max-norm over the two energy channels checked against eps_e.
    Returns (verdicts, w~ sequence)."""
    y = np.asarray(y_samples, dtype=float)
    pred = np.asarray(predictions, dtype=float)
    if y.shape[0] != pred.shape[0] + 1:
        raise ValueError("need one more state sample than predictions")
    w_tilde = y[1:] - pred
    verdicts = np.max(np.abs(w_tilde), axis=1) <= eps_e + _tol(eps_e)
    return verdicts, w_tilde


def check_G_iss(e_b_samples, e_b_goal: float, eps_t: float, delta: float):
    """Ultimate-bound reading of the planner's convergence guarantee.

    Returns (per-sample verdicts |E_B - goal| <= eps_t + delta, K_live),
    K_live being the first index from which the bound holds at every later
    sample, or None if it never does.
    """
    e_b = np.asarray(e_b_samples, dtype=float)
    inside = np.abs(e_b - e_b_goal) <= eps_t + delta + _tol(eps_t + delta)
    if not inside.size:
        return inside, None
    holds_from = np.flip(np.logical_and.accumulate(np.flip(inside)))
    idx = np.flatnonzero(holds_from)
    k_live = int(idx[0]) if idx.size else None
    return inside, k_live


def vertical_compat(eps_e: float, eps_t: float, delta: float, eps_h: float) -> bool:
    """Strict cross-layer budget: eps_E + eps_T + delta < eps_H."""
    return eps_e + eps_t + delta < eps_h


@dataclass(frozen=True)
class MismatchBound:
    delta_tr_b: float
    d_ss_b: float
    delta_tr_s: float
    d_ss_s: float
    tau2: float

    @property
    def battery_channel(self) -> float:
        return self.delta_tr_b + self.d_ss_b * self.tau2

    @property
    def supercap_channel(self) -> float:
        return self.delta_tr_s + self.d_ss_s * self.tau2

    @property
    def eps_e(self) -> float:
        """The reported bound eps_E: the larger of the two channel bounds."""
        return float(max(self.battery_channel, self.supercap_channel))


def mismatch_bound_hess(
    plant: HessParams,
    settling: SettlingTimes,
    eps_l,
    kappa_max: float,
    eta: float,
    delta: float,
) -> MismatchBound:
    """Per-period energy prediction-error bound, per channel.

    Each channel pays a fixed transit cost (worst-case maneuver: voltage
    excursion times current bound, plus the settling current integrated
    against the full bus voltage) and a settling-phase drift rate
    multiplied by the decay time. eps_l = (eps1, eps2) bounds the settled
    voltage and bus-rate errors, kappa_max is the peak governor reference
    rate, and delta the settling slack. lambda_b_energy converts bus power
    to battery energy rate; the current-loop gain lambda_b_gain sets how
    fast the battery current reference error burns off within the period.
    The reported eps_E is the max of the two channel bounds, matching the
    max-norm used by the mismatch clause.
    """
    p, z_peak, tau1 = plant, settling.z_peak, settling.tau1
    eps1, eps2 = eps_l
    excursion = p.v_nom + z_peak + eta
    delta_tr_b = (
        p.lambda_b_energy * p.i_b_bar * z_peak * tau1
        + excursion * (p.u_b_bar / p.lambda_b_gain) * (1.0 - np.exp(-p.lambda_b_gain * tau1))
    )
    d_ss_b = p.lambda_b_energy * p.i_b_bar * ((1.0 + delta) * eps1 + eta)
    delta_tr_s = (
        p.lambda_s * p.i_s_bar * (z_peak + eta) * tau1
        + excursion * p.c_bus * (kappa_max + z_peak) * tau1
    )
    d_ss_s = (
        p.lambda_s * p.i_s_bar * ((1.0 + delta) * eps1 + eta)
        + (p.v_nom + eps1 + eta) * p.c_bus * eps2
    )
    return MismatchBound(
        delta_tr_b=float(delta_tr_b),
        d_ss_b=float(d_ss_b),
        delta_tr_s=float(delta_tr_s),
        d_ss_s=float(d_ss_s),
        tau2=settling.tau2,
    )


def certificate_report(
    spec: ContractSpec,
    v_bar_h: float,
    timing: TimingVerdict,
    eps_t: float,
    eps_e: float,
    gamma_inf: float,
) -> dict[str, bool]:
    """The offline compatibility verdicts of one configuration, keyed as in
    certificate.json; all_ok holds iff the other four do.

    The admissibility check compares the disturbance-induced invariant
    level against gamma_inf, the governor threshold at the reference the
    governor starts from.
    """
    verdicts = {
        "admissibility": bool(v_bar_h < gamma_inf),
        "vertical_compat": vertical_compat(eps_e, eps_t, spec.delta, spec.eps_h),
        "timing_period_covers_settling": timing.period_covers_settling,
        "timing_decay_window_ok": timing.window_within_transit,
    }
    verdicts["all_ok"] = all(verdicts.values())
    return verdicts
