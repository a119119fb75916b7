"""Canonical operating points, and the run bundle every run reads.

Scenario A exercises the disturbed tracking loop alone: planner off,
reference frozen, error started well outside the invariant set, mixed
disturbance. Scenario B runs the full stack (planner, governor,
controllers) against the ramped load, charging the battery to its target.
Both are config documents, the same JSON-shaped dicts `--config` files
overlay; `laycon.cli.load_bundle` turns a document into the one
`RunBundle` a run, a certificate or a sweep reads.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from .contracts import ContractSpec
from .erg import ErgConfig, GammaEvaluator
from .errors import Bound, FieldValueError, NonNegative, Positive, check_fields
from .hess import (
    ConstraintConfig,
    HessParams,
    LoadProfile,
    battery_interface_bounds,
    hess_constraints,
)
from .iss_cert import ultimate_level_optimized
from .mpc import PlannerConfig
from .numkit import SpdMatrix, eigenvalues, solve_lyapunov
from .sim import SimConfig


@dataclass(frozen=True)
class CertificateInputs:
    """Knobs the offline certificate chain needs beyond the plant model."""

    m_overshoot: Annotated[float, Bound(1.0)]
    v_bar_h_override: NonNegative | None
    kappa_lo: Positive
    r_lo: Positive
    settle_delta: Positive
    ff_residual_bound: NonNegative
    eta: NonNegative
    lambda_min_p: Positive
    lambda_max_p: Positive
    lambda_min_q: Positive
    l_v: NonNegative | None  # None: estimate empirically

    def __post_init__(self):
        check_fields(self)
        if self.lambda_min_p > self.lambda_max_p:
            raise FieldValueError("lambda_min_p", "lambda_min_p must not exceed lambda_max_p")


@dataclass(frozen=True)
class RunBundle:
    """One configuration, built only by laycon.cli.load_bundle from a config
    document, plus what a run and its certificate both read, each derived
    once here and never serialised: the Lyapunov metric P (from the
    plant's error matrix and R), the governor (the Gamma evaluator over the
    rows constraint_cfg selects, P and erg_cfg; its pinv is the one P^-1
    that the governor and the certificate read), the reference r_start at t = 0
    (sim.frozen_reference without a planner, else (v_nom, sim.r_init_ib)),
    the governor's start v_start, a voltage (sim.v0, or r_start's r_V when
    v0 is None; the battery loop tracks r_IB ungoverned), the
    optimized invariant level (computed on first use) and v_bar_h (the
    override, else that level). A run uses the planner iff planner_cfg is
    not None. The bundle checks the rules that span config sections."""

    name: str
    plant: HessParams
    R: np.ndarray
    constraint_cfg: ConstraintConfig
    erg_cfg: ErgConfig
    planner_cfg: PlannerConfig | None
    spec: ContractSpec
    sim: SimConfig
    load_profile: LoadProfile | None
    cert: CertificateInputs
    P: SpdMatrix = field(init=False)
    governor: GammaEvaluator = field(init=False)
    r_start: tuple[float, float] = field(init=False)
    v_start: float = field(init=False)

    def __post_init__(self):
        # each rule spans sections, so its field is its full key path
        if self.planner_cfg is None and self.sim.frozen_reference is None:
            raise FieldValueError("sim.frozen_reference", "no planner: a frozen reference is required")
        if self.planner_cfg is not None and not self.planner_cfg.slew_bound > 0.0:
            # u_b_bar / lambda_b_gain (1 - exp(-lambda_b_gain t_s)) underflows to zero for a tiny t_s
            raise FieldValueError("sim.t_s", f"t_s {self.sim.t_s:g} gives the planner no slew bound")
        for mu in (-self.plant.lambda_b_gain, *eigenvalues(self.plant.error_matrix())):
            z = self.sim.h * mu  # an RK4 step multiplies the mode mu by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
            growth = abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
            if not growth < 1.0:
                raise FieldValueError("sim.h", f"h times the loop eigenvalue {mu:.6g} is {z:.6g}, where "
                                               f"RK4's step multiplies the mode by {growth:.6g}, not below 1")
        if self.load_profile is not None:
            t0, t1 = self.load_profile.t_span
            t_last = self.sim.last_load_time(None if self.planner_cfg is None else self.planner_cfg.horizon)
            if t0 > 1e-12 or t_last > t1 + 1e-12:
                raise FieldValueError("load.segments", f"load span [{t0}, {t1}] does not cover the times "
                                                       f"[0, {t_last}] the run reads the load at")
        P = solve_lyapunov(self.plant.error_matrix(), self.R)
        con = self.constraint_cfg
        rows = hess_constraints(self.plant, con.mode, con.kappa_bar, con.d_bar_max, con.d_bar_dot_max)
        if self.planner_cfg is None:
            r = tuple(map(float, self.sim.frozen_reference))
        else:
            r = (float(self.planner_cfg.v_nom), float(self.sim.r_init_ib))
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "governor", GammaEvaluator(rows, P, self.erg_cfg))
        object.__setattr__(self, "r_start", r)
        object.__setattr__(self, "v_start", r[0] if self.sim.v0 is None else float(self.sim.v0))

    @functools.cached_property
    def level(self) -> tuple[float, float, tuple[float, float]]:
        # the disturbance w enters the error rate e2' as w / c_bus
        h_max = self.sim.w_max / self.plant.c_bus
        return ultimate_level_optimized(self.P, SpdMatrix(self.R), (0.0, 1.0), h_max)

    @property
    def v_bar_h(self) -> float:
        override = self.cert.v_bar_h_override
        return self.level[0] if override is None else override

    def with_seed(self, seed: int) -> RunBundle:
        """This bundle under another sim.seed, sharing every derived value."""
        out = copy.copy(self)
        object.__setattr__(out, "sim", replace(self.sim, seed=seed))
        return out


def _plant(k1: float, k2: float) -> dict:
    """The plant section at one gain point; every other constant is the
    HessParams default."""
    return {
        "c_bus": 1.0, "v_nom": 400.0, "k1": k1, "k2": k2, "lambda_b_gain": 50.0,
        "lambda_b_energy": 1.0 / 400.0, "lambda_s": 1.0 / 400.0, "v_min": 380.0, "v_max": 420.0,
        "i_s_bar": 12.0, "i_b_bar": 5.0, "u_s_bar": 50.0, "u_b_bar": 30.0,
    }


def scenario_a(seed: int = 0, t_end: float = 4.0) -> dict:
    """Frozen-reference invariance/decay study at the (25, 11) gain point."""
    plant = _plant(k1=25.0, k2=11.0)
    return {
        "scenario": "a",
        "plant": plant,
        "lyapunov_weight": [[50.0, 0.0], [0.0, 1.0]],
        # governor idle; only the voltage box shapes the logged threshold
        "constraints": {"mode": "voltage_only", "kappa_bar": 0.0, "d_bar_max": 0.0, "d_bar_dot_max": 0.0},
        "erg": {"kappa_erg": 1.0, "eta": 0.05, "eta_rep": []},
        "planner": None,
        "contract": {
            "eps_e": 0.5, "eps_t": 0.1, "eps_l": [0.28, 0.005], "eps_h": 1.0, "delta": 0.1,
            "u_bounds": [200.0, plant["u_b_bar"]],  # supercap input unconstrained here
            "y_goal": 0.0,
        },
        "sim": {
            "t_end": t_end, "t_s": 0.1, "h": 0.001, "seed": seed, "disturbance": "mixed",
            "w_max": 3.0, "erg_on": False, "frozen_reference": [400.0, 0.0],
            "x0": [403.0, 0.0, 0.0, 0.0, 0.0],  # tracking error starts at (3, 0)
            "v0": 400.0, "r_init_ib": 0.0,
        },
        "load": None,
        "certificates": {
            "m_overshoot": 2.94, "v_bar_h_override": None, "kappa_lo": 1.0, "r_lo": 1.0, "settle_delta": 0.1,
            "ff_residual_bound": 0.0, "eta": 0.01, "lambda_min_p": 1.0, "lambda_max_p": 1.0,
            "lambda_min_q": 1.0, "l_v": 0.0,
        },
    }


def scenario_b(seed: int = 0, t_end: float = 6.0) -> dict:
    """Full hierarchy at the (35, 12) gain point: charge 5 A-s under the
    ramped load while the governor certifies the actuator margin."""
    plant = _plant(k1=35.0, k2=12.0)
    t_s, horizon = 0.1, 20
    _, eps_l_ib = battery_interface_bounds(HessParams(**plant), t_s)
    return {
        "scenario": "b",
        "plant": plant,
        "lyapunov_weight": [[100.0, 0.0], [0.0, 10.0]],
        "constraints": {"mode": "input_only", "kappa_bar": 0.0, "d_bar_max": 0.0, "d_bar_dot_max": 0.0},
        "erg": {"kappa_erg": 0.1, "eta": 0.01, "eta_rep": []},
        # goal on the battery's upper SOC bound (charge to full, no overshoot);
        # per-step tightening 0.02 A-s dominates the battery-channel mismatch,
        # so one bad step cannot strand a nominally feasible plan
        "planner": {
            "horizon": horizon, "q_weight": 1.0, "e_b_goal": 5.0, "e_b_range": [0.0, 5.0],
            "e_s_range": [-40.0, 40.0], "tighten_eps_e": 0.02,
        },
        "contract": {
            "eps_e": 0.5, "eps_t": 0.2, "eps_l": [0.15, float(eps_l_ib)], "eps_h": 1.0, "delta": 0.1,
            "u_bounds": [plant["u_s_bar"], plant["u_b_bar"]], "y_goal": 5.0,
        },
        "sim": {
            "t_end": t_end, "t_s": t_s, "h": 0.001, "seed": seed, "disturbance": "mixed",
            "w_max": 2.0, "erg_on": True, "frozen_reference": None,
            "x0": [400.0, 0.0, 0.0, 0.0, 0.0], "v0": 400.0, "r_init_ib": 0.0,
        },
        # 0 A, a cubic ramp to -5 A over [0.5, 0.8] s, then constant up to the
        # planner's last forecast time, with a 0.5 A / 2 Hz ripple throughout
        "load": {
            "segments": [
                [0.0, 0.5, "constant", 0.0, 0.0],
                [0.5, 0.8, "cubic-ramp", 0.0, -5.0],
                [0.8, t_end + horizon * t_s, "constant", -5.0, 0.0],
            ],
            "osc_amplitude": 0.5,
            "osc_freq_hz": 2.0,
        },
        "certificates": {
            "m_overshoot": 1.5, "v_bar_h_override": 0.50, "kappa_lo": 10.0, "r_lo": 1.0, "settle_delta": 0.1,
            "ff_residual_bound": 0.0, "eta": 0.01, "lambda_min_p": 1.0, "lambda_max_p": 1.0,
            "lambda_min_q": 1.0, "l_v": None,
        },
    }
