"""Canonical operating-point wirings.

Scenario A exercises the disturbed tracking loop alone: planner off,
reference frozen, error started well outside the invariant set, mixed
disturbance. Scenario B runs the full stack (planner, governor,
controllers) against the ramped load, charging the battery to its target.
Both builders return one bundle carrying every object a run or a
certificate needs, so the CLI, the tests, and the sweep driver wire
things identically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .contracts import ContractSpec, MismatchParams
from .erg import ErgConfig, GammaEvaluator
from .errors import FieldValueError
from .hess import (
    ConstraintConfig,
    HessParams,
    LoadProfile,
    battery_interface_bounds,
    hess_constraints,
    scenario_b_load,
)
from .iss_cert import ultimate_level_optimized
from .mpc import PlannerConfig
from .numkit import SpdMatrix, solve_lyapunov
from .sim import SimConfig


@dataclass(frozen=True)
class CertificateInputs:
    """Knobs the offline certificate chain needs beyond the plant model."""

    m_overshoot: float
    h_max: float
    v_bar_h_override: float | None
    kappa_lo: float
    r_lo: float
    settle_delta: float
    settle_mode: Literal["absolute", "relative"]
    ff_residual_bound: float
    eta: float
    lambda_min_p: float
    lambda_max_p: float
    lambda_min_q: float
    l_v: float | None  # None: estimate empirically


@dataclass(frozen=True)
class RunBundle:
    """One configuration, plus what a run and its certificate both read, each
    derived once here and never serialised: the Lyapunov metric P (from the
    plant's error matrix and R), the governor (the Gamma evaluator over the
    rows constraint_cfg selects, and P), the reference r_start at t = 0
    (sim.frozen_reference without a planner, else (v_nom, sim.r_init_ib)),
    the governor's start v_start (sim.v0, or r_start when v0 is None), the
    optimized invariant level (computed on first use) and v_bar_h (the
    override, else that level). A run uses the planner iff planner_cfg is
    not None; without one, sim.frozen_reference is required."""

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
    v_start: tuple[float, float] = field(init=False)

    def __post_init__(self):
        if self.planner_cfg is None and self.sim.frozen_reference is None:
            # spans two sections, so the field is its full key path
            raise FieldValueError("sim.frozen_reference", "no planner: a frozen reference is required")
        P = solve_lyapunov(self.plant.error_matrix(), self.R)
        con = self.constraint_cfg
        rows = hess_constraints(self.plant, con.mode, con.kappa_bar, con.d_bar_max, con.d_bar_dot_max)
        if self.planner_cfg is None:
            r = tuple(map(float, self.sim.frozen_reference))
        else:
            r = (float(self.planner_cfg.v_nom), float(self.sim.r_init_ib))
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "governor", GammaEvaluator(rows, P))
        object.__setattr__(self, "r_start", r)
        object.__setattr__(self, "v_start", r if self.sim.v0 is None else tuple(map(float, self.sim.v0)))

    @functools.cached_property
    def level(self) -> tuple[float, float, np.ndarray]:
        return ultimate_level_optimized(self.P, SpdMatrix(self.R), np.array([0.0, 1.0]), self.cert.h_max)

    @property
    def v_bar_h(self) -> float:
        override = self.cert.v_bar_h_override
        return self.level[0] if override is None else override


def scenario_a(seed: int = 0, t_end: float = 4.0) -> RunBundle:
    """Frozen-reference invariance/decay study at the (25, 11) gain point."""
    plant = HessParams(k1=25.0, k2=11.0)
    w_max = 3.0
    sim = SimConfig(
        t_end=t_end,
        t_s=0.1,
        seed=seed,
        disturbance="mixed",
        w_max=w_max,
        erg_on=False,
        frozen_reference=(400.0, 0.0),
        x0=(403.0, 0.0, 0.0, 0.0, 0.0),  # tracking error starts at (3, 0)
        v0=(400.0, 0.0),
    )
    spec = ContractSpec.from_hess(
        plant, sim.t_s, w_max,
        eps_e=0.5,
        eps_t=0.1,
        eps_l=(0.28, 0.005),
        eps_h=1.0,
        delta=0.1,
        u_bounds=(200.0, plant.u_b_bar),  # supercap input unconstrained here
        y_goal=0.0,
    )
    cert = CertificateInputs(
        m_overshoot=2.94,
        h_max=w_max / plant.c_bus,
        v_bar_h_override=None,
        kappa_lo=1.0,
        r_lo=1.0,
        settle_delta=0.1,
        settle_mode="relative",
        ff_residual_bound=0.0,
        eta=0.01,
        lambda_min_p=1.0,
        lambda_max_p=1.0,
        lambda_min_q=1.0,
        l_v=0.0,
    )
    return RunBundle(
        name="a",
        plant=plant,
        R=np.diag([50.0, 1.0]),
        # governor idle; only the voltage box shapes the logged threshold
        constraint_cfg=ConstraintConfig(mode="voltage_only"),
        erg_cfg=ErgConfig(kappa_erg=1.0, eta=0.05),
        planner_cfg=None,
        spec=spec,
        sim=sim,
        load_profile=None,
        cert=cert,
    )


def scenario_b(seed: int = 0, t_end: float = 6.0) -> RunBundle:
    """Full hierarchy at the (35, 12) gain point: charge 5 A-s under the
    ramped load while the governor certifies the actuator margin."""
    plant = HessParams()
    w_max = 2.0
    sim = SimConfig(
        t_end=t_end,
        t_s=0.1,
        seed=seed,
        disturbance="mixed",
        w_max=w_max,
        erg_on=True,
        x0=(400.0, 0.0, 0.0, 0.0, 0.0),
        v0=(400.0, 0.0),
    )
    # goal on the battery's upper SOC bound (charge to full, no overshoot);
    # per-step tightening 0.02 A-s dominates the battery-channel mismatch,
    # so one bad step cannot strand a nominally feasible plan
    planner_cfg = PlannerConfig.from_hess(
        plant, sim.t_s, horizon=20, q_weight=1.0, e_b_goal=5.0,
        e_b_range=(0.0, 5.0), e_s_range=(-40.0, 40.0), tighten_eps_e=0.02,
    )
    _, eps_l_ib = battery_interface_bounds(plant, sim.t_s)
    spec = ContractSpec.from_hess(
        plant, sim.t_s, w_max,
        eps_e=0.5,
        eps_t=0.2,
        eps_l=(0.15, eps_l_ib),
        eps_h=1.0,
        delta=0.1,
        u_bounds=(plant.u_s_bar, plant.u_b_bar),
        y_goal=planner_cfg.e_b_goal,
    )
    cert = CertificateInputs(
        m_overshoot=1.5,
        h_max=w_max / plant.c_bus,
        v_bar_h_override=0.50,
        kappa_lo=10.0,
        r_lo=1.0,
        settle_delta=0.1,
        settle_mode="relative",
        ff_residual_bound=0.0,
        eta=0.01,
        lambda_min_p=1.0,
        lambda_max_p=1.0,
        lambda_min_q=1.0,
        l_v=None,
    )
    return RunBundle(
        name="b",
        plant=plant,
        R=np.diag([100.0, 10.0]),
        constraint_cfg=ConstraintConfig(mode="input_only"),
        erg_cfg=ErgConfig(kappa_erg=0.1, eta=0.01),
        planner_cfg=planner_cfg,
        spec=spec,
        sim=sim,
        load_profile=scenario_b_load(t_end + planner_cfg.horizon * planner_cfg.t_s),
        cert=cert,
    )


def mismatch_params_for(bundle: RunBundle, z_peak: float, tau1: float, tau2: float,
                        eps1: float, eps2: float, gamma_star: float) -> MismatchParams:
    """Assemble the mismatch-bound inputs from a bundle plus settling data.

    gamma_star is the governor threshold where the governor starts; the
    peak reference rate is the governor gain's upper range times that
    margin.
    """
    plant = bundle.plant
    return MismatchParams(
        z_peak=z_peak,
        eta=bundle.cert.eta,
        eps1=eps1,
        eps2=eps2,
        delta=bundle.cert.settle_delta,
        tau1=tau1,
        tau2=tau2,
        kappa_max=bundle.erg_cfg.kappa_hi * gamma_star,
        v_nom=plant.v_nom,
        lambda_b_energy=plant.lambda_b_energy,
        lambda_b_gain=plant.lambda_b_gain,
        lambda_s=plant.lambda_s,
        i_b_bar=plant.i_b_bar,
        i_s_bar=plant.i_s_bar,
        c_bus=plant.c_bus,
        u_b_bar=plant.u_b_bar,
    )
