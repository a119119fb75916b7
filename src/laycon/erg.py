"""Explicit reference governor over a quadratic Lyapunov function.

Maps each half-space constraint on the tracking error to the largest
Lyapunov sublevel value that fits inside it (closed form for quadratic V),
combines them into the safety threshold Gamma(v), and slews the filtered
reference v toward the command r at a rate proportional to the spare
margin Gamma(v) - V(e). The barrier Phi = V(e) - Gamma(v) is <= 0 exactly
on the governed safe set.

GammaEvaluator precomputes the P^-1-metric normal lengths once per
(constraints, P) pair and evaluates every governor quantity from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkit import SpdMatrix, invert_spd


class ZeroNormalError(ValueError):
    """Constraint normal vanishes in the P^-1 metric."""


@dataclass(frozen=True)
class HalfspaceConstraint:
    """One half-space constraint on the error state, c' e <= d(v).

    The error-space normal is the stacked (c_a, c_b) pair (position part,
    rate part). The margin is reference-dependent:
    d(v) = d0 - c_v' v - g_gamma * Gamma, where g_gamma > 0 marks the
    self-referential rows whose margin shrinks with the threshold itself
    (worst-case governor rate entering through the constraint bound).
    """

    c_a: tuple[float, ...]
    c_b: tuple[float, ...]
    d0: float
    c_v: tuple[float, ...]
    g_gamma: float = 0.0
    label: str = ""

    def __post_init__(self):
        if all(x == 0.0 for x in self.c_a) and all(x == 0.0 for x in self.c_b):
            raise ValueError(f"constraint {self.label!r}: (c_a, c_b) must not both be zero")
        if self.g_gamma < 0.0:
            raise ValueError(f"constraint {self.label!r}: g_gamma must be nonnegative")

    @property
    def normal(self) -> np.ndarray:
        return np.array(self.c_a + self.c_b, dtype=float)

    def margin(self, v, gamma_prev: float = 0.0) -> float:
        v = np.asarray(v, dtype=float)
        return float(self.d0 - np.dot(self.c_v, v) - self.g_gamma * gamma_prev)


@dataclass(frozen=True)
class ErgConfig:
    """Governor gains: rate gain, attraction smoothing radius, and the
    per-constraint repulsion strengths (their sum must stay below 1 so the
    attraction field always makes net progress)."""

    kappa_erg: float
    eta: float
    eta_rep: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kappa_erg <= 0.0:
            raise ValueError("kappa_erg must be positive")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if any(x < 0.0 for x in self.eta_rep):
            raise ValueError("repulsion strengths must be nonnegative")
        if self.delta_rep >= 1.0:
            raise ValueError("sum of repulsion strengths must be < 1")

    @property
    def delta_rep(self) -> float:
        return float(sum(self.eta_rep))

    @property
    def kappa_lo(self) -> float:
        return self.kappa_erg * (1.0 - self.delta_rep)

    @property
    def kappa_hi(self) -> float:
        return self.kappa_erg * (1.0 + self.delta_rep)


class GammaEvaluator:
    """Threshold/field evaluation for a fixed constraint set and metric."""

    def __init__(self, constraints, P: SpdMatrix):
        self.constraints = list(constraints)
        if not self.constraints:
            raise ValueError("constraint list must be nonempty")
        self.P = P
        self.pinv = invert_spd(P).mat
        self.denoms = []
        for con in self.constraints:
            c = con.normal
            denom = float(c @ self.pinv @ c)
            if denom <= 0.0:
                raise ZeroNormalError(f"constraint {con.label!r} has zero normal in the P^-1 metric")
            self.denoms.append(denom)
        self.self_referential = any(c.g_gamma > 0.0 for c in self.constraints)

    def gamma_i(self, i: int, v, gamma_prev: float = 0.0) -> float:
        """Largest Lyapunov sublevel value inside constraint i's half-space:
        margin^2 / (c' P^-1 c), clamped to 0 when the margin is nonpositive."""
        margin = self.constraints[i].margin(v, gamma_prev)
        if margin <= 0.0:
            return 0.0
        return margin * margin / self.denoms[i]

    def gamma(self, v, fixed_point_iters: int = 5) -> float:
        """Combined safety threshold Gamma(v) = min_i Gamma_i(v).

        Rows with g_gamma > 0 reference Gamma itself; those are resolved by
        fixed-point iteration seeded from the minimum over the plain rows
        (the map is monotone nonincreasing in its argument, so the iteration
        converges geometrically).
        """
        idx = range(len(self.constraints))
        plain = [self.gamma_i(i, v) for i in idx if self.constraints[i].g_gamma == 0.0]
        g = min(plain) if plain else min(self.gamma_i(i, v, 0.0) for i in idx)
        if not self.self_referential:
            return g
        for _ in range(fixed_point_iters):
            g = min(self.gamma_i(i, v, g) for i in idx)
        return g

    def navigation_field(self, r, v, cfg: ErgConfig) -> np.ndarray:
        """Attraction toward the command plus repulsion away from constraint
        boundaries. Attraction is the unit vector toward r beyond the
        smoothing radius and linear inside it; each repulsion term pushes
        along the margin gradient with strength eta_rep[i], skipping rows
        whose margin is closed or whose gradient is numerically zero."""
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        gap = r - v
        dist = float(np.linalg.norm(gap))
        rho = gap / dist if dist >= cfg.eta else gap / cfg.eta
        if any(cfg.eta_rep):
            g_total = self.gamma(v)
            for i, con in enumerate(self.constraints):
                strength = cfg.eta_rep[i] if i < len(cfg.eta_rep) else 0.0
                if strength == 0.0:
                    continue
                margin = con.margin(v, g_total if con.g_gamma > 0.0 else 0.0)
                if margin <= 0.0:
                    continue
                grad = 2.0 * margin * (-np.asarray(con.c_v, dtype=float)) / self.denoms[i]
                norm = float(np.linalg.norm(grad))
                if norm <= 1e-12:
                    continue
                rho = rho - strength * grad / norm
        return rho

    def erg_rhs(self, e, v, r, cfg: ErgConfig) -> np.ndarray:
        """Governor velocity: kappa_erg * max(0, Gamma(v) - V(e)) * rho(r, v).

        Identically zero whenever V(e) >= Gamma(v); the reference freezes at
        the safety boundary and resumes once the tracking error has decayed.
        """
        v = np.asarray(v, dtype=float)
        margin = self.gamma(v) - self.P.quad(e)
        if margin <= 0.0:
            return np.zeros_like(v)
        return cfg.kappa_erg * margin * self.navigation_field(r, v, cfg)

    def barrier(self, e, v) -> float:
        """Barrier Phi(e, v) = V(e) - Gamma(v); Phi <= 0 on the governed safe set."""
        return self.P.quad(e) - self.gamma(v)

