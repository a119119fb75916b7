"""Explicit reference governor over a quadratic Lyapunov function.

Maps each half-space constraint on the tracking error to the largest
Lyapunov sublevel value that fits inside it (closed form for quadratic V),
combines them into the safety threshold Gamma(v), and slews the filtered
voltage reference v toward the command r at a rate proportional to the
spare margin Gamma(v) - V(e). The barrier Phi = V(e) - Gamma(v) is <= 0
exactly on the governed safe set.

The governor filters one channel, the voltage reference: v and r are
scalars (the battery loop tracks the planner's current reference
directly), so the scalar explicit reference governor of Nicotra & Garone
(2018) applies. GammaEvaluator precomputes the P^-1-metric normal lengths,
and folds the governor gains and the repelling rows' pushes, once per
(constraints, P, gains) triple, and evaluates every governor quantity from
them on Python floats: e is passed as its two entries, v and r as floats,
and the field and the rate come back as floats. The lengths c'P^-1 c and
V(e) are SpdMatrix.quad's float form, so no governor value depends on the
BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import FieldValueError, NonNegative, Positive, check_fields
from .numkit import SpdMatrix, invert_spd


class ZeroNormalError(ValueError):
    """Constraint normal vanishes in the P^-1 metric."""


@dataclass(frozen=True)
class HalfspaceConstraint:
    """One half-space constraint on the error state, c' e <= d(v).

    The error-space normal is the stacked (c_a, c_b) pair (position part,
    rate part). The margin is reference-dependent:
    d(v) = d0 - c_v v - g_gamma * Gamma, where g_gamma > 0 marks the
    self-referential rows whose margin shrinks with the threshold itself
    (worst-case governor rate entering through the constraint bound).
    """

    c_a: tuple[float, ...]
    c_b: tuple[float, ...]
    d0: float
    c_v: float
    g_gamma: float = 0.0
    label: str = ""

    def __post_init__(self):
        if all(x == 0.0 for x in self.c_a) and all(x == 0.0 for x in self.c_b):
            raise ValueError(f"constraint {self.label!r}: (c_a, c_b) must not both be zero")
        if self.g_gamma < 0.0:
            raise ValueError(f"constraint {self.label!r}: g_gamma must be nonnegative")


@dataclass(frozen=True)
class ErgConfig:
    """Governor gains: rate gain, attraction smoothing radius, and the
    per-constraint repulsion strengths (their sum must stay below 1 so the
    attraction field always makes net progress)."""

    kappa_erg: Positive
    eta: Positive
    eta_rep: tuple[NonNegative, ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_fields(self)
        if self.delta_rep >= 1.0:
            raise FieldValueError("eta_rep", "sum of repulsion strengths must be < 1")

    @property
    def delta_rep(self) -> float:
        return float(sum(self.eta_rep))

    @property
    def kappa_lo(self) -> float:
        return self.kappa_erg * (1.0 - self.delta_rep)

    @property
    def kappa_hi(self) -> float:
        return self.kappa_erg * (1.0 + self.delta_rep)


def _row_threshold(margin: float, g_gamma: float, denom: float) -> float:
    """The root of g = (b - a g)^2 / d on [0, b/a), b = margin, a = g_gamma,
    d = denom, or 0 for a closed margin b <= 0: 2b^2 / ((2ab + d) +
    sqrt(d^2 + 4abd)), whose sums add nonnegative terms, so nothing cancels.
    With a = 0 it is bit for bit b * b / d, since sqrt(fl(d * d)) = d while
    d * d is a normal float (d * d overflows, and the root reads 0, only
    for d above 1.3e154)."""
    if margin <= 0.0:
        return 0.0
    return 2.0 * margin * margin / ((2.0 * g_gamma * margin + denom)
                                    + math.sqrt(denom * denom + 4.0 * g_gamma * margin * denom))


class GammaEvaluator:
    """Threshold/field evaluation for a fixed constraint set, metric and
    governor gains.

    Each constraint is held as a float row (d0, c_v, g_gamma, denom),
    denom = pinv.quad(c_a + c_b), and its margin is evaluated as
    d0 - c_v v - g_gamma Gamma. Every row that hess_constraints builds has
    c_v in {1, -1, 0}, so c_v v is exact there. The i-th repulsion strength
    of erg_cfg belongs to the i-th row; a strength without a row is
    rejected at erg.eta_rep.
    """

    def __init__(self, constraints, P: SpdMatrix, erg_cfg: ErgConfig):
        self.constraints = list(constraints)
        if not self.constraints:
            raise ValueError("constraint list must be nonempty")
        if len(erg_cfg.eta_rep) > len(self.constraints):
            # the strengths and the rows come from two config sections
            raise FieldValueError(
                "erg.eta_rep",
                f"{len(erg_cfg.eta_rep)} repulsion strengths for {len(self.constraints)} governor rows",
            )
        self.P = P
        self.kappa_erg = erg_cfg.kappa_erg
        self.eta = erg_cfg.eta
        self.pinv = invert_spd(P)
        self.rows = []
        for con in self.constraints:
            denom = self.pinv.quad(con.c_a + con.c_b)
            if denom <= 0.0:
                raise ZeroNormalError(f"constraint {con.label!r} has zero normal in the P^-1 metric")
            self.rows.append((float(con.d0), float(con.c_v), float(con.g_gamma), denom))
        # (push, row) per repelling row with c_v != 0: while its margin is
        # open, its threshold grows along -c_v, so the field moves by -push
        self.repulsion = [(math.copysign(s, row[1]), row) for s, row in zip(erg_cfg.eta_rep, self.rows)
                          if s != 0.0 and row[1] != 0.0]
        # with no row depending on v (every input_only row), Gamma is the
        # same for every v; d0 - 0 is exact
        self.constant = None
        if all(c_v == 0.0 for _, c_v, _, _ in self.rows):
            self.constant = min(_row_threshold(d0, g_gamma, denom) for d0, _, g_gamma, denom in self.rows)

    def gamma_i(self, i: int, v: float) -> float:
        """Largest Lyapunov sublevel value inside constraint i's half-space at
        v once its margin d0 - c_v v shrinks by g_gamma times it."""
        d0, c_v, g_gamma, denom = self.rows[i]
        return _row_threshold(d0 - c_v * v, g_gamma, denom)

    def gamma(self, v: float) -> float:
        """Combined safety threshold Gamma(v): the fixed point of
        G(g) = min_i f_i(g), f_i(g) = (b_i - a_i g)_+^2 / d_i, with margin
        b_i = d0_i - c_v_i v. It is min_i g_i, g_i = gamma_i(v) the fixed
        point of f_i: each f_i is continuous and nonincreasing, so f_i(g) >= g
        exactly for g <= g_i, hence G(g) >= g exactly for g <= min_i g_i, and
        the strictly decreasing G(g) - g vanishes only there. Each g_i is
        nondecreasing in b_i, since f_i is at every g, so Gamma is
        nondecreasing in every margin. A constant threshold is returned as is.
        """
        if self.constant is not None:
            return self.constant
        return min([_row_threshold(d0 - c_v * v, g_gamma, denom) for d0, c_v, g_gamma, denom in self.rows])

    def navigation_field(self, r: float, v: float, gamma_v: float) -> float:
        """Attraction toward the command r plus repulsion away from constraint
        boundaries, at v with threshold gamma_v = Gamma(v), the value erg_rhs
        has just computed. Attraction is sign(r - v) beyond the smoothing
        radius and linear inside it; each repelling row with an open margin
        adds -eta_rep[i] sign(c_v), which points away from its bound."""
        gap = r - v
        dist = abs(gap)
        rho = gap / (dist if dist >= self.eta else self.eta)
        for push, (d0, c_v, g_gamma, _) in self.repulsion:
            if d0 - c_v * v - g_gamma * gamma_v > 0.0:
                rho = rho - push
        return rho

    def erg_rhs(self, e1: float, e2: float, v: float, r: float) -> float:
        """Governor velocity kappa_erg * max(0, Gamma(v) - V(e)) * rho(r, v)
        at e = (e1, e2).

        Identically zero whenever V(e) >= Gamma(v); the reference freezes at
        the safety boundary and resumes once the tracking error has decayed.
        With v at the command and no repelling row the field is 0, and so is
        the rate, without Gamma or V(e): kappa_erg * margin * 0.0 is 0.0.
        """
        if r - v == 0.0 and not self.repulsion:
            return 0.0
        gamma_v = self.gamma(v)
        margin = gamma_v - self.P.quad((e1, e2))
        if margin <= 0.0:
            return 0.0
        return self.kappa_erg * margin * self.navigation_field(r, v, gamma_v)
