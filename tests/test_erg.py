import numpy as np
import pytest
from helpers import GAINS, gamma_iterated
from hypothesis import given, settings
from hypothesis import strategies as st

from laycon.erg import ErgConfig, GammaEvaluator, HalfspaceConstraint
from laycon.numkit import SpdMatrix, solve_lyapunov

P_EYE = SpdMatrix(np.eye(2))


def plain_row(d0=2.0, c_a=(1.0,), c_b=(0.0,), c_v=0.0, g=0.0, label="row"):
    return HalfspaceConstraint(c_a=c_a, c_b=c_b, d0=d0, c_v=c_v, g_gamma=g, label=label)


class TestGammaI:
    def test_identity_metric(self):
        assert GammaEvaluator([plain_row()], P_EYE, GAINS).gamma_i(0, 0.0) == pytest.approx(4.0)

    def test_published_input_threshold(self):
        # actuator row with normal (35, 12) against the published gain set
        P = solve_lyapunov(np.array([[0.0, 1.0], [-35.0, -12.0]]), np.diag([100.0, 10.0]))
        row = HalfspaceConstraint(c_a=(35.0,), c_b=(12.0,), d0=50.0, c_v=0.0, label="u_s")
        assert abs(GammaEvaluator([row], P, GAINS).gamma_i(0, 0.0) - 9.3) <= 0.1

    def test_closed_margin_clamps(self):
        row = plain_row(d0=2.0, c_v=1.0)
        assert GammaEvaluator([row], P_EYE, GAINS).gamma_i(0, 3.0) == 0.0

    def test_nonincreasing_toward_bound(self):
        row = plain_row(d0=2.0, c_v=1.0)
        vs = np.linspace(-1.0, 3.0, 41)
        vals = [GammaEvaluator([row], P_EYE, GAINS).gamma_i(0, v) for v in vs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestGamma:
    def test_single_row(self):
        row = plain_row()
        assert GammaEvaluator([row], P_EYE, GAINS).gamma(0.0) == GammaEvaluator([row], P_EYE, GAINS).gamma_i(0, 0.0)

    def test_min_over_rows(self):
        rows = [plain_row(d0=2.0), plain_row(d0=1.0, c_a=(0.0,), c_b=(1.0,))]
        assert GammaEvaluator(rows, P_EYE, GAINS).gamma(0.0) == pytest.approx(1.0)

    def test_self_referential_fixed_point(self):
        rows = [
            plain_row(d0=np.sqrt(200.0)),
            HalfspaceConstraint(c_a=(0.0,), c_b=(1.0,), d0=10.0, c_v=0.0, g_gamma=0.01),
        ]
        gam = GammaEvaluator(rows, P_EYE, GAINS)
        g = gam.gamma(0.0)
        assert g == pytest.approx(gamma_iterated(gam, 0.0), rel=1e-12)
        # the fixed point reproduces itself through the margin map
        assert min(200.0, (10.0 - 0.01 * g) ** 2) == pytest.approx(g, rel=1e-12)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_gamma_is_the_fixed_point(self, data):
        """Gamma equals the settled iteration, and G(Gamma) = Gamma with
        G(g) = min_i (b_i - a_i g)_+^2 / d_i, over rows with open and closed
        margins, with and without a Gamma term. Each a_i is drawn below
        rate * d_i / (2 b_max), rate < 1, so that the iteration converges."""
        rows = []
        for _ in range(data.draw(st.integers(1, 4))):
            c_a = data.draw(st.floats(0.5, 3.0)) * data.draw(st.sampled_from([-1.0, 1.0]))
            c_b = data.draw(st.floats(-3.0, 3.0))
            rate = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
            rows.append(plain_row(d0=data.draw(st.floats(-5.0, 10.0)), c_a=(c_a,), c_b=(c_b,),
                                  c_v=data.draw(st.sampled_from([0.0, 1.0, -1.0, 0.5])),
                                  g=rate * (c_a * c_a + c_b * c_b) / (2.0 * 13.0)))
        v = data.draw(st.floats(-3.0, 3.0))
        gam = GammaEvaluator(rows, P_EYE, GAINS)
        g = gam.gamma(v)
        assert g == pytest.approx(gamma_iterated(gam, v), rel=1e-12, abs=0.0)
        margin_map = min(max(d0 - c_v * v - g_gamma * g, 0.0) ** 2 / denom
                         for d0, c_v, g_gamma, denom in gam.rows)
        assert margin_map == pytest.approx(g, rel=1e-12, abs=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GammaEvaluator([], P_EYE, GAINS).gamma(0.0)


class TestNavigationField:
    CFG = ErgConfig(kappa_erg=1.0, eta=0.5)
    GAMMA = 4.0  # plain_row()'s threshold in the identity metric

    def test_zero_at_target(self):
        assert GammaEvaluator([plain_row()], P_EYE, self.CFG).navigation_field(1.0, 1.0, self.GAMMA) == 0.0

    def test_unit_beyond_radius(self):
        gam = GammaEvaluator([plain_row()], P_EYE, self.CFG)
        assert gam.navigation_field(1.0, 0.0, self.GAMMA) == 1.0
        assert gam.navigation_field(-1.0, 0.0, self.GAMMA) == -1.0

    def test_continuity_at_radius(self):
        r = self.CFG.eta
        gam = GammaEvaluator([plain_row()], P_EYE, self.CFG)
        inside = gam.navigation_field(r * 0.999, 0.0, self.GAMMA)
        outside = gam.navigation_field(r * 1.001, 0.0, self.GAMMA)
        assert abs(inside - outside) <= 2e-3

    def test_attraction_bounded(self):
        rng = np.random.default_rng(23)
        for r, v in rng.uniform(-5, 5, (100, 2)).tolist():
            rho = GammaEvaluator([plain_row()], P_EYE, self.CFG).navigation_field(r, v, self.GAMMA)
            assert abs(rho) <= 1.0

    def test_repulsion_points_away_from_bound(self):
        # at v = r, where attraction is 0, the bound v <= 2 (a v_max row,
        # c_v = 1) pushes v down and the bound v >= -2 (a v_min row,
        # c_v = -1) pushes it up
        cfg = ErgConfig(kappa_erg=1.0, eta=0.5, eta_rep=(0.1,))
        for c_v, rho in ((1.0, -0.1), (-1.0, 0.1)):
            gam = GammaEvaluator([plain_row(d0=2.0, c_v=c_v)], P_EYE, cfg)
            assert gam.navigation_field(0.0, 0.0, gam.gamma(0.0)) == rho


class TestErgRhs:
    CFG = ErgConfig(kappa_erg=3.0, eta=0.1)

    def test_frozen_at_boundary(self):
        row = plain_row(d0=2.0)  # Gamma = 4 at v = 0
        e = (2.0, 0.0)  # V(e) = 4
        assert GammaEvaluator([row], P_EYE, self.CFG).erg_rhs(*e, 0.0, 5.0) == 0.0

    def test_frozen_beyond_boundary(self):
        row = plain_row(d0=2.0)
        e = (3.0, 0.0)  # V(e) = 9 > 4
        assert GammaEvaluator([row], P_EYE, self.CFG).erg_rhs(*e, 0.0, 5.0) == 0.0

    def test_speed_scales_with_margin(self):
        row = plain_row(d0=2.0)  # Gamma = 4
        e = (np.sqrt(2.0), 0.0)  # V(e) = 2 -> margin 2
        assert GammaEvaluator([row], P_EYE, self.CFG).erg_rhs(*e, 0.0, 10.0) == pytest.approx(6.0)
        assert GammaEvaluator([row], P_EYE, self.CFG).erg_rhs(*e, 0.0, -10.0) == pytest.approx(-6.0)

    def test_zero_field_skips_gamma(self, monkeypatch):
        # v at the command and no repelling row: the rate is the general
        # path's kappa * margin * 0.0 = 0.0, returned without Gamma or V(e)
        gam = GammaEvaluator([plain_row(d0=2.0, c_v=1.0)], P_EYE, self.CFG)
        general = gam.kappa_erg * (gam.gamma(0.5) - 1.0) * gam.navigation_field(0.5, 0.5, gam.gamma(0.5))
        monkeypatch.setattr(GammaEvaluator, "gamma", None)
        assert gam.erg_rhs(1.0, 0.0, 0.5, 0.5) == general == 0.0


class TestConstantGamma:
    """With every row's c_v = 0, gamma returns a threshold computed
    once; it must equal the general evaluation."""

    P = solve_lyapunov(np.array([[0.0, 1.0], [-35.0, -12.0]]), np.diag([100.0, 10.0]))

    def test_equals_general_evaluation(self):
        rng = np.random.default_rng(5)
        rows = [
            HalfspaceConstraint(c_a=(35.0,), c_b=(12.0,), d0=50.0, c_v=0.0),
            HalfspaceConstraint(c_a=(-35.0,), c_b=(-12.0,), d0=47.3, c_v=-0.0),
            HalfspaceConstraint(c_a=(0.0,), c_b=(1.0,), d0=-1.0, c_v=0.0),
        ]
        for subset in (rows[:1], rows[:2], rows):
            gam = GammaEvaluator(subset, self.P, GAINS)
            assert gam.constant is not None
            for v in [0.0, -0.0] + rng.uniform(-1e3, 1e3, 200).tolist():
                general = min(gam.gamma_i(i, v) for i in range(len(subset)))
                assert gam.gamma(v) == general

    def test_not_taken_when_a_row_depends_on_v(self):
        rows = [plain_row(d0=2.0), plain_row(d0=3.0, c_v=1.0)]
        gam = GammaEvaluator(rows, P_EYE, GAINS)
        assert gam.constant is None
        assert gam.gamma(2.5) == pytest.approx(0.25)

    def test_taken_when_rows_depend_on_gamma_only(self):
        rows = [plain_row(d0=3.0), plain_row(d0=3.0, g=0.1)]
        gam = GammaEvaluator(rows, P_EYE, GAINS)
        assert gam.constant is not None
        assert gam.constant < 9.0  # the fixed point shrinks the second margin
        assert gam.constant == gam.gamma_i(1, 0.0) == pytest.approx(gamma_iterated(gam, 0.0), rel=1e-12)
