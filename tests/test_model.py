"""Tests for parameter validation, states, and the one-step operator."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import SHOWCASE, identity_params, interior_params, origin_only_params, valid_params
from mosquito_allee import (
    ConfigurationError,
    DomainError,
    Params,
    State,
    derived_constants,
    step_w0,
)
from mosquito_allee.model import _w0_xy


class TestParams:
    def test_rejects_nonpositive_rates(self):
        base = dict(alpha=0.8, beta=0.9, gamma=2.0, mu=0.4)
        for override in ({"alpha": 0.0}, {"beta": -1.0}, {"gamma": 0.0}, {"mu": -0.2}):
            with pytest.raises(ConfigurationError):
                Params(**{**base, **override})

    def test_rejects_negative_death_rates(self):
        # the larval-death rates are no longer fields: d0 or d1 is refused whatever its sign
        with pytest.raises(TypeError):
            Params(alpha=0.8, beta=0.9, gamma=2.0, mu=0.4, d0=-0.1)
        with pytest.raises(TypeError):
            Params(alpha=0.8, beta=0.9, gamma=2.0, mu=0.4, d1=-1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Params(alpha=float("nan"), beta=0.9, gamma=2.0, mu=0.4)
        with pytest.raises(DomainError):
            Params(alpha=0.8, beta=float("inf"), gamma=2.0, mu=0.4)

    def test_coerces_to_float(self):
        p = Params(alpha=1, beta=2, gamma=3, mu=1)
        assert isinstance(p.alpha, float) and isinstance(p.mu, float)

    def test_analysis_valid_flag(self):
        # the regime is no flag: a Params exists only inside it
        assert not hasattr(SHOWCASE, "analysis_valid")
        Params(alpha=1.0, beta=0.9, gamma=2.0, mu=1.0)
        with pytest.raises(ConfigurationError, match="^alpha must be in"):
            Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4)
        with pytest.raises(ConfigurationError, match="^mu must be in"):
            Params(alpha=0.8, beta=0.9, gamma=2.0, mu=1.2)

    def test_require_analysis_valid_raises(self):
        # construction raises what require_analysis_valid() used to
        assert not hasattr(Params, "require_analysis_valid")
        with pytest.raises(ConfigurationError, match=r"^alpha must be in \(0, 1\], got 1\.5$"):
            Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4)

    def test_analysis_regime_is_checked_at_construction(self):
        # the one check of 0 < alpha, mu <= 1: no routine can be handed a set outside it
        base = dict(alpha=0.8, beta=0.9, gamma=2.0, mu=0.4)
        edge = Params(**{**base, "alpha": 1.0, "mu": 1.0})
        assert (edge.alpha, edge.mu) == (1.0, 1.0)
        tiny = Params(alpha=5e-324, beta=5e-324, gamma=5e-324, mu=5e-324)
        assert (tiny.alpha, tiny.beta, tiny.gamma, tiny.mu) == (5e-324,) * 4
        above_one = math.nextafter(1.0, math.inf)
        for name in ("alpha", "mu"):
            with pytest.raises(ConfigurationError, match=rf"^{name} must be in \(0, 1\], got {above_one!r}$"):
                Params(**{**base, name: above_one})
        for name in ("d0", "d1"):
            with pytest.raises(TypeError):
                Params(**base, **{name: 0.0})
        assert Params.__match_args__ == ("alpha", "beta", "gamma", "mu")


class TestState:
    def test_rejects_negative_coordinates(self):
        with pytest.raises(DomainError):
            State(-1e-12, 0.0)
        with pytest.raises(DomainError):
            State(0.0, -3.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            State(float("nan"), 1.0)
        with pytest.raises(DomainError):
            State(1.0, float("inf"))

    def test_value_semantics(self):
        assert State(1.0, 2.0) == State(1.0, 2.0)
        assert len({State(1.0, 2.0), State(1.0, 2.0)}) == 1


def emergence(x):
    """The competition response ``x/(1+x)``, read off the kernel.

    With ``alpha = mu = 1`` and no adults the adult image is the
    emergence flux ``alpha*x/(1+x)`` alone.
    """
    return _w0_xy(1.0, SHOWCASE.beta, SHOWCASE.gamma, 1.0, x, 0.0 * x)[1]


def birth_term(y):
    """The larvae born in one step, ``y * beta*y/(gamma+y)``, read off the kernel at ``x = 0``."""
    p = SHOWCASE
    return _w0_xy(p.alpha, p.beta, p.gamma, p.mu, 0.0 * y, y)[0]


class TestKResponse:
    def test_exact_values(self):
        assert emergence(0.0) == 0.0
        assert emergence(1.0) == 0.5
        assert emergence(4.0) == 0.8

    def test_strictly_increasing_and_bounded(self):
        grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 200)])
        values = emergence(grid)
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values < 1.0)


class TestAlleeBirthRate:
    def test_exact_values(self):
        # the per-adult rate beta*y/(gamma+y) is 0, 0.45 and 0.4 at these densities
        assert birth_term(0.0) == 0.0
        assert birth_term(2.0) == 2.0 * 0.45
        assert birth_term(1.6) == pytest.approx(1.6 * 0.4, rel=1e-15)

    def test_strictly_increasing_and_saturating(self):
        grid = np.geomspace(1e-6, 1e6, 200)
        values = birth_term(grid) / grid
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values < SHOWCASE.beta)
        assert values[-1] > 0.999 * SHOWCASE.beta


class TestStepW0:
    def test_origin_is_fixed(self):
        image = step_w0(SHOWCASE, State(0.0, 0.0))
        assert image.x == 0.0 and image.y == 0.0

    def test_showcase_image(self):
        image = step_w0(SHOWCASE, State(0.2, 4.0))
        assert image.x == 2.466666666666667
        assert image.y == 2.533333333333333

    def test_showcase_fixed_point_is_exactly_fixed(self):
        image = step_w0(SHOWCASE, State(4.0, 1.6))
        assert image.x == 4.0 and image.y == 1.6

    def test_requires_analysis_regime(self):
        # the out-of-regime set is refused when its Params is built, before step_w0 runs
        with pytest.raises(ConfigurationError):
            step_w0(Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4), State(1.0, 1.0))
        with pytest.raises(TypeError):
            step_w0(Params(alpha=0.8, beta=0.9, gamma=2.0, mu=0.4, d0=0.1), State(1.0, 1.0))

    def test_quadrant_preserved_in_regime(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            p = valid_params(rng)
            s = State(float(rng.uniform(0.0, 1e4)), float(rng.uniform(0.0, 1e4)))
            image = step_w0(p, s)
            assert image.x >= 0.0 and image.y >= 0.0


class TestDerivedConstants:
    def test_showcase_values(self):
        dc = derived_constants(SHOWCASE)
        assert dc.threshold_beta == 0.8
        assert dc.y_limit == 2.0
        assert dc.allee_threshold_gamma == pytest.approx(2.5, abs=1e-12)

    def test_allee_threshold_absent_when_beta_at_most_mu(self):
        dc = derived_constants(Params(alpha=1.0, beta=0.5, gamma=1.0, mu=1.0))
        assert dc.allee_threshold_gamma is None
        assert dc.threshold_beta == 2.0
        assert dc.y_limit == 1.0

    def test_existence_boundary_consistency(self):
        # beta exactly at threshold: neither form claims existence
        dc = derived_constants(Params(alpha=0.8, beta=0.8, gamma=2.0, mu=0.4))
        assert not (0.8 > dc.threshold_beta)
        assert not (2.0 < dc.allee_threshold_gamma)

    def test_two_existence_forms_agree(self):
        rng = np.random.default_rng(13)
        for sampler in (valid_params, interior_params, origin_only_params):
            for _ in range(200):
                p = sampler(rng)
                dc = derived_constants(p)
                if dc.allee_threshold_gamma is None:
                    assert p.beta <= p.mu
                    continue
                assert (p.beta > dc.threshold_beta) == (p.gamma < dc.allee_threshold_gamma)

    def test_requires_analysis_regime(self):
        with pytest.raises(ConfigurationError):
            derived_constants(Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4))

    @pytest.mark.parametrize("beta", [1e300, 1.5e308])
    def test_overflowing_intermediate_keeps_a_finite_threshold(self, beta):
        # gamma*mu/alpha = 1e313 overflows, but mu*(1 + 1e313) = 1e308 does not
        p = Params(alpha=1e-10, beta=beta, gamma=1e308, mu=1e-5)
        dc = derived_constants(p)
        exact = Fraction(p.mu) * (1 + Fraction(p.gamma) * Fraction(p.mu) / Fraction(p.alpha))
        assert dc.threshold_beta == float(exact) == 1.0000000000000002e308
        # the two existence forms agree, where the inf threshold made them disagree
        assert (p.beta > dc.threshold_beta) == (p.gamma < dc.allee_threshold_gamma) == (beta > 1e300)

    def test_subnormal_mu_squared_reports_all_three_constants(self):
        # mu*mu = 2.25e-320 is subnormal, so the gamma form keeps a few bits and
        # rounds to the other side of gamma than the beta form, far from the threshold
        p = Params(alpha=1.0, beta=1e-150, gamma=4.4444691839e169, mu=1.5e-160)
        dc = derived_constants(p)
        assert dc.threshold_beta == p.mu * (1.0 + p.gamma * p.mu / p.alpha) == 1.0000055665275e-150
        assert dc.y_limit == p.alpha / p.mu
        assert dc.allee_threshold_gamma == p.alpha * (p.beta - p.mu) / (p.mu * p.mu)
        assert not p.beta > dc.threshold_beta and p.gamma < dc.allee_threshold_gamma

    def test_threshold_beyond_float64_range_stays_inf(self):
        assert derived_constants(Params(alpha=1e-300, beta=1.0, gamma=1e10, mu=1.0)).threshold_beta == math.inf


class TestTotalChangeIdentity:
    """The one-step change of x+y equals the net birth/death balance.

    Summing the two update rules, the emergence flux cancels and
    (x'+y') - (x+y) must equal beta*y^2/(gamma+y) - mu*y in the
    death-free map, for any state whatsoever.
    """

    @staticmethod
    def _check(p: Params, x: float, y: float) -> None:
        s = State(x, y)
        image = step_w0(p, s)
        lhs = (image.x + image.y) - (s.x + s.y)
        rhs = p.beta * y * y / (p.gamma + y) - p.mu * y
        assert abs(lhs - rhs) <= 1e-12

    def test_on_moderate_box_both_regimes(self):
        rng = np.random.default_rng(14)
        for sampler in (interior_params, origin_only_params, identity_params):
            for _ in range(200):
                p = sampler(rng)
                self._check(p, float(rng.uniform(0.0, 100.0)), float(rng.uniform(0.0, 100.0)))


@given(
    alpha=st.floats(0.01, 1.0),
    beta=st.floats(0.01, 3.0),
    gamma=st.floats(0.05, 5.0),
    mu=st.floats(0.01, 1.0),
    x=st.floats(0.0, 1e4),
    y=st.floats(0.0, 1e4),
)
def test_property_quadrant_preservation(alpha, beta, gamma, mu, x, y):
    image = step_w0(Params(alpha=alpha, beta=beta, gamma=gamma, mu=mu), State(x, y))
    assert image.x >= 0.0 and image.y >= 0.0


@given(y1=st.floats(0.0, 1e6), y2=st.floats(0.0, 1e6))
def test_property_birth_rate_monotone(y1, y2):
    lo, hi = sorted((y1, y2))
    # the float birth term is monotone only up to rounding: from y to the
    # next double up it dropped by up to 2 ulps over 4e6 sampled y
    assert birth_term(lo) <= birth_term(hi) + 4.0 * math.ulp(birth_term(hi))
