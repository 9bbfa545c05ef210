"""Tests for trajectory iteration, invariant regions, and fate classification."""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from helpers import SHOWCASE, analysis_params, interior_params, pumped_kernel, set_cutoffs
from mosquito_allee import dynamics, model
from mosquito_allee import (
    ConfigurationError,
    Params,
    Region,
    State,
    Termination,
    TheoremTag,
    Verdict,
    basin_scan,
    check_adult_bound,
    check_invariance,
    check_sum_identity,
    classify_fate,
    derived_constants,
    interior_fixed_point,
    iterate,
    membership,
    simulate,
    step_w0,
    sum_identity_residual,
)

ORIGIN_ONLY = Params(alpha=0.8, beta=0.7, gamma=2.0, mu=0.4)


def _report_or_error(check, *args):
    """``repr`` of the report, or the type and message of the error raised."""
    try:
        return repr(check(*args))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def fast(monkeypatch):
    """A loose growth tolerance: stops growth runs early in tests that only
    care about the verdict, not the limit accuracy."""
    set_cutoffs(monkeypatch, {"y_limit_tol": 1e-3})


class TestIterate:
    def test_origin_stays_put(self):
        t = iterate(SHOWCASE, State(0.0, 0.0), 100)
        assert t.terminated is Termination.CONVERGED
        assert t.n_steps == 1
        assert t.points[-1] == State(0.0, 0.0)

    def test_fixed_point_stays_put(self):
        fp = interior_fixed_point(SHOWCASE)
        t = iterate(SHOWCASE, fp, 10)
        assert t.terminated is Termination.CONVERGED
        assert t.points == (fp, fp)
        assert t.indices == (0, 1)

    def test_decaying_orbit_converges(self):
        t = iterate(SHOWCASE, State(0.2, 4.0), 10**5)
        assert t.terminated is Termination.CONVERGED
        assert t.n_steps == 299
        assert t.points[-1].x <= 1e-12 and t.points[-1].y <= 1e-12
        assert len(t.points) == 300  # shorter than the window, fully stored

    def test_windowed_storage(self, monkeypatch):
        monkeypatch.setattr(dynamics, "TRAJECTORY_WINDOW", 64)
        t = iterate(SHOWCASE, State(0.2, 5.0), 5000)
        assert t.terminated is Termination.BUDGET
        assert len(t.points) == 129  # 65 head + 64 tail
        assert t.indices[:65] == tuple(range(65))
        assert t.indices[65:] == tuple(range(4937, 5001))
        assert t.n_steps == 5000

    def test_consecutive_points_are_step_images(self, monkeypatch):
        monkeypatch.setattr(dynamics, "TRAJECTORY_WINDOW", 64)
        t = iterate(SHOWCASE, State(0.2, 5.0), 5000)
        for i in range(len(t.points) - 1):
            if t.indices[i + 1] != t.indices[i] + 1:
                continue  # the single window jump
            image = step_w0(SHOWCASE, t.points[i])
            assert image == t.points[i + 1]

    def test_divergence_cutoff(self, monkeypatch):
        set_cutoffs(monkeypatch, {"divergence_x": 1e4})
        t = iterate(SHOWCASE, State(0.2, 5.0), 10**6)
        assert t.terminated is Termination.DIVERGED
        assert t.points[-1].x > 1e4

    @pytest.mark.parametrize(
        "start, budget, thresholds, terminated, n_steps",
        [
            # x1 equals divergence_x, which does not stop the orbit
            ((200.0, 0.0), 5, {"divergence_x": 199.20398009950247}, Termination.BUDGET, 5),
            # step 1 moves by exactly step_tol, step 2 by less
            ((1.0, 1.0), 5, {"step_tol": 0.10000000000000009}, Termination.CONVERGED, 2),
            # the fixed point lies past divergence_x: that rule is checked before the stall
            (dataclasses.astuple(interior_fixed_point(SHOWCASE)), 10, {"divergence_x": 1.0}, Termination.DIVERGED, 1),
        ],
    )
    def test_stop_rules_at_their_boundaries(self, start, budget, thresholds, terminated, n_steps, monkeypatch):
        set_cutoffs(monkeypatch, thresholds)
        t = iterate(SHOWCASE, State(*start), budget)
        assert (t.terminated, t.n_steps) == (terminated, n_steps)

    def test_argument_validation(self):
        # the errors name iterate's own argument
        with pytest.raises(ConfigurationError, match="^max_iter must be >= 1, got 0$"):
            iterate(SHOWCASE, State(1.0, 1.0), 0)


class TestMembership:
    def test_showcase_points(self):
        fp = interior_fixed_point(SHOWCASE)
        assert membership(SHOWCASE, State(0.0, 0.0)) is Region.OMEGA1
        assert membership(SHOWCASE, State(1.0, 1.0)) is Region.OMEGA1
        assert membership(SHOWCASE, State(5.0, 2.0)) is Region.OMEGA2
        assert membership(SHOWCASE, State(0.2, 4.0)) is Region.OUTSIDE
        assert membership(SHOWCASE, fp) is Region.IS_FIXED_POINT

    def test_boundaries_belong_to_regions(self):
        fp = interior_fixed_point(SHOWCASE)
        assert membership(SHOWCASE, State(fp.x, 0.5)) is Region.OMEGA1
        assert membership(SHOWCASE, State(fp.x, 3.0)) is Region.OMEGA2
        assert membership(SHOWCASE, State(0.0, fp.y)) is Region.OMEGA1

    def test_comparisons_are_exact(self):
        # x* is 4 + 3 ulps, so the literal (4.0, 2.0) sits strictly left of
        # the fixed point and outside both regions
        fp = interior_fixed_point(SHOWCASE)
        assert 4.0 < fp.x
        assert membership(SHOWCASE, State(4.0, 2.0)) is Region.OUTSIDE

    def test_requires_interior_point(self):
        with pytest.raises(ConfigurationError):
            membership(ORIGIN_ONLY, State(1.0, 1.0))


class TestClassifyFate:
    def test_decay_outside_regions(self):
        o = classify_fate(SHOWCASE, State(0.2, 4.0))
        assert o.verdict is Verdict.EXTINCTION
        assert o.iterations_used == 277
        assert o.theorem_tag is TheoremTag.EMPIRICAL
        assert o.y_limit_estimate is None
        assert max(o.final_state.x, o.final_state.y) <= 1e-9

    def test_growth_outside_regions(self):
        o = classify_fate(SHOWCASE, State(0.2, 5.0))
        assert o.verdict is Verdict.UNBOUNDED_GROWTH
        assert o.theorem_tag is TheoremTag.EMPIRICAL
        assert abs(o.y_limit_estimate - 2.0) <= 1e-6

    def test_low_adult_split(self):
        ext = classify_fate(SHOWCASE, State(5.6, 0.2))
        grow = classify_fate(SHOWCASE, State(7.0, 0.2))
        assert ext.verdict is Verdict.EXTINCTION and ext.iterations_used == 225
        assert grow.verdict is Verdict.UNBOUNDED_GROWTH
        assert abs(grow.y_limit_estimate - 2.0) <= 1e-6

    def test_region_starts_carry_certificates(self):
        o1 = classify_fate(SHOWCASE, State(1.0, 1.0))
        assert o1.verdict is Verdict.EXTINCTION
        assert o1.theorem_tag is TheoremTag.THM2_OMEGA1
        o2 = classify_fate(SHOWCASE, State(5.0, 2.0))
        assert o2.verdict is Verdict.UNBOUNDED_GROWTH
        assert o2.theorem_tag is TheoremTag.THM2_OMEGA2
        assert abs(o2.y_limit_estimate - 2.0) <= 1e-6
        # the region boundaries belong to the regions from the start on
        fp = interior_fixed_point(SHOWCASE)
        assert classify_fate(SHOWCASE, State(0.5 * fp.x, fp.y)).theorem_tag is TheoremTag.THM2_OMEGA1
        assert classify_fate(SHOWCASE, State(fp.x, fp.y + 1.0)).theorem_tag is TheoremTag.THM2_OMEGA2

    def test_origin_start(self):
        # the origin, and a start on the edge of the origin ball, are extinct at once
        for s0 in (State(0.0, 0.0), State(1e-9, 0.0)):
            o = classify_fate(SHOWCASE, s0)
            assert o.verdict is Verdict.EXTINCTION
            assert o.iterations_used == 0
            assert o.theorem_tag is TheoremTag.THM2_OMEGA1

    def test_fixed_point_start_is_undetermined(self):
        fp = interior_fixed_point(SHOWCASE)
        o = classify_fate(SHOWCASE, fp)
        assert o.verdict is Verdict.UNDETERMINED
        assert o.iterations_used == 0 and o.theorem_tag is None

    def test_numerically_stationary_start_is_undetermined(self):
        # (4.0, 1.6) is not the float fixed point but maps to it in one
        # step; the stall must override the region certificate
        o = classify_fate(SHOWCASE, State(4.0, 1.6))
        assert o.verdict is Verdict.UNDETERMINED
        assert o.iterations_used == 1
        assert o.theorem_tag is None and o.y_limit_estimate is None

    def test_budget_exhaustion_without_certificate(self):
        o = classify_fate(SHOWCASE, State(0.2, 4.0), budget=2)
        assert o.verdict is Verdict.UNDETERMINED
        assert o.iterations_used == 2
        assert o.theorem_tag is None and o.y_limit_estimate is None

    def test_certified_verdicts_survive_budget_exhaustion(self):
        o1 = classify_fate(SHOWCASE, State(1.0, 1.0), budget=3)
        assert o1.verdict is Verdict.EXTINCTION
        assert o1.theorem_tag is TheoremTag.THM2_OMEGA1
        assert o1.iterations_used == 3
        o2 = classify_fate(SHOWCASE, State(5.0, 2.0), budget=10)
        assert o2.verdict is Verdict.UNBOUNDED_GROWTH
        assert o2.theorem_tag is TheoremTag.THM2_OMEGA2
        assert o2.y_limit_estimate is not None  # single-point fallback

    def test_empirical_growth_on_region_entry(self):
        o = classify_fate(SHOWCASE, State(0.2, 5.0), budget=10)
        assert o.verdict is Verdict.UNBOUNDED_GROWTH
        assert o.theorem_tag is TheoremTag.EMPIRICAL

    def test_no_interior_point_certificate(self):
        low = classify_fate(ORIGIN_ONLY, State(3.0, 1.9))
        assert low.verdict is Verdict.EXTINCTION
        assert low.theorem_tag is TheoremTag.THM1_II
        # a high start must first decay through the adult cap en route
        high = classify_fate(ORIGIN_ONLY, State(3.0, 50.0))
        assert high.verdict is Verdict.EXTINCTION
        assert high.theorem_tag is TheoremTag.THM1_II
        assert high.iterations_used > low.iterations_used
        # y = alpha/mu is certified at the start, here inside the origin ball
        tiny = Params(alpha=1e-12, beta=1.0, gamma=1.0, mu=1.0)
        at_cap = classify_fate(tiny, State(0.0, tiny.alpha / tiny.mu))
        assert (at_cap.iterations_used, at_cap.theorem_tag) == (0, TheoremTag.THM1_II)

    def test_argument_validation(self):
        with pytest.raises(ConfigurationError):
            classify_fate(SHOWCASE, State(1.0, 1.0), budget=0)


class TestStallUnderTheorem1ii:
    """A stall does not veto Theorem 1(ii): with no interior point there is
    no float image of ``(x*, y*)`` for an orbit to be pinned at."""

    # 1 - mu rounds to 1, so y stops moving once x is tiny, far below alpha/mu
    PARAMS = Params(alpha=0.5, beta=1e-17, gamma=1.0, mu=1e-17)

    def test_scalar_engine(self):
        o = classify_fate(self.PARAMS, State(1.0, 1.0))
        assert (o.verdict, o.theorem_tag, o.iterations_used) == (Verdict.EXTINCTION, TheoremTag.THM1_II, 50)
        assert o.final_state.y > 1.0  # stalled, not in the origin ball

    def test_simulate(self):
        trajectory, o = simulate(self.PARAMS, State(1.0, 1.0), 1000)
        assert trajectory.terminated is Termination.CONVERGED and trajectory.n_steps == 50
        assert o == classify_fate(self.PARAMS, State(1.0, 1.0), 1000)
        assert (o.verdict, o.theorem_tag) == (Verdict.EXTINCTION, TheoremTag.THM1_II)

    # 0: every cell steps in lockstep; 10**6: every cell on the scalar loop
    @pytest.mark.parametrize("crossover", [0, 10**6])
    def test_basin_scan(self, crossover, monkeypatch):
        monkeypatch.setattr(dynamics, "LOCKSTEP_CROSSOVER", crossover)
        cells = [c for row in basin_scan(self.PARAMS, (0.0, 5.0), (0.0, 5.0), 20, 20, budget=1000).cells for c in row]
        assert {(c.verdict, c.theorem_tag) for c in cells} == {(Verdict.EXTINCTION, TheoremTag.THM1_II)}
        # every cell but the origin stalls before the budget, outside the ball
        radius = dynamics.EXTINCTION_RADIUS
        assert sum(c.iterations_used < 1000 and c.final_state.y > radius for c in cells) == 399


class TestOverflowingEstimate:
    """A growth verdict reports no adult-limit estimate where ``y*(1+x)``
    overflows, though ``y*(1+x)/x`` would be finite."""

    # in Omega2; the first image overflows, so the fate stops at step 0 on its certificate
    START = State(1e200, 1e200)

    def test_classify_fate(self):
        o = classify_fate(SHOWCASE, self.START, 2000)
        assert (o.verdict, o.theorem_tag, o.iterations_used) == (Verdict.UNBOUNDED_GROWTH, TheoremTag.THM2_OMEGA2, 0)
        assert o.y_limit_estimate is None

    # 0: every cell steps in lockstep; the default: 4 cells finish on the scalar loop
    @pytest.mark.parametrize("crossover", [0, dynamics.LOCKSTEP_CROSSOVER])
    def test_basin_scan(self, crossover, monkeypatch):
        monkeypatch.setattr(dynamics, "LOCKSTEP_CROSSOVER", crossover)
        grid = basin_scan(SHOWCASE, (1e200, 1e201), (1e200, 1e201), 2, 2, budget=5)
        assert np.isnan(grid.estimate).all()
        assert {(c.verdict, c.y_limit_estimate) for row in grid.cells for c in row} == {(Verdict.UNBOUNDED_GROWTH, None)}


class TestCheckInvariance:
    def test_showcase_regions_hold(self):
        for region in (Region.OMEGA1, Region.OMEGA2):
            report = check_invariance(SHOWCASE, region, samples=10_000, seed=0)
            assert report.passed
            assert report.escapes == 0 and report.counterexample is None
            assert report.samples == 10_000

    def test_explicit_span(self):
        report = check_invariance(SHOWCASE, Region.OMEGA2, samples=2000, seed=1, span=500.0)
        assert report.passed

    @pytest.mark.parametrize(
        "region, units",
        [
            # Omega1's starts are (x*u, y*v): u = v = 1 is (x*, y*) and moves down to x*/2
            (Region.OMEGA1, ([1.0, 1.0, 0.5], [1.0, 0.5, 1.0])),
            # Omega2's are (x* + u, y* + v) at span 1: u = v = 0 moves up by one ulp
            (Region.OMEGA2, ([0.0, 0.0, 0.5], [0.0, 0.5, 0.0])),
        ],
    )
    def test_only_a_start_on_the_fixed_point_moves(self, region, units, monkeypatch):
        monkeypatch.setattr(dynamics, "_unit_draws", lambda seed, samples: tuple(map(np.array, units)))
        starts = []

        def recording_kernel(alpha, beta, gamma, mu, x, y):
            starts.append((x.tolist(), y.tolist()))
            return model._w0_xy(alpha, beta, gamma, mu, x, y)

        monkeypatch.setattr(dynamics, "_w0_xy", recording_kernel)
        assert check_invariance(SHOWCASE, region, 3, 0, span=1.0).passed
        fp = interior_fixed_point(SHOWCASE)
        if region is Region.OMEGA1:
            expected = ([0.5 * fp.x, fp.x, 0.5 * fp.x], [fp.y, 0.5 * fp.y, fp.y])
        else:
            expected = ([math.nextafter(fp.x, math.inf), fp.x, fp.x + 0.5], [fp.y, fp.y + 0.5, fp.y])
        assert starts == [expected]

    def test_random_parameter_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = interior_params(rng)
            for region in (Region.OMEGA1, Region.OMEGA2):
                assert check_invariance(p, region, samples=1000, seed=7).passed

    def test_overflowing_span_is_a_usage_error(self):
        # y*y overflows above about 1.3e154: the images are not a counterexample
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=r"sampling span 1e\+300 overflows"):
                check_invariance(SHOWCASE, Region.OMEGA2, samples=1000, seed=1, span=1e300)
            assert check_invariance(SHOWCASE, Region.OMEGA2, samples=1000, seed=1, span=1e150).passed

    @pytest.mark.parametrize(
        "params",
        [
            # beta*y*y underflows to 0 at y* = 8e-301: Omega2's images read as escapes
            Params(alpha=0.8, beta=0.9, gamma=1e-300, mu=0.4),
            # y* = 0.0 and x* = 0.0: the default span would be 0
            Params(alpha=1.0, beta=1e300, gamma=1e-300, mu=1.0),
            # beta*y*y = 5.8e-321 is subnormal
            Params(alpha=0.8, beta=0.9, gamma=1e-160, mu=0.4),
        ],
        ids=["underflow-to-zero", "fixed-point-at-zero", "subnormal"],
    )
    def test_underflowing_fixed_point_is_a_usage_error(self, params, monkeypatch):
        def no_rng(seed):
            raise AssertionError("samples were drawn")

        monkeypatch.setattr("numpy.random.default_rng", no_rng)
        for region, span in ((Region.OMEGA1, None), (Region.OMEGA2, None), (Region.OMEGA2, 1.0)):
            with pytest.raises(ConfigurationError, match=r"underflows float64's normal range"):
                check_invariance(params, region, samples=10, seed=0, span=span)

    def test_normal_products_near_the_underflow_are_sampled(self):
        # beta*y*y = 5.8e-301 stays normal: the sets are checked, and hold
        p = Params(alpha=0.8, beta=0.9, gamma=1e-150, mu=0.4)
        for region in (Region.OMEGA1, Region.OMEGA2):
            assert check_invariance(p, region, samples=10_000, seed=0).passed

    def test_rounding_next_to_the_threshold_is_no_escape(self):
        # mu = 1 and beta one ulp above the threshold: x* = 4.5e15, and the
        # adult images alpha*x/(1+x) of states near it round past y* by an ulp
        p = Params(alpha=0.1, beta=11.000000000000002, gamma=1.0, mu=1.0)
        for region in (Region.OMEGA1, Region.OMEGA2):
            assert check_invariance(p, region, samples=10_000, seed=0).passed

    @pytest.mark.parametrize("ulps, escapes", [(32, 0), (33, 4)])
    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    @pytest.mark.parametrize("region", [Region.OMEGA1, Region.OMEGA2])
    def test_rounding_allowance(self, region, axis, ulps, escapes, monkeypatch):
        # every image lies well inside the region but for one coordinate,
        # which lies past its bound by the given number of ulps of the bound
        fp = dataclasses.astuple(interior_fixed_point(SHOWCASE))
        sign, inner = (1.0, 0.5) if region is Region.OMEGA1 else (-1.0, 2.0)
        image = [inner * c for c in fp]
        image[axis] = fp[axis] + sign * ulps * math.ulp(fp[axis])

        def kernel(alpha, beta, gamma, mu, x, y):
            return np.full_like(x, image[0]), np.full_like(y, image[1])

        monkeypatch.setattr(dynamics, "_w0_xy", kernel)
        assert check_invariance(SHOWCASE, region, samples=4, seed=0).escapes == escapes

    def test_argument_validation(self):
        for region in (Region.OUTSIDE, "omega3", None):
            with pytest.raises(ConfigurationError, match="^invariance is defined for omega1/omega2, got "):
                check_invariance(SHOWCASE, region, samples=10, seed=0)
        with pytest.raises(ConfigurationError):
            check_invariance(SHOWCASE, Region.OMEGA1, samples=0, seed=0)
        with pytest.raises(ConfigurationError):
            check_invariance(SHOWCASE, Region.OMEGA2, samples=10, seed=0, span=0.0)
        with pytest.raises(ConfigurationError):
            check_invariance(ORIGIN_ONLY, Region.OMEGA1, samples=10, seed=0)

    @pytest.mark.parametrize("span", [0.0, -1.0, math.inf, math.nan])
    def test_span_is_checked_for_omega2_alone(self, span):
        # Omega1 is sampled whole and never reads the span, in the package and the oracle alike
        expected = check_invariance(SHOWCASE, Region.OMEGA1, 1000, 5, span=None)
        assert repr(check_invariance(SHOWCASE, Region.OMEGA1, 1000, 5, span=span)) == repr(expected)
        with pytest.raises(ConfigurationError, match="^sampling span must be positive and finite, got "):
            check_invariance(SHOWCASE, Region.OMEGA2, 1000, 5, span=span)
        for region in (Region.OMEGA1, Region.OMEGA2):
            args = (SHOWCASE, region, 1000, 5, span)
            oracle = reference.check_invariance_with_allowance
            assert _report_or_error(check_invariance, *args) == _report_or_error(oracle, *args)

    @pytest.mark.parametrize("region", ["omega1", "omega2"])
    def test_plain_string_region_runs_its_own_check(self, region, monkeypatch):
        # every image lands at (1e6, 1e6): outside Omega1, inside Omega2
        def far_kernel(alpha, beta, gamma, mu, x, y):
            return np.full_like(x, 1e6), np.full_like(y, 1e6)

        monkeypatch.setattr(dynamics, "_w0_xy", far_kernel)
        report = check_invariance(SHOWCASE, region, samples=10, seed=0)
        assert report.region is Region(region)
        assert report.escapes == (10 if region == "omega1" else 0)
        assert repr(report) == repr(check_invariance(SHOWCASE, Region(region), samples=10, seed=0))

    @settings(max_examples=80, deadline=None)
    @given(
        params=analysis_params(),
        omega1=st.booleans(),
        span=st.none() | st.floats(1e-6, 1e6),
        seed=st.integers(0, 3),
    )
    def test_bounded_windows_raise_no_floating_point_flag(self, params, omega1, span, seed):
        # windows whose images cannot overflow never enter np.errstate, and
        # raise no flag and no warning, under a caller's errstate that raises
        region = Region.OMEGA1 if omega1 else Region.OMEGA2
        expected = _report_or_error(reference.check_invariance_with_allowance, params, region, 64, seed, span)
        assume(isinstance(expected, str))  # the set has an interior point, and a report

        def no_errstate(**kwargs):
            raise AssertionError("np.errstate was entered")

        with np.errstate(over="raise", invalid="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(np, "errstate", no_errstate):
                got = _report_or_error(check_invariance, params, region, 64, seed, span)
        assert got == expected

    @pytest.mark.parametrize("span, guarded", [(1.4e154, False), (1.5e154, True)])
    def test_reports_agree_on_both_sides_of_the_overflow_bound(self, span, guarded, monkeypatch):
        # beta*(y* + span)^2 overflows from a span of about 1.41e154, so the
        # larger span runs under np.errstate, though these 8 draws stay finite
        entered = []
        errstate = np.errstate

        def spy(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", spy)
        report = check_invariance(SHOWCASE, Region.OMEGA2, 8, 0, span)
        assert report.passed
        assert bool(entered) is guarded
        assert repr(report) == repr(reference.check_invariance_with_allowance(SHOWCASE, Region.OMEGA2, 8, 0, span))

    @pytest.mark.parametrize("region, bound", [(Region.OMEGA1, "high"), (Region.OMEGA2, "low")])
    def test_draw_at_the_fixed_point_stays_in_its_region(self, monkeypatch, region, bound):
        class EdgeRng:
            """Every draw at one end of its range, so each sample is (x*, y*)."""

            def __init__(self, seed):
                pass

            def uniform(self, low, high, size):
                return np.full(size, float(high if bound == "high" else low))

        monkeypatch.setattr("numpy.random.default_rng", EdgeRng)
        report = check_invariance(SHOWCASE, region, samples=4, seed=0)
        assert report.escapes == 0 and report.counterexample is None


class TestSumIdentityResidual:
    def test_showcase_values(self):
        assert abs(sum_identity_residual(SHOWCASE, State(4.0, 1.6))) <= 1e-15
        assert abs(sum_identity_residual(SHOWCASE, State(0.0, 0.0))) == 0.0
        assert abs(sum_identity_residual(SHOWCASE, State(1e6, 88.0))) <= 1e-12

    def test_random_states(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            s = State(float(rng.uniform(0.0, 1e6)), float(rng.uniform(0.0, 100.0)))
            assert abs(sum_identity_residual(SHOWCASE, s)) <= 1e-12

    def test_requires_beta_above_mu(self):
        with pytest.raises(ConfigurationError):
            sum_identity_residual(Params(alpha=1.0, beta=0.5, gamma=1.0, mu=0.5), State(1.0, 1.0))


def identity_by_loop(params, samples, seed):
    """The identity's worst defect and first state with it, and the first
    state over its allowance with its defect and allowance (None if no
    state is), one ``State`` at a time."""
    rng = np.random.default_rng(seed + 2)
    y_window = max(1.0, min(10.0 * max(derived_constants(params).y_limit, interior_fixed_point(params).y),
                            500.0 / params.beta))
    xs = rng.uniform(0.0, 1e4, samples)
    ys = rng.uniform(0.0, y_window, samples)
    worst, witness, violation = -1.0, None, None
    for xv, yv in zip(xs, ys):
        state = State(float(xv), float(yv))
        residual = abs(sum_identity_residual(params, state))
        allowance = 1e-12 * max(1.0, params.beta * state.y, params.mu * state.y)
        if residual > worst:
            worst, witness = residual, state
        if violation is None and residual > allowance:
            violation = (state, residual, allowance)
    return worst, witness, violation


def defect_without_mortality(beta, gamma, mu, y):
    """``_identity_defect`` with the increment's ``- mu*y`` term dropped."""
    ystar = gamma * mu / (beta - mu)
    gy = gamma + y
    return beta * y * y / gy + (beta - mu) * y * (ystar - y) / gy


@st.composite
def fuzz_interior_params(draw):
    """Log-uniform over alpha, mu in [1e-8, 1], gamma in [1e-12, 1e12] and
    beta up to 1e12, with beta at least 1.001 times the existence threshold,
    so that the interior point exists and is not on the threshold."""
    def log_uniform(lo, hi):
        return 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))

    alpha, mu, gamma = log_uniform(1e-8, 1.0), log_uniform(1e-8, 1.0), log_uniform(1e-12, 1e12)
    threshold = 1.001 * mu * (1.0 + gamma * mu / alpha)
    assume(threshold < 1e12)
    beta = log_uniform(threshold, 1e12)
    assume(beta > threshold)
    return Params(alpha=alpha, beta=beta, gamma=gamma, mu=mu)


def adult_bound_by_loop(params, samples, seed):
    """The first start to pass its adult bound at the earliest step, one orbit at a time."""
    y_limit = derived_constants(params).y_limit
    rng = np.random.default_rng(seed + 3)
    starts = min(samples, 1000)
    x0 = rng.uniform(0.0, 100.0, starts).tolist()
    y0 = rng.uniform(0.0, 3.0 * y_limit, starts).tolist()
    orbits = list(zip(x0, y0))
    for _ in range(256):
        orbits = [dynamics._w0_xy(params.alpha, params.beta, params.gamma, params.mu, x, y) for x, y in orbits]
        for x_start, y_start, (_, y) in zip(x0, y0, orbits):
            if y > max(y_start, y_limit) + 1e-12:
                return State(x_start, y_start), y
    return None


class TestCheckSumIdentity:
    def test_matches_the_scalar_loop(self):
        rng = np.random.default_rng(37)
        for seed, p in enumerate([SHOWCASE] * 10 + [interior_params(rng) for _ in range(10)]):
            report = check_sum_identity(p, 500, seed)
            worst, witness, violation = identity_by_loop(p, 500, seed)
            assert report.worst_residual == worst and report.witness == witness and violation is None
            assert report.tolerance == 1e-12 * max(1.0, p.beta * witness.y, p.mu * witness.y)
            assert report.samples == 500 and report.passed

    def test_failure_names_the_first_state_over_its_allowance(self, monkeypatch):
        # 1e-9*y exceeds 1e-12*max(1, 0.9*y, 0.4*y) wherever y > 1e-3
        monkeypatch.setattr(dynamics, "_identity_defect", lambda beta, gamma, mu, y: 1e-9 * y)
        report = check_sum_identity(SHOWCASE, 300, 5)
        _, _, violation = identity_by_loop(SHOWCASE, 300, 5)
        assert not report.passed
        assert (report.witness, report.worst_residual, report.tolerance) == violation
        assert report.worst_residual > report.tolerance

    @settings(max_examples=200, deadline=None)
    @given(params=fuzz_interior_params(), seed=st.integers(0, 2**16))
    def test_property_rounding_never_fails(self, params, seed):
        assert check_sum_identity(params, 200, seed).passed

    def test_dropped_term_fails(self, monkeypatch):
        # an allowance loose enough to pass a wrong identity would pass everything
        monkeypatch.setattr(dynamics, "_identity_defect", defect_without_mortality)
        assert not check_sum_identity(SHOWCASE, 1000, 0).passed

    def test_requires_interior_point(self):
        with pytest.raises(ConfigurationError):
            check_sum_identity(ORIGIN_ONLY, 10, 0)


class TestCheckAdultBound:
    def test_showcase_and_origin_only_hold(self):
        for p in (SHOWCASE, ORIGIN_ONLY):
            report = check_adult_bound(p, 2000, 0)
            assert report.passed and report.violation is None
            assert (report.starts, report.horizon) == (1000, 256)
            assert report.y_limit == derived_constants(p).y_limit
        assert check_adult_bound(SHOWCASE, 10, 0).starts == 10

    def test_rounding_is_not_a_violation(self, monkeypatch):
        # one ulp up per step: after 256 steps y is at most 256 ulps of 6
        # (about 2.3e-13) above its bound, inside the 1e-12 allowance
        monkeypatch.setattr(dynamics, "_w0_xy", lambda alpha, beta, gamma, mu, x, y: (x, np.nextafter(y, np.inf)))
        assert check_adult_bound(SHOWCASE, 1000, 0).passed

    def test_failure_names_the_first_violation(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_w0_xy", pumped_kernel)
        for seed in range(5):
            report = check_adult_bound(SHOWCASE, 40, seed)
            assert not report.passed
            assert report.violation == adult_bound_by_loop(SHOWCASE, 40, seed)

    def test_overflowing_orbits_are_a_usage_error(self):
        # every orbit is nan by step 256, and a nan adult density passes no
        # bound: a float64 limit, neither a pass nor a counterexample
        params = Params(alpha=1.0, beta=1e306, gamma=1e10, mu=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings included
            with pytest.raises(ConfigurationError, match="overflows float64 within 256 steps"):
                check_adult_bound(params, 100, 0)

    def test_one_overflowing_orbit_is_a_usage_error(self, monkeypatch):
        # the last start's orbit alone overflows; the others pass
        def kernel(alpha, beta, gamma, mu, x, y):
            x1, y1 = model._w0_xy(alpha, beta, gamma, mu, x, y)
            x1[-1] = math.inf
            return x1, y1

        monkeypatch.setattr(dynamics, "_w0_xy", kernel)
        with pytest.raises(ConfigurationError, match="overflows float64"):
            check_adult_bound(SHOWCASE, 1000, 0)


class TestSamplingArguments:
    CHECKS = [
        lambda samples, seed: check_invariance(SHOWCASE, Region.OMEGA1, samples, seed),
        lambda samples, seed: check_invariance(SHOWCASE, Region.OMEGA2, samples, seed),
        lambda samples, seed: check_sum_identity(SHOWCASE, samples, seed),
        lambda samples, seed: check_adult_bound(SHOWCASE, samples, seed),
    ]

    @pytest.mark.parametrize("check", CHECKS)
    def test_rejects_negative_seed_and_no_samples(self, check):
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
            check(10, -1)
        with pytest.raises(ConfigurationError, match="samples must be >= 1, got 0"):
            check(0, 0)

    @pytest.mark.parametrize("check", CHECKS)
    def test_sample_count_bounded_before_drawing(self, check, monkeypatch):
        class Drawn(Exception):
            pass

        def rng(seed):
            raise Drawn

        monkeypatch.setattr("numpy.random.default_rng", rng)
        # without the draw memo, a draw a test before this one kept is drawn again
        monkeypatch.setattr(dynamics, "_memo_units", dynamics._draw_units)
        with pytest.raises(ConfigurationError, match="exceed the maximum"):
            check(dynamics.MAX_SAMPLES + 1, 0)
        with pytest.raises(Drawn):
            check(dynamics.MAX_SAMPLES, 0)


def _grid(params=SHOWCASE, nx=40, ny=40, budget=1000, workers=1):
    return basin_scan(params, (0.0, 7.0), (0.0, 5.0), nx, ny, budget=budget, workers=workers)


# a call with one integer argument in the place of v, that argument's name,
# and a value for it.  At a float budget a scan of mostly long orbits, which
# ended in lockstep, returned a grid, and one that reached the scalar loop
# raised a TypeError, as the other calls did, from range, linspace or the RNG
INTEGER_CALLS = [
    pytest.param(lambda v: iterate(SHOWCASE, State(1.0, 1.0), v), "max_iter", 100, id="iterate-max_iter"),
    pytest.param(lambda v: classify_fate(SHOWCASE, State(1.0, 1.0), v), "budget", 100, id="classify_fate-budget"),
    pytest.param(lambda v: simulate(SHOWCASE, State(1.0, 1.0), v), "budget", 100, id="simulate-budget"),
    pytest.param(lambda v: _grid(budget=v), "budget", 1000, id="basin_scan-budget"),
    pytest.param(lambda v: _grid(ORIGIN_ONLY, budget=v), "budget", 1000, id="basin_scan-budget-origin-only"),
    pytest.param(lambda v: _grid(nx=v), "nx", 40, id="basin_scan-nx"),
    pytest.param(lambda v: _grid(ny=v), "ny", 40, id="basin_scan-ny"),
    pytest.param(lambda v: _grid(workers=v), "workers", 1, id="basin_scan-workers"),
    pytest.param(lambda v: check_invariance(SHOWCASE, Region.OMEGA1, v, 0), "samples", 10, id="invariance-samples"),
    pytest.param(lambda v: check_invariance(SHOWCASE, Region.OMEGA2, 10, v), "seed", 1, id="invariance-seed"),
    pytest.param(lambda v: check_sum_identity(SHOWCASE, v, 0), "samples", 10, id="identity-samples"),
    pytest.param(lambda v: check_sum_identity(SHOWCASE, 10, v), "seed", 1, id="identity-seed"),
    pytest.param(lambda v: check_adult_bound(SHOWCASE, v, 0), "samples", 10, id="adult-bound-samples"),
    pytest.param(lambda v: check_adult_bound(SHOWCASE, 10, v), "seed", 1, id="adult-bound-seed"),
]


@pytest.mark.parametrize("call, name, value", INTEGER_CALLS)
def test_integer_arguments_are_checked_at_the_call(call, name, value, monkeypatch):
    # a numpy integer is an integer, and gives the int's result
    assert repr(call(np.int64(value))) == repr(call(value))

    def no_work(*args, **kwargs):
        raise AssertionError("a fate was stepped or a sample drawn")

    for engine in ("_fate_from", "_lockstep_fates", "_unit_draws"):
        monkeypatch.setattr(dynamics, engine, no_work)
    # an integral float is not: a usage error naming it, before any work
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got {float(value)!r}$"):
        call(float(value))


class TestTrajectoryInvariants:
    def test_adult_density_bounded_by_start_or_cap(self):
        rng = np.random.default_rng(33)
        params = [SHOWCASE, ORIGIN_ONLY] + [interior_params(rng) for _ in range(5)]
        for p in params:
            cap = derived_constants(p).y_limit
            for _ in range(5):
                s0 = State(float(rng.uniform(0.0, 20.0)), float(rng.uniform(0.0, 3.0 * cap)))
                bound = max(s0.y, cap)
                t = iterate(p, s0, 2000)
                for s in t.points:
                    assert s.y <= bound + 1e-12 * max(1.0, bound)

    def test_no_joint_increase_in_lower_region(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            p = interior_params(rng)
            fp = interior_fixed_point(p)
            s0 = State(float(rng.uniform(0.0, fp.x * 0.999)), float(rng.uniform(0.0, fp.y * 0.999)))
            t = iterate(p, s0, 1000)
            for i in range(len(t.points) - 1):
                if t.indices[i + 1] != t.indices[i] + 1:
                    continue
                a, b = t.points[i], t.points[i + 1]
                assert not (b.x > a.x and b.y > a.y)

    def test_no_joint_decrease_in_upper_region(self, monkeypatch):
        set_cutoffs(monkeypatch, {"divergence_x": 1e7})
        rng = np.random.default_rng(35)
        for _ in range(10):
            p = interior_params(rng)
            fp = interior_fixed_point(p)
            s0 = State(fp.x * float(rng.uniform(1.001, 3.0)), fp.y * float(rng.uniform(1.001, 3.0)))
            t = iterate(p, s0, 1000)
            for i in range(len(t.points) - 1):
                if t.indices[i + 1] != t.indices[i] + 1:
                    continue
                a, b = t.points[i], t.points[i + 1]
                assert not (b.x < a.x and b.y < a.y)

    def test_identity_holds_along_orbits(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            p = interior_params(rng)
            s0 = State(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 10.0)))
            t = iterate(p, s0, 500)
            for s in t.points:
                assert abs(sum_identity_residual(p, s)) <= 1e-12


class TestBasinScan:
    def test_showcase_corner_grid(self):
        grid = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 2, 2, budget=10**5)
        verdicts = {
            (round(x0, 6), round(y0, 6)): o.verdict
            for x0, y0, o in grid.iter_rows()
        }
        assert verdicts[(0.2, 0.2)] is Verdict.EXTINCTION
        assert verdicts[(7.0, 0.2)] is Verdict.UNBOUNDED_GROWTH
        assert verdicts[(0.2, 5.0)] is Verdict.UNBOUNDED_GROWTH
        assert verdicts[(7.0, 5.0)] is Verdict.UNBOUNDED_GROWTH
        assert all(o.iterations_used > 0 for _, _, o in grid.iter_rows())

    def test_lower_region_grid_all_extinct(self, fast):
        grid = basin_scan(SHOWCASE, (0.0, 3.5), (0.0, 1.4), 3, 3, budget=10**5)
        for _, _, o in grid.iter_rows():
            assert o.verdict is Verdict.EXTINCTION
            assert o.theorem_tag is TheoremTag.THM2_OMEGA1

    def test_upper_region_grid_all_growing(self, fast):
        grid = basin_scan(SHOWCASE, (4.2, 9.0), (1.7, 4.0), 3, 3, budget=10**5)
        for _, _, o in grid.iter_rows():
            assert o.verdict is Verdict.UNBOUNDED_GROWTH
            assert o.theorem_tag is TheoremTag.THM2_OMEGA2

    def test_row_order_is_y_outer(self, fast):
        grid = basin_scan(SHOWCASE, (0.0, 1.0), (0.0, 2.0), 2, 3, budget=100)
        coords = [(x0, y0) for x0, y0, _ in grid.iter_rows()]
        assert coords == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 2.0), (1.0, 2.0)]

    def test_deterministic_across_worker_counts(self, fast):
        serial = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 3, 3, budget=10**4)
        parallel = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 3, 3, budget=10**4, workers=2)
        assert serial == parallel
        again = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 3, 3, budget=10**4, workers=2)
        assert parallel == again

    def test_views_follow_the_columns(self, fast):
        grid = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 3, 2, budget=10**4)
        rows = list(grid.iter_rows())
        assert [o for _, _, o in rows] == [grid.cells[ix][iy] for iy in range(2) for ix in range(3)]
        for i, (x0, y0, o) in enumerate(rows):
            assert (type(x0), type(y0), type(o.iterations_used)) == (float, float, int)
            assert o.verdict is tuple(Verdict)[grid.verdict[i]]
            assert o.theorem_tag is (None, *TheoremTag)[grid.tag[i]]
            assert (o.iterations_used, o.final_state) == (grid.iterations[i], State(grid.final_x[i], grid.final_y[i]))
            assert (o.y_limit_estimate is None) == bool(np.isnan(grid.estimate[i]))

    def test_grids_that_differ_in_one_cell_compare_unequal(self, fast):
        grid = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 3, 3, budget=10**4)
        assert np.isnan(grid.estimate).any()  # nan estimates in the same cells compare equal
        assert grid == dataclasses.replace(grid, estimate=grid.estimate.copy())
        iterations = grid.iterations.copy()
        iterations[4] += 1
        assert grid != dataclasses.replace(grid, iterations=iterations)
        assert grid != dataclasses.replace(grid, final_x=-grid.final_x)

    def test_result_holds_about_forty_bytes_per_cell(self):
        # 34 bytes of columns per cell, and no object per cell until a view is read
        grid = basin_scan(SHOWCASE, (0.0, 1.0), (0.0, 1.0), 100, 100, budget=1)
        cells = grid.nx * grid.ny
        assert sum(c.nbytes for c in grid.columns) <= 40 * cells
        assert len(pickle.dumps(grid)) <= 40 * cells + 4096
        assert pickle.loads(pickle.dumps(grid)) == grid

    def test_pool_size_is_bounded(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 4)
        assert dynamics._pool_size(10**9, 10**6) == 4
        assert dynamics._pool_size(3, 10**6) == 3
        assert dynamics._pool_size(10**9, 2) == 2

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert dynamics._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {0, 1})
            monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 64)
            assert dynamics._usable_cpus() == 2
        monkeypatch.delattr(dynamics.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 3)
        assert dynamics._usable_cpus() == 3
        monkeypatch.setattr(dynamics.os, "cpu_count", lambda: None)
        assert dynamics._usable_cpus() == 1

    def test_single_cpu_scans_in_process(self, monkeypatch, fast):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        serial = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 2, 2, budget=10**3)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        wide = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 2, 2, budget=10**3, workers=10**6)
        assert wide == serial

    def test_cutoffs_reach_spawned_workers(self):
        # a spawned worker imports the package afresh, with the default
        # cutoffs, so the scan must send it the cutoffs its caller set.  A
        # fresh interpreter, as the start method is set once per process;
        # each worker gets 120 cells, more than LOCKSTEP_CROSSOVER (110), so
        # each steps in lockstep before it hands over to the scalar loop
        probe = """
import multiprocessing
from mosquito_allee import Params, State, basin_scan, classify_fate, dynamics
multiprocessing.set_start_method("spawn")
dynamics._usable_cpus = lambda: 2
params = Params(alpha=0.8, beta=0.9, gamma=2.0, mu=0.4)
grid = dict(x_range=(0.0, 7.0), y_range=(0.0, 5.0), nx=24, ny=10, budget=3000)
default = basin_scan(params, **grid)
dynamics.DIVERGENCE_X, dynamics.Y_LIMIT_TOL = 100.0, 1e-3
serial = basin_scan(params, **grid)
assert basin_scan(params, **grid, workers=2) == serial != default
for x0, y0, outcome in serial.iter_rows():
    assert repr(outcome) == repr(classify_fate(params, State(x0, y0), grid["budget"]))
"""
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_the_pool_unloaded(self):
        # a fresh interpreter: this one may have loaded the pool already
        probe = "import sys, mosquito_allee.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_argument_validation(self):
        with pytest.raises(ConfigurationError):
            basin_scan(SHOWCASE, (0.0, 1.0), (0.0, 1.0), 1, 2)
        with pytest.raises(ConfigurationError):
            basin_scan(SHOWCASE, (1.0, 1.0), (0.0, 1.0), 2, 2)
        with pytest.raises(ConfigurationError):
            basin_scan(SHOWCASE, (-0.5, 1.0), (0.0, 1.0), 2, 2)
        with pytest.raises(ConfigurationError):
            basin_scan(SHOWCASE, (0.0, 1.0), (0.0, float("inf")), 2, 2)
        with pytest.raises(ConfigurationError):
            basin_scan(SHOWCASE, (0.0, 1.0), (0.0, 1.0), 2, 2, workers=0)

    def test_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a scan was started")

        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_work)
        monkeypatch.setattr(dynamics, "_lockstep_fates", no_work)
        with pytest.raises(ConfigurationError, match="budget must be >= 1, got 0"):
            basin_scan(SHOWCASE, (0.0, 1.0), (0.0, 1.0), 2, 2, budget=0, workers=2)
        with pytest.raises(ConfigurationError, match="exceeds the maximum"):
            basin_scan(SHOWCASE, (0.0, 1.0), (0.0, 1.0), 10**5, 10**5, budget=1, workers=2)
        side = int(dynamics.MAX_GRID_CELLS**0.5)
        with pytest.raises(ConfigurationError, match="exceeds the maximum"):
            basin_scan(SHOWCASE, (0.0, 1.0), (0.0, 1.0), side, side + 1, budget=1)


@given(x=st.floats(0.0, 10.0), y=st.floats(0.0, 10.0))
def test_property_membership_matches_box_predicates(x, y):
    fp = interior_fixed_point(SHOWCASE)
    region = membership(SHOWCASE, State(x, y))
    if x == fp.x and y == fp.y:
        assert region is Region.IS_FIXED_POINT
    elif x <= fp.x and y <= fp.y:
        assert region is Region.OMEGA1
    elif x >= fp.x and y >= fp.y:
        assert region is Region.OMEGA2
    else:
        assert region is Region.OUTSIDE


@given(x=st.floats(0.0, 50.0), y=st.floats(0.0, 50.0))
def test_property_one_step_preserves_regions(x, y):
    fp = interior_fixed_point(SHOWCASE)
    region = membership(SHOWCASE, State(x, y))
    if region not in (Region.OMEGA1, Region.OMEGA2):
        return
    image = step_w0(SHOWCASE, State(x, y))
    image_region = membership(SHOWCASE, image)
    assert image_region in (region, Region.IS_FIXED_POINT)


# every magnitude from 0 up to past 1.3e154, where y*y overflows, and
# more draws around that point
COORDINATES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 20.0),
    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-40, 520)),
    st.floats(1e150, 1e160),
)


@given(
    alpha=st.floats(1e-3, 1.0),
    beta=st.floats(1e-3, 1e3),
    gamma=st.floats(1e-3, 1e3),
    mu=st.floats(1e-3, 1.0),
    x=COORDINATES,
    y=COORDINATES,
)
# x rises from 1000 on every step: steps 2-5 are two pairs of _rising_pairs
@example(alpha=0.8, beta=0.9, gamma=2.0, mu=0.4, x=1000.0, y=5.0)
def test_property_inlined_steps_match_the_kernel(alpha, beta, gamma, mu, x, y):
    # _fate_from and _rising_pairs hold the inlined copies of _w0_xy, and
    # iterate, classify_fate and simulate all step on them.  Five steps, as
    # _fate_from runs its first step on the rules and may pass the next ones
    # on the one test of a step that fires none, or, where x rises from
    # ulp(x) >= STEP_TOL, hand them to _rising_pairs' two copies, a pair a pass
    params = Params(alpha=alpha, beta=beta, gamma=gamma, mu=mu)
    s0 = State(x, y)
    # the kernel's images, chained, up to the first non-finite one
    images = [s0]
    for _ in range(5):
        x, y = dynamics._w0_xy(alpha, beta, gamma, mu, x, y)
        if not (math.isfinite(x) and math.isfinite(y)):
            break
        images.append(State(x, y))
    trajectory = iterate(params, s0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflowing starts print no numpy warnings
        outcome = classify_fate(params, s0, 5)
    assert repr(simulate(params, s0, 5)) == repr((trajectory, outcome))
    # the trajectory ends at the last finite image, or before at a stall or past divergence_x
    n = trajectory.n_steps
    assert trajectory.indices == tuple(range(n + 1))
    assert repr(trajectory.points) == repr(tuple(images[: n + 1]))
    if n < 5:
        if trajectory.terminated is Termination.CONVERGED:
            a, b = images[n - 1], images[n]
            assert n > 0 and abs(b.x - a.x) < dynamics.STEP_TOL and abs(b.y - a.y) < dynamics.STEP_TOL
        else:
            assert trajectory.terminated is Termination.DIVERGED
            assert n == len(images) - 1 or images[n].x > dynamics.DIVERGENCE_X
    assert outcome.iterations_used < len(images)
    assert repr(outcome.final_state) == repr(images[outcome.iterations_used])
