"""Tests for trajectory iteration, invariant regions, and fate classification."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import SHOWCASE, interior_params, origin_only_params
from mosquito_allee import dynamics
from mosquito_allee import (
    ConfigurationError,
    FateThresholds,
    Params,
    Region,
    State,
    Termination,
    TheoremTag,
    Verdict,
    basin_scan,
    check_invariance,
    classify_fate,
    derived_constants,
    interior_fixed_point,
    iterate,
    membership,
    monotonicity_probe,
    step_w0,
    sum_identity_residual,
)

ORIGIN_ONLY = Params(alpha=0.8, beta=0.7, gamma=2.0, mu=0.4)

# loose growth tolerance: stops growth runs early in tests that only care
# about the verdict, not the limit accuracy
FAST = FateThresholds(y_limit_tol=1e-3)


class TestIterate:
    def test_origin_stays_put(self):
        t = iterate(SHOWCASE, State(0.0, 0.0), 100)
        assert t.terminated is Termination.CONVERGED
        assert t.n_steps == 1
        assert t.final == State(0.0, 0.0)

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
        assert t.final.x <= 1e-12 and t.final.y <= 1e-12
        assert len(t.points) == 300  # shorter than the window, fully stored

    def test_windowed_storage(self):
        t = iterate(SHOWCASE, State(0.2, 5.0), 5000, window=64)
        assert t.terminated is Termination.BUDGET
        assert len(t.points) == 129  # 65 head + 64 tail
        assert t.indices[:65] == tuple(range(65))
        assert t.indices[65:] == tuple(range(4937, 5001))
        assert t.n_steps == 5000

    def test_consecutive_points_are_step_images(self):
        t = iterate(SHOWCASE, State(0.2, 5.0), 5000, window=64)
        for i in range(len(t.points) - 1):
            if t.indices[i + 1] != t.indices[i] + 1:
                continue  # the single window jump
            image = step_w0(SHOWCASE, t.points[i])
            assert image == t.points[i + 1]

    def test_divergence_cutoff(self):
        t = iterate(SHOWCASE, State(0.2, 5.0), 10**6, thresholds=FateThresholds(divergence_x=1e4))
        assert t.terminated is Termination.DIVERGED
        assert t.final.x > 1e4

    def test_argument_validation(self):
        with pytest.raises(ConfigurationError):
            iterate(SHOWCASE, State(1.0, 1.0), 0)
        with pytest.raises(ConfigurationError):
            iterate(SHOWCASE, State(1.0, 1.0), 10, window=0)
        with pytest.raises(ConfigurationError):
            iterate(Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4), State(1.0, 1.0), 10)


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

    def test_origin_start(self):
        o = classify_fate(SHOWCASE, State(0.0, 0.0))
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

    def test_argument_validation(self):
        with pytest.raises(ConfigurationError):
            classify_fate(SHOWCASE, State(1.0, 1.0), budget=0)
        with pytest.raises(ConfigurationError):
            classify_fate(Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4), State(1.0, 1.0))


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

    def test_random_parameter_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = interior_params(rng)
            for region in (Region.OMEGA1, Region.OMEGA2):
                assert check_invariance(p, region, samples=1000, seed=7).passed

    def test_argument_validation(self):
        with pytest.raises(ConfigurationError):
            check_invariance(SHOWCASE, Region.OUTSIDE, samples=10, seed=0)
        with pytest.raises(ConfigurationError):
            check_invariance(SHOWCASE, Region.OMEGA1, samples=0, seed=0)
        with pytest.raises(ConfigurationError):
            check_invariance(SHOWCASE, Region.OMEGA2, samples=10, seed=0, span=0.0)
        with pytest.raises(ConfigurationError):
            check_invariance(ORIGIN_ONLY, Region.OMEGA1, samples=10, seed=0)


class TestMonotonicityProbe:
    def test_showcase_onsets(self):
        assert monotonicity_probe(SHOWCASE, State(1.0, 1.0), 200).n0 == 0
        assert monotonicity_probe(SHOWCASE, State(5.0, 2.0), 200).n0 == 9

    def test_fixed_point_is_constant(self):
        fp = interior_fixed_point(SHOWCASE)
        report = monotonicity_probe(SHOWCASE, fp, 50)
        assert report.region is Region.IS_FIXED_POINT
        assert report.n0 == 0 and report.found

    def test_rejects_outside_starts(self):
        with pytest.raises(ConfigurationError):
            monotonicity_probe(SHOWCASE, State(0.2, 4.0), 100)
        with pytest.raises(ConfigurationError):
            monotonicity_probe(SHOWCASE, State(1.0, 1.0), 0)

    def test_monotone_tail_verified_directly(self):
        report = monotonicity_probe(SHOWCASE, State(5.0, 2.0), 200)
        t = iterate(SHOWCASE, State(5.0, 2.0), 200)
        for i in range(report.n0, min(len(t.points) - 1, 150)):
            assert t.points[i + 1].x >= t.points[i].x
            assert t.points[i + 1].y >= t.points[i].y


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

    def test_no_joint_decrease_in_upper_region(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            p = interior_params(rng)
            fp = interior_fixed_point(p)
            s0 = State(fp.x * float(rng.uniform(1.001, 3.0)), fp.y * float(rng.uniform(1.001, 3.0)))
            t = iterate(p, s0, 1000, thresholds=FateThresholds(divergence_x=1e7))
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

    def test_lower_region_grid_all_extinct(self):
        grid = basin_scan(SHOWCASE, (0.0, 3.5), (0.0, 1.4), 3, 3, budget=10**5, thresholds=FAST)
        for _, _, o in grid.iter_rows():
            assert o.verdict is Verdict.EXTINCTION
            assert o.theorem_tag is TheoremTag.THM2_OMEGA1

    def test_upper_region_grid_all_growing(self):
        grid = basin_scan(SHOWCASE, (4.2, 9.0), (1.7, 4.0), 3, 3, budget=10**5, thresholds=FAST)
        for _, _, o in grid.iter_rows():
            assert o.verdict is Verdict.UNBOUNDED_GROWTH
            assert o.theorem_tag is TheoremTag.THM2_OMEGA2

    def test_row_order_is_y_outer(self):
        grid = basin_scan(SHOWCASE, (0.0, 1.0), (0.0, 2.0), 2, 3, budget=100, thresholds=FAST)
        coords = [(x0, y0) for x0, y0, _ in grid.iter_rows()]
        assert coords == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 2.0), (1.0, 2.0)]

    def test_deterministic_across_worker_counts(self):
        serial = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 3, 3, budget=10**4, thresholds=FAST)
        parallel = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 3, 3, budget=10**4, thresholds=FAST, workers=2)
        assert serial == parallel
        again = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 3, 3, budget=10**4, thresholds=FAST, workers=2)
        assert parallel == again

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

    def test_single_cpu_scans_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        serial = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 2, 2, budget=10**3, thresholds=FAST)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(dynamics, "ProcessPoolExecutor", no_pool)
        wide = basin_scan(SHOWCASE, (0.2, 7.0), (0.2, 5.0), 2, 2, budget=10**3, thresholds=FAST, workers=10**6)
        assert wide == serial

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
