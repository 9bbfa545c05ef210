"""Differential tests: the orbit engine against the reference oracle.

``iterate``, ``classify_fate`` and ``simulate`` step orbits through one
shared generator; :mod:`reference` keeps the original scalar loops.
Both must agree bit for bit (``repr`` tells every double apart,
``-0.0`` included) over both regimes, windows and budgets, including
starts whose first image overflows or passes ``divergence_x``;
``iterate`` and ``classify_fate`` also under threshold overrides.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from helpers import SHOWCASE, interior_params, origin_only_params
from mosquito_allee import (
    ConfigurationError,
    FateThresholds,
    Params,
    State,
    classify_fate,
    interior_fixed_point,
    iterate,
    simulate,
)


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = draw(st.sampled_from([interior_params, origin_only_params]))(rng)
    fp = interior_fixed_point(params)
    kind = draw(st.sampled_from(["box"] * 5 + ["tall", "huge", "origin", "fixed-point"]))
    if kind == "box":
        start = (draw(st.floats(0.0, 12.0)), draw(st.floats(0.0, 8.0)))
    elif kind == "tall":  # x passes divergence_x at once; the fate runs on
        start = (draw(st.floats(0.0, 12.0)), draw(st.floats(1e9, 1e12)))
    elif kind == "huge":  # the first image may overflow
        start = (draw(st.floats(0.0, 1e300)), draw(st.floats(0.0, 1e300)))
    elif kind == "origin" or fp is None:
        start = (0.0, 0.0)
    else:
        start = (fp.x, fp.y)
    thresholds = draw(
        st.one_of(
            st.none(),
            st.builds(
                lambda e, tol: FateThresholds(divergence_x=10.0**e, step_tol=tol),
                st.floats(2.0, 9.0),
                st.sampled_from([1e-14, 1e-8]),
            ),
        )
    )
    window = draw(st.sampled_from([1, 8, 1024]))
    budget = draw(st.integers(1, 60_000))
    return params, State(*start), thresholds, window, budget


@settings(max_examples=80)
@given(case=cases())
def test_engine_matches_reference_bit_for_bit(case):
    params, s0, thresholds, window, budget = case
    expected_trajectory = reference.iterate(params, s0, budget, thresholds, window)
    expected_outcome = reference.classify_fate(params, s0, budget, thresholds)

    trajectory = iterate(params, s0, budget, thresholds, window)
    outcome = classify_fate(params, s0, budget, thresholds)
    assert trajectory == expected_trajectory
    assert repr(trajectory) == repr(expected_trajectory)
    assert outcome == expected_outcome
    assert repr(outcome) == repr(expected_outcome)


@st.composite
def default_cases(draw):
    params, s0, _, _, budget = draw(cases())
    return params, s0, budget


@settings(max_examples=80)
@given(case=default_cases())
def test_simulate_matches_reference_bit_for_bit(case):
    params, s0, budget = case
    expected = (reference.iterate(params, s0, budget), reference.classify_fate(params, s0, budget))
    got = simulate(params, s0, budget)
    assert got == expected
    assert repr(got) == repr(expected)


# beta so large that the interior fixed point lies inside the origin ball
TINY_FIXED_POINT = Params(alpha=0.8, beta=1e12, gamma=0.1, mu=0.5)


@pytest.mark.parametrize(
    "params, s0, budget",
    [
        (SHOWCASE, State(0.2, 4.0), 10**5),  # verdict long before the trajectory converges
        (SHOWCASE, State(0.2, 5.0), 70_000),  # growth: verdict, then the trajectory runs on
        (SHOWCASE, State(1.0, 1e10), 100),  # fate outlives the trajectory, which stops at step 1
        (SHOWCASE, State(1.0, 1e200), 100),  # first image overflows
        (SHOWCASE, State(4.0, 1.6), 100),  # stalls next to the fixed point
        (TINY_FIXED_POINT, interior_fixed_point(TINY_FIXED_POINT), 100),
    ],
)
def test_simulate_one_pass_matches_separate_calls(params, s0, budget):
    expected = (reference.iterate(params, s0, budget), reference.classify_fate(params, s0, budget))
    got = simulate(params, s0, budget)
    assert got == expected
    assert repr(got) == repr(expected)


def test_simulate_argument_validation():
    with pytest.raises(ConfigurationError):
        simulate(SHOWCASE, State(1.0, 1.0), 0)
    with pytest.raises(ConfigurationError):
        simulate(Params(alpha=1.5, beta=0.9, gamma=2.0, mu=0.4), State(1.0, 1.0), 10)
