"""Differential tests: the orbit engines against the reference oracle.

``basin_scan`` steps its cells in lockstep as numpy arrays and hands
the last few to the scalar fate loop, filling one column per outcome
field, from which the outcomes are rebuilt here; ``classify_fate``
settles its one start with the same start rules, ``_start``, on
floats, and runs that scalar loop.  ``iterate`` and ``simulate`` share
one orbit engine: it steps ``simulate``'s fate on that loop, one call
per block, while the verdict is open, records nothing while stepping
and re-steps the first and last ``window`` states at the end.
``simulate`` must give the oracle's ``iterate`` and ``classify_fate``,
at budgets on either side of each of the first block ends, with the
verdict on a block end, with the last ``window`` states reaching back
before the verdict, and with the trajectory stopping at
``divergence_x`` on a block end and inside one while the fate runs on.
:mod:`reference` keeps the original scalar loops.  Both must agree bit
for bit (``repr`` tells every double apart, ``-0.0`` included) over both
regimes, windows and budgets, including starts whose first image
overflows or passes ``divergence_x`` and states exactly at each fate
rule's threshold and at each bound of the test a step that fires no
rule passes; ``iterate``, ``simulate``, ``classify_fate`` and the
lockstep engine also under other fate cutoffs, module constants that
``helpers.set_cutoffs`` patches and the oracle takes as arguments.
``classify_fate`` and the engine on a one-start array must agree too,
at the start certificate's boundaries.
The package calls must emit no numpy warnings.

Both engines carry a fate on one schema, ``_FateState``: ``_start``
builds it from a start, on floats or with one array per field, the
scalar loop resumes from the ``(n, state)`` it returns, and the lockstep
engine compacts its arrays and hands each cell's entries to that loop.
A fate split at any step or ``x``, and resumed, must give one unsplit
call's result, ``repr`` for ``repr``.  Each fate rule is one function
that both engines call, on floats and on arrays: the region test
``_regions``, the certificate update ``_certify`` and the estimate
``_estimate``.  ``_regions`` and ``_certify`` must give the same
answers on a float and on a one-element array, from every prior
certificate state, at the states where their comparisons turn, and the
answers of the oracle's ``_region`` and per-step rules.
``check_invariance``, which tests its images against the regions'
bounds widened by a rounding allowance of a few dozen ulps, must give
the oracle's reports, under kernels that make images leave each region
across each of its boundaries by more than that.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from helpers import SHOWCASE, analysis_params, interior_params, origin_only_params, set_cutoffs
from mosquito_allee import (
    ConfigurationError,
    DomainError,
    InternalConsistencyError,
    Params,
    Region,
    State,
    Termination,
    basin_scan,
    check_invariance,
    classify_fate,
    derived_constants,
    dynamics,
    interior_fixed_point,
    iterate,
    model,
    simulate,
)
from mosquito_allee.dynamics import LOCKSTEP_CROSSOVER


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
    cutoffs = draw(
        st.one_of(
            st.just({}),
            st.builds(
                lambda e, tol: {"divergence_x": 10.0**e, "step_tol": tol},
                st.floats(2.0, 9.0),
                st.sampled_from([1e-14, 1e-8]),
            ),
        )
    )
    window = draw(st.sampled_from([1, 8, 1024]))
    budget = draw(st.integers(1, 60_000))
    return params, State(*start), cutoffs, window, budget


@settings(max_examples=80)
@given(case=cases())
def test_engine_matches_reference_bit_for_bit(case):
    params, s0, cutoffs, window, budget = case
    expected_trajectory = reference.iterate(params, s0, budget, window, **cutoffs)
    expected_outcome = reference.classify_fate(params, s0, budget, **cutoffs)

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")  # overflowing starts print no numpy warnings
        patch.setattr(dynamics, "TRAJECTORY_WINDOW", window)
        set_cutoffs(patch, cutoffs)
        trajectory = iterate(params, s0, budget)
        outcome = classify_fate(params, s0, budget)
    assert trajectory == expected_trajectory
    assert repr(trajectory) == repr(expected_trajectory)
    assert outcome == expected_outcome
    assert repr(outcome) == repr(expected_outcome)


@settings(max_examples=80)
@given(case=cases())
def test_simulate_matches_reference_bit_for_bit(case):
    params, s0, cutoffs, window, budget = case
    expected = (
        reference.iterate(params, s0, budget, window, **cutoffs),
        reference.classify_fate(params, s0, budget, **cutoffs),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "TRAJECTORY_WINDOW", window)
        set_cutoffs(patch, cutoffs)
        got = simulate(params, s0, budget)
    assert got == expected
    assert repr(got) == repr(expected)


@st.composite
def rising_cases(draw):
    """A set of ``analysis_params``, a start in or around Omega2, a budget and a ``STEP_TOL``.

    ``x`` is drawn near ``x*`` (near 1 with no interior point), plus
    nothing or any magnitude up to ``2**60``, where ``ulp(x)`` reaches
    every ``STEP_TOL`` drawn, and ``y`` near ``y*`` (near ``alpha/mu``).
    ``STEP_TOL`` is negative, 0, its default or up to ``1e-1``; half the
    budgets are ``1e5``, long enough for most growth estimates.
    """
    params = draw(analysis_params())
    try:
        fp = interior_fixed_point(params)
    except InternalConsistencyError:  # the denominator check, next to the threshold
        assume(False)
    corner = fp or State(1.0, params.alpha / params.mu)
    x = corner.x * draw(st.floats(0.5, 4.0)) + draw(
        st.one_of(st.just(0.0), st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(0, 60)))
    )
    y = corner.y * draw(st.floats(0.5, 4.0))
    step_tol = draw(st.one_of(st.sampled_from([-1.0, 0.0, 1e-14]), st.floats(-14.0, -1.0).map(lambda e: 10.0**e)))
    budget = draw(st.one_of(st.just(10**5), st.integers(1, 10**5)))
    return params, State(x, y), budget, step_tol


# the orbits below pin each bound of _rising_pairs' test; pairs are steps (2, 3), (4, 5), ...
@settings(max_examples=40)
@given(case=rising_cases())
# x rises by 0.25 a step to 2**51 at step 256 and stays there: the orbit stalls on step 257
@example(case=(SHOWCASE, State(2.0**51 - 64, 2.0), 3000, 1e-14))
# x rises by 0.5 a step to 2**52 at step 5 and stays there on step 6, where the
# orbit stalls, though x rises again on step 7 as y grows
@example(case=(Params(alpha=0.8, beta=0.25, gamma=2.0, mu=0.1), State(2.0**52 - 2.5, 7.215), 200, 0.05))
# x lands on the first estimate checkpoint, 100.0, at step 3
@example(case=(SHOWCASE, State(95.25649709360914, 5.0), 10**5, 1e-14))
# x rises by less than STEP_TOL from step 2, where ulp(x) is far below it: the orbit stalls on step 8
@example(case=(SHOWCASE, State(6.0, 4.0), 3000, 0.1))
def test_rising_pair_runs_match_the_one_step_reference(case):
    # _fate_from hands a rising orbit below its gate to _rising_pairs, two
    # steps a pass behind a compare-only test; the oracle steps once a pass
    # and tests every rule, so each step count and state must be its own
    params, s0, budget, step_tol = case
    expected_outcome = reference.classify_fate(params, s0, budget, step_tol=step_tol)
    expected = (reference.iterate(params, s0, budget, step_tol=step_tol), expected_outcome)
    with pytest.MonkeyPatch.context() as patch:
        set_cutoffs(patch, {"step_tol": step_tol})
        outcome = classify_fate(params, s0, budget)
        got = simulate(params, s0, budget)
    assert repr(outcome) == repr(expected_outcome)
    assert repr(got) == repr(expected)


@settings(max_examples=100)
@given(
    case=cases(),
    long_budget=st.booleans(),
    first=st.integers(1, 2000),
    stop_x=st.one_of(st.just(math.inf), st.floats(0.0, 1e10)),
)
def test_fate_resumes_exactly_from_the_state_it_returns(case, long_budget, first, stop_x):
    # a fate split into calls, each resumed from the (n, state) the last
    # returned, gives what one unsplit call gives, so the state carries
    # every field a resume reads.  The first call also stops once x passes
    # stop_x, and each later one runs twice as many steps as the last, so
    # some call ends in every doubling of the step count, the last one
    # between a growth fate's last two estimate checkpoints included
    params, s0, cutoffs, _, budget = case
    budget = 10**5 if long_budget else budget  # long enough to accept most growth estimates
    with pytest.MonkeyPatch.context() as patch:
        set_cutoffs(patch, cutoffs)
        context = dynamics._fate_context(params)  # which carries the cutoffs
    start = dynamics._start(s0.x, s0.y, context)[2]
    whole = dynamics._fate_from(params, budget, context, 0, start)
    part, k = dynamics._fate_from(params, budget, context, 0, start, first, stop_x), first
    while part[0] is None:
        n, state = part[2:]
        k *= 2
        part = dynamics._fate_from(params, budget, context, n, state, n + k)
        assert part[0] is not None or part[2] == n + k
    assert repr(part) == repr(whole)


@pytest.mark.parametrize("budget, block_end", [(50, 10**6), (10**6, 50)], ids=["at-budget", "at-block-end"])
@pytest.mark.parametrize("s0", [State(0.2, 5.0), State(1.0, 1.0)], ids=["growth", "extinction"])
def test_a_zero_length_fate_call_returns_its_state(s0, budget, block_end):
    # a call with n == min(budget, block_end) takes no step: it returns its n
    # and state, and fields only at the budget, where the fate ends
    open_fate = dynamics._fate_context(SHOWCASE)
    for context, start in (
        (open_fate, dynamics._start(s0.x, s0.y, open_fate)[2]),
        (dynamics._fate_context(None), dynamics._CLOSED_STATE._replace(x=s0.x, y=s0.y)),
    ):
        n, state = dynamics._fate_from(SHOWCASE, 10**6, context, 0, start, 50)[2:]
        assert n == 50
        fields, stalled, n1, state1 = dynamics._fate_from(SHOWCASE, budget, context, n, state, block_end)
        assert (n1, repr(state1), stalled) == (n, repr(state), False)
        assert (fields is None) == (budget > n)


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
        (SHOWCASE, State(0.2, 5.0), 64_502),  # the estimate is accepted at the budget's last step
        (SHOWCASE, State(1e-10, 0.0), 100),  # the fate is settled at step 0, in the origin ball
        (SHOWCASE, interior_fixed_point(SHOWCASE), 100),  # the fate is settled at step 0, at (x*, y*)
        (SHOWCASE, State(0.2, 5.0), 1),
        (SHOWCASE, State(1.0, 1e10), 1),
        (SHOWCASE, State(1.0, 1.0), 1),
    ],
)
def test_simulate_one_pass_matches_separate_calls(params, s0, budget):
    expected_outcome = reference.classify_fate(params, s0, budget)
    expected = (reference.iterate(params, s0, budget), expected_outcome)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflowing starts print no numpy warnings
        outcome = classify_fate(params, s0, budget)
        got = simulate(params, s0, budget)
    assert outcome == expected_outcome
    assert repr(outcome) == repr(expected_outcome)
    assert got == expected
    assert repr(got) == repr(expected)


def test_simulate_argument_validation():
    with pytest.raises(ConfigurationError):
        simulate(SHOWCASE, State(1.0, 1.0), 0)


def assert_simulate_matches_reference(monkeypatch, params, s0, budget, window):
    """``simulate`` and ``iterate`` at ``window`` against the oracle's calls; returns ``simulate``'s.

    Both read ``TRAJECTORY_WINDOW`` when called, so patching it sets their window.
    """
    monkeypatch.setattr(dynamics, "TRAJECTORY_WINDOW", window)
    expected = (reference.iterate(params, s0, budget, window), reference.classify_fate(params, s0, budget))
    got = simulate(params, s0, budget)
    assert got == expected
    assert repr(got) == repr(expected)
    trajectory = iterate(params, s0, budget)
    assert repr(trajectory) == repr(expected[0])
    return got


# the fate is open through every budget below, decided at step 57, and at step 2 by the ball
WINDOW_STARTS = {"growth": State(0.2, 5.0), "omega1": State(1.0, 1.0), "ball-at-2": State(0.0, 2e-9)}


@pytest.mark.parametrize("window", [1, 2, 7, 8, 1024])
@pytest.mark.parametrize("s0", WINDOW_STARTS.values(), ids=WINDOW_STARTS.keys())
def test_simulate_window_edges_match_reference(monkeypatch, s0, window):
    # a budget one below, at and one past each of the first three block ends
    for budget in sorted({max(1, k * window + d) for k in (1, 2, 3) for d in (-1, 0, 1)}):
        assert_simulate_matches_reference(monkeypatch, SHOWCASE, s0, budget, window)


@pytest.mark.parametrize(
    "s0, window",
    [
        (State(1.0, 1.0), 3),  # verdict at step 57
        (State(1.0, 1.0), 19),
        (State(1.0, 1.0), 57),
        (State(0.0, 2e-9), 1),  # verdict at step 2
        (State(0.0, 2e-9), 2),
        (State(1000.0, 2.0), 15_041),  # the estimate accepted at step 30,082
    ],
)
def test_simulate_verdict_on_a_block_end_matches_reference(monkeypatch, s0, window):
    _, outcome = assert_simulate_matches_reference(monkeypatch, SHOWCASE, s0, 30_100, window)
    assert outcome.iterations_used % window == 0


@pytest.mark.parametrize(
    "s0, window",
    [
        (State(1.0, 1.0), 32),  # verdict at step 57, stall at 78
        (State(1.0, 1.0), 64),
        (State(0.2, 4.0), 64),  # verdict at step 277, stall at 299
        (State(0.2, 4.0), 256),
    ],
)
def test_simulate_tail_overlapping_the_fate_matches_reference(monkeypatch, s0, window):
    # the last window states begin before the verdict, so they are re-stepped
    # from a state that the fate's loop reached
    trajectory, outcome = assert_simulate_matches_reference(monkeypatch, SHOWCASE, s0, 10**5, window)
    assert trajectory.n_steps > window > trajectory.n_steps - outcome.iterations_used


@pytest.mark.parametrize("x0, window", [(1e9 - 0.35, 4), (1e9 - 102.35, 1024)])
def test_simulate_divergence_stop_on_a_block_end_matches_reference(monkeypatch, x0, window):
    # x grows by about 0.1 a step, so it passes divergence_x at step window;
    # the fate, open with its Omega2 certificate, resumes from there
    trajectory, outcome = assert_simulate_matches_reference(monkeypatch, SHOWCASE, State(x0, 2.0), 5000, window)
    assert trajectory.n_steps == window
    assert trajectory.terminated is Termination.DIVERGED
    assert outcome.iterations_used > window


@pytest.mark.parametrize("x0, window", [(1e9 - 0.35, 8), (1e9 - 102.35, 2048)])
def test_simulate_divergence_stop_inside_a_block_matches_reference(monkeypatch, x0, window):
    # x passes divergence_x at step 4 or 1024, inside a block, so the step that
    # stops the trajectory must fail the one test of a step that fires no rule:
    # in simulate's fate loop, below its gate, and on iterate's closed fate
    trajectory, outcome = assert_simulate_matches_reference(monkeypatch, SHOWCASE, State(x0, 2.0), 5000, window)
    assert trajectory.n_steps < window
    assert trajectory.terminated is Termination.DIVERGED
    assert outcome.iterations_used > trajectory.n_steps


@pytest.mark.parametrize("y0, window", [(13395.0, 8), (11375.0, 1024)])
def test_simulate_overflow_on_a_block_start_matches_reference(monkeypatch, y0, window):
    # (1-mu) rounds to 1, so y rises by about 1 a step while x stays far below
    # divergence_x; beta*y*y overflows on step 2*window + 1, the first of a
    # block, with the growth estimate still open, so the fate stops at that
    # block's start and the trajectory there, keeping its last window points
    params = Params(alpha=1.0, beta=1e300, gamma=1e308, mu=1e-20)
    trajectory, outcome = assert_simulate_matches_reference(monkeypatch, params, State(1.0, y0), 5000, window)
    assert trajectory.n_steps == outcome.iterations_used == 2 * window
    assert trajectory.terminated is Termination.DIVERGED
    assert len(trajectory.points) == len(trajectory.indices) == 2 * window + 1
    # iterate steps on the closed fate from step 0; step 2*window + 1 is the
    # first of a block at window 8, and at 1024 too, or inside one
    for iterate_window in (8, 1024):
        monkeypatch.setattr(dynamics, "TRAJECTORY_WINDOW", iterate_window)
        expected = reference.iterate(params, State(1.0, y0), 5000, iterate_window)
        got = iterate(params, State(1.0, y0), 5000)
        assert repr(got) == repr(expected)
        assert got.n_steps == 2 * window
        assert got.terminated is Termination.DIVERGED
        assert len(got.points) == len(got.indices)


@st.composite
def lockstep_cases(draw):
    """Batches of starts on both sides of the crossover, mixed kinds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = draw(st.sampled_from([interior_params, origin_only_params]))(rng)
    fp = interior_fixed_point(params) or State(0.0, 0.0)
    kinds = draw(
        st.lists(
            st.sampled_from(["box"] * 6 + ["tall", "huge", "ball", "fixed-point", "near-fixed-point"]),
            min_size=1,
            max_size=3 * LOCKSTEP_CROSSOVER,
        )
    )
    starts = []
    for kind in kinds:
        if kind == "box":
            starts.append((rng.uniform(0.0, 12.0), rng.uniform(0.0, 8.0)))
        elif kind == "tall":
            starts.append((rng.uniform(0.0, 12.0), rng.uniform(1e9, 1e12)))
        elif kind == "huge":  # the first image may overflow
            starts.append((rng.uniform(0.0, 1e300), rng.uniform(0.0, 1e300)))
        elif kind == "ball":
            starts.append((rng.uniform(0.0, 1e-9), rng.uniform(0.0, 1e-9)))
        elif kind == "fixed-point":
            starts.append((fp.x, fp.y))
        else:  # one ulp off (x*, y*): a region boundary, or a stall
            starts.append((np.nextafter(fp.x, rng.choice([0.0, np.inf])), np.nextafter(fp.y, rng.choice([0.0, np.inf]))))
    cutoffs = draw(
        st.one_of(
            st.just({}),
            st.builds(
                lambda e, tol, y_tol: {"divergence_x": 10.0**e, "step_tol": tol, "y_limit_tol": y_tol},
                st.floats(2.0, 9.0),
                st.sampled_from([1e-14, 1e-8]),
                st.sampled_from([1e-6, 1e-3, 1e-1]),
            ),
        )
    )
    budget = draw(st.integers(1, 2000))
    # the hand-off point: 0 keeps every cell in lockstep to its end, and
    # any other count hands cells over in whatever state they have reached
    crossover = draw(st.one_of(st.just(LOCKSTEP_CROSSOVER), st.integers(0, len(starts))))
    return params, [(float(x), float(y)) for x, y in starts], cutoffs, budget, crossover


def assert_lockstep_matches_reference(params, starts, budget, cutoffs, crossover=LOCKSTEP_CROSSOVER):
    expected = [reference.classify_fate(params, State(x, y), budget, **cutoffs) for x, y in starts]
    x0, y0 = (np.array(c, dtype=float) for c in zip(*starts))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(dynamics, "LOCKSTEP_CROSSOVER", crossover)
        set_cutoffs(mp, cutoffs)
        warnings.simplefilter("error")  # overflowing starts print no numpy warnings
        got = dynamics._outcomes(dynamics._lockstep_fates(params, x0, y0, budget, dynamics._fate_context(params)))
    assert got == expected
    assert repr(got) == repr(expected)


@settings(max_examples=100)
@given(case=lockstep_cases())
def test_lockstep_engine_matches_reference_bit_for_bit(case):
    params, starts, cutoffs, budget, crossover = case
    assert_lockstep_matches_reference(params, starts, budget, cutoffs, crossover)


# mu = 1 and a tiny alpha: from (0, 1e-6) one step lands in the origin
# ball before any y <= alpha/mu was seen, so the verdict is empirical
BALL_IN_ONE_STEP = Params(alpha=1e-12, beta=1.0, gamma=1.0, mu=1.0)


@pytest.mark.parametrize("crossover", [0, 2])
@pytest.mark.parametrize(
    "params, start, budget, thresholds",
    [
        (TINY_FIXED_POINT, dataclasses.astuple(interior_fixed_point(TINY_FIXED_POINT)), 100, None),
        (BALL_IN_ONE_STEP, (0.0, 1e-6), 100, None),
        # growth past its first estimate checkpoint (step 1187) when the
        # extinction next to the fixed point ends (step 1402); the
        # estimate is accepted at the next checkpoint (step 2228)
        (SHOWCASE, (5.0, 2.0), 5000, {"y_limit_tol": 1e-3}),
    ],
)
def test_lockstep_engine_edge_starts(params, start, budget, thresholds, crossover):
    # with crossover 2 the last two cells are handed over when the third-last ends
    starts = [start, (0.0, 0.0), (1e-10, 0.0), (4.0, 1.599999999), (6.0, 3.0)]
    assert_lockstep_matches_reference(params, starts, budget, thresholds or {}, crossover)


# near its existence threshold, with x* about 158: an orbit from (166, 0)
# passes divergence_x = 100 at step 1 and enters Omega1 at step 18
SLOW_FIXED_POINT = Params(
    alpha=0.8925719643636392, beta=0.11255357055541854, gamma=0.5657380434076917, mu=0.10545979092306529
)


@pytest.mark.parametrize(
    "params, start, budget, cutoffs",
    [
        # max(x, y) after step 30 equals the radius
        pytest.param(
            SHOWCASE, (1.0, 1.0), 1000, {"extinction_radius": 0.0006622501356481844}, id="ball-at-radius"
        ),
        pytest.param(BALL_IN_ONE_STEP, (0.0, 1e-6), 100, {}, id="ball-before-any-certificate"),
        # from x = 0, y1 = (1 - mu)*y0 = 1.6 = alpha/mu exactly
        pytest.param(Params(alpha=0.8, beta=0.9, gamma=2.0, mu=0.5), (0.0, 3.2), 1, {}, id="thm1-ii-at-cap"),
        pytest.param(SLOW_FIXED_POINT, (166.0, 0.0), 100, {"divergence_x": 100.0}, id="omega1-after-growth"),
        # no interior point: x passes divergence_x at step 1, and y <= alpha/mu still certifies extinction later
        pytest.param(
            Params(alpha=0.8, beta=0.7, gamma=2.0, mu=0.4), (1.0, 1e10), 100, {}, id="thm1-ii-after-growth"
        ),
        # x1 equals divergence_x; (x1, y1) lies outside both regions
        pytest.param(SHOWCASE, (200.0, 0.0), 1, {"divergence_x": 199.20398009950247}, id="x-at-divergence"),
        # x1 = 100.0 exactly, the first estimate checkpoint
        pytest.param(SHOWCASE, (0.0, 113.07635158019905), 10**4, {"y_limit_tol": 0.1}, id="x-at-checkpoint"),
        # the first two checkpoints' estimates differ by 0.1*y_limit_tol exactly
        pytest.param(
            SHOWCASE, (6.0, 3.0), 10**4, {"y_limit_tol": 0.0003483250847446939}, id="estimate-at-tolerance"
        ),
        # the one-test steps' exits, on certified orbits past their first step:
        # |x1 - x| equals step_tol at step 12, the least x-step of this growth
        # orbit, so no step stalls and the estimate is accepted at step 2228
        pytest.param(
            SHOWCASE,
            (5.0, 2.0),
            3000,
            {"step_tol": 0.022407000273341637, "y_limit_tol": 1e-3},
            id="dx-at-step-tol",
        ),
        # one ulp more: at step 12 both |x1 - x| and |y1 - y| are below step_tol
        pytest.param(
            SHOWCASE,
            (5.0, 2.0),
            3000,
            {"step_tol": 0.02240700027334164, "y_limit_tol": 1e-3},
            id="dx-below-step-tol",
        ),
        # at step 20 |x1 - x| is below step_tol but |y1 - y| = 0.03 is not: no stall until step 25
        pytest.param(
            SHOWCASE, (1.0, 1.0), 1000, {"step_tol": 0.005899604640286388}, id="dx-below-step-tol-y-moving"
        ),
        # x after step 20 equals the radius while y = 0.071 does not: the ball is reached at step 26
        pytest.param(
            SHOWCASE, (1.0, 1.0), 1000, {"extinction_radius": 0.007092257374053066}, id="x-at-radius"
        ),
        # x after step 30 equals the radius and y = 0.092 is inside: the ball is reached at step 30
        pytest.param(
            Params(alpha=0.1, beta=5.0, gamma=2.0, mu=0.4),
            (1.0, 0.1),
            1000,
            {"extinction_radius": 0.5488705190896546},
            id="x-at-radius-y-inside",
        ),
        # x after step 1 is inside the radius while y is not, and step 2 raises x into the
        # ball: on a certified orbit the rules hold the step after one that ends with
        # x <= radius, since the one-test step tests the radius only on falling steps
        pytest.param(
            SHOWCASE,
            (0.41048218146599424, 1.596022394108827),
            1000,
            {"extinction_radius": 1.107082907595516},
            id="ball-on-rising-x",
        ),
        # a negative step_tol stalls nothing, as 0 does; x falls into the ball at step 30
        pytest.param(
            Params(alpha=0.1, beta=5.0, gamma=2.0, mu=0.4),
            (1.0, 0.1),
            1000,
            {"extinction_radius": 0.5488705190896546, "step_tol": -1.0},
            id="negative-step-tol",
        ),
        # gamma + y overflows, so x1 = inf/inf is nan; the start is in Omega2, (x*, y*) = (1, 0.5).
        # Only a first step can meet it: after one, y <= alpha + (1 - mu)*y0, about y0/2 here
        pytest.param(
            Params(alpha=0.5, beta=1e300, gamma=1e300, mu=0.5), (2.0, sys.float_info.max), 100, {}, id="nan-image"
        ),
    ],
)
def test_fate_rules_at_their_boundaries(params, start, budget, cutoffs, monkeypatch):
    s0 = State(*start)
    expected = reference.classify_fate(params, s0, budget, **cutoffs)
    set_cutoffs(monkeypatch, cutoffs)
    outcome = classify_fate(params, s0, budget)
    assert outcome == expected
    assert repr(outcome) == repr(expected)
    assert_lockstep_matches_reference(params, [start], budget, cutoffs, crossover=0)


def test_basin_scan_matches_reference_across_worker_counts(monkeypatch):
    # two CPUs so that two blocks run in two processes, each of more than
    # LOCKSTEP_CROSSOVER cells, so that both start in lockstep
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    grid = dict(x_range=(0.0, 7.0), y_range=(0.0, 5.0), nx=24, ny=10, budget=3000)
    assert grid["nx"] * grid["ny"] > 2 * LOCKSTEP_CROSSOVER
    serial = basin_scan(SHOWCASE, **grid, workers=1)
    parallel = basin_scan(SHOWCASE, **grid, workers=2)
    assert serial == parallel
    assert repr(serial) == repr(parallel)
    for x0, y0, outcome in serial.iter_rows():
        expected = reference.classify_fate(SHOWCASE, State(x0, y0), grid["budget"])
        assert outcome == expected
        assert repr(outcome) == repr(expected)


def assert_certificate_shapes_agree(params, starts, budget, cutoffs):
    """``classify_fate``, on floats, against the engine on a one-start array."""
    with pytest.MonkeyPatch.context() as patch:
        set_cutoffs(patch, cutoffs)
        context = dynamics._fate_context(params)
        for x, y in starts:
            outcome = classify_fate(params, State(x, y), budget)
            engine = dynamics._outcomes(dynamics._lockstep_fates(params, np.array([x]), np.array([y]), budget, context))
            assert outcome == engine[0]
            assert repr(outcome) == repr(engine[0])


@settings(max_examples=100)
@given(case=lockstep_cases())
def test_start_certificate_agrees_on_floats_and_arrays(case):
    params, starts, cutoffs, budget, _ = case
    assert_certificate_shapes_agree(params, starts, budget, cutoffs)


def _ulps(v):
    """``v`` and its two neighbouring doubles."""
    return (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))


def _rule_points(params):
    """The states at which the comparisons of the certificate rules turn."""
    fp = interior_fixed_point(params)
    if fp is None:  # y == alpha/mu certifies extinction, one ulp above does not
        y_cap = derived_constants(params).y_limit
        return [(x, y) for x in (0.0, 1.0) for y in (y_cap, math.nextafter(y_cap, math.inf))]
    # (x*, y*), its eight neighbours, and the regions' corners on the axes
    return [(x, y) for x in _ulps(fp.x) for y in _ulps(fp.y)] + [(fp.x, 0.0), (0.0, fp.y)]


@pytest.mark.parametrize("cutoffs", [{}, {"extinction_radius": 5.0}], ids=["radius-1e-9", "radius-5"])
@pytest.mark.parametrize(
    "params",
    [SHOWCASE, TINY_FIXED_POINT, SLOW_FIXED_POINT, BALL_IN_ONE_STEP, Params(alpha=0.8, beta=0.9, gamma=2.0, mu=0.5)],
    ids=["showcase", "tiny-fixed-point", "slow-fixed-point", "ball-in-one-step", "origin-only"],
)
def test_start_certificate_agrees_at_its_boundaries(params, cutoffs):
    r = cutoffs.get("extinction_radius", 1e-9)
    r_up = math.nextafter(r, math.inf)
    starts = [(r, r), (r_up, r), (r, r_up), (r_up, r_up)]
    assert_certificate_shapes_agree(params, starts + _rule_points(params), 2000, cutoffs)


RULE_PARAMS = [SHOWCASE, TINY_FIXED_POINT, SLOW_FIXED_POINT, Params(alpha=0.8, beta=0.9, gamma=2.0, mu=0.5)]
RULE_IDS = ["showcase", "tiny-fixed-point", "slow-fixed-point", "origin-only"]


@pytest.mark.parametrize("params", RULE_PARAMS, ids=RULE_IDS)
def test_shared_rules_agree_on_floats_arrays_and_the_oracle(params):
    # every prior (extinction, growth, tag code), reachable or not
    priors = list(itertools.product((False, True), (False, True), range(4)))
    fp = interior_fixed_point(params)
    y_cap = derived_constants(params).y_limit
    for x, y in _rule_points(params):
        xa, ya = np.array([x]), np.array([y])
        if fp is not None:
            regions = dynamics._regions(x, y, fp)
            region = reference._region(x, y, fp.x, fp.y)
            assert regions == (region is Region.OMEGA1, region is Region.OMEGA2)
            assert [type(v) for v in regions] == [bool, bool]
            assert [a.tolist() for a in dynamics._regions(xa, ya, fp)] == [[v] for v in regions]
        for extinction, growth, tag in priors:
            got = dynamics._certify(x, y, fp, y_cap, extinction, growth, tag)
            assert [type(v) for v in got] == [bool, bool, int]
            arrays = dynamics._certify(xa, ya, fp, y_cap, np.array([extinction]), np.array([growth]), np.array([tag]))
            assert [a.tolist() for a in arrays] == [[v] for v in got]
            expected = reference.certify_step(x, y, fp, y_cap, extinction, growth, dynamics._TAGS[tag])
            assert (got[0], got[1], dynamics._TAGS[got[2]]) == expected


def _scaled(sx, sy):
    """The restricted map with its images scaled by ``sx`` and ``sy``."""

    def kernel(alpha, beta, gamma, mu, x, y):
        x1, y1 = model._w0_xy(alpha, beta, gamma, mu, x, y)
        return sx * x1, sy * y1

    return kernel


def _onto_fixed_point(alpha, beta, gamma, mu, x, y):
    fp = interior_fixed_point(Params(alpha=alpha, beta=beta, gamma=gamma, mu=mu))
    return np.full_like(x, fp.x), np.full_like(y, fp.y)


# kernels patched in for the map; all but "map" and "identity" move images out of a region
KERNELS = {
    "map": model._w0_xy,
    "x-up": _scaled(2.0, 1.0),
    "y-up": _scaled(1.0, 2.0),
    "x-down": _scaled(0.5, 1.0),
    "y-down": _scaled(1.0, 0.5),
    "identity": lambda alpha, beta, gamma, mu, x, y: (x, y),
    "onto-fixed-point": _onto_fixed_point,
    "below-the-quadrant": lambda alpha, beta, gamma, mu, x, y: (x - 1.0, y - 1.0),
}


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
@pytest.mark.parametrize("params", RULE_PARAMS[:3], ids=RULE_IDS[:3])  # those with an interior point
def test_check_invariance_matches_reference(params, kernel, monkeypatch):
    monkeypatch.setattr(dynamics, "_w0_xy", kernel)
    monkeypatch.setattr(reference, "_w0_xy", kernel)
    for seed in range(3):
        for region, span in ((Region.OMEGA1, None), (Region.OMEGA2, None), (Region.OMEGA2, 1.0)):
            got, expected = (
                _report_or_error(check, params, region, 500, seed, span)
                for check in (check_invariance, reference.check_invariance)
            )
            assert got == expected


def _report_or_error(check, *args):
    """``repr`` of the report, or the type and message of the error raised.

    A counterexample with a negative image cannot be held in a ``State``,
    so it ends the check with a ``DomainError``.
    """
    try:
        return repr(check(*args))
    except DomainError as exc:
        return type(exc), str(exc)
