"""Reference oracle: the scalar ``iterate`` and ``classify_fate`` loops.

These are the package's original hand-written loops, one per function,
kept verbatim so that tests can require the orbit engine in
:mod:`mosquito_allee.dynamics` to reproduce them bit for bit.  Do not
edit them to follow the package; they define the expected outputs.
"""

from __future__ import annotations

import math
from collections import deque

from mosquito_allee.dynamics import (
    DEFAULT_BUDGET,
    TRAJECTORY_WINDOW,
    FateThresholds,
    Region,
    Termination,
    TheoremTag,
    Trajectory,
    TrajectoryOutcome,
    Verdict,
)
from mosquito_allee.errors import ConfigurationError
from mosquito_allee.model import Params, State, _w0_xy, derived_constants
from mosquito_allee.stability import interior_fixed_point


def iterate(
    params: Params,
    s0: State,
    max_iter: int,
    thresholds: FateThresholds | None = None,
    window: int = TRAJECTORY_WINDOW,
) -> Trajectory:
    """Apply the restricted map repeatedly, recording the orbit.

    Stops early when the step displacement falls below ``step_tol``
    (``Converged``), when ``x`` exceeds ``divergence_x`` or overflows
    (``Diverged``), and otherwise runs ``max_iter`` steps (``Budget``).
    A non-finite image is never stored; the trajectory ends at the last
    finite state.
    """
    params.require_analysis_valid()
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    th = thresholds if thresholds is not None else FateThresholds()
    alpha, beta, gamma, mu = params.alpha, params.beta, params.gamma, params.mu

    head: list[tuple[int, State]] = [(0, s0)]
    tail: deque[tuple[int, State]] = deque(maxlen=window)

    def record(i: int, s: State) -> None:
        if len(head) <= window:
            head.append((i, s))
        else:
            tail.append((i, s))

    x, y = s0.x, s0.y
    terminated = Termination.BUDGET
    for n in range(1, max_iter + 1):
        x1, y1 = _w0_xy(alpha, beta, gamma, mu, x, y)
        if not (math.isfinite(x1) and math.isfinite(y1)):
            terminated = Termination.DIVERGED
            break
        record(n, State(x1, y1))
        displacement = max(abs(x1 - x), abs(y1 - y))
        x, y = x1, y1
        if x1 > th.divergence_x:
            terminated = Termination.DIVERGED
            break
        if displacement < th.step_tol:
            terminated = Termination.CONVERGED
            break

    entries = head + list(tail)
    return Trajectory(
        params=params,
        points=tuple(s for _, s in entries),
        indices=tuple(i for i, _ in entries),
        terminated=terminated,
    )


def _region(x: float, y: float, xs: float, ys: float) -> Region:
    # boundaries belong to the regions; only the fixed point is excluded
    if x == xs and y == ys:
        return Region.IS_FIXED_POINT
    if x <= xs and y <= ys:
        return Region.OMEGA1
    if x >= xs and y >= ys:
        return Region.OMEGA2
    return Region.OUTSIDE


def classify_fate(
    params: Params,
    s0: State,
    budget: int = DEFAULT_BUDGET,
    thresholds: FateThresholds | None = None,
) -> TrajectoryOutcome:
    """Long-run fate of a single initial condition.

    Proven shortcuts are applied first: a start inside ``Omega1`` or
    ``Omega2`` fixes the verdict by invariance, and in the regime without
    an interior fixed point any observed ``y <= alpha/mu`` proves
    extinction.  Iteration then confirms within the budget: extinction
    runs until the origin ball is reached, growth until the adult-limit
    estimate stabilizes.  Starts outside the proven regions are
    classified empirically by the same finite-time events.
    ``undetermined`` is returned when the budget expires without any
    certificate or event, for a start at the fixed point, and for orbits
    that go numerically stationary away from the origin (which only
    happens within rounding distance of the fixed point).
    """
    params.require_analysis_valid()
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1, got {budget}")
    th = thresholds if thresholds is not None else FateThresholds()
    alpha, beta, gamma, mu = params.alpha, params.beta, params.gamma, params.mu
    y_cap = derived_constants(params).y_limit
    fp = interior_fixed_point(params)

    tag: TheoremTag | None = None
    extinction_proved = False
    growth_proved = False
    if fp is None:
        if s0.y <= y_cap:
            extinction_proved = True
            tag = TheoremTag.THM1_II
    else:
        start_region = _region(s0.x, s0.y, fp.x, fp.y)
        if start_region is Region.IS_FIXED_POINT:
            return TrajectoryOutcome(Verdict.UNDETERMINED, 0, s0, None, None)
        if start_region is Region.OMEGA1:
            extinction_proved = True
            tag = TheoremTag.THM2_OMEGA1
        elif start_region is Region.OMEGA2:
            growth_proved = True
            tag = TheoremTag.THM2_OMEGA2

    x, y = s0.x, s0.y
    n = 0
    ball_hit = max(x, y) <= th.extinction_radius
    stalled = False
    estimate: float | None = None
    est_prev: float | None = None
    est_prev_x = 0.0

    while n < budget and not ball_hit and estimate is None:
        x1, y1 = _w0_xy(alpha, beta, gamma, mu, x, y)
        if not (math.isfinite(x1) and math.isfinite(y1)):
            break  # overflowed; judge from what is already proven
        n += 1
        displacement = max(abs(x1 - x), abs(y1 - y))
        x, y = x1, y1

        if max(x, y) <= th.extinction_radius:
            ball_hit = True
            break
        if fp is None:
            if not extinction_proved and y <= y_cap:
                extinction_proved = True
                tag = TheoremTag.THM1_II
        elif not (extinction_proved or growth_proved):
            region = _region(x, y, fp.x, fp.y)
            if region is Region.OMEGA1:
                extinction_proved = True
            elif region is Region.OMEGA2:
                growth_proved = True
        if not growth_proved and x > th.divergence_x:
            growth_proved = True

        if growth_proved and x >= 100.0 and x >= 2.0 * est_prev_x:
            # estimator error scales as 1/x^2, so checkpoints are spaced
            # by x-doubling; accept once one doubling moves the estimate
            # by less than a tenth of the tolerance
            est = y * (1.0 + x) / x
            if est_prev is not None and abs(est - est_prev) <= 0.1 * th.y_limit_tol:
                estimate = est
                break
            est_prev = est
            est_prev_x = x

        if displacement < th.step_tol:
            stalled = True
            break

    final = State(x, y)
    if ball_hit:
        verdict = Verdict.EXTINCTION
        estimate = None
    elif stalled:
        # pinned at a numerical fixed point away from the origin (the
        # float image of (x*, y*)); no asymptotic claim can be confirmed
        verdict = Verdict.UNDETERMINED
        estimate = None
        tag = None
    elif extinction_proved:
        verdict = Verdict.EXTINCTION
        estimate = None
    elif growth_proved:
        verdict = Verdict.UNBOUNDED_GROWTH
        if estimate is None and x > 0.0:
            estimate = y * (1.0 + x) / x
    else:
        verdict = Verdict.UNDETERMINED
        estimate = None
    if verdict is not Verdict.UNDETERMINED and tag is None:
        tag = TheoremTag.EMPIRICAL
    if verdict is Verdict.UNDETERMINED:
        tag = None
    return TrajectoryOutcome(verdict, n, final, estimate, tag)
