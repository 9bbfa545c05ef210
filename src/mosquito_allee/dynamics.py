"""Trajectories of the restricted map and long-run fate classification.

The restricted operator admits exactly two proven long-run behaviors.
Around the interior fixed point ``(x*, y*)`` two forward-invariant
regions exist:

* ``Omega1``: the box ``[0, x*] x [0, y*]`` minus the fixed point; every
  trajectory started there converges to the origin (extinction).
* ``Omega2``: the quadrant ``[x*, inf) x [y*, inf)`` minus the fixed
  point; every trajectory started there has ``x -> inf`` while ``y``
  approaches the replacement level ``alpha/mu`` (unbounded growth).

When no interior fixed point exists (``beta <= mu*(1 + gamma*mu/alpha)``)
any trajectory whose adult density ever dips to ``alpha/mu`` or below
goes extinct.  Outside these proven cases classification is empirical:
a trajectory is extinct once it enters a small ball at the origin, and
unboundedly growing once it enters ``Omega2`` or exceeds a divergence
cutoff in ``x``.  Anything else within the iteration budget is reported
``undetermined`` rather than guessed.

Growth is asymptotically linear in the step count (the increment
approaches a positive constant), so enormous ``x`` values are never
reached within practical budgets.  The adult limit is therefore measured
with the stationarity inversion ``y*(1+x)/x``: at the true limit the
adult update balances exactly when ``y = (alpha/mu)*x/(1+x)``, and the
inversion converges to ``alpha/mu`` quadratically in ``1/x``.  The
estimate is accepted once consecutive doubling checkpoints agree to a
tenth of the reporting tolerance.
"""

from __future__ import annotations

import enum
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError
from .model import Params, State, derived_constants, _w0_xy
from .stability import interior_fixed_point

__all__ = [
    "DEFAULT_BUDGET",
    "TRAJECTORY_WINDOW",
    "FateThresholds",
    "Termination",
    "Verdict",
    "TheoremTag",
    "Region",
    "Trajectory",
    "TrajectoryOutcome",
    "InvarianceReport",
    "MonotonicityReport",
    "BasinGrid",
    "iterate",
    "membership",
    "classify_fate",
    "simulate",
    "check_invariance",
    "monotonicity_probe",
    "sum_identity_residual",
    "basin_scan",
]

DEFAULT_BUDGET = 10**6
TRAJECTORY_WINDOW = 1024


@dataclass(frozen=True)
class FateThresholds:
    """Finite-time detection cutoffs for asymptotic statements.

    ``extinction_radius``: sup-norm ball around the origin that counts
    as extinct.  ``divergence_x``: ``x`` beyond this certifies growth.
    ``y_limit_tol``: target accuracy of the adult-limit estimate.
    ``step_tol``: displacement below which a trajectory is numerically
    stationary.
    """

    extinction_radius: float = 1e-9
    divergence_x: float = 1e9
    y_limit_tol: float = 1e-6
    step_tol: float = 1e-14


class Termination(str, enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    BUDGET = "budget"


class Verdict(str, enum.Enum):
    EXTINCTION = "extinction"
    UNBOUNDED_GROWTH = "unbounded"
    UNDETERMINED = "undetermined"


class TheoremTag(str, enum.Enum):
    """Which proven statement, if any, certifies a verdict.

    ``THM1_II``: no interior fixed point and some iterate had
    ``y <= alpha/mu``.  ``THM2_OMEGA1``/``THM2_OMEGA2``: the start lay in
    the corresponding invariant region.  ``EMPIRICAL``: verdict from
    finite-time observation only (start outside the proven regions).
    """

    THM1_II = "thm1-ii"
    THM2_OMEGA1 = "thm2-omega1"
    THM2_OMEGA2 = "thm2-omega2"
    EMPIRICAL = "empirical"


class Region(str, enum.Enum):
    OMEGA1 = "omega1"
    OMEGA2 = "omega2"
    OUTSIDE = "outside"
    IS_FIXED_POINT = "is-fixed-point"


@dataclass(frozen=True)
class Trajectory:
    """A recorded orbit. ``points[i]`` is the state after ``indices[i]`` steps.

    Long runs are windowed: the first ``window+1`` and last ``window``
    states are kept, so ``indices`` may jump once in the middle.  Within
    each contiguous run, consecutive points are exact step images.
    """

    params: Params
    points: tuple[State, ...]
    indices: tuple[int, ...]
    terminated: Termination

    @property
    def n_steps(self) -> int:
        return self.indices[-1]

    @property
    def final(self) -> State:
        return self.points[-1]


@dataclass(frozen=True)
class TrajectoryOutcome:
    verdict: Verdict
    iterations_used: int
    final_state: State
    y_limit_estimate: float | None
    theorem_tag: TheoremTag | None


@dataclass(frozen=True)
class InvarianceReport:
    region: Region
    samples: int
    escapes: int
    counterexample: tuple[State, State] | None

    @property
    def passed(self) -> bool:
        return self.escapes == 0


@dataclass(frozen=True)
class MonotonicityReport:
    """Earliest index after which both coordinates are monotone.

    ``n0`` is None when no monotone tail was found within the horizon.
    In ``Omega1`` the tail must be non-increasing, in ``Omega2``
    non-decreasing; a start at the fixed point is constant with
    ``n0 = 0``.
    """

    region: Region
    n0: int | None
    horizon: int

    @property
    def found(self) -> bool:
        return self.n0 is not None


@dataclass(frozen=True)
class BasinGrid:
    """Fate verdicts over a rectangular grid of initial conditions.

    ``cells[ix][iy]`` is the outcome for the initial point
    ``(xs[ix], ys[iy])`` where ``xs``/``ys`` are ``nx``/``ny`` evenly
    spaced values over the closed ranges.
    """

    params: Params
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    cells: tuple[tuple[TrajectoryOutcome, ...], ...]

    def axis_values(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x_range[0], self.x_range[1], self.nx),
            np.linspace(self.y_range[0], self.y_range[1], self.ny),
        )

    def iter_rows(self):
        """Yield ``(x0, y0, outcome)`` with y as the outer loop."""
        xs, ys = self.axis_values()
        for iy in range(self.ny):
            for ix in range(self.nx):
                yield float(xs[ix]), float(ys[iy]), self.cells[ix][iy]


def _orbit(params: Params, x: float, y: float, budget: int):
    """Yield ``(n, x, y, displacement)`` after each of up to ``budget`` steps.

    ``displacement`` is the sup-norm distance from the previous state;
    the orbit stops before its first non-finite image.
    """
    alpha, beta, gamma, mu = params.alpha, params.beta, params.gamma, params.mu
    isfinite = math.isfinite
    for n in range(1, budget + 1):
        x1, y1 = _w0_xy(alpha, beta, gamma, mu, x, y)
        if not (isfinite(x1) and isfinite(y1)):
            return
        yield n, x1, y1, max(abs(x1 - x), abs(y1 - y))
        x, y = x1, y1


class _Recorder:
    """The trajectory logic of :func:`iterate`, fed one orbit step at a time.

    Steps stay raw tuples; a ``State`` is built only for the points kept.
    """

    def __init__(self, s0: State, max_iter: int, window: int, th: FateThresholds) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.max_iter = max_iter
        self.window = window
        self.th = th
        self.head: list[tuple] = [(0, s0.x, s0.y)]
        self.tail: deque[tuple] = deque(maxlen=window)
        self.terminated: Termination | None = None

    def feed(self, step: tuple) -> bool:
        """Record one step; True once the trajectory has ended."""
        if self.terminated is not None:
            return True
        n, x, _, displacement = step
        if n <= self.window:
            self.head.append(step)
        else:
            self.tail.append(step)
        if x > self.th.divergence_x:
            self.terminated = Termination.DIVERGED
        elif displacement < self.th.step_tol:
            self.terminated = Termination.CONVERGED
        return self.terminated is not None

    def trajectory(self, params: Params) -> Trajectory:
        entries = self.head + list(self.tail)
        terminated = self.terminated
        if terminated is None:
            # the orbit ends short of the budget only before a non-finite image
            terminated = Termination.BUDGET if entries[-1][0] == self.max_iter else Termination.DIVERGED
        return Trajectory(
            params=params,
            points=tuple(State(e[1], e[2]) for e in entries),
            indices=tuple(e[0] for e in entries),
            terminated=terminated,
        )


def _checked(params: Params, budget: int, thresholds: FateThresholds | None) -> FateThresholds:
    params.require_analysis_valid()
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1, got {budget}")
    return thresholds if thresholds is not None else FateThresholds()


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
    th = _checked(params, max_iter, thresholds)
    recorder = _Recorder(s0, max_iter, window, th)
    for step in _orbit(params, s0.x, s0.y, max_iter):
        if recorder.feed(step):
            break
    return recorder.trajectory(params)


def _region(x: float, y: float, xs: float, ys: float) -> Region:
    # boundaries belong to the regions; only the fixed point is excluded
    if x == xs and y == ys:
        return Region.IS_FIXED_POINT
    if x <= xs and y <= ys:
        return Region.OMEGA1
    if x >= xs and y >= ys:
        return Region.OMEGA2
    return Region.OUTSIDE


def _require_interior(params: Params) -> State:
    fp = interior_fixed_point(params)
    if fp is None:
        raise ConfigurationError(
            "no interior fixed point at these parameters "
            "(beta <= mu*(1 + gamma*mu/alpha)); invariant regions are undefined"
        )
    return fp


def membership(params: Params, s: State) -> Region:
    """Which invariant region, if any, contains the state.

    Comparisons against ``(x*, y*)`` are exact; points on the shared
    boundaries count as inside, and the fixed point itself is reported
    separately.
    """
    fp = _require_interior(params)
    return _region(s.x, s.y, fp.x, fp.y)


class _Fate:
    """The fate logic of :func:`classify_fate`, fed one orbit step at a time.

    The start's certificate is settled at construction.
    """

    def __init__(self, params: Params, s0: State, th: FateThresholds) -> None:
        self.th = th
        self.radius = th.extinction_radius
        self.y_cap = derived_constants(params).y_limit
        self.fp = fp = interior_fixed_point(params)
        self.tag: TheoremTag | None = None
        self.extinction_proved = False
        self.growth_proved = False
        self.last = (0, s0.x, s0.y)
        self.ball_hit = max(s0.x, s0.y) <= th.extinction_radius
        self.stalled = False
        self.estimate: float | None = None
        self.est_prev: float | None = None
        self.est_prev_x = 0.0
        self.done = self.ball_hit
        if fp is None:
            if s0.y <= self.y_cap:
                self.extinction_proved = True
                self.tag = TheoremTag.THM1_II
        else:
            start_region = _region(s0.x, s0.y, fp.x, fp.y)
            if start_region is Region.IS_FIXED_POINT:
                # undetermined, even when the fixed point lies in the origin ball
                self.ball_hit = False
                self.done = True
            elif start_region is Region.OMEGA1:
                self.extinction_proved = True
                self.tag = TheoremTag.THM2_OMEGA1
            elif start_region is Region.OMEGA2:
                self.growth_proved = True
                self.tag = TheoremTag.THM2_OMEGA2

    def feed(self, step: tuple) -> bool:
        """Judge one step; True once the verdict is final."""
        if self.done:
            return True
        self.last = step
        _, x, y, displacement = step
        if x <= self.radius and y <= self.radius:  # max() would cost a call per step
            self.ball_hit = self.done = True
            return True
        fp = self.fp
        if fp is None:
            if not self.extinction_proved and y <= self.y_cap:
                self.extinction_proved = True
                self.tag = TheoremTag.THM1_II
        elif not (self.extinction_proved or self.growth_proved):
            region = _region(x, y, fp.x, fp.y)
            if region is Region.OMEGA1:
                self.extinction_proved = True
            elif region is Region.OMEGA2:
                self.growth_proved = True
        if not self.growth_proved and x > self.th.divergence_x:
            self.growth_proved = True

        if self.growth_proved and x >= 100.0 and x >= 2.0 * self.est_prev_x:
            # estimator error scales as 1/x^2, so checkpoints are spaced
            # by x-doubling; accept once one doubling moves the estimate
            # by less than a tenth of the tolerance
            est = y * (1.0 + x) / x
            if self.est_prev is not None and abs(est - self.est_prev) <= 0.1 * self.th.y_limit_tol:
                self.estimate = est
                self.done = True
                return True
            self.est_prev = est
            self.est_prev_x = x

        if displacement < self.th.step_tol:
            self.stalled = self.done = True
            return True
        return False

    def outcome(self) -> TrajectoryOutcome:
        n, x, y = self.last[:3]
        final = State(x, y)
        tag = self.tag or TheoremTag.EMPIRICAL
        if self.ball_hit or (self.extinction_proved and not self.stalled):
            return TrajectoryOutcome(Verdict.EXTINCTION, n, final, None, tag)
        if self.growth_proved and not self.stalled:
            estimate = self.estimate
            if estimate is None and x > 0.0:
                estimate = y * (1.0 + x) / x
            return TrajectoryOutcome(Verdict.UNBOUNDED_GROWTH, n, final, estimate, tag)
        # no event, or pinned at a numerical fixed point away from the
        # origin (the float image of (x*, y*)): no asymptotic claim
        return TrajectoryOutcome(Verdict.UNDETERMINED, n, final, None, None)


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
    th = _checked(params, budget, thresholds)
    fate = _Fate(params, s0, th)
    for step in _orbit(params, s0.x, s0.y, 0 if fate.done else budget):
        if fate.feed(step):
            break
    return fate.outcome()


def simulate(params: Params, s0: State, budget: int) -> tuple[Trajectory, TrajectoryOutcome]:
    """``(iterate(params, s0, budget), classify_fate(params, s0, budget))`` in one pass.

    Each step is computed once and fed to both until both are done: a
    growth trajectory runs on past its verdict to the budget, and a fate
    refining its adult-limit estimate runs on past ``divergence_x``.
    """
    th = _checked(params, budget, None)
    recorder = _Recorder(s0, budget, TRAJECTORY_WINDOW, th)
    fate = _Fate(params, s0, th)
    for step in _orbit(params, s0.x, s0.y, budget):
        if recorder.feed(step) & fate.feed(step):  # `&`, not `and`: both must see every step
            break
    return recorder.trajectory(params), fate.outcome()


def check_invariance(
    params: Params,
    region: Region,
    samples: int,
    seed: int,
    span: float | None = None,
) -> InvarianceReport:
    """Sample a region uniformly and verify one step stays inside.

    ``Omega2`` is unbounded, so it is sampled on the window
    ``[x*, x*+span] x [y*, y*+span]`` (default span ``10*max(x*, y*)``);
    invariance of the map does not depend on the window.  Returns the
    escape count and the first counterexample, if any.
    """
    fp = _require_interior(params)
    if region not in (Region.OMEGA1, Region.OMEGA2):
        raise ConfigurationError(f"invariance is defined for omega1/omega2, got {region}")
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    xs, ys = fp.x, fp.y
    if span is None:
        span = 10.0 * max(xs, ys)
    if not (math.isfinite(span) and span > 0.0):
        raise ConfigurationError(f"sampling span must be positive and finite, got {span}")

    rng = np.random.default_rng(seed)
    if region is Region.OMEGA1:
        x0 = rng.uniform(0.0, xs, samples)
        y0 = rng.uniform(0.0, ys, samples)
    else:
        x0 = xs + rng.uniform(0.0, span, samples)
        y0 = ys + rng.uniform(0.0, span, samples)
    at_fp = (x0 == xs) & (y0 == ys)
    if at_fp.any():  # measure-zero draw; the fixed point is not in the region
        x0 = np.where(at_fp, 0.5 * x0, x0)

    x1, y1 = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, x0, y0)
    if region is Region.OMEGA1:
        inside = (x1 >= 0.0) & (x1 <= xs) & (y1 >= 0.0) & (y1 <= ys)
    else:
        inside = (x1 >= xs) & (y1 >= ys)
    inside &= ~((x1 == xs) & (y1 == ys))

    escapes = int(np.count_nonzero(~inside))
    counterexample = None
    if escapes:
        i = int(np.argmax(~inside))
        counterexample = (State(float(x0[i]), float(y0[i])), State(float(x1[i]), float(y1[i])))
    return InvarianceReport(region=region, samples=samples, escapes=escapes, counterexample=counterexample)


def monotonicity_probe(params: Params, s0: State, horizon: int) -> MonotonicityReport:
    """Locate the earliest step after which both coordinates are monotone.

    Inside ``Omega1`` trajectories eventually decrease in both
    coordinates, inside ``Omega2`` they eventually increase; this scans
    ``horizon`` steps and reports the first index ``n0`` whose tail is
    monotone through the horizon, or None if the final transition still
    violates monotonicity.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    region = membership(params, s0)
    if region is Region.OUTSIDE:
        raise ConfigurationError(
            "monotonicity is only established inside the invariant regions; "
            f"start {s0} is outside both"
        )
    decreasing = region in (Region.OMEGA1, Region.IS_FIXED_POINT)

    step_tol = FateThresholds().step_tol
    x, y = s0.x, s0.y
    n = n0 = 0  # n0: the step after the latest violating transition
    for n, x1, y1, displacement in _orbit(params, x, y, horizon):
        if decreasing:
            violated = x1 > x or y1 > y
        else:
            violated = x1 < x or y1 < y
        if violated:
            n0 = n
        x, y = x1, y1
        if displacement < step_tol:
            break  # stationary; the remaining tail is constant

    if n == 0 or n0 == n:
        n0 = None  # no monotone tail observed within the horizon
    return MonotonicityReport(region=region, n0=n0, horizon=horizon)


def sum_identity_residual(params: Params, s: State) -> float:
    """Defect of the one-step total-population identity.

    One step of the restricted map changes the total ``x + y`` by
    ``beta*y^2/(gamma+y) - mu*y``, which equals
    ``(beta-mu)*y*(y - y*)/(gamma+y)`` with ``y* = gamma*mu/(beta-mu)``.
    The returned value is the increment minus that closed form (the
    ``x``-dependent transfer terms cancel exactly and are omitted, which
    keeps the defect at rounding level even for large ``x``).  Zero up
    to rounding for every state; requires ``beta > mu`` so ``y*`` is
    defined.
    """
    beta, gamma, mu = params.beta, params.gamma, params.mu
    if not beta > mu:
        raise ConfigurationError(f"identity requires beta > mu, got beta={beta}, mu={mu}")
    y = s.y
    ystar = gamma * mu / (beta - mu)
    gy = gamma + y
    increment = beta * y * y / gy - mu * y
    return increment + (beta - mu) * y * (ystar - y) / gy


def _classify_cell(
    cell: tuple[float, float],
    params: Params,
    budget: int,
    thresholds: FateThresholds | None,
) -> TrajectoryOutcome:
    return classify_fate(params, State(cell[0], cell[1]), budget, thresholds)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(workers: int, cells: int) -> int:
    """Worker processes for a scan: no more than requested, usable CPUs or cells."""
    return min(workers, _usable_cpus(), cells)


def basin_scan(
    params: Params,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    nx: int,
    ny: int,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    thresholds: FateThresholds | None = None,
) -> BasinGrid:
    """Classify every grid point's long-run fate.

    Cells are independent; with ``workers > 1`` they are distributed
    over a process pool of at most as many processes as there are
    CPUs this process may run on, and
    never more than there are cells.  Assembly is by cell index, so the
    result is deterministic for fixed inputs regardless of worker count.
    """
    params.require_analysis_valid()
    if nx < 2 or ny < 2:
        raise ConfigurationError(f"grid resolution must be >= 2 per axis, got {nx}x{ny}")
    x_lo, x_hi = (float(x_range[0]), float(x_range[1]))
    y_lo, y_hi = (float(y_range[0]), float(y_range[1]))
    for name, lo, hi in (("x", x_lo, x_hi), ("y", y_lo, y_hi)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError(f"{name}_range must be finite, got [{lo}, {hi}]")
        if lo < 0.0:
            raise ConfigurationError(f"{name}_range must lie in the nonnegative quadrant, got [{lo}, {hi}]")
        if not hi > lo:
            raise ConfigurationError(f"{name}_range must have positive length, got [{lo}, {hi}]")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")

    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(y_lo, y_hi, ny)
    tasks = [(float(x), float(y)) for y in ys for x in xs]
    classify = partial(_classify_cell, params=params, budget=budget, thresholds=thresholds)
    pool_size = _pool_size(workers, len(tasks))
    if pool_size == 1:
        outcomes = [classify(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (4 * pool_size))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            outcomes = list(pool.map(classify, tasks, chunksize=chunk))

    cells = tuple(
        tuple(outcomes[iy * nx + ix] for iy in range(ny)) for ix in range(nx)
    )
    return BasinGrid(
        params=params,
        x_range=(x_lo, x_hi),
        y_range=(y_lo, y_hi),
        nx=nx,
        ny=ny,
        cells=cells,
    )
