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
a trajectory is extinct once it enters a small ball at the origin
(``EXTINCTION_RADIUS``), and unboundedly growing once it enters
``Omega2`` or its ``x`` exceeds ``DIVERGENCE_X``.  A growth certificate
outranks the ball: an orbit that holds it is never in the ball, so where
``(x*, y*)`` lies inside the ball a start in ``Omega2`` still grows.
Anything else within the iteration budget is reported ``undetermined``
rather than guessed.

Growth is asymptotically linear in the step count (the increment
approaches a positive constant), so enormous ``x`` values are never
reached within practical budgets.  The adult limit is therefore measured
with the stationarity inversion ``y*(1+x)/x``: at the true limit the
adult update balances exactly when ``y = (alpha/mu)*x/(1+x)``, and the
inversion converges to ``alpha/mu`` quadratically in ``1/x``.  The
estimate is accepted once consecutive doubling checkpoints agree to a
tenth of the reporting tolerance.

Single orbits step on one scalar loop, ``_fate_from``, that keeps its
state in locals: the fate of ``classify_fate``, and the orbit of
``iterate`` and ``simulate``, which ``_orbit`` steps once, one
``_fate_from`` call per block.  While ``simulate``'s verdict is open a
block carries the fate; after it, and for ``iterate``, a block carries
a closed fate, on which only the trajectory's stops fire.  The map is
the kernel ``model._w0_xy``.  ``_fate_from`` carries one copy of its
arithmetic and its helper ``_rising_pairs`` two, each in the same
operation order, so their images are the kernel's, bit for bit.  A
step that fires no rule pays one test on top of them.  That test reads
the origin ball's radius only on a falling step, as the rules hold the
next step on them while ``x`` is within the radius, and the loop makes
no int per step: a call counts its steps once, from what is left of
its iterator.  Once the rules have run on a step that rose by at least
``step_tol`` to an ``x`` with ``ulp(x) >= step_tol``, and set a gate,
the least ``x`` at which one of them can fire, ``_rising_pairs`` takes
the next steps two a pass, keeping a pair only while ``x < x1 < x2 <
gate``.  That compare-only test is exact: ``ulp``
does not fall as ``x`` grows, and float subtraction rounds
monotonically, so each step it keeps rises by at least ``ulp(x) >=
step_tol`` below the gate, a step the one test passes too.  The orbit,
its step count and its final state are those of one step a pass.  On
the showcase growth orbit, nearly all in such pairs, a step costs about
123-128 ns, against 134-141 ns one step a pass (2-CPU Intel Xeon,
CPython 3.11.7, pinned to one CPU).  ``_orbit`` records nothing per
step; the states a trajectory keeps are re-stepped on the kernel at
the end (``_replay``).

Each fate rule is written once, on floats and float64 arrays alike:
the Omega1/Omega2 test in ``_regions``, the certificate a reached state
earns in ``_certify``, the rules of a start alone in ``_start``, the
adult-limit estimate in ``_estimate`` and the verdict in ``_verdict``.
``membership`` and both fate engines call them; the engines write only
the stepping.  A fate's resumable state is declared once, as
``_FateState``: ``_start`` builds it, on floats or arrays, ``_fate_from``
resumes from it and returns it, and the lockstep engine compacts it.
``check_invariance`` tests its images against the regions' bounds
widened by a rounding allowance; it enters ``np.errstate`` only where
one scalar bound on the window's top corner says an image can
overflow.  The sampled checks scale the unit
uniforms of ``_unit_draws``, which a process keeps for small draws, so
a sweep draws each seed's stream once.
``classify_fate`` steps its start on ``_fate_from``, without numpy.
``basin_scan``'s engine, ``_lockstep_fates``, steps the unresolved
cells together as float64 arrays through the kernel; numpy's
``+ - * /`` round as Python's float operations do, so every cell's
outcome is ``classify_fate``'s, bit for bit.  A lockstep step costs
about 110 scalar steps whether it carries one cell or hundreds, so the
last ``LOCKSTEP_CROSSOVER`` cells resume on ``_fate_from``.

A scan's result is columnar: the engine fills one preallocated array
per outcome field (``verdict`` and ``tag`` as int8 codes,
``iterations``, ``final_x``, ``final_y``, and ``estimate`` with nan for
none), 34 bytes a cell.  A ``BasinGrid`` holds the columns, and builds
outcome objects only when ``cells`` or ``iter_rows`` is read.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import os
import sys
from collections import namedtuple
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .errors import ConfigurationError
from .model import Params, State, _frozen, _w0_xy, derived_constants
from .stability import _require_interior, interior_fixed_point

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_BUDGET",
    "MAX_GRID_CELLS",
    "MAX_SAMPLES",
    "TRAJECTORY_WINDOW",
    "EXTINCTION_RADIUS",
    "DIVERGENCE_X",
    "Y_LIMIT_TOL",
    "STEP_TOL",
    "Termination",
    "Verdict",
    "TheoremTag",
    "Region",
    "Trajectory",
    "TrajectoryOutcome",
    "InvarianceReport",
    "IdentityReport",
    "AdultBoundReport",
    "BasinGrid",
    "iterate",
    "membership",
    "classify_fate",
    "simulate",
    "check_invariance",
    "check_sum_identity",
    "check_adult_bound",
    "sum_identity_residual",
    "basin_scan",
]

DEFAULT_BUDGET = 10**6
TRAJECTORY_WINDOW = 1024
# the finite-time fate cutoffs, read when a public routine is called: the
# sup-norm radius of the origin ball that counts as extinct, the x beyond
# which growth is certified, the target accuracy of the adult-limit
# estimate, and the displacement below which an orbit is stationary
EXTINCTION_RADIUS = 1e-9
DIVERGENCE_X = 1e9
Y_LIMIT_TOL = 1e-6
STEP_TOL = 1e-14
# a CLI basin scan peaks at about 160 bytes of RSS per cell, while the
# engine's working arrays step (its result holds 34 bytes a cell): 32 MB
# at 1e4 cells, 46 MB at 1e5 and 194 MB at 1e6, budget 1, so about 190 MB here
MAX_GRID_CELLS = 10**6
# a sampled check holds a few arrays of this length, about 50 bytes of RSS
# per sample (measured at 1e5 and 1e6 samples), so about 500 MB here
MAX_SAMPLES = 10**7
# a draw of at most this many samples (its two halves 64 KB) is kept for
# the life of the process, 8 draws at most, so a sweep over parameter sets
# draws each seed's stream once
_MEMO_SAMPLES = 2**12
# check_invariance's rounding allowance, in ulps of the bound crossed: to
# first order the roundings of an image and of (x*, y*) stay below 20u of
# that bound (u = 2**-53, less than an ulp).  The map's images crossed a
# bound by at most 3 ulps over 8000 sets, many with mu = 1 or beta within
# 8 ulps of the threshold, sampled on the edges of the regions too
_ESCAPE_ULPS = 32


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


@_frozen
class Trajectory:
    """A recorded orbit. ``points[i]`` is the state after ``indices[i]`` steps.

    Long runs are windowed: the first ``TRAJECTORY_WINDOW + 1`` and last
    ``TRAJECTORY_WINDOW`` states are kept, so ``indices`` may jump once
    in the middle.  Within each contiguous run, consecutive points are
    exact step images.
    """

    params: Params
    points: tuple[State, ...]
    indices: tuple[int, ...]
    terminated: Termination

    @property
    def n_steps(self) -> int:
        return self.indices[-1]


@_frozen
class TrajectoryOutcome:
    verdict: Verdict
    iterations_used: int
    final_state: State
    y_limit_estimate: float | None
    theorem_tag: TheoremTag | None


@_frozen
class InvarianceReport:
    region: Region
    samples: int
    escapes: int
    counterexample: tuple[State, State] | None

    @property
    def passed(self) -> bool:
        return self.escapes == 0


@_frozen
class IdentityReport:
    samples: int
    worst_residual: float  # the witness's |residual|
    witness: State  # the first state drawn over its allowance, else the first with the worst |residual|
    tolerance: float  # the witness's allowance, 1e-12*max(1, beta*y, mu*y)

    @property
    def passed(self) -> bool:
        return self.worst_residual <= self.tolerance


@_frozen
class AdultBoundReport:
    starts: int
    horizon: int
    y_limit: float
    violation: tuple[State, float] | None  # a start and the adult density it reached

    @property
    def passed(self) -> bool:
        return self.violation is None


@_frozen
class BasinGrid:
    """Fate verdicts over a rectangular grid of initial conditions.

    The outcomes are held as columns, one entry per cell, y as the outer
    loop: cell ``i`` starts at ``(xs[i % nx], ys[i // nx])``, where
    ``xs, ys = axes()`` are ``nx``/``ny`` evenly spaced values over the
    closed ranges.  ``verdict`` (int8) indexes ``tuple(Verdict)``,
    ``iterations`` (int64) is the step at which the fate stopped,
    ``final_x`` and ``final_y`` (float64) the state it stopped at,
    ``estimate`` (float64) the adult-limit estimate of a growth verdict
    and nan otherwise, and ``tag`` (int8) indexes
    ``(None, *TheoremTag)``.  ``cells`` and ``iter_rows`` present the
    same outcomes as ``TrajectoryOutcome`` objects, built when read.
    Two grids are equal when their fields are and every column is equal
    bit for bit, so nan estimates in the same cells compare equal.
    """

    params: Params
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    verdict: np.ndarray
    iterations: np.ndarray
    final_x: np.ndarray
    final_y: np.ndarray
    estimate: np.ndarray
    tag: np.ndarray

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The six columns, in field order."""
        return tuple(getattr(self, name) for name, _ in _COLUMNS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasinGrid):
            return NotImplemented
        fields = ("params", "x_range", "y_range", "nx", "ny")
        return all(getattr(self, f) == getattr(other, f) for f in fields) and all(
            a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(self.columns, other.columns)
        )

    def axes(self) -> tuple[list[float], list[float]]:
        """The grid's ``x`` and ``y`` values, as floats."""
        import numpy as np

        return (
            np.linspace(self.x_range[0], self.x_range[1], self.nx).tolist(),
            np.linspace(self.y_range[0], self.y_range[1], self.ny).tolist(),
        )

    @cached_property
    def cells(self) -> tuple[tuple[TrajectoryOutcome, ...], ...]:
        """``cells[ix][iy]`` is the outcome for the start ``(xs[ix], ys[iy])``."""
        outcomes = _outcomes(self.columns)
        return tuple(tuple(outcomes[ix :: self.nx]) for ix in range(self.nx))

    def iter_rows(self):
        """Yield ``(x0, y0, outcome)`` with y as the outer loop."""
        xs, ys = self.axes()
        outcomes = iter(_outcomes(self.columns))
        for y0 in ys:
            for x0 in xs:
                yield x0, y0, next(outcomes)


def _index(name: str, value) -> int:
    """``value`` as an int, through ``operator.index``, which numpy integers pass."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


def _checked(budget: int, name: str = "budget") -> int:
    """The budget, as an int, once it is valid; errors call it ``name``."""
    budget = _index(name, budget)
    if budget < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {budget}")
    return budget


def iterate(params: Params, s0: State, max_iter: int) -> Trajectory:
    """Apply the restricted map repeatedly, recording the orbit.

    Stops early when the step displacement falls below ``STEP_TOL``
    (``Converged``), when ``x`` exceeds ``DIVERGENCE_X`` or overflows
    (``Diverged``), and otherwise runs ``max_iter`` steps (``Budget``).
    A non-finite image is never stored; the trajectory ends at the last
    finite state.  The window is ``TRAJECTORY_WINDOW``; it and the
    cutoffs are read when called.
    """
    return _orbit(params, s0, _checked(max_iter, "max_iter"), False)[0]


def _orbit(params: Params, s0: State, budget: int, fate: bool) -> tuple[Trajectory, tuple | None]:
    """The engine of :func:`iterate` and, with ``fate``, of :func:`simulate`.

    Returns the trajectory of ``iterate`` and, with ``fate``, the column
    fields of ``classify_fate`` (see ``_fields``), else None.  The orbit
    is stepped once, in blocks that end at each multiple of ``window``
    (``TRAJECTORY_WINDOW``), each one call of ``_fate_from`` that also
    stops where the trajectory does, carrying the fate while it is open
    and else the closed fate, on which only the trajectory's stops fire:
    the context ``closed``, built here with the cutoffs of this call, and
    ``_CLOSED_STATE``.  A trajectory that stops at ``divergence_x``
    before the verdict hands the fate to ``_fate_from`` at the state it
    stopped at.  Nothing is recorded while stepping: the state at each
    block's start is kept, and the points of the first ``window`` steps
    and of the last ``window`` are re-stepped at the end (``_replay``),
    from the start and from the latest kept state before the last
    ``window``.
    """
    closed = _fate_context(None)
    divergence_x, window = closed[3], TRAJECTORY_WINDOW
    n, x, y = 0, s0.x, s0.y
    terminated = fields = None
    if fate:
        context = _fate_context(params)
        done, ball, state = _start(x, y, context)
        fields = _fields(0, state, ball, False) if done else None
    # the states at the latest two block starts, each a multiple of window;
    # a fate that stops before a non-finite image may return to its block's
    # start, which is kept once
    last_mark, mark = None, (n, x, y)
    while terminated is None and n < budget:
        if n % window == 0 and n > mark[0]:
            last_mark, mark = mark, (n, x, y)
        stop = min(n - n % window + window, budget)
        if fate and fields is None:
            # a fate that stops before a non-finite image leaves that image
            # to the closed fate, which meets it at once and stops there too
            fields, stalled, n, state = _fate_from(params, budget, context, n, state, stop, divergence_x)
        else:
            at = _CLOSED_STATE._replace(x=x, y=y)
            end, stalled, n, state = _fate_from(params, budget, closed, n, at, stop, divergence_x)
            # a closed fate ends before the budget without a stall only
            # before a non-finite image
            if end is not None and not stalled and n < budget:
                terminated = Termination.DIVERGED
        x, y = state.x, state.y
        # the trajectory's stops at step n, also where the fate stopped first
        if terminated is None and (stalled or x > divergence_x):
            terminated = Termination.DIVERGED if x > divergence_x else Termination.CONVERGED
    if fate and fields is None:
        # the budget ran out, or the trajectory stopped first at divergence_x
        fields = _fate_from(params, budget, context, n, state)[0]

    head = min(n, window)
    points = [s0, *_replay(params, 0, s0.x, s0.y, 1, head)]
    indices = list(range(head + 1))
    if n > window:
        first = max(window + 1, n - window + 1)
        start = mark if mark[0] < first else last_mark
        points += _replay(params, *start, first, n)
        indices += range(first, n + 1)
    trajectory = Trajectory(params, tuple(points), tuple(indices), terminated or Termination.BUDGET)
    return trajectory, fields


def _replay(params: Params, n: int, x: float, y: float, first: int, last: int) -> list[State]:
    """The states after steps ``first`` to ``last`` of the orbit at ``(x, y)`` after ``n`` steps.

    The steps are taken again on the kernel, which is deterministic, so
    they are the states the orbit reached, bit for bit.
    """
    alpha, beta, gamma, mu = params.alpha, params.beta, params.gamma, params.mu
    points = []
    for n in range(n + 1, last + 1):
        x, y = _w0_xy(alpha, beta, gamma, mu, x, y)
        if n >= first:
            points.append(State(x, y))
    return points


def _regions(x, y, fp: State):
    """``(in_omega1, in_omega2)`` for ``(x, y)``, on floats or float64 arrays.

    Theorem 2's ``[0, x*] x [0, y*]`` and ``[x*, inf) x [y*, inf)``, by
    exact comparisons with ``fp``: boundaries belong to the regions and
    ``(x*, y*)`` to neither.  A state is never negative, so the box's
    lower bounds are not tested.
    """
    off_fp = (x != fp.x) | (y != fp.y)
    return off_fp & (x <= fp.x) & (y <= fp.y), off_fp & (x >= fp.x) & (y >= fp.y)


def membership(params: Params, s: State) -> Region:
    """Which invariant region, if any, contains the state.

    Comparisons against ``(x*, y*)`` are exact; points on the shared
    boundaries count as inside, and the fixed point itself is reported
    separately.
    """
    fp = _require_interior(params)
    in_omega1, in_omega2 = _regions(s.x, s.y, fp)
    if in_omega1:
        return Region.OMEGA1
    if in_omega2:
        return Region.OMEGA2
    return Region.IS_FIXED_POINT if s == fp else Region.OUTSIDE


def _certify(x, y, fp: State | None, y_cap: float, extinction, growth, tag):
    """The certificates after a state ``(x, y)`` is reached, on floats or float64 arrays.

    Returns ``(extinction, growth, tag)`` updated from their values
    before it.  With no interior fixed point (``fp`` None), a cell
    without the extinction certificate gets it at ``y <= y_cap`` with tag
    code 1 (Theorem 1(ii)).  Otherwise a cell with neither certificate
    gets the one of the region of ``_regions`` it is in, and keeps its
    tag.
    """
    if fp is None:
        new = (extinction ^ True) & (y <= y_cap)
        return extinction | new, growth, tag + new * (1 - tag)
    open_ = (extinction | growth) ^ True
    in_omega1, in_omega2 = _regions(x, y, fp)
    return extinction | (open_ & in_omega1), growth | (open_ & in_omega2), tag


def _estimate(x, y):
    """The adult-limit estimate ``y*(1+x)/x`` at ``(x, y)``, on floats or float64 arrays.

    nan, for no estimate, where ``y*(1+x)`` overflows, though the quotient
    may be finite.  No checkpoint is accepted on or against an inf or a
    nan estimate, so the two differ only in what a fate reports.
    """
    est = y * (1.0 + x) / x
    # est * True is est, bit for bit, and inf * False is nan
    return est * (est < math.inf)


def _fate_from(
    params: Params,
    budget: int,
    context: tuple,
    n: int,
    state: _FateState,
    block_end: int = sys.maxsize,
    stop_x: float = math.inf,
) -> tuple[tuple | None, bool, int, _FateState]:
    """The scalar fate loop of :func:`classify_fate`, ``_orbit`` and ``_lockstep_fates``.

    Steps a cell on from its ``state`` after ``n`` steps, with the
    ``context`` of ``_fate_context``, which carries the cutoffs and is
    unpacked once per call.  Returns ``(fields, stalled, n, state)``:
    once the verdict is final, the column fields (see ``_fields``), else
    None; whether the last step's displacement was below the context's
    ``step_tol``; and the step count and state reached.  A call
    stops before the verdict at ``block_end``, or once ``x`` passes
    ``stop_x``, and a call from the ``(n, state)`` it returns resumes
    where it stopped.  ``_certify`` is called only while a certificate is
    missing.  On the closed fate only the stops that are not rules end a
    call.  ``_lockstep_fates`` steps the same way, elementwise.  The
    loop holds one inlined copy of the kernel; a step that fires no rule
    pays one test on top of it, and the rules run, in order, when it
    fails.  The test reads ``radius`` only on a falling step: the rules
    hold the next step on them while ``x <= radius``, so a step that
    passes it starts outside the ball's ``x`` range, and a rising step
    stays there.  After the rules run on a step that rose by at least
    ``step_tol``, with a gate above ``-inf`` and ``ulp(x) >= step_tol``,
    ``_rising_pairs`` takes the steps that follow two a pass, each of
    which the test would pass; the first pair it rejects is stepped
    again here, one step a pass.  The loop iterates ``itertools.repeat``,
    which makes no int per step, and skips the steps of the pairs taken;
    ``n`` is advanced once, by the steps the iterator has given, after
    it.  A call with ``n == min(budget, block_end)`` takes no step and
    returns its ``n`` and ``state``.
    """
    isfinite = math.isfinite
    alpha, beta, gamma, c = params.alpha, params.beta, params.gamma, 1.0 - params.mu
    fp, y_cap, radius, divergence_x, step_tol, est_tol = context
    x, y, tag, extinction, growth, est_prev, checkpoint_x = state
    # ended: the verdict is final though neither ball nor stall fired
    ball = stalled = ended = False
    gate = -math.inf  # each step that runs the rules sets it, the first included
    # repeat makes no int per step; n is advanced once, after the loop
    total = max(0, min(budget, block_end) - n)
    steps = itertools.repeat(None, total)
    for _ in steps:
        # _w0_xy inlined, in its operation order
        k = alpha * x / (1.0 + x)
        x1 = (x - k) + beta * y * y / (gamma + y)
        y1 = k + c * y
        # no rule fires: x1 lies below the gate, |x1 - x| >= step_tol, so the
        # step is no stall, and x1 lies outside the ball.  The ball is tested
        # only on a falling step: a step on this path starts from x > radius,
        # as the rules hold the next step on them while x <= radius, and a
        # rising step has x1 >= x, as _fate_context keeps step_tol >= 0.
        # x1 < gate <= inf makes x1 finite, and testing x1 alone is enough:
        # y1 = k + (1-mu)*y with k = alpha*x/(1+x) <= alpha is finite
        # whenever x and y are.  Plain comparisons, without abs(), cost the
        # least per step.
        if x1 < gate and (x1 - x >= step_tol or (x - x1 >= step_tol and x1 > radius)):
            x, y = x1, y1
            continue
        # both images are >= 0, so their difference is finite iff both are
        if not isfinite(x1 - y1):
            n -= 1  # the step to the non-finite image is not taken
            ended = True
            break
        # the displacement, max(|x1 - x|, |y1 - y|), is below step_tol
        rise = x1 - x  # read again once the rules have set a gate
        stalled = abs(rise) < step_tol and abs(y1 - y) < step_tol
        x, y = x1, y1
        # a cell that holds the growth certificate is never in the ball
        ball = x <= radius and y <= radius and not growth  # max() would cost a call per step
        if ball:
            break
        # a certified orbit pays no call
        if not extinction and (fp is None or not growth):
            extinction, growth, tag = _certify(x, y, fp, y_cap, extinction, growth, tag)
        if not growth and x > divergence_x:
            growth = True

        if growth and x >= checkpoint_x:
            # estimator error scales as 1/x^2, so checkpoints are spaced
            # by x-doubling; accept once one doubling moves the estimate
            # by less than a tenth of the tolerance
            est = _estimate(x, y)
            if abs(est - est_prev) <= est_tol:
                # the outcome reports est, the inversion at the final state
                ended = True
                break
            est_prev = est
            checkpoint_x = 2.0 * x

        if stalled or x > stop_x:
            break
        # the least x at which a rule can fire: any x while a certificate
        # may come or x lies in the ball's range, else the next checkpoint
        # (growth) or divergence_x, or stop_x
        gate = min(checkpoint_x if growth else divergence_x, stop_x)
        if x <= radius or (not extinction and (fp is None or not growth)):
            gate = -math.inf
        elif rise >= step_tol and math.ulp(x) >= step_tol:
            # a rising orbit below its gate, whose next steps may each pass
            # the test above: take them in pairs, and skip the steps of the
            # pairs taken on the iterator (islice consumes without a pass)
            x, y, pairs = _rising_pairs(alpha, beta, gamma, c, x, y, gate, operator.length_hint(steps) >> 1)
            next(itertools.islice(steps, 2 * pairs, 2 * pairs), None)
    n += total - operator.length_hint(steps)
    state = _FateState(x, y, tag, extinction, growth, est_prev, checkpoint_x)
    # an accepted estimate decides growth, also on a step that stalls
    fields = _fields(n, state, ball, stalled and not ended) if ended or ball or stalled or n == budget else None
    return fields, stalled, n, state


def _rising_pairs(alpha, beta, gamma, c, x, y, gate, pairs):
    """Step ``(x, y)`` on while ``x`` rises below ``gate``, two steps a pass.

    Returns ``(x, y, taken)`` after the first ``taken`` of at most
    ``pairs`` pairs, each kept only while ``x < x1 < x2 < gate``; the
    state is the one before the first pair rejected.  ``_fate_from``
    calls it with ``c = 1 - mu``, its gate and ``ulp(x) >= step_tol``.
    Every step kept then passes that loop's one test as a rising step:
    ``ulp`` does not fall as ``x`` grows, and float subtraction rounds
    monotonically, so ``x1 > x`` gives ``x1 - x >= ulp(x) >= step_tol``,
    and likewise for ``x2``; ``x1 < x2 < gate`` keeps the images finite,
    as the test's ``x1 < gate`` does.
    """
    run = itertools.repeat(None, pairs)
    for _ in run:
        # _w0_xy inlined twice, in its operation order
        k = alpha * x / (1.0 + x)
        x1 = (x - k) + beta * y * y / (gamma + y)
        y1 = k + c * y
        k = alpha * x1 / (1.0 + x1)
        x2 = (x1 - k) + beta * y1 * y1 / (gamma + y1)
        if not x < x1 < x2 < gate:
            return x, y, pairs - 1 - operator.length_hint(run)
        x, y = x2, k + c * y1
    return x, y, pairs


def _verdict(ball, extinction, growth, stalled, tag):
    """The verdict and tag codes of fates that stopped, on bools or bool arrays.

    ``ball``: the origin ball was reached; ``extinction`` and ``growth``:
    the certificates held; ``stalled``: the orbit went numerically
    stationary; ``tag``: the certificate's code, 0 for none.  A verdict
    code indexes ``_VERDICTS`` and a tag code ``_TAGS``.  ``^ True``
    negates a bool and a bool array alike, where ``not`` and ``~`` do not.
    """
    moving = stalled ^ True
    # a stall is taken for the float image of (x*, y*) and vetoes the
    # certificates; with no interior point (Theorem 1(ii), tag 1) there is
    # no such image, and the certificate stands
    extinct = ball | (extinction & (moving | (tag == 1)))
    grows = (extinct ^ True) & growth & moving
    # no event, or pinned at a numerical fixed point away from the origin
    # (the float image of (x*, y*)): no asymptotic claim, and no tag
    undetermined = (extinct | grows) ^ True
    # a decided fate without a certificate is empirical
    return grows + 2 * undetermined, (tag + 4 * (tag == 0)) * (undetermined ^ True)


def _fields(n: int, state: _FateState, ball: bool, stalled: bool) -> tuple[int, int, float, float, float, int]:
    """The column fields of a fate that stopped at ``state`` after ``n`` steps.

    Returns ``(verdict, iterations, final_x, final_y, estimate, tag)``,
    the verdict and tag as codes; ``ball`` and ``stalled`` are
    ``_verdict``'s.  A growth verdict carries the adult-limit estimate
    ``y*(1+x)/x`` at ``(x, y)``; for an accepted estimate that is the
    checkpoint's own value.  Any other has nan.
    """
    x, y = state.x, state.y
    verdict, tag = _verdict(ball, state.extinction, state.growth, stalled, state.tag)
    estimate = _estimate(x, y) if verdict == 1 and x > 0.0 else math.nan
    return verdict, n, x, y, estimate, tag


def _outcome(verdict: int, n: int, x: float, y: float, estimate: float, tag: int) -> TrajectoryOutcome:
    """The outcome that the column fields of one cell describe."""
    return TrajectoryOutcome(
        _VERDICTS[verdict], n, State(x, y), None if math.isnan(estimate) else estimate, _TAGS[tag]
    )


def _outcomes(columns) -> list[TrajectoryOutcome]:
    """The outcome of every cell of ``columns``, in cell order."""
    return [_outcome(*fields) for fields in zip(*(c.tolist() for c in columns))]


def classify_fate(params: Params, s0: State, budget: int = DEFAULT_BUDGET) -> TrajectoryOutcome:
    """Long-run fate of a single initial condition.

    Proven shortcuts are applied first: a start inside ``Omega1`` or
    ``Omega2`` fixes the verdict by invariance, and in the regime without
    an interior fixed point any observed ``y <= alpha/mu`` proves
    extinction.  Iteration then confirms within the budget: extinction
    runs until the origin ball is reached, growth until the adult-limit
    estimate stabilizes; an orbit that holds the growth certificate never
    counts as in the ball, even where ``(x*, y*)`` lies inside it.
    Starts outside the proven regions are classified empirically by the
    same finite-time events.  An interior point that rounds onto an
    axis is refused with ``interior_fixed_point``'s
    ``ConfigurationError``.
    ``undetermined`` is returned when the budget expires without any
    certificate or event, for a start at the fixed point, and for orbits
    that go numerically stationary away from the origin (which only
    happens within rounding distance of the fixed point), unless
    Theorem 1(ii) has proved extinction: with no interior point there
    is no fixed point to stall at.  The finite-time events are set by
    the cutoffs ``EXTINCTION_RADIUS``, ``DIVERGENCE_X``, ``Y_LIMIT_TOL``
    and ``STEP_TOL``, read when called.

    The start is settled by ``_start`` and steps on
    ``_fate_from``, as a cell of ``basin_scan`` is and does, so a start's
    outcome is the same here and in a scan, bit for bit.  No numpy is
    loaded.
    """
    budget = _checked(budget)
    context = _fate_context(params)
    done, ball, state = _start(s0.x, s0.y, context)
    fields = _fields(0, state, ball, False) if done else _fate_from(params, budget, context, 0, state)[0]
    return _outcome(*fields)


def simulate(params: Params, s0: State, budget: int) -> tuple[Trajectory, TrajectoryOutcome]:
    """``(iterate(params, s0, budget), classify_fate(params, s0, budget))``, in one pass.

    The orbit is stepped once, by the engine ``iterate`` runs on, with
    ``classify_fate``'s rules applied while the verdict is open; when
    the trajectory stops at ``divergence_x`` first, the fate steps on
    alone.  No step is taken twice, apart from re-stepping the kept
    points, at most about ``3*TRAJECTORY_WINDOW`` steps.  No numpy is
    loaded.
    """
    trajectory, fields = _orbit(params, s0, _checked(budget), True)
    return trajectory, _outcome(*fields)


def _require_sampling(samples: int, seed: int) -> tuple[int, int]:
    """The sample count and seed, as ints, rejected before any array is allocated."""
    samples, seed = _index("samples", samples), _index("seed", seed)
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ConfigurationError(f"{samples} samples exceed the maximum of {MAX_SAMPLES}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return samples, seed


def _draw_units(seed: int, samples: int):
    """``default_rng(seed).random(2*samples)``, split into read-only halves ``(u, v)``.

    The halves are drawn as two arrays, so a caller can let go of one.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    u, v = rng.random(samples), rng.random(samples)
    u.flags.writeable = v.flags.writeable = False
    return u, v


_memo_units = lru_cache(maxsize=8)(_draw_units)


def _unit_draws(seed: int, samples: int):
    """The unit uniforms every sampled check scales into its starts.

    ``Generator.uniform(0.0, h, n)`` is ``0.0 + h*r`` for the stream's
    next ``n`` doubles ``r``, so ``h*u`` and ``k*v`` are bit for bit the
    ``x`` and ``y`` draws of two such calls on ``default_rng(seed)``.
    The draw depends on ``(seed, samples)`` alone, so one of at most
    ``_MEMO_SAMPLES`` samples is kept for every parameter set of a
    sweep; a larger one is drawn on each call.
    """
    return (_memo_units if samples <= _MEMO_SAMPLES else _draw_units)(seed, samples)


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
    invariance of the map does not depend on the window.  ``Omega1`` is
    sampled whole, and its check neither reads nor checks ``span``.
    Returns the escape count and the first counterexample, if any.  At most
    ``MAX_SAMPLES`` samples; the seed must be nonnegative.  A span so
    large that an image overflows float64 is a ``ConfigurationError``,
    and so is a fixed point so small that the map's ``beta*y*y`` there
    underflows float64's normal range: its images would lose the bits
    that decide an escape.

    The starts scale the unit draws of ``_unit_draws(seed, samples)``:
    ``(x*u, y*v)`` in ``Omega1`` and ``(x* + span*u, y* + span*v)`` in
    ``Omega2``, bit for bit the ``default_rng(seed).uniform`` draws of
    the region's window.  A start that lands on ``(x*, y*)`` is moved
    along ``x`` into the region.  ``region`` may be the member or its
    value (``"omega1"``); any other is a ``ConfigurationError``.

    The images are made under ``np.errstate`` only when the bound of
    ``_invariance_images`` on the window's top corner, ``(x*, y*)`` or
    just past ``(x* + span, y* + span)``, is not finite.  Otherwise no
    image can overflow, and no floating-point flag is raised.

    An image escapes when it lands on ``(x*, y*)`` or lies beyond a
    bound of the region by more than ``_ESCAPE_ULPS`` ulps of that
    bound.  Less is rounding, not a counterexample: the float image and
    the float ``(x*, y*)`` each carry a few roundings, and a state
    sampled at the corner of the float box maps past it by the error of
    ``x*``, whose denominator cancels next to the existence threshold.
    """
    fp = _require_interior(params)
    try:
        checked = Region(region)
    except ValueError:
        checked = None
    if checked is not Region.OMEGA1 and checked is not Region.OMEGA2:
        raise ConfigurationError(f"invariance is defined for omega1/omega2, got {region}")
    omega1 = checked is Region.OMEGA1
    samples, seed = _require_sampling(samples, seed)
    xs, ys = fp.x, fp.y
    # the kernel's product, in its operation order; every Omega2 sample's is at least this
    g = params.beta * ys * ys
    if g < sys.float_info.min:
        raise ConfigurationError(
            f"beta*y*^2 = {g!r} at the interior fixed point ({xs!r}, {ys!r}) underflows "
            "float64's normal range, where the map's images cannot test invariance"
        )
    if not omega1:
        if span is None:
            span = 10.0 * max(xs, ys)
        if not (math.isfinite(span) and span > 0.0):
            raise ConfigurationError(f"sampling span must be positive and finite, got {span}")

    import numpy as np

    u, v = _unit_draws(seed, samples)
    if omega1:
        x0, y0 = xs * u, ys * v
    else:
        # xs + span*u, without a temporary
        x0, y0 = span * u, span * v
        x0 += xs
        y0 += ys
    del u, v  # a draw too large to keep is not held while the images are made
    # count_nonzero is the cheapest any() numpy has for a short array
    at_fp = x0 == xs
    if np.count_nonzero(at_fp):  # measure-zero draw; the fixed point is not in the region
        at_fp &= y0 == ys
        # move it along x into the region sampled: down into Omega1, up into Omega2
        moved = 0.5 * xs if omega1 else np.nextafter(xs, np.inf)
        x0 = np.where(at_fp, moved, x0)

    # every start lies at or below the window's top corner, a start moved
    # off (x*, y*) into Omega2 included
    top_x, top_y = (xs, ys) if omega1 else (math.nextafter(xs + span, math.inf), ys + span)
    if (top_x + top_y + params.gamma) + params.beta * top_y * top_y / params.gamma < math.inf:
        # no image can overflow, so no floating-point flag is raised: see _invariance_images
        x1, y1, inside, escapes = _invariance_images(params, omega1, fp, x0, y0)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            x1, y1, inside, escapes = _invariance_images(params, omega1, fp, x0, y0)
            # an image inside Omega1's box is finite, one in Omega2 may be inf;
            # images are nonnegative, so x1 - y1 is finite exactly when both are
            finite = (omega1 and not escapes) or np.count_nonzero(np.isfinite(x1 - y1)) == samples
        if not finite:
            # a float64 limit, not a counterexample: a State cannot hold inf
            raise ConfigurationError(f"sampling span {span} overflows the map's float64 images; use a smaller span")

    counterexample = None
    if escapes:
        i = int(np.argmin(inside))
        counterexample = (State(float(x0[i]), float(y0[i])), State(float(x1[i]), float(y1[i])))
    return InvarianceReport(checked, samples, escapes, counterexample)


def _invariance_images(params: Params, omega1: bool, fp: State, x0, y0):
    """The images of the starts ``(x0, y0)`` of :func:`check_invariance`, tested.

    Returns ``(x1, y1, inside, escapes)``: the images, whether each stays
    inside Omega1 (``omega1``) or Omega2, widened by ``_ESCAPE_ULPS``, and
    how many do not.  Starts at or below ``(top_x, top_y)`` have finite
    images, and raise no overflow or invalid flag, when
    ``(top_x + top_y + gamma) + beta*top_y*top_y/gamma`` is finite: every
    rounding is monotone, so with ``0 <= k <= min(x, 1)``, as ``alpha <=
    1``, ``x1 = (x - k) + g`` is at most that bound, ``y1 = k + (1-mu)*y``
    at most ``1 + top_y``, and the denominators ``1 + x`` and ``gamma + y``
    are finite and at least 1 and ``gamma``.  Otherwise the caller runs
    it under ``np.errstate``.
    """
    import numpy as np

    xs, ys = fp.x, fp.y
    x1, y1 = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, x0, y0)
    if omega1:
        # an image is not a State, so Omega1's quadrant bounds are tested
        # too; np.minimum passes a nan on, which fails the test as it should
        inside = (x1 <= xs + _ESCAPE_ULPS * math.ulp(xs)) & (y1 <= ys + _ESCAPE_ULPS * math.ulp(ys))
        inside &= np.minimum(x1, y1) >= 0.0
    else:
        inside = (x1 >= xs - _ESCAPE_ULPS * math.ulp(xs)) & (y1 >= ys - _ESCAPE_ULPS * math.ulp(ys))
    on_fp = x1 == xs
    if np.count_nonzero(on_fp):  # only an image with x = x* can be (x*, y*)
        inside &= ~(on_fp & (y1 == ys))
    return x1, y1, inside, len(inside) - int(np.count_nonzero(inside))


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
    return _identity_defect(beta, gamma, mu, s.y)


def _identity_defect(beta: float, gamma: float, mu: float, y):
    """The defect of :func:`sum_identity_residual`, on floats or numpy arrays."""
    ystar = gamma * mu / (beta - mu)
    gy = gamma + y
    increment = beta * y * y / gy - mu * y
    return increment + (beta - mu) * y * (ystar - y) / gy


def check_sum_identity(params: Params, samples: int, seed: int) -> IdentityReport:
    """Sample states and report the worst defect of the total-population identity.

    ``x`` is drawn from ``[0, 1e4]`` and ``y`` from a window that keeps
    ``beta*y`` moderate where ``beta`` is small.  The draws come from
    ``seed + 2``, apart from the invariance draws a ``check`` seed makes
    at ``seed`` and ``seed + 1``.  The terms the defect adds up are of
    the size of ``beta*y`` and ``mu*y``, so each state is allowed
    ``1e-12*max(1, beta*y, mu*y)`` of rounding.
    """
    fp = _require_interior(params)
    samples, seed = _require_sampling(samples, seed)
    y_window = max(1.0, min(10.0 * max(derived_constants(params).y_limit, fp.y), 500.0 / params.beta))

    import numpy as np

    u, v = _unit_draws(seed + 2, samples)
    ys = y_window * v
    del v  # a draw too large to keep is not held while the defects are computed
    residuals = np.abs(_identity_defect(params.beta, params.gamma, params.mu, ys))
    allowances = 1e-12 * np.maximum(1.0, np.maximum(params.beta * ys, params.mu * ys))
    exceeds = ~(residuals <= allowances)  # a nan residual exceeds too
    i = int(np.argmax(exceeds)) if np.count_nonzero(exceeds) else int(np.argmax(residuals))
    return IdentityReport(samples, float(residuals[i]), State(float(1e4 * u[i]), float(ys[i])), float(allowances[i]))


def check_adult_bound(params: Params, samples: int, seed: int) -> AdultBoundReport:
    """Step sampled orbits and report one whose adult density passes ``max(y0, alpha/mu)``.

    ``min(samples, 1000)`` starts are drawn from ``seed + 3`` on
    ``[0, 100] x [0, 3*alpha/mu]`` and stepped 256 times together.  The
    violation reported is the first start, in draw order, to pass its
    bound by more than ``1e-12`` at the earliest step any start does.
    Parameters under which an orbit overflows float64 within the horizon
    are a ``ConfigurationError``: a nan adult density passes no bound,
    so such an orbit could not fail the check.
    """
    y_limit = derived_constants(params).y_limit
    samples, seed = _require_sampling(samples, seed)
    starts = min(samples, 1000)
    horizon = 256

    import numpy as np

    u, v = _unit_draws(seed + 3, starts)
    x0, y0 = 100.0 * u, 3.0 * y_limit * v
    bounds = np.maximum(y0, y_limit) + 1e-12
    x, y = x0, y0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(horizon):
            x, y = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, x, y)
            bad = y > bounds
            if np.count_nonzero(bad):
                i = int(np.argmax(bad))
                violation = (State(float(x0[i]), float(y0[i])), float(y[i]))
                return AdultBoundReport(starts, horizon, y_limit, violation)
        # a non-finite image stays non-finite, so one test sees every orbit
        # that overflowed; x - y is finite iff both nonnegative images are
        finite = np.count_nonzero(np.isfinite(x - y)) == starts
    if not finite:
        # a float64 limit, not a pass: a State cannot hold inf
        raise ConfigurationError(f"an adult-bound orbit overflows float64 within {horizon} steps at these parameters")
    return AdultBoundReport(starts, horizon, y_limit, None)


# On a 2-CPU Xeon with numpy 2.4 a lockstep step cost 18-25 us whether it
# carried 1 or 128 growth cells, and a scalar step 0.15-0.25 us per cell;
# the two meet at 100-140 cells, median 110, so at this many unresolved
# cells or fewer the scalar loop is the cheaper one.
LOCKSTEP_CROSSOVER = 110

# the x of a growth fate's first estimate checkpoint
_FIRST_CHECKPOINT_X = 100.0
# the state a fate carries from step to step beside its step count: the
# point (x, y), the tag code and two certificates reached so far, the last
# checkpoint's estimate (nan before the first, which no estimate is within
# tolerance of) and the x at which the next checkpoint falls; on floats,
# or in lockstep one array per field
_FateState = namedtuple("_FateState", "x y tag extinction growth est_prev checkpoint_x")
# the state of the closed fate, on which no rule fires: both certificates
# held (so the context's y_cap and fp go unread) and no checkpoint; it
# takes the orbit's (x, y)
_CLOSED_STATE = _FateState(math.nan, math.nan, 0, True, True, math.nan, math.inf)
# a verdict code indexes _VERDICTS and a tag code _TAGS; codes 1-3 name a
# certificate, and a fate decided without one gets 4, empirical, from _verdict
_VERDICTS = tuple(Verdict)
_TAGS = (None, *TheoremTag)
# the columns of a scan, one entry per cell, in the order of BasinGrid's fields
_COLUMNS = (
    ("verdict", "int8"),
    ("iterations", "int64"),
    ("final_x", "float64"),
    ("final_y", "float64"),
    ("estimate", "float64"),
    ("tag", "int8"),
)


def _fate_context(params: Params | None) -> tuple:
    """What a fate reads and never changes, with the cutoffs as they are when called.

    ``(fp, y_cap, radius, divergence_x, step_tol, est_tol)``: ``_certify``'s
    ``fp`` and ``y_cap``, the origin ball's radius, ``DIVERGENCE_X``,
    ``STEP_TOL`` and a tenth of ``Y_LIMIT_TOL``, within which an estimate
    is accepted.  With no ``params``, the closed fate's: no ``fp``, a nan
    ``y_cap`` and a ``-inf`` radius, so no origin ball.  A negative
    ``STEP_TOL`` stalls no step, as 0 does, and is passed on as 0: on a
    step with ``x1 - x >= step_tol`` ``_fate_from`` takes ``x1 >= x``.
    """
    cutoffs = (DIVERGENCE_X, 0.0 if STEP_TOL < 0.0 else STEP_TOL, 0.1 * Y_LIMIT_TOL)
    if params is None:
        return (None, math.nan, -math.inf, *cutoffs)
    return (interior_fixed_point(params), derived_constants(params).y_limit, EXTINCTION_RADIUS, *cutoffs)


def _start(x, y, context: tuple) -> tuple:
    """The fate of a start ``(x, y)`` before any step, on floats or float64 arrays.

    Returns ``(done, ball, state)``: ``done`` when the verdict is final
    before any step, ``ball`` when that is because the start lies in the
    origin ball, and the ``_FateState`` the fate starts from.  Its
    certificates are ``_certify``'s from none; the rules that hold only
    at a start (the ball, the fixed point, tags 2 and 3) are written here.
    """
    fp, y_cap, r = context[:3]
    ball = (x <= r) & (y <= r)
    uncertified = ball & False  # False in the start's shape
    zero = 0.0 * ball  # 0.0 in the start's shape
    extinction, growth, tag = _certify(x, y, fp, y_cap, uncertified, uncertified, 0 * ball)
    done = ball
    if fp is not None:
        at_fp = (x == fp.x) & (y == fp.y)
        # a start at the fixed point is undetermined, and one in Omega2 grows,
        # even inside the origin ball
        ball = ball & ((at_fp | growth) ^ True)
        done, tag = ball | at_fp, 2 * extinction + 3 * growth
    return done, ball, _FateState(x, y, tag, extinction, growth, zero + math.nan, zero + _FIRST_CHECKPOINT_X)


def _lockstep_fates(
    params: Params,
    x0: np.ndarray,
    y0: np.ndarray,
    budget: int,
    context: tuple,
) -> tuple[np.ndarray, ...]:
    """The fate of every start ``(x0[i], y0[i])``, as ``classify_fate`` gives it.

    The ``context`` of ``_fate_context`` is the caller's, which carries
    the cutoffs, so a pool worker reads no module constant of its own.
    Returns the ``_COLUMNS``, each with one entry per start.  Every start
    is settled at once by ``_start``.  The unresolved ones then step
    together as a ``_FateState`` of arrays, ``_fate_from``'s stepping
    written elementwise around the same ``_certify`` and ``_estimate``.
    A finished cell is compacted out and its fields written into the
    columns then.  Once ``LOCKSTEP_CROSSOVER`` or fewer remain, each
    resumes on ``_fate_from`` from the state it has reached.
    """
    import numpy as np

    alpha, beta, gamma, mu = params.alpha, params.beta, params.gamma, params.mu
    fp, y_cap, r, div_x, step_tol, est_tol = context
    columns = tuple(np.empty(len(x0), dtype) for _, dtype in _COLUMNS)
    verdicts, iterations, final_x, final_y, estimates, tags = columns
    estimates[:] = np.nan  # only growth verdicts carry an estimate

    def finish(idx, state, done, ball=None, stalled=None):
        """Write the fields of the cells in ``done`` at step ``n``, and return the cells left.

        A cell is its index ``idx`` into the columns and its entry of
        ``state``.  ``ball`` and ``stalled`` default to all False.
        """
        at, xd, yd = idx[done], state.x[done], state.y[done]
        verdict, tags[at] = _verdict(
            False if ball is None else ball[done],
            state.extinction[done],
            state.growth[done],
            False if stalled is None else stalled[done],
            state.tag[done],
        )
        verdicts[at], iterations[at], final_x[at], final_y[at] = verdict, n, xd, yd
        grows = (verdict == 1) & (xd > 0.0)
        estimates[at[grows]] = _estimate(xd[grows], yd[grows])
        keep = ~done
        return idx[keep], _FateState._make(a[keep] for a in state)

    # the steps, as in _fate_from; an image or an estimate may
    # overflow, and an orbit stops before a non-finite image
    with np.errstate(over="ignore", invalid="ignore"):
        n = 0
        done, ball, state = _start(np.asarray(x0, dtype=float), np.asarray(y0, dtype=float), context)
        idx, state = finish(np.arange(len(x0)), state, done, ball)

        # count_nonzero is the cheapest any() numpy has for a short array
        while len(idx) > LOCKSTEP_CROSSOVER and n < budget:
            x1, y1 = _w0_xy(alpha, beta, gamma, mu, state.x, state.y)
            # both images are >= 0, so their difference is finite iff both are
            finite = np.isfinite(x1 - y1)
            if np.count_nonzero(finite) < len(idx):  # these stop before the non-finite image
                idx, state = finish(idx, state, ~finite)
                x1, y1 = x1[finite], y1[finite]
            x, y, tag, extinction, growth, est_prev, checkpoint_x = state
            n += 1
            displacement = np.maximum(np.abs(x1 - x), np.abs(y1 - y))
            x, y = x1, y1

            # growth < in_ball: in the ball and without the growth certificate
            ball = growth < (np.maximum(x, y) <= r)
            # only while a cell lacks a certificate; a cell in the ball keeps its tag
            if np.count_nonzero(extinction if fp is None else extinction | growth) < len(idx):
                extinction, growth, tag = _certify(x, y, fp, y_cap, extinction | ball, growth, tag)
            growth |= x > div_x

            stalled = displacement < step_tol
            done = ball | stalled
            checkpoint = growth & (x >= checkpoint_x)
            if np.count_nonzero(checkpoint):
                xc = x[checkpoint]
                est = _estimate(xc, y[checkpoint])
                accepted = np.zeros(len(x), dtype=bool)
                accepted[checkpoint] = np.abs(est - est_prev[checkpoint]) <= est_tol
                est_prev[checkpoint] = est
                checkpoint_x[checkpoint] = 2.0 * xc
                stalled &= ~accepted
                done |= accepted
            if n == budget:
                done[:] = True
            state = _FateState(x, y, tag, extinction, growth, est_prev, checkpoint_x)
            if np.count_nonzero(done):
                idx, state = finish(idx, state, done, ball, stalled)

    for i, *cell in zip(idx.tolist(), *(a.tolist() for a in state)):
        fields = _fate_from(params, budget, context, n, _FateState(*cell))[0]
        for column, value in zip(columns, fields):
            column[i] = value
    return columns


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
) -> BasinGrid:
    """Classify every grid point's long-run fate.

    Each cell's outcome is ``classify_fate`` of its start, bit for bit.
    The cells, y outer, are cut into contiguous blocks, one per worker
    process, at most as many as there are CPUs this process may run on
    and never more than there are cells; with one block the scan runs
    in process.  A block steps its unresolved cells together as numpy
    arrays until ``LOCKSTEP_CROSSOVER`` or fewer remain, which finish on
    the scalar loop.  Each block returns its columns, which are joined
    in block order.  The result does not depend on the worker count.
    A grid holds at most ``MAX_GRID_CELLS`` cells.  The cutoffs are
    read when called, in the calling process, and sent to each worker.
    """
    budget = _checked(budget)
    nx, ny, workers = _index("nx", nx), _index("ny", ny), _index("workers", workers)
    if nx < 2 or ny < 2:
        raise ConfigurationError(f"grid resolution must be >= 2 per axis, got {nx}x{ny}")
    if nx * ny > MAX_GRID_CELLS:
        raise ConfigurationError(f"grid of {nx}x{ny} cells exceeds the maximum of {MAX_GRID_CELLS} cells")
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

    context = _fate_context(params)

    import numpy as np

    x0 = np.tile(np.linspace(x_lo, x_hi, nx), ny)
    y0 = np.repeat(np.linspace(y_lo, y_hi, ny), nx)
    pool_size = _pool_size(workers, nx * ny)
    if pool_size == 1:
        columns = _lockstep_fates(params, x0, y0, budget, context)
    else:
        # imported here, so that importing the package does not load the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            blocks = [
                pool.submit(_lockstep_fates, params, bx, by, budget, context)
                for bx, by in zip(np.array_split(x0, pool_size), np.array_split(y0, pool_size))
            ]
            columns = [np.concatenate(parts) for parts in zip(*(block.result() for block in blocks))]

    return BasinGrid(params, (x_lo, x_hi), (y_lo, y_hi), nx, ny, *columns)
