"""Reference oracles: the scalar ``iterate`` and ``classify_fate`` loops,
``check_invariance`` with its own region test, the sampled checks that
drew per call, and ``classify_interior`` with its ``eigvals`` cross-check.

These are the package's original hand-written loops, one per function,
kept verbatim so that tests can require the orbit engine in
:mod:`mosquito_allee.dynamics` to reproduce them bit for bit.
``certify_step`` is ``classify_fate``'s per-step certificate rules,
lifted out of its loop unchanged, for tests of the package's one shared
form of them.  ``check_invariance`` is the version that wrote its own
Omega1/Omega2 inside-test, kept verbatim so that tests can require the
package's, which allows a few dozen ulps of rounding past a bound, to
give the same reports on images that leave a region by more than that.
``classify_interior`` is the version that cross-checked its threshold
label against ``numpy.linalg.eigvals`` of the Jacobian, kept verbatim so
that tests can require the threshold label in
:mod:`mosquito_allee.stability`, which no longer re-checks itself, to
give the same labels and analyses wherever the cross-check passed.
``_label_from_moduli`` is the moduli rule it labels the eigenvalues
with, which the package once also labelled the origin with.
``find_fixed_points`` is the version that built its origin from that
rule and every value object by keyword, and stepped each location
through the map with ``_verify_fixed_point``, kept verbatim (apart from
calling the package's ``interior_fixed_point`` and
``classify_interior`` by their module, as the package does) so that
tests can require the package's to give the same reports and errors.
``interior_fixed_point`` is the closed form as it was before it was
memoized, and ``OriginalState`` the value object as it was when
``__post_init__`` validated and set each field after the generated
``__init__`` had set it (only the class name differs), kept verbatim so
that tests can require the memoized closed form and the one-pass
constructor to give the same values, errors and dataclass behaviour.
``check_invariance_with_allowance``, ``check_sum_identity`` and
``check_adult_bound`` are the sampled checks as they were when each
call drew its starts with ``default_rng(...).uniform``, kept verbatim
so that tests can require the shared unit draws to give the same
reports under any order of seeds and parameter sets.  Do not edit them
to follow the package; they define the expected outputs.  Two rules
were changed on purpose: ``classify_fate``'s stall no longer overrides
a Theorem 1(ii) certificate, which holds whether or not the float orbit
stops moving, and ``check_invariance_with_allowance`` ignores ``span``
for ``Omega1``, which it samples whole, so an Omega1 span outside
(0, inf) is no error.  The fate cutoffs of ``iterate`` and
``classify_fate``, once one ``thresholds`` object, are plain keyword
arguments with its defaults, so the oracle never reads the package's
cutoffs.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass

from mosquito_allee import stability
from mosquito_allee.dynamics import (
    _ESCAPE_ULPS,
    DEFAULT_BUDGET,
    TRAJECTORY_WINDOW,
    AdultBoundReport,
    IdentityReport,
    InvarianceReport,
    Region,
    Termination,
    TheoremTag,
    Trajectory,
    TrajectoryOutcome,
    Verdict,
    _identity_defect,
    _require_sampling,
)
from mosquito_allee.errors import ConfigurationError, DomainError, InternalConsistencyError
from mosquito_allee.model import Params, State, _w0_xy, derived_constants
from mosquito_allee.stability import (
    UNIT_MODULUS_TOL,
    FixedPoint,
    FixedPointReport,
    InteriorClassification,
    JacobianAnalysis,
    PointKind,
    Regime,
    Stability,
    _require_interior,
    alpha_thresholds,
    jacobian_at,
)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class OriginalState:
    """A population point (larvae ``x``, adults ``y``) in the closed quadrant.

    Coordinates must be finite and nonnegative; divergence and
    quadrant-exit are signaled by the routines that detect them, never
    stored in a ``State``.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _require_finite("x", self.x))
        object.__setattr__(self, "y", _require_finite("y", self.y))
        if self.x < 0.0 or self.y < 0.0:
            raise DomainError(f"state must lie in the nonnegative quadrant, got ({self.x}, {self.y})")


def interior_fixed_point(params: Params) -> State | None:
    """Closed-form interior fixed point, or None when it does not exist."""
    constants = derived_constants(params)
    if not params.beta > constants.threshold_beta:
        return None
    alpha, beta, gamma, mu = params.alpha, params.beta, params.gamma, params.mu
    gm2 = gamma * mu * mu
    denom = alpha * (beta - mu) - gm2
    if denom <= 0.0:
        # beta cleared the threshold form but the equivalent denominator
        # rounded the other way; only reachable within ulps of the boundary
        raise InternalConsistencyError(
            f"existence threshold passed but alpha*(beta-mu) - gamma*mu^2 = {denom} <= 0"
        )
    return State(gm2 / denom, gamma * mu / (beta - mu))


def iterate(
    params: Params,
    s0: State,
    max_iter: int,
    window: int = TRAJECTORY_WINDOW,
    divergence_x: float = 1e9,
    step_tol: float = 1e-14,
) -> Trajectory:
    """Apply the restricted map repeatedly, recording the orbit.

    Stops early when the step displacement falls below ``step_tol``
    (``Converged``), when ``x`` exceeds ``divergence_x`` or overflows
    (``Diverged``), and otherwise runs ``max_iter`` steps (``Budget``).
    A non-finite image is never stored; the trajectory ends at the last
    finite state.
    """
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
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
        if x1 > divergence_x:
            terminated = Termination.DIVERGED
            break
        if displacement < step_tol:
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
    extinction_radius: float = 1e-9,
    divergence_x: float = 1e9,
    y_limit_tol: float = 1e-6,
    step_tol: float = 1e-14,
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
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1, got {budget}")
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
    # a start holding the growth certificate is never in the ball
    ball_hit = not growth_proved and max(x, y) <= extinction_radius
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

        if not growth_proved and max(x, y) <= extinction_radius:
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
        if not growth_proved and x > divergence_x:
            growth_proved = True

        if growth_proved and x >= 100.0 and x >= 2.0 * est_prev_x:
            # estimator error scales as 1/x^2, so checkpoints are spaced
            # by x-doubling; accept once one doubling moves the estimate
            # by less than a tenth of the tolerance
            est = y * (1.0 + x) / x
            if est_prev is not None and abs(est - est_prev) <= 0.1 * y_limit_tol:
                estimate = est
                break
            est_prev = est
            est_prev_x = x

        if displacement < step_tol:
            stalled = True
            break

    final = State(x, y)
    if ball_hit:
        verdict = Verdict.EXTINCTION
        estimate = None
    elif stalled and tag is not TheoremTag.THM1_II:
        # pinned at a numerical fixed point away from the origin (the
        # float image of (x*, y*)); no asymptotic claim can be confirmed.
        # With no interior point there is no such fixed point to be
        # pinned at, and Theorem 1(ii) stands
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
            if not math.isfinite(estimate):
                # y*(1+x) overflowed, though the quotient may be finite: no estimate
                estimate = None
    else:
        verdict = Verdict.UNDETERMINED
        estimate = None
    if verdict is not Verdict.UNDETERMINED and tag is None:
        tag = TheoremTag.EMPIRICAL
    if verdict is Verdict.UNDETERMINED:
        tag = None
    return TrajectoryOutcome(verdict, n, final, estimate, tag)


def certify_step(x, y, fp, y_cap, extinction_proved, growth_proved, tag):
    """The certificate rules of one step of :func:`classify_fate`, as written in its loop."""
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
    return extinction_proved, growth_proved, tag


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
    escape count and the first counterexample, if any.  At most
    ``MAX_SAMPLES`` samples; the seed must be nonnegative.  A span so
    large that an image overflows float64 is a ``ConfigurationError``.
    """
    fp = _require_interior(params)
    if region not in (Region.OMEGA1, Region.OMEGA2):
        raise ConfigurationError(f"invariance is defined for omega1/omega2, got {region}")
    _require_sampling(samples, seed)
    xs, ys = fp.x, fp.y
    if span is None:
        span = 10.0 * max(xs, ys)
    if not (math.isfinite(span) and span > 0.0):
        raise ConfigurationError(f"sampling span must be positive and finite, got {span}")

    import numpy as np

    rng = np.random.default_rng(seed)
    if region is Region.OMEGA1:
        x0 = rng.uniform(0.0, xs, samples)
        y0 = rng.uniform(0.0, ys, samples)
    else:
        x0 = xs + rng.uniform(0.0, span, samples)
        y0 = ys + rng.uniform(0.0, span, samples)
    at_fp = (x0 == xs) & (y0 == ys)
    if at_fp.any():  # measure-zero draw; the fixed point is not in the region
        # move it along x into the region sampled: down into Omega1, up into Omega2
        moved = 0.5 * xs if region is Region.OMEGA1 else np.nextafter(xs, np.inf)
        x0 = np.where(at_fp, moved, x0)

    with np.errstate(over="ignore", invalid="ignore"):
        x1, y1 = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, x0, y0)
    if not (np.isfinite(x1).all() and np.isfinite(y1).all()):
        # a float64 limit, not a counterexample: a State cannot hold inf
        raise ConfigurationError(f"sampling span {span} overflows the map's float64 images; use a smaller span")
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


def check_invariance_with_allowance(
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

    An image escapes when it lands on ``(x*, y*)`` or lies beyond a
    bound of the region by more than ``_ESCAPE_ULPS`` ulps of that
    bound.  Less is rounding, not a counterexample: the float image and
    the float ``(x*, y*)`` each carry a few roundings, and a state
    sampled at the corner of the float box maps past it by the error of
    ``x*``, whose denominator cancels next to the existence threshold.
    """
    fp = _require_interior(params)
    if region not in (Region.OMEGA1, Region.OMEGA2):
        raise ConfigurationError(f"invariance is defined for omega1/omega2, got {region}")
    _require_sampling(samples, seed)
    xs, ys = fp.x, fp.y
    # the kernel's product, in its operation order; every Omega2 sample's is at least this
    g = params.beta * ys * ys
    if g < sys.float_info.min:
        raise ConfigurationError(
            f"beta*y*^2 = {g!r} at the interior fixed point ({xs!r}, {ys!r}) underflows "
            "float64's normal range, where the map's images cannot test invariance"
        )
    if region is Region.OMEGA2:
        if span is None:
            span = 10.0 * max(xs, ys)
        if not (math.isfinite(span) and span > 0.0):
            raise ConfigurationError(f"sampling span must be positive and finite, got {span}")

    import numpy as np

    rng = np.random.default_rng(seed)
    if region is Region.OMEGA1:
        x0 = rng.uniform(0.0, xs, samples)
        y0 = rng.uniform(0.0, ys, samples)
    else:
        x0 = xs + rng.uniform(0.0, span, samples)
        y0 = ys + rng.uniform(0.0, span, samples)
    at_fp = (x0 == xs) & (y0 == ys)
    if at_fp.any():  # measure-zero draw; the fixed point is not in the region
        # move it along x into the region sampled: down into Omega1, up into Omega2
        moved = 0.5 * xs if region is Region.OMEGA1 else np.nextafter(xs, np.inf)
        x0 = np.where(at_fp, moved, x0)

    with np.errstate(over="ignore", invalid="ignore"):
        x1, y1 = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, x0, y0)
        # images are nonnegative, so x1 - y1 is finite exactly when both are
        finite = np.isfinite(x1 - y1).all()
    if not finite:
        # a float64 limit, not a counterexample: a State cannot hold inf
        raise ConfigurationError(f"sampling span {span} overflows the map's float64 images; use a smaller span")
    # the regions' bounds, each widened by the rounding allowance
    ax, ay = _ESCAPE_ULPS * math.ulp(xs), _ESCAPE_ULPS * math.ulp(ys)
    off_fp = (x1 != xs) | (y1 != ys)
    if region is Region.OMEGA1:
        # an image is not a State, so Omega1's quadrant bounds are tested too
        inside = off_fp & (x1 <= xs + ax) & (y1 <= ys + ay) & (x1 >= 0.0) & (y1 >= 0.0)
    else:
        inside = off_fp & (x1 >= xs - ax) & (y1 >= ys - ay)

    escapes = samples - int(np.count_nonzero(inside))
    counterexample = None
    if escapes:
        i = int(np.argmin(inside))
        counterexample = (State(float(x0[i]), float(y0[i])), State(float(x1[i]), float(y1[i])))
    return InvarianceReport(region=region, samples=samples, escapes=escapes, counterexample=counterexample)


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
    _require_sampling(samples, seed)
    y_window = max(1.0, min(10.0 * max(derived_constants(params).y_limit, fp.y), 500.0 / params.beta))

    import numpy as np

    rng = np.random.default_rng(seed + 2)
    xs = rng.uniform(0.0, 1e4, samples)
    ys = rng.uniform(0.0, y_window, samples)
    residuals = np.abs(_identity_defect(params.beta, params.gamma, params.mu, ys))
    allowances = 1e-12 * np.maximum(1.0, np.maximum(params.beta * ys, params.mu * ys))
    exceeds = ~(residuals <= allowances)  # a nan residual exceeds too
    i = int(np.argmax(exceeds)) if exceeds.any() else int(np.argmax(residuals))
    return IdentityReport(samples, float(residuals[i]), State(float(xs[i]), float(ys[i])), float(allowances[i]))


def check_adult_bound(params: Params, samples: int, seed: int) -> AdultBoundReport:
    """Step sampled orbits and report one whose adult density passes ``max(y0, alpha/mu)``.

    ``min(samples, 1000)`` starts are drawn from ``seed + 3`` on
    ``[0, 100] x [0, 3*alpha/mu]`` and stepped 256 times together.  The
    violation reported is the first start, in draw order, to pass its
    bound by more than ``1e-12`` at the earliest step any start does.
    """
    y_limit = derived_constants(params).y_limit
    _require_sampling(samples, seed)
    starts = min(samples, 1000)
    horizon = 256

    import numpy as np

    rng = np.random.default_rng(seed + 3)
    x0 = rng.uniform(0.0, 100.0, starts)
    y0 = rng.uniform(0.0, 3.0 * y_limit, starts)
    bounds = np.maximum(y0, y_limit) + 1e-12
    x, y = x0, y0
    for _ in range(horizon):
        x, y = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, x, y)
        bad = y > bounds
        if bad.any():
            i = int(np.argmax(bad))
            violation = (State(float(x0[i]), float(y0[i])), float(y[i]))
            return AdultBoundReport(starts, horizon, y_limit, violation)
    return AdultBoundReport(starts, horizon, y_limit, None)


def _label_from_moduli(moduli, tol: float) -> Stability:
    if any(abs(m - 1.0) <= tol for m in moduli):
        return Stability.NON_HYPERBOLIC
    if all(m < 1.0 for m in moduli):
        return Stability.ATTRACTING
    if all(m > 1.0 for m in moduli):
        return Stability.REPELLING
    return Stability.SADDLE


def classify_interior(params: Params, tol: float = UNIT_MODULUS_TOL) -> InteriorClassification:
    """Stability type of the interior fixed point, with full diagnostics.

    The label is decided by comparing ``alpha`` with the thresholds
    ``alpha1``/``alpha2`` and cross-checked against the raw eigenvalue
    moduli of the Jacobian; a disagreement away from the tolerance bands
    raises an internal consistency error.
    """
    fp = interior_fixed_point(params)
    if fp is None:
        raise ConfigurationError(
            "no interior fixed point: beta must exceed mu*(1 + gamma*mu/alpha)"
        )
    alpha, beta, gamma, mu = params.alpha, params.beta, params.gamma, params.mu
    xs, ys = fp.x, fp.y

    a_quantity = alpha / ((1.0 + xs) * (1.0 + xs))
    gy = gamma + ys
    b_quantity = beta * ys * (2.0 * gamma + ys) / (gy * gy)

    # Lambda^2 - (mu + A)*Lambda + A*(mu - B) = 0; the discriminant is
    # rewritten as (mu - A)^2 + 4AB >= 0, so both roots are real.
    trace_term = mu + a_quantity
    product_term = a_quantity * (mu - b_quantity)
    disc = (mu - a_quantity) * (mu - a_quantity) + 4.0 * a_quantity * b_quantity
    lambda1 = 0.5 * (trace_term + math.sqrt(disc))
    lambda2 = product_term / lambda1 if lambda1 != 0.0 else 0.5 * (trace_term - math.sqrt(disc))

    eigenvalues = (1.0 - lambda1, 1.0 - lambda2)
    moduli = (abs(eigenvalues[0]), abs(eigenvalues[1]))

    thresholds = alpha_thresholds(params)
    if thresholds is None:  # unreachable: existence implies beta > mu
        raise InternalConsistencyError("interior point exists but beta <= mu")
    alpha1, alpha2 = thresholds

    notes: list[str] = []
    if abs(alpha - alpha1) <= tol or abs(alpha - alpha2) <= tol:
        label = Stability.NON_HYPERBOLIC
        notes.append(
            f"alpha within {tol} of a classification threshold "
            f"(alpha1={alpha1!r}, alpha2={alpha2!r}); label is tolerance-dependent"
        )
    elif alpha > alpha1:
        label = Stability.REPELLING
    else:
        label = Stability.SADDLE
        if alpha1 > 1.0:
            notes.append(
                "alpha1 exceeds 1, outside the analysis regime for alpha; "
                "saddle label confirmed by eigenvalue moduli"
            )

    import numpy as np

    jac = jacobian_at(params, fp)
    raw_moduli = np.abs(np.linalg.eigvals(jac)).tolist()
    eigen_label = _label_from_moduli(raw_moduli, tol)
    near_threshold = min(abs(alpha - alpha1), abs(alpha - alpha2)) <= 10.0 * tol
    near_unit = any(abs(m - 1.0) <= 10.0 * tol for m in raw_moduli + list(moduli))
    if near_threshold or near_unit:
        if eigen_label is not label:
            notes.append(
                f"threshold label {label.value} vs eigenvalue label {eigen_label.value} "
                "inside the tolerance band; threshold label kept"
            )
    elif eigen_label is not label:
        raise InternalConsistencyError(
            f"stability disagreement at {params}: thresholds give {label.value} "
            f"(alpha1={alpha1!r}, alpha2={alpha2!r}) but eigenvalue moduli {raw_moduli} "
            f"give {eigen_label.value}"
        )

    analysis = JacobianAnalysis(
        matrix=tuple(map(tuple, jac.tolist())),
        eigenvalues=eigenvalues,
        moduli=moduli,
        A=a_quantity,
        B=b_quantity,
        Lambda1=lambda1,
        Lambda2=lambda2,
        alpha1=alpha1,
        alpha2=alpha2,
    )
    return InteriorClassification(stability=label, analysis=analysis, notes=tuple(notes))


# residual bound for verifying a computed fixed point actually is one
_RESIDUAL_TOL = 1e-12


def _verify_fixed_point(params: Params, location: State) -> None:
    # the kernel's image of a state is finite and nonnegative, so it is
    # compared as floats, without a State of its own
    x1, y1 = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, location.x, location.y)
    residual = max(abs(x1 - location.x), abs(y1 - location.y))
    scale = max(1.0, abs(location.x), abs(location.y))
    # 1e-12 absolute, relaxed only when the point itself is so large that
    # double rounding of its coordinates exceeds that (x* blows up as beta
    # approaches the existence threshold)
    allowed = max(_RESIDUAL_TOL, 16.0 * math.ulp(scale))
    if not residual <= allowed:
        raise InternalConsistencyError(
            f"fixed-point residual {residual} exceeds {allowed} at {location}"
        )


def find_fixed_points(params: Params) -> FixedPointReport:
    """All fixed points of the restricted map, classified.

    Returns the origin alone when ``beta <= mu*(1 + gamma*mu/alpha)``,
    otherwise the origin plus the interior point with its Jacobian
    analysis.  Every reported location is verified to satisfy the
    fixed-point equation to within rounding.
    """
    origin_eigenvalues = (1.0 - params.alpha, 1.0 - params.mu)
    origin = FixedPoint(
        location=State(0.0, 0.0),
        kind=PointKind.ORIGIN,
        stability=_label_from_moduli(
            [abs(origin_eigenvalues[0]), abs(origin_eigenvalues[1])], UNIT_MODULUS_TOL
        ),
    )
    _verify_fixed_point(params, origin.location)

    fp = stability.interior_fixed_point(params)
    if fp is None:
        return FixedPointReport(
            regime=Regime.ORIGIN_ONLY,
            origin=origin,
            interior=None,
            analysis=None,
            origin_eigenvalues=origin_eigenvalues,
        )

    _verify_fixed_point(params, fp)
    interior_result = stability.classify_interior(params)
    interior = FixedPoint(location=fp, kind=PointKind.INTERIOR, stability=interior_result.stability)
    return FixedPointReport(
        regime=Regime.TWO_FIXED_POINTS,
        origin=origin,
        interior=interior,
        analysis=interior_result.analysis,
        origin_eigenvalues=origin_eigenvalues,
    )
