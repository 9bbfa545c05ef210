"""Fixed points of the restricted operator and their stability types.

The restricted map always fixes the origin.  An interior fixed point

    x* = gamma*mu^2 / (alpha*(beta - mu) - gamma*mu^2)
    y* = gamma*mu / (beta - mu)

exists exactly when ``beta > mu*(1 + gamma*mu/alpha)``.  Stability is
read off the Jacobian

    [[1 - a,  beta*y*(2*gamma + y)/(gamma + y)^2],
     [    a,  1 - mu]]            with  a = alpha/(1 + x)^2.

At the interior point the eigenvalues are ``1 - Lambda`` where Lambda
solves ``Lambda^2 - (mu + A)*Lambda + A*(mu - B) = 0`` with
``A = alpha/(1 + x*)^2`` and ``B = beta*y*(2*gamma + y*)/(gamma + y*)^2``.
The type is decided once, by comparing ``alpha`` against the roots
``alpha_1 >= alpha_2`` of the quadratic whose coefficients come from the
same discriminant condition.  That comparison is the Jury test on the
Jacobian: at the interior point ``det(I - J) < 0``, and ``det(I + J)``
has the sign of ``alpha_1 - alpha``, so the point is a saddle below
``alpha_1`` and repelling above it.  ``tests/test_closed_forms.py``
proves both identities with sympy and checks the label against the
Jury test in exact arithmetic; nothing re-derives it at run time.

:func:`find_fixed_points` builds only what its report holds: the
origin's label takes two comparisons, since both of its moduli lie in
``[0, 1)``, and the origin itself is one of two shared module
constants.  It calls :func:`interior_fixed_point` and
:func:`classify_interior` through the module's globals, so a caller
that wraps them by name sees every call.

:func:`interior_fixed_point` is memoized per ``Params`` in a
thread-safe ``functools.lru_cache`` of at most 64 entries, so a
parameter set's interior point is computed once however many routines
ask for it.  An exception is never cached: a set that raises raises on
every call.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import ConfigurationError, InternalConsistencyError
from .model import Params, State, _frozen, derived_constants

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Stability", "PointKind", "Regime", "FixedPoint", "JacobianAnalysis",
    "InteriorClassification", "FixedPointReport", "UNIT_MODULUS_TOL",
    "interior_fixed_point", "jacobian_at", "alpha_thresholds", "classify_interior",
    "find_fixed_points",
]

# |modulus - 1| and |alpha - alpha_i| below this count as non-hyperbolic
UNIT_MODULUS_TOL = 1e-9


class Stability(str, enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    NON_HYPERBOLIC = "non-hyperbolic"


class PointKind(str, enum.Enum):
    ORIGIN = "origin"
    INTERIOR = "interior"


class Regime(str, enum.Enum):
    ORIGIN_ONLY = "origin-only"
    TWO_FIXED_POINTS = "two-fixed-points"


@_frozen
class FixedPoint:
    location: State
    kind: PointKind
    stability: Stability


@_frozen
class JacobianAnalysis:
    """Jacobian at the interior fixed point plus the derived quantities.

    ``matrix`` is stored as nested tuples so reports compare by value.
    ``eigenvalues`` are the two (always real) eigenvalues ``1 - Lambda_i``
    with ``Lambda1 >= Lambda2``; ``moduli`` are their absolute values.
    ``alpha1 >= alpha2`` are the classification thresholds for ``alpha``.
    """

    matrix: tuple[tuple[float, float], tuple[float, float]]
    eigenvalues: tuple[float, float]
    moduli: tuple[float, float]
    A: float
    B: float
    Lambda1: float
    Lambda2: float
    alpha1: float
    alpha2: float


@_frozen
class InteriorClassification:
    stability: Stability
    analysis: JacobianAnalysis
    notes: tuple[str, ...] = ()


@_frozen
class FixedPointReport:
    regime: Regime
    origin: FixedPoint
    interior: FixedPoint | None
    analysis: JacobianAnalysis | None
    origin_eigenvalues: tuple[float, float]


_ORIGIN = State(0.0, 0.0)
# the origin as a reported fixed point, attracting and non-hyperbolic,
# shared by every report
_ORIGINS = tuple(FixedPoint(_ORIGIN, PointKind.ORIGIN, s) for s in (Stability.ATTRACTING, Stability.NON_HYPERBOLIC))


@lru_cache(maxsize=64)
def interior_fixed_point(params: Params) -> State | None:
    """Closed-form interior fixed point, or None when it does not exist.

    The package's one existence decision: the point exists iff
    ``beta > derived_constants(params).threshold_beta``.  A point whose
    float ``x*`` or ``y*`` rounds to 0 would lie on an axis, and the
    region tests would put axis starts in Omega2: it raises
    ``ConfigurationError``.  Memoized per ``Params`` (at most 64 sets); errors are not cached.
    """
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
    x, y = gm2 / denom, gamma * mu / (beta - mu)
    if x == 0.0 or y == 0.0:
        # worded as check_invariance's underflow guard, which it comes before
        raise ConfigurationError(
            f"beta*y*^2 = {beta * y * y!r} at the interior fixed point ({x!r}, {y!r}), which rounds onto an "
            "axis: x* or y* underflows float64's normal range and is outside float64 range"
        )
    return State(x, y)


def _require_interior(params: Params) -> State:
    """The interior fixed point; a ``ConfigurationError`` when there is none."""
    fp = interior_fixed_point(params)
    if fp is None:
        raise ConfigurationError(
            "no interior fixed point at these parameters "
            "(beta <= mu*(1 + gamma*mu/alpha)); invariant regions are undefined"
        )
    return fp


def _jacobian(params: Params, s: State) -> tuple[tuple[float, float], tuple[float, float]]:
    """The Jacobian ``((1 - a, b), (a, 1 - mu))`` at ``s``, as floats.

    ``a`` lies in ``[0, alpha]``.  ``b``'s numerator and ``(gamma + y)^2``
    can overflow, making ``b`` inf or nan (at ``beta = gamma = 1e300``,
    say): an ``OverflowError`` then names it.
    """
    a = params.alpha / ((1.0 + s.x) * (1.0 + s.x))
    gy = params.gamma + s.y
    b = params.beta * s.y * (2.0 * params.gamma + s.y) / (gy * gy)
    if not math.isfinite(b):
        raise OverflowError(f"the Jacobian entry beta*y*(2*gamma + y)/(gamma + y)^2 at {s} is {b}")
    return (1.0 - a, b), (a, 1.0 - params.mu)


def jacobian_at(params: Params, s: State) -> np.ndarray:
    """Jacobian matrix of the restricted map at an arbitrary state.

    An entry outside float64 range raises ``OverflowError``.
    """
    import numpy as np

    return np.array(_jacobian(params, s))


def alpha_thresholds(params: Params) -> tuple[float, float] | None:
    """Classification thresholds (alpha1, alpha2), alpha1 >= alpha2.

    Roots of ``t^2 - 2*(P + Q)*t + P^2 = 0`` with
    ``P = gamma*mu^2/(beta - mu)`` and
    ``Q = beta*(2 - mu)/(2*beta + mu*(beta - mu))``.  The larger root is
    evaluated directly and the smaller recovered from the product of
    roots ``P^2``, which avoids cancellation.  None when ``beta <= mu``
    (no interior point can exist and P is undefined).
    """
    beta, mu = params.beta, params.mu
    if not beta > mu:
        return None
    p = params.gamma * mu * mu / (beta - mu)
    q = beta * (2.0 - mu) / (2.0 * beta + mu * (beta - mu))
    alpha1 = p + q + math.sqrt(q * (2.0 * p + q))
    alpha2 = (p * p) / alpha1
    return alpha1, alpha2


def classify_interior(params: Params) -> InteriorClassification:
    """Stability type of the interior fixed point, with full diagnostics.

    The label is decided by comparing ``alpha`` with the thresholds
    ``alpha1``/``alpha2``: saddle below ``alpha1``, repelling above it,
    which is what the Jury test on the Jacobian gives (see the module
    docstring).  ``alpha`` within ``UNIT_MODULUS_TOL`` of a threshold is
    labelled non-hyperbolic.
    """
    fp = _require_interior(params)
    alpha, mu = params.alpha, params.mu
    matrix = _jacobian(params, fp)
    (_, b_quantity), (a_quantity, _) = matrix

    # Lambda^2 - (mu + A)*Lambda + A*(mu - B) = 0; the discriminant is
    # rewritten as (mu - A)^2 + 4AB >= 0, so both roots are real.
    trace_term = mu + a_quantity
    product_term = a_quantity * (mu - b_quantity)
    disc = (mu - a_quantity) * (mu - a_quantity) + 4.0 * a_quantity * b_quantity
    lambda1 = 0.5 * (trace_term + math.sqrt(disc))
    lambda2 = product_term / lambda1 if lambda1 != 0.0 else 0.5 * (trace_term - math.sqrt(disc))

    eigenvalues = (1.0 - lambda1, 1.0 - lambda2)
    moduli = (abs(eigenvalues[0]), abs(eigenvalues[1]))

    # beta > mu*(1 + gamma*mu/alpha) >= mu, so the thresholds exist
    alpha1, alpha2 = alpha_thresholds(params)

    notes: list[str] = []
    if abs(alpha - alpha1) <= UNIT_MODULUS_TOL or abs(alpha - alpha2) <= UNIT_MODULUS_TOL:
        label = Stability.NON_HYPERBOLIC
        notes.append(
            f"alpha within {UNIT_MODULUS_TOL} of a classification threshold "
            f"(alpha1={alpha1!r}, alpha2={alpha2!r}); label is tolerance-dependent"
        )
    elif alpha > alpha1:
        label = Stability.REPELLING
    else:
        label = Stability.SADDLE
        if alpha1 > 1.0:
            notes.append(
                "alpha1 exceeds 1, outside the analysis regime for alpha; "
                "every alpha in the regime lies below it, so the point is a saddle"
            )

    analysis = JacobianAnalysis(
        matrix, eigenvalues, moduli, a_quantity, b_quantity, lambda1, lambda2, alpha1, alpha2
    )
    return InteriorClassification(label, analysis, tuple(notes))


def find_fixed_points(params: Params) -> FixedPointReport:
    """All fixed points of the restricted map, classified.

    Returns the origin alone when ``beta <= mu*(1 + gamma*mu/alpha)``,
    otherwise the origin plus the interior point with its Jacobian
    analysis.  Neither location is stepped through the map here.  The
    origin's image is ``(0, 0)`` exactly for every valid set, as
    ``k = alpha*0/(1 + 0)`` and ``beta*0*0/(gamma + 0)`` are zero.  The
    interior point is fixed by its closed form, which the tests prove
    with sympy; they also bound how far the map moves its float
    coordinates.
    """
    origin_eigenvalues = (1.0 - params.alpha, 1.0 - params.mu)
    # 0 < alpha, mu <= 1, so both eigenvalues are their own moduli and lie
    # in [0, 1): the origin attracts unless one is within UNIT_MODULUS_TOL of 1
    origin = _ORIGINS[
        abs(origin_eigenvalues[0] - 1.0) <= UNIT_MODULUS_TOL or abs(origin_eigenvalues[1] - 1.0) <= UNIT_MODULUS_TOL
    ]

    fp = interior_fixed_point(params)
    if fp is None:
        return FixedPointReport(Regime.ORIGIN_ONLY, origin, None, None, origin_eigenvalues)

    interior = classify_interior(params)
    return FixedPointReport(
        Regime.TWO_FIXED_POINTS,
        origin,
        FixedPoint(fp, PointKind.INTERIOR, interior.stability),
        interior.analysis,
        origin_eigenvalues,
    )
