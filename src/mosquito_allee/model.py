"""Parameter space, population states, and one-step evolution operators.

The model tracks a wild mosquito population split into two compartments:
larvae density ``x`` (all aquatic stages pooled) and adult density ``y``.
One time step applies

    x' = beta*y^2/(gamma+y) - alpha*x/(1+x) - (d0 + d1*x)*x + x
    y' = alpha*x/(1+x) - mu*y + y

where ``beta*y/(gamma+y)`` is the adult birth rate with a mate-finding
Allee effect (depressed at low adult density, saturating at ``beta``),
``alpha*x/(1+x)`` is the emergence flux of larvae into adults damped by
intraspecific competition, ``mu`` is adult mortality, and ``d0``, ``d1``
are density-independent and density-dependent larval death rates.

Two operators are exposed:

* :func:`step_general` -- the full map above.  With positive larval death
  rates the image can leave the nonnegative quadrant; the raw result is
  returned with a range flag instead of being clamped.
* :func:`step_w0` -- the restricted map with ``d0 = d1 = 0``.  When
  ``0 < alpha <= 1`` and ``0 < mu <= 1`` (the ``analysis_valid`` regime)
  it maps the nonnegative quadrant into itself, which is the setting all
  fixed-point and long-run analysis in this package relies on.

All arithmetic is plain 64-bit floating point, and every public type is
an immutable value object, so everything here is safe to share across
threads or send to worker processes.  ``State``, built per kept orbit
point, converts and validates each field once, in its own ``__init__``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import isfinite

from .errors import ConfigurationError, DomainError

__all__ = [
    "Params",
    "State",
    "StepResult",
    "DerivedConstants",
    "step_general",
    "step_w0",
    "derived_constants",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Params:
    """Model constants.

    ``alpha``: larvae-to-adult emergence rate (per step).
    ``beta``: saturated adult birth rate (per step).
    ``gamma``: Allee constant (population units); larger values depress
    the birth rate over a wider range of low adult densities.
    ``mu``: adult death rate (per step).
    ``d0``, ``d1``: larval death rates, density-independent and
    density-dependent respectively.

    Construction accepts any positive rates and nonnegative death terms
    so the general operator can be explored freely; routines that depend
    on quadrant preservation additionally require :attr:`analysis_valid`.
    """

    alpha: float
    beta: float
    gamma: float
    mu: float
    d0: float = 0.0
    d1: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "mu", "d0", "d1"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        for name in ("alpha", "beta", "gamma", "mu"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("d0", "d1"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def analysis_valid(self) -> bool:
        """True iff the restricted operator's quadrant-preserving regime holds.

        Requires ``0 < alpha <= 1``, ``0 < mu <= 1`` and zero larval
        death rates.
        """
        return self.alpha <= 1.0 and self.mu <= 1.0 and self.d0 == 0.0 and self.d1 == 0.0

    def require_analysis_valid(self) -> None:
        if not self.analysis_valid:
            raise ConfigurationError(
                "operation requires 0 < alpha <= 1, 0 < mu <= 1 and d0 = d1 = 0; "
                f"got alpha={self.alpha}, mu={self.mu}, d0={self.d0}, d1={self.d1}"
            )


@dataclass(frozen=True, init=False)
class State:
    """A population point (larvae ``x``, adults ``y``) in the closed quadrant.

    Coordinates must be finite and nonnegative; divergence and
    quadrant-exit are signaled by the routines that detect them, never
    stored in a ``State``.
    """

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        # _require_finite inlined: a State is built per kept orbit point
        x = float(x)
        if not isfinite(x):
            raise DomainError(f"x must be finite, got {x!r}")
        y = float(y)
        if not isfinite(y):
            raise DomainError(f"y must be finite, got {y!r}")
        if x < 0.0 or y < 0.0:
            raise DomainError(f"state must lie in the nonnegative quadrant, got ({x}, {y})")
        fields = self.__dict__
        fields["x"] = x
        fields["y"] = y


@dataclass(frozen=True)
class StepResult:
    """Raw image under the general operator, which may leave the quadrant.

    ``in_quadrant`` is False when either coordinate went negative (only
    possible with positive larval death rates or out-of-regime
    parameters); the coordinates are returned unclamped either way.
    """

    x: float
    y: float
    in_quadrant: bool

    def as_state(self) -> State:
        if not self.in_quadrant:
            raise DomainError(f"image ({self.x}, {self.y}) left the nonnegative quadrant")
        return State(self.x, self.y)


@dataclass(frozen=True)
class DerivedConstants:
    """Thresholds determined by a parameter set.

    ``threshold_beta = mu*(1 + gamma*mu/alpha)``: the interior fixed
    point exists iff ``beta`` exceeds it.
    ``y_limit = alpha/mu``: the adult density every unboundedly growing
    trajectory approaches.
    ``allee_threshold_gamma = alpha*(beta-mu)/mu^2``: equivalent form of
    the existence condition (``gamma`` below it); undefined when
    ``beta <= mu`` and flagged ``None`` there.
    """

    threshold_beta: float
    y_limit: float
    allee_threshold_gamma: float | None


def _w0_xy(alpha: float, beta: float, gamma: float, mu: float, x, y):
    """Restricted-map kernel, usable on floats or numpy arrays.

    The x-update is arranged as ``(x - k) + g`` with ``k = alpha*x/(1+x)``
    and ``g = beta*y^2/(gamma+y)``: since ``0 <= k <= x`` holds for
    ``alpha <= 1`` even after rounding, each partial result is
    nonnegative and the float image cannot dip below zero.

    ``dynamics._fate_from``, the one scalar stepping loop, carries an
    inlined copy of these three lines, in the same operation order,
    because the call and its tuple were about a third of a scalar step.
    ``test_property_inlined_steps_match_the_kernel`` in
    ``tests/test_dynamics.py`` pins that copy to this kernel, bit for bit.
    """
    k = alpha * x / (1.0 + x)
    g = beta * y * y / (gamma + y)
    return (x - k) + g, k + (1.0 - mu) * y


def step_w0(params: Params, s: State) -> State:
    """One step of the restricted operator (no larval death terms).

    Requires ``params.analysis_valid``; the image is then guaranteed to
    stay in the nonnegative quadrant.
    """
    params.require_analysis_valid()
    x1, y1 = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, s.x, s.y)
    return State(x1, y1)


def step_general(params: Params, s: State) -> StepResult:
    """One step of the full operator, including larval death terms.

    No nonnegativity guarantee: with ``d0, d1 > 0`` or out-of-regime
    parameters the image may leave the quadrant, in which case it is
    returned as-is with ``in_quadrant=False`` rather than clamped.
    With ``d0 = d1 = 0`` the result agrees bit-for-bit with
    :func:`step_w0` (the death term subtracts an exact 0.0).
    """
    x1, y1 = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, s.x, s.y)
    x1 = x1 - (params.d0 + params.d1 * s.x) * s.x
    return StepResult(x1, y1, in_quadrant=(x1 >= 0.0 and y1 >= 0.0))


def derived_constants(params: Params) -> DerivedConstants:
    """Existence threshold, growth limit, and the equivalent Allee threshold.

    The two forms of the existence condition, ``beta > threshold_beta``
    and ``gamma < allee_threshold_gamma``, are algebraically equivalent
    but can round apart, by many ulps where ``mu*mu`` is subnormal.  They
    are reported, not compared: existence is decided once, by
    :func:`~mosquito_allee.stability.interior_fixed_point`, on the
    ``beta`` form.  ``threshold_beta`` is the float form
    ``mu*(1.0 + gamma*mu/alpha)``; where that overflows it is evaluated
    exactly instead and rounded once, so it reads inf only if the
    threshold itself exceeds ``sys.float_info.max``.
    """
    params.require_analysis_valid()
    alpha, beta, gamma, mu = params.alpha, params.beta, params.gamma, params.mu
    threshold_beta = mu * (1.0 + gamma * mu / alpha)
    if threshold_beta == math.inf:
        # gamma*mu/alpha overflowed, which the threshold itself need not do:
        # evaluate it exactly on the float inputs and round once
        from fractions import Fraction

        exact = Fraction(mu) * (1 + Fraction(gamma) * Fraction(mu) / Fraction(alpha))
        threshold_beta = float(exact) if exact <= sys.float_info.max else math.inf
    y_limit = alpha / mu
    if beta > mu:
        allee_threshold_gamma = alpha * (beta - mu) / (mu * mu)
    else:
        allee_threshold_gamma = None
    return DerivedConstants(threshold_beta, y_limit, allee_threshold_gamma)
