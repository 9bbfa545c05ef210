"""Parameter space, population states, and the one-step evolution operator.

The model tracks a wild mosquito population split into two compartments:
larvae density ``x`` (all aquatic stages pooled) and adult density ``y``.
One time step applies

    x' = beta*y^2/(gamma+y) - alpha*x/(1+x) + x
    y' = alpha*x/(1+x) - mu*y + y

where ``beta*y/(gamma+y)`` is the adult birth rate with a mate-finding
Allee effect (depressed at low adult density, saturating at ``beta``),
``alpha*x/(1+x)`` is the emergence flux of larvae into adults damped by
intraspecific competition, and ``mu`` is adult mortality.  A
:class:`Params` holds ``0 < alpha <= 1`` and ``0 < mu <= 1``, checked
when it is built.  With those bounds :func:`step_w0` maps the
nonnegative quadrant into itself: the setting all fixed-point and
long-run analysis in this package relies on.

All arithmetic is plain 64-bit floating point, and every public type is
an immutable value object, so everything here is safe to share across
threads or send to worker processes.  ``State``, built per kept orbit
point, converts and validates each field once, in its own ``__init__``.
The value classes, here and in ``stability`` and ``dynamics``, are built
by :func:`_frozen`, not ``@dataclass``: importing ``dataclasses`` (with
``inspect`` and ``ast``) and building the classes took about 10 ms of
every CLI start.
"""

from __future__ import annotations

import math
import sys
from math import isfinite

from .errors import ConfigurationError, DomainError

__all__ = [
    "Params",
    "State",
    "DerivedConstants",
    "step_w0",
    "derived_constants",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


class _LazyFields:
    def __get__(self, instance, cls):
        import dataclasses

        own = vars(cls)
        spec = [(n, cls.__annotations__[n], *([own[n]] if n in own else [])) for n in cls.__match_args__]
        made = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
        cls.__dataclass_fields__ = {f.name: f for f in dataclasses.fields(made)}
        return cls.__dataclass_fields__


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _refuse(self, name, *value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _frozen(cls):
    """What ``@dataclass(frozen=True)`` gave a value class, without ``dataclasses``.

    The fields are the class's own annotations, in order, with its class
    attributes as defaults.  ``__init__`` (calling ``__post_init__`` where
    the class has one), ``__eq__`` and ``__hash__`` are compiled once per
    class; a method the class defines is kept, so a class with its own
    ``__eq__`` stays unhashable.  ``__dataclass_fields__`` is built on first
    read, from a frozen ``make_dataclass`` of the same fields, so that only
    a caller of ``dataclasses.replace``, ``asdict`` or ``fields``
    (``bench/test_checks.py`` calls ``replace``) imports ``dataclasses``.
    """
    names = tuple(cls.__annotations__)
    this = "".join(f"self.{n}, " for n in names)
    source = [
        f"def __init__(self, {', '.join(names)}):",
        *(f"    _set(self, {n!r}, {n})" for n in names),
        *(["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []),
        "def __eq__(self, other):",
        "    if other.__class__ is not self.__class__: return NotImplemented",
        f"    return ({this}) == ({this.replace('self.', 'other.')})",
        f"def __hash__(self): return hash(({this}))",
    ]
    methods = {}
    exec("\n".join(source), {"_set": object.__setattr__}, methods)
    methods["__init__"].__defaults__ = tuple(vars(cls)[n] for n in names if n in vars(cls))
    for name, method in {**methods, "__repr__": _repr}.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    cls.__setattr__ = cls.__delattr__ = _refuse
    cls.__match_args__ = names
    cls.__dataclass_fields__ = _LazyFields()
    return cls


@_frozen
class Params:
    """Model constants, in the regime the paper analyses.

    ``alpha``: larvae-to-adult emergence rate (per step), ``0 < alpha <= 1``.
    ``beta``: saturated adult birth rate (per step), ``beta > 0``.
    ``gamma``: Allee constant (population units), ``gamma > 0``; larger
    values depress the birth rate over a wider range of low adult densities.
    ``mu``: adult death rate (per step), ``0 < mu <= 1``.

    A non-finite rate is a ``DomainError``, and a finite one outside its
    range a ``ConfigurationError``; both name the field and its value.
    """

    alpha: float
    beta: float
    gamma: float
    mu: float

    def __post_init__(self) -> None:
        for name, top in (("alpha", 1.0), ("beta", math.inf), ("gamma", math.inf), ("mu", 1.0)):
            value = _require_finite(name, getattr(self, name))
            if not 0.0 < value <= top:
                bound = "> 0" if top == math.inf else "in (0, 1]"
                raise ConfigurationError(f"{name} must be {bound}, got {value}")
            object.__setattr__(self, name, value)


@_frozen
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


@_frozen
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

    The scalar stepping loop carries inlined copies of these three
    lines, in the same operation order, because the call and its tuple
    were about a third of a scalar step: one in ``dynamics._fate_from``,
    and two in its helper ``dynamics._rising_pairs``, which takes a
    rising orbit's steps two a pass.  All three are pinned to this kernel,
    bit for bit, by ``test_property_inlined_steps_match_the_kernel`` in
    ``tests/test_dynamics.py``, whose five steps reach both of the
    helper's copies, and by
    ``test_rising_pair_runs_match_the_one_step_reference`` in
    ``tests/test_reference.py``, on orbits up to 1e5 steps long.
    """
    k = alpha * x / (1.0 + x)
    g = beta * y * y / (gamma + y)
    return (x - k) + g, k + (1.0 - mu) * y


def step_w0(params: Params, s: State) -> State:
    """One step of the map; the image stays in the nonnegative quadrant."""
    x1, y1 = _w0_xy(params.alpha, params.beta, params.gamma, params.mu, s.x, s.y)
    return State(x1, y1)


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
