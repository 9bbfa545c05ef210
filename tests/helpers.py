"""Shared fixtures: the showcase parameter set and random-parameter samplers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from mosquito_allee import Params, Stability, dynamics, model
from mosquito_allee.stability import alpha_thresholds, classify_interior

# used throughout the docs and regression fixtures: interior fixed point
# (4, 1.6), existence threshold 0.8, adult growth limit 2
SHOWCASE = Params(alpha=0.8, beta=0.9, gamma=2.0, mu=0.4)

# realizes the repelling interior case inside the analysis regime
REPELLING = Params(alpha=0.8, beta=10.0, gamma=0.01, mu=1.0)


def valid_params(rng: np.random.Generator) -> Params:
    """Any analysis-valid parameter set, either regime."""
    return Params(
        alpha=float(rng.uniform(0.05, 1.0)),
        beta=float(rng.uniform(0.05, 3.0)),
        gamma=float(rng.uniform(0.1, 3.0)),
        mu=float(rng.uniform(0.05, 1.0)),
    )


def interior_params(rng: np.random.Generator) -> Params:
    """Two-fixed-point regime.

    beta sits 15%..100% above the existence threshold, which bounds the
    interior point (x* <= 1/(margin-1)) and keeps the growth increment
    large enough for fate sweeps to finish quickly.
    """
    alpha = float(rng.uniform(0.2, 1.0))
    mu = float(rng.uniform(0.2, 1.0))
    gamma = float(rng.uniform(0.1, 3.0))
    threshold = mu * (1.0 + gamma * mu / alpha)
    beta = threshold * float(rng.uniform(1.15, 2.0))
    return Params(alpha=alpha, beta=beta, gamma=gamma, mu=mu)


def origin_only_params(rng: np.random.Generator) -> Params:
    """No interior fixed point: beta at 20%..99.5% of the threshold."""
    alpha = float(rng.uniform(0.05, 1.0))
    mu = float(rng.uniform(0.05, 1.0))
    gamma = float(rng.uniform(0.1, 3.0))
    threshold = mu * (1.0 + gamma * mu / alpha)
    beta = threshold * float(rng.uniform(0.2, 0.995))
    return Params(alpha=alpha, beta=beta, gamma=gamma, mu=mu)


def identity_params(rng: np.random.Generator) -> Params:
    """beta > mu with beta bounded so the absolute identity tolerance is
    meaningful in double precision (beta*y stays moderate)."""
    mu = float(rng.uniform(0.05, 1.0))
    return Params(
        alpha=float(rng.uniform(0.05, 1.0)),
        beta=mu + float(rng.uniform(0.01, 2.0)),
        gamma=float(rng.uniform(0.1, 3.0)),
        mu=mu,
    )


def set_cutoffs(patch, cutoffs: dict) -> None:
    """Set the fate cutoffs named in ``cutoffs`` on ``patch``, a ``pytest.MonkeyPatch``.

    ``{"divergence_x": 100.0}`` sets ``dynamics.DIVERGENCE_X``, which the
    package reads when called.  The names are the keyword arguments of
    the oracle's ``iterate`` and ``classify_fate``.
    """
    for name, value in cutoffs.items():
        patch.setattr(dynamics, name.upper(), value)


def pumped_kernel(alpha, beta, gamma, mu, x, y):
    """The restricted map with one percent too many adults after each step.

    Patched in for ``dynamics._w0_xy``, it breaks the adult bound
    ``y <= max(y0, alpha/mu)`` after a few steps.
    """
    x1, y1 = model._w0_xy(alpha, beta, gamma, mu, x, y)
    return x1, 1.01 * y1


def nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else 0.0)
    return value


@st.composite
def analysis_params(draw) -> Params:
    """Both regimes; beta within 8 ulps of the existence threshold; alpha
    within a relative 1e-8 of alpha1 or alpha2, or a relative 1e-6 to
    1e-2 to either side of alpha1.

    alpha2 lies below ``gamma*mu^2/(beta - mu)``, so next to it there is
    no interior point.  alpha1 stays at most 1 only for mu above 2/3, so
    its sets draw mu from [0.7, 1] and a small gamma.  Outside the
    ``10*UNIT_MODULUS_TOL`` band around alpha1 the point is a saddle
    below it and repels above it.
    """
    kind = draw(st.sampled_from(["regime", "threshold", "alpha1", "alpha2"]))
    if kind in ("regime", "threshold"):
        alpha, mu, gamma = draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 10.0))
        threshold = mu * (1.0 + gamma * mu / alpha)  # derived_constants' threshold_beta
        if kind == "regime":
            beta = threshold * draw(st.floats(0.2, 4.0))
        else:
            beta = nudged(threshold, draw(st.integers(-8, 8)))
        return Params(alpha=alpha, beta=beta, gamma=gamma, mu=mu)
    if kind == "alpha1":
        mu, gamma = draw(st.floats(0.7, 1.0)), draw(st.floats(1e-3, 0.5))
    else:
        mu, gamma = draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 10.0))
    beta = mu * draw(st.floats(1.01, 100.0))
    alpha1, alpha2 = alpha_thresholds(Params(alpha=1.0, beta=beta, gamma=gamma, mu=mu))
    offset = st.floats(-1e-8, 1e-8)
    if kind == "alpha1":
        # alpha1 >= 2Q > 2/3 on these sets, so a relative 1e-6 lies
        # outside the band of 10*UNIT_MODULUS_TOL = 1e-8 around it
        wide = st.builds(math.copysign, st.floats(-6.0, -2.0).map(lambda e: 10.0**e), st.sampled_from([-1.0, 1.0]))
        offset = st.one_of(offset, wide)
    alpha = (alpha1 if kind == "alpha1" else alpha2) * (1.0 + draw(offset))
    assume(alpha <= 1.0)  # a threshold above 1 has no Params next to it
    return Params(alpha=alpha, beta=beta, gamma=gamma, mu=mu)


def jury_test(matrix) -> tuple[Stability, tuple]:
    """Jury test on a real 2x2 matrix ``J``, ``p(l) = l^2 - tr*l + det``.

    A saddle when ``p(1)*p(-1) < 0``, else attracting when ``|det| < 1``,
    else repelling.  ``p(1) = 1 - tr + det`` and ``p(-1) = 1 + tr + det``
    are evaluated as ``det(I - J)`` and ``det(I + J)``, free of
    cancellation against 1.  The entries may be floats, or ``Fraction``s
    for an exact label.  Returns the label and ``(tr, det, p(1), p(-1))``.
    """
    (m00, m01), (m10, m11) = matrix
    off = m01 * m10
    p_plus, p_minus = (1 - m00) * (1 - m11) - off, (1 + m00) * (1 + m11) - off
    det = m00 * m11 - off
    if p_plus < 0 < p_minus or p_minus < 0 < p_plus:
        label = Stability.SADDLE
    else:
        label = Stability.ATTRACTING if abs(det) < 1 else Stability.REPELLING
    return label, (m00 + m11, det, p_plus, p_minus)


def exact_interior_jacobian(params: Params):
    """The Jacobian ``((1 - a, b), (a, 1 - mu))`` at the exact interior
    fixed point of the float rates, in ``Fraction``s; None where that
    point does not exist (``alpha*(beta-mu) - gamma*mu^2 <= 0`` exactly).
    """
    alpha, beta, gamma, mu = map(Fraction, (params.alpha, params.beta, params.gamma, params.mu))
    denom = alpha * (beta - mu) - gamma * mu * mu
    if denom <= 0:
        return None
    x, y = gamma * mu * mu / denom, gamma * mu / (beta - mu)
    a = alpha / ((1 + x) * (1 + x))
    b = beta * y * (2 * gamma + y) / ((gamma + y) * (gamma + y))
    return (1 - a, b), (a, 1 - mu)


def assert_threshold_label_is_exact(params: Params) -> None:
    """``classify_interior``'s label is the Jury label of the exact Jacobian.

    The failure names the exact trace-determinant terms, rounded for
    reading.
    """
    label = classify_interior(params).stability
    exact, terms = jury_test(exact_interior_jacobian(params))
    tr, det, p_plus, p_minus = map(float, terms)
    assert label is exact, (
        f"threshold label {label.value} at {params}, but the exact trace-determinant test "
        f"(tr={tr!r}, det={det!r}, p(1)={p_plus!r}, p(-1)={p_minus!r}) gives {exact.value}"
    )
