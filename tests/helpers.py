"""Shared fixtures: the showcase parameter set and random-parameter samplers."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from mosquito_allee import Params, dynamics, model
from mosquito_allee.stability import alpha_thresholds

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
    within a relative 1e-8 of alpha1 or alpha2.

    alpha2 lies below ``gamma*mu^2/(beta - mu)``, so next to it there is
    no interior point.  alpha1 stays at most 1 only for mu above 2/3, so
    its sets draw mu from [0.7, 1] and a small gamma.
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
    target = alpha1 if kind == "alpha1" else alpha2
    return Params(alpha=target * (1.0 + draw(st.floats(-1e-8, 1e-8))), beta=beta, gamma=gamma, mu=mu)
