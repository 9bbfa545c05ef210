"""Shared fixtures: the showcase parameter set and random-parameter samplers."""

from __future__ import annotations

import numpy as np

from mosquito_allee import Params, model

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


def pumped_kernel(alpha, beta, gamma, mu, x, y):
    """The restricted map with one percent too many adults after each step.

    Patched in for ``dynamics._w0_xy``, it breaks the adult bound
    ``y <= max(y0, alpha/mu)`` after a few steps.
    """
    x1, y1 = model._w0_xy(alpha, beta, gamma, mu, x, y)
    return x1, 1.01 * y1
