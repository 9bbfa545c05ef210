"""Discrete-time two-stage mosquito population model with an Allee effect.

The package re-exports the ``__all__`` of its four library modules:
:mod:`~mosquito_allee.model` (parameters, states, one-step operators),
:mod:`~mosquito_allee.stability` (fixed points and their types),
:mod:`~mosquito_allee.dynamics` (trajectories, invariant regions, fate
classification, basin scans) and :mod:`~mosquito_allee.errors`.  The
``mosquito-allee`` command, :mod:`mosquito_allee.cli`, is not imported.
"""

from . import dynamics, errors, model, stability
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .stability import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, *model.__all__, *stability.__all__, *dynamics.__all__, "__version__"]
