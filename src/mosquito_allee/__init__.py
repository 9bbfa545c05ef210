"""Discrete-time two-stage mosquito population model with an Allee effect.

The package re-exports the ``__all__`` of its four library modules:
:mod:`~mosquito_allee.model` (parameters, states, one-step operators),
:mod:`~mosquito_allee.stability` (fixed points and their types),
:mod:`~mosquito_allee.dynamics` (trajectories, invariant regions, fate
classification, basin scans) and :mod:`~mosquito_allee.errors`.  The
``mosquito-allee`` command, :mod:`mosquito_allee.cli`, is not imported.

The constants that the library reads when called are read from their
own module, so one is set there (``mosquito_allee.dynamics.DIVERGENCE_X
= 100.0``); setting one on the package is an ``AttributeError``.
"""

import sys
import types

from . import dynamics, errors, model, stability
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .stability import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, *model.__all__, *stability.__all__, *dynamics.__all__, "__version__"]

# each constant read when called, with the module it is read from; the
# package holds a copy, which nothing reads
_CALL_TIME = {
    "EXTINCTION_RADIUS": "dynamics",
    "DIVERGENCE_X": "dynamics",
    "Y_LIMIT_TOL": "dynamics",
    "STEP_TOL": "dynamics",
    "TRAJECTORY_WINDOW": "dynamics",
    "MAX_GRID_CELLS": "dynamics",
    "MAX_SAMPLES": "dynamics",
    "UNIT_MODULUS_TOL": "stability",
}


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        if name in _CALL_TIME:
            owner = f"{__name__}.{_CALL_TIME[name]}"
            raise AttributeError(f"{__name__}.{name} is a copy that nothing reads; set {owner}.{name} instead")
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
