"""Discrete-time two-stage mosquito population model with an Allee effect.

Library layout:

* :mod:`mosquito_allee.model` -- parameters, states, one-step operators.
* :mod:`mosquito_allee.stability` -- fixed points and their types.
* :mod:`mosquito_allee.dynamics` -- trajectories, invariant regions,
  long-run fate classification, basin scans.
* :mod:`mosquito_allee.cli` -- the ``mosquito-allee`` command.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    InternalConsistencyError,
    MosquitoAlleeError,
)
from .model import (
    DerivedConstants,
    Params,
    State,
    StepResult,
    derived_constants,
    step_general,
    step_w0,
)
from .stability import (
    FixedPoint,
    FixedPointReport,
    InteriorClassification,
    JacobianAnalysis,
    PointKind,
    Regime,
    Stability,
    alpha_thresholds,
    classify_interior,
    find_fixed_points,
    interior_fixed_point,
    jacobian_at,
)
from .dynamics import (
    DEFAULT_BUDGET,
    AdultBoundReport,
    BasinGrid,
    FateThresholds,
    IdentityReport,
    InvarianceReport,
    Region,
    Termination,
    TheoremTag,
    Trajectory,
    TrajectoryOutcome,
    Verdict,
    basin_scan,
    check_adult_bound,
    check_invariance,
    check_sum_identity,
    classify_fate,
    iterate,
    membership,
    simulate,
    sum_identity_residual,
)

__version__ = "0.1.0"

__all__ = [
    "MosquitoAlleeError",
    "DomainError",
    "ConfigurationError",
    "InternalConsistencyError",
    "Params",
    "State",
    "StepResult",
    "DerivedConstants",
    "step_w0",
    "step_general",
    "derived_constants",
    "Stability",
    "PointKind",
    "Regime",
    "FixedPoint",
    "JacobianAnalysis",
    "InteriorClassification",
    "FixedPointReport",
    "interior_fixed_point",
    "jacobian_at",
    "alpha_thresholds",
    "classify_interior",
    "find_fixed_points",
    "DEFAULT_BUDGET",
    "FateThresholds",
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
    "__version__",
]
