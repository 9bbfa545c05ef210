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
    allee_birth_rate,
    derived_constants,
    k_response,
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
    classify_generic,
    classify_interior,
    find_fixed_points,
    interior_fixed_point,
    jacobian_at,
)
from .dynamics import (
    DEFAULT_BUDGET,
    BasinGrid,
    FateThresholds,
    InvarianceReport,
    MonotonicityReport,
    Region,
    Termination,
    TheoremTag,
    Trajectory,
    TrajectoryOutcome,
    Verdict,
    basin_scan,
    check_invariance,
    classify_fate,
    iterate,
    membership,
    monotonicity_probe,
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
    "k_response",
    "allee_birth_rate",
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
    "classify_generic",
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
    "MonotonicityReport",
    "BasinGrid",
    "iterate",
    "membership",
    "classify_fate",
    "simulate",
    "check_invariance",
    "monotonicity_probe",
    "sum_identity_residual",
    "basin_scan",
    "__version__",
]
