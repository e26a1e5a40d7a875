"""Guaranteed worst-case error bounds for nonlinear estimators.

The library encloses the maximum estimation error of an estimator over a
box of true parameters and a box of observation noise, using outward-rounded
interval arithmetic and interval branch-and-bound minimization of the
negated error. The bound is pessimistic by construction: the true worst-case
error can never exceed the reported eps_high.
"""

from .framework import ErrorObjective, EstimatorModel, ObservationModel
from .interval import (
    Interval,
    IntervalBox,
    hull,
    iadd,
    imul,
    ineg,
    irelu,
    isqr,
    isqrt,
    isub,
)
from .mlp import MlpLayer, MlpModel, load_mlp, save_mlp, train_mlp
from .models import (
    ConstantEstimator,
    GradientDescentEstimator,
    IdentityEstimator,
    IdentityObservation,
    TrilaterationModel,
)
from .optimizer import (
    CannotSplitError,
    Cover,
    CoverEntry,
    MsConfig,
    MsResult,
    ObjectiveError,
    moore_skelboe,
    select_split_dim,
)
from .oracle import OracleConfig, OracleResult, certify, sample_max_error
from .pipeline import (
    Scenario,
    ValidationReport,
    dump_cover,
    load_scenario,
    run_validate,
)

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "IntervalBox",
    "iadd",
    "isub",
    "imul",
    "ineg",
    "isqr",
    "isqrt",
    "irelu",
    "hull",
    "ObservationModel",
    "EstimatorModel",
    "ErrorObjective",
    "IdentityObservation",
    "TrilaterationModel",
    "IdentityEstimator",
    "ConstantEstimator",
    "GradientDescentEstimator",
    "MlpLayer",
    "MlpModel",
    "load_mlp",
    "save_mlp",
    "train_mlp",
    "CoverEntry",
    "Cover",
    "MsConfig",
    "MsResult",
    "CannotSplitError",
    "ObjectiveError",
    "moore_skelboe",
    "select_split_dim",
    "OracleConfig",
    "OracleResult",
    "sample_max_error",
    "certify",
    "Scenario",
    "ValidationReport",
    "load_scenario",
    "run_validate",
    "dump_cover",
]
