"""Guaranteed worst-case error bounds for nonlinear estimators.

The library encloses the maximum estimation error of an estimator over a
box of true parameters and a box of observation noise, using outward-rounded
interval arithmetic and interval branch-and-bound minimization of the
negated error. The bound is pessimistic by construction: the true worst-case
error can never exceed the reported eps_high.

The package root exports what a library user needs to compose and certify
one problem; everything else is imported from its submodule.
"""

from .framework import ErrorObjective, EstimatorModel, ObservationModel
from .interval import IntervalBox
from .models import GradientDescentEstimator, TrilaterationModel
from .optimizer import MsConfig, moore_skelboe
from .oracle import OracleConfig, certify, sample_max_error

__version__ = "0.1.0"

__all__ = [
    "ErrorObjective",
    "IntervalBox",
    "MsConfig",
    "OracleConfig",
    "TrilaterationModel",
    "GradientDescentEstimator",
    "moore_skelboe",
    "sample_max_error",
    "certify",
    "ObservationModel",
    "EstimatorModel",
]
