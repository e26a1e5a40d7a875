"""Concrete observation models and estimators.

Range-based localization (distances to fixed landmarks) is the main
observation model; estimators include the identity and constant baselines
used in tests and an iterative least-squares estimator. The neural-network
estimator lives in `mlp`. The box evaluators take and return bound arrays
(see `framework`) and work on whole arrays; the descent replays its steps
in interval arithmetic on all the rows at once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .framework import Bounds, EstimatorModel, ObservationModel
from .interval import (
    _add_rows, _div_rows, _inorm_rows, _mul_rows, _scale_rows, _sub_rows
)

__all__ = [
    "IdentityObservation",
    "TrilaterationModel",
    "IdentityEstimator",
    "ConstantEstimator",
    "GradientDescentEstimator",
]


class IdentityObservation(ObservationModel):
    """Observation model g(x) = x."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.n_params = dim
        self.n_obs = dim

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        self._check_rows(rows)
        return rows.copy()

    def eval_boxes(self, lb: np.ndarray, ub: np.ndarray) -> Bounds:
        self._check_rows(lb, ub)
        return lb.copy(), ub.copy()


class TrilaterationModel(ObservationModel):
    """Distances from a 2-D position to fixed landmarks."""

    def __init__(self, landmarks: Sequence[Sequence[float]]) -> None:
        pts = tuple((float(a), float(b)) for a, b in landmarks)
        if len(pts) < 3:
            raise ValueError(
                f"need at least 3 landmarks for a well-posed estimate, got {len(pts)}"
            )
        if len(set(pts)) != len(pts):
            raise ValueError("landmarks must be pairwise distinct")
        for p in pts:
            if not all(math.isfinite(v) for v in p):
                raise ValueError(f"landmark is not finite: {p!r}")
        self.landmarks = pts
        self.n_params = 2
        self.n_obs = len(pts)
        self._landmark_rows = np.array(pts)

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        self._check_rows(rows)
        # One row per landmark, one column per point; squared, summed and
        # rooted in place, so a call allocates two arrays, not six.
        dx = self._landmark_rows[:, :1] - rows[:, 0]
        dy = self._landmark_rows[:, 1:] - rows[:, 1]
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        return np.sqrt(dx, out=dx).T

    def eval_boxes(self, lb: np.ndarray, ub: np.ndarray) -> Bounds:
        self._check_rows(lb, ub)
        return self._ranges((lb, ub))[1]

    def _ranges(self, x: Bounds) -> tuple[Bounds, Bounds]:
        """The offsets x - a of the (k, 2) boxes x from each landmark a, as
        (k, landmarks, 2) bounds, and their norms (exactly those of a - x)."""
        a = self._landmark_rows
        d = _sub_rows((x[0][:, None, :], x[1][:, None, :]), (a, a))
        r_lb, r_ub = _inorm_rows(d[0].reshape(-1, 2), d[1].reshape(-1, 2))
        return d, (r_lb.reshape(-1, self.n_obs), r_ub.reshape(-1, self.n_obs))


class IdentityEstimator(EstimatorModel):
    """Estimator that returns the observation unchanged."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.n_obs = dim
        self.n_params = dim

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        self._check_rows(rows)
        return rows.copy()

    def eval_boxes(self, lb: np.ndarray, ub: np.ndarray) -> Bounds:
        self._check_rows(lb, ub)
        return lb.copy(), ub.copy()

    def error_vector_box(
        self, observation: ObservationModel, lb: np.ndarray, ub: np.ndarray
    ) -> Bounds:
        # x - estimate = -((g(x) - x) + e). For g(x) = x the deviation
        # g(x) - x is the exact zero box, so C = 0 + e never subtracts the
        # parameter box from itself. Any other observation, a subclass of
        # the identity included, takes the generic path, which needs no pad.
        if type(observation) is not IdentityObservation:
            return super().error_vector_box(observation, lb, ub)
        # The point evaluation rounds at the magnitude of x, which C never
        # sees. With S = max(|x|, |C|, 1) (max(-lb, ub) as lb <= ub) and an
        # exact g(x) = y, fl(x - fl(y + e)) is within ulp(S) of x - (y + e)
        # per rounding (|y + e| <= 2S); the 4 ulp(S) pad loses <= ulp(S) to
        # its own rounding, so 3 ulp(S) >= 2 ulp(S) remains.
        n = observation.n_params
        lo, hi = _add_rows((0.0, 0.0), (lb[:, n:], ub[:, n:]))
        # Like Python floats, the arrays overflow to inf without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.maximum(np.maximum(-lb[:, :n], ub[:, :n]), np.maximum(-lo, hi))
            np.maximum(s, 1.0, out=s)
            # 4 ulp(S). np.spacing(s) is math.ulp(s) for s >= 1 except at the
            # largest float, where it overflows to inf, so ulp(S) is taken as
            # 2 spacing(S / 2), exact as S >= 1. An infinite S gives a NaN
            # spacing, and its pad must be infinite.
            pad = np.where(s < np.inf, 8.0 * np.spacing(0.5 * s), np.inf)
            return -(hi + pad), -(lo - pad)


class ConstantEstimator(EstimatorModel):
    """Estimator that ignores the observation and returns a fixed point."""

    def __init__(self, value: Sequence[float], n_obs: int) -> None:
        self.value = tuple(float(v) for v in value)
        if not self.value:
            raise ValueError("constant value must be non-empty")
        if not all(math.isfinite(v) for v in self.value):
            raise ValueError(f"constant value must be finite, got {self.value!r}")
        if n_obs < 1:
            raise ValueError("n_obs must be >= 1")
        self.n_obs = n_obs
        self.n_params = len(self.value)

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        self._check_rows(rows)
        return np.tile(self.value, (len(rows), 1))

    def eval_boxes(self, lb: np.ndarray, ub: np.ndarray) -> Bounds:
        self._check_rows(lb, ub)
        return np.tile(self.value, (len(lb), 1)), np.tile(self.value, (len(ub), 1))


# Direction components of (x - a)/||x - a|| lie in [-1, 1]; the clamp below
# leaves a little headroom so the point path's last-ulp rounding stays inside.
_UNIT_BOUND = 1.0 + 1e-9


def _unit_directions(d: Bounds, r: Bounds) -> Bounds:
    """Enclosures of d / r clamped to the unit range; all of it where r's
    lower bound is 0 (which covers the point pass's skipped term at a
    landmark) or where the clamp empties the range."""
    u_lb, u_ub = _div_rows(d, r)
    # Not np.maximum: a NaN bound fails its test and is clamped.
    u_lb = np.where(u_lb > -_UNIT_BOUND, u_lb, -_UNIT_BOUND)
    u_ub = np.where(u_ub < _UNIT_BOUND, u_ub, _UNIT_BOUND)
    full = (r[0] <= 0.0) | (u_lb > u_ub)
    u_lb[full] = -_UNIT_BOUND
    u_ub[full] = _UNIT_BOUND
    return u_lb, u_ub


# Largest descent step count accepted: a validation of the bundled descent
# scenario at its committed budgets takes 0.7 s of CPU at 50 steps, 26.5 s
# at 2000 and 60 s at 4300 (in-process, one CPU). Above about 4340 steps
# the search box's enclosure overflows, and the validation fails on its
# first box, before the oracle: in 0.9 s at the cap. 10^12 steps of the
# oracle's 100k samples, at about 3.8 ms per step, would take a century.
MAX_DESCENT_STEPS = 10**4


class GradientDescentEstimator(EstimatorModel):
    """Fixed-step, fixed-iteration-count descent on the range residual.

    Minimizes c(x) = sum_i (||x - a_i|| - y_i)^2 by running exactly
    `iterations` steps of x <- x - step * grad c(x) from `init`. The fixed
    iteration count makes the estimator a deterministic composition of
    elementary operations, so it extends directly to interval inputs: the
    box evaluator replays the same steps in interval arithmetic. Output
    widths grow with the iteration count; that is inherent to iterating the
    interval map, not a defect.

    At a point exactly on a landmark the gradient direction is undefined;
    that term contributes nothing for that step.
    """

    def __init__(
        self,
        observation: TrilaterationModel,
        iterations: int = 50,
        step: float = 0.01,
        init: Sequence[float] = (15.0, 15.0),
    ) -> None:
        if not 1 <= iterations <= MAX_DESCENT_STEPS:
            raise ValueError(
                f"gradient_descent 'iterations' must be 1 to {MAX_DESCENT_STEPS}, "
                f"got {iterations}"
            )
        if not 0.0 < step < math.inf:
            raise ValueError(f"step must be positive and finite, got {step!r}")
        self.observation = observation
        self.iterations = iterations
        self.step = float(step)
        self.init = (float(init[0]), float(init[1]))
        if not all(math.isfinite(v) for v in self.init):
            raise ValueError(f"init must be finite, got {self.init!r}")
        self.n_obs = observation.n_obs
        self.n_params = 2

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        # One descent per row, each row taking the operations of a scalar
        # loop in the same order. Like Python floats, the arrays overflow to
        # inf and NaN without a warning.
        self._check_rows(rows)
        x0 = np.full(len(rows), self.init[0])
        x1 = np.full(len(rows), self.init[1])
        step = self.step
        landmarks = self.observation.landmarks
        with np.errstate(all="ignore"):
            for _ in range(self.iterations):
                gx = 0.0
                gy = 0.0
                for (ax, ay), yi in zip(landmarks, rows.T):
                    dx = x0 - ax
                    dy = x1 - ay
                    d = np.sqrt(dx * dx + dy * dy)
                    t = 2.0 * (d - yi)
                    # At d == 0 the term is NaN; the sum keeps its old
                    # value, bit for bit, as a scalar loop that skips it.
                    on_landmark = d == 0.0
                    gx = np.where(on_landmark, gx, gx + t * (dx / d))
                    gy = np.where(on_landmark, gy, gy + t * (dy / d))
                x0 = x0 - step * gx
                x1 = x1 - step * gy
        return np.stack((x0, x1), axis=1)

    def eval_boxes(self, lb: np.ndarray, ub: np.ndarray) -> Bounds:
        # The point pass's steps in interval arithmetic, in the order of a
        # scalar interval loop; a NaN difference makes the norm raise.
        self._check_rows(lb, ub)
        # Noise bounds as (k, landmarks, 1) columns, broadcast over x0, x1.
        y = lb[:, :, None], ub[:, :, None]
        x = (np.tile(self.init, (len(lb), 1)),) * 2
        for _ in range(self.iterations):
            d, (r_lb, r_ub) = self.observation._ranges(x)
            r = r_lb[:, :, None], r_ub[:, :, None]
            t = _scale_rows(2.0, _sub_rows(r, y))
            p_lb, p_ub = _mul_rows(t, _unit_directions(d, r))
            g = 0.0, 0.0
            for j in range(self.n_obs):
                g = _add_rows(g, (p_lb[:, j], p_ub[:, j]))
            x = _sub_rows(x, _scale_rows(self.step, g))
        return x
