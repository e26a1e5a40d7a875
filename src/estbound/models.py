"""Concrete observation models and estimators.

Range-based localization (distances to fixed landmarks) is the main
observation model; estimators include the identity and constant baselines
used in tests and an iterative least-squares estimator. The neural-network
estimator lives in `mlp`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .framework import EstimatorModel, ObservationModel
from .interval import (
    Interval,
    IntervalBox,
    _box,
    _down,
    _make,
    _mul_scalar,
    _up,
    iadd,
    imul,
    isqr,
    isqrt,
    isub,
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

    def eval_boxes(self, boxes: Sequence[IntervalBox]) -> list[IntervalBox]:
        for box in boxes:
            self._check_box(box)
        return list(boxes)


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
        self._landmark_ivs = tuple(
            (Interval.point(ax), Interval.point(ay)) for ax, ay in pts
        )

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        self._check_rows(rows)
        x0, x1 = rows[:, 0], rows[:, 1]
        out = np.empty((len(rows), self.n_obs))
        for i, (ax, ay) in enumerate(self.landmarks):
            dx = ax - x0
            dy = ay - x1
            out[:, i] = np.sqrt(dx * dx + dy * dy)
        return out

    def eval_boxes(self, boxes: Sequence[IntervalBox]) -> list[IntervalBox]:
        out = []
        for box in boxes:
            self._check_box(box)
            x0, x1 = box[0], box[1]
            comps = []
            for ax_iv, ay_iv in self._landmark_ivs:
                dx = isub(ax_iv, x0)
                dy = isub(ay_iv, x1)
                comps.append(isqrt(iadd(isqr(dx), isqr(dy))))
            out.append(IntervalBox(comps))
        return out


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

    def eval_boxes(self, boxes: Sequence[IntervalBox]) -> list[IntervalBox]:
        for box in boxes:
            self._check_box(box)
        return list(boxes)

    def error_vector_box(
        self, observation: ObservationModel, boxes: Sequence[IntervalBox]
    ) -> list[IntervalBox]:
        # x - estimate = -((g(x) - x) + e). For g(x) = x the deviation
        # g(x) - x is the exact zero box, so C = 0 + e never subtracts the
        # parameter box from itself. Any other observation, a subclass of
        # the identity included, takes the generic path, which needs no pad.
        if type(observation) is not IdentityObservation:
            return super().error_vector_box(observation, boxes)
        # The point evaluation rounds at the magnitude of x, which C never
        # sees. With S = max(|x|, |C|, 1) (max(-lb, ub) as lb <= ub) and an
        # exact g(x) = y, fl(x - fl(y + e)) is within ulp(S) of x - (y + e)
        # per rounding (|y + e| <= 2S); the 4 ulp(S) pad loses <= ulp(S) to
        # its own rounding, so 3 ulp(S) >= 2 ulp(S) remains.
        n = observation.n_params
        out = []
        for box in boxes:
            comps = box.components
            diff = []
            for x, e in zip(comps, comps[n:]):
                lo, hi = _down(e.lb), _up(e.ub)  # C = 0 + e, rounded as iadd rounds
                pad = 4.0 * math.ulp(max(-x.lb, x.ub, -lo, hi, 1.0))
                diff.append(_make(-(hi + pad), -(lo - pad)))
            out.append(_box(tuple(diff)))
        return out


class ConstantEstimator(EstimatorModel):
    """Estimator that ignores the observation and returns a fixed point."""

    def __init__(self, value: Sequence[float], n_obs: int) -> None:
        self.value = tuple(float(v) for v in value)
        if not self.value:
            raise ValueError("constant value must be non-empty")
        if n_obs < 1:
            raise ValueError("n_obs must be >= 1")
        self.n_obs = n_obs
        self.n_params = len(self.value)

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        self._check_rows(rows)
        return np.tile(self.value, (len(rows), 1))

    def eval_boxes(self, boxes: Sequence[IntervalBox]) -> list[IntervalBox]:
        for box in boxes:
            self._check_box(box)
        return [IntervalBox.point(self.value) for _ in boxes]


# Direction components of (x - a)/||x - a|| lie in [-1, 1]; the clamp below
# leaves a little headroom so the point path's last-ulp rounding stays inside.
_UNIT_BOUND = 1.0 + 1e-9


def _div(a: Interval, b: Interval) -> Interval:
    # Quotient for a strictly positive divisor, outward-rounded.
    q0 = a.lb / b.lb
    q1 = a.lb / b.ub
    q2 = a.ub / b.lb
    q3 = a.ub / b.ub
    lo = math.nextafter(min(q0, q1, q2, q3), -math.inf)
    hi = math.nextafter(max(q0, q1, q2, q3), math.inf)
    return _make(lo, hi)


def _unit_direction(num: Interval, dist: Interval) -> Interval:
    """Enclosure of num/dist for a distance interval, clamped to the unit
    range. A distance lower bound of zero (landmark inside or touching the
    box) falls back to the full unit range, which also covers the point
    evaluator's rule of dropping the term exactly at a landmark."""
    if dist.lb <= 0.0:
        return _make(-_UNIT_BOUND, _UNIT_BOUND)
    q = _div(num, dist)
    lo = q.lb if q.lb > -_UNIT_BOUND else -_UNIT_BOUND
    hi = q.ub if q.ub < _UNIT_BOUND else _UNIT_BOUND
    if lo > hi:
        return _make(-_UNIT_BOUND, _UNIT_BOUND)
    return _make(lo, hi)


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
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if not step > 0.0:
            raise ValueError(f"step must be positive, got {step!r}")
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

    def eval_boxes(self, boxes: Sequence[IntervalBox]) -> list[IntervalBox]:
        step = self.step
        zero = Interval.point(0.0)
        landmarks = self.observation._landmark_ivs
        out = []
        for box in boxes:
            self._check_box(box)
            x0 = Interval.point(self.init[0])
            x1 = Interval.point(self.init[1])
            for _ in range(self.iterations):
                gx = zero
                gy = zero
                for (ax_iv, ay_iv), y_iv in zip(landmarks, box):
                    dx = isub(x0, ax_iv)
                    dy = isub(x1, ay_iv)
                    d = isqrt(iadd(isqr(dx), isqr(dy)))
                    r = isub(d, y_iv)
                    ux = _unit_direction(dx, d)
                    uy = _unit_direction(dy, d)
                    t = _mul_scalar(2.0, r)
                    gx = iadd(gx, imul(t, ux))
                    gy = iadd(gy, imul(t, uy))
                x0 = isub(x0, _mul_scalar(step, gx))
                x1 = isub(x1, _mul_scalar(step, gy))
            out.append(IntervalBox([x0, x1]))
        return out
