"""Observation/estimator contracts and the worst-case error objective.

An observation model maps a parameter vector to an ideal observation; an
estimator maps a (noisy) observation back to a parameter estimate. Both
carry a row-batched point evaluator (`eval_points`, one output row per
input row; `eval_point` is its one-row form) and a box evaluator batched
over boxes (`eval_boxes`, one output box per input box; `eval_box` is its
one-box form) that must be a sound inclusion of the point one: x in X
implies eval_point(x) in eval_box(X).

`ErrorObjective` composes the two into the estimation error
e(x, e) = ||x - estimate(observation(x) + e)|| and its negation, the objective
handed to the branch-and-bound minimizer. That objective is batched the way
the minimizer calls it (the initial box alone, then the halves of up to
`optimizer.LOOKAHEAD` front boxes per call): `objective_box` takes one
search box and returns one enclosure, or takes a sequence of boxes and
returns a list holding one enclosure per box, evaluated together.

All models must be stateless per call; objectives may be evaluated on many
boxes concurrently.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .interval import Interval, IntervalBox, _box, iadd, ineg, isqr, isqrt, isub

__all__ = ["ObservationModel", "EstimatorModel", "ErrorObjective"]

Vector = tuple[float, ...]


class ObservationModel(ABC):
    """Maps parameters (dim n_params) to ideal observations (dim n_obs)."""

    n_params: int
    n_obs: int

    @abstractmethod
    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        """Observation at each row of a (k, n_params) float64 array, as a
        (k, n_obs) array. Each row's floats must not depend on the other
        rows."""

    @abstractmethod
    def eval_boxes(self, boxes: Sequence[IntervalBox]) -> list[IntervalBox]:
        """Sound, isotone inclusion of eval_point over each parameter box, in
        order. Each box's bounds must not depend on the other boxes."""

    def eval_point(self, x: Sequence[float]) -> Vector:
        """Observation at a single parameter vector: eval_points on one row."""
        return tuple(self.eval_points(np.array([x], dtype=np.float64))[0].tolist())

    def eval_box(self, box: IntervalBox) -> IntervalBox:
        """Inclusion over a single parameter box: eval_boxes on one box."""
        return self.eval_boxes((box,))[0]

    def _check_rows(self, rows: np.ndarray) -> None:
        if rows.shape[-1] != self.n_params:
            raise ValueError(
                f"parameter vector has dim {rows.shape[-1]}, model expects "
                f"{self.n_params}"
            )

    def _check_box(self, box: IntervalBox) -> None:
        if box.dim != self.n_params:
            raise ValueError(
                f"parameter box has dim {box.dim}, model expects {self.n_params}"
            )


class EstimatorModel(ABC):
    """Maps observations (dim n_obs) to parameter estimates (dim n_params)."""

    n_obs: int
    n_params: int

    @abstractmethod
    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        """Estimate from each row of a (k, n_obs) float64 array, as a
        (k, n_params) array. Each row's floats must not depend on the other
        rows."""

    @abstractmethod
    def eval_boxes(self, boxes: Sequence[IntervalBox]) -> list[IntervalBox]:
        """Sound inclusion of eval_point over each observation box, in order.
        Each box's bounds must not depend on the other boxes."""

    def eval_point(self, y: Sequence[float]) -> Vector:
        """Estimate from a single observation vector: eval_points on one row."""
        return tuple(self.eval_points(np.array([y], dtype=np.float64))[0].tolist())

    def eval_box(self, box: IntervalBox) -> IntervalBox:
        """Inclusion over a single observation box: eval_boxes on one box."""
        return self.eval_boxes((box,))[0]

    def error_vector_box(
        self, observation: ObservationModel, boxes: Sequence[IntervalBox]
    ) -> list[IntervalBox]:
        """Per search box (x, e), the parameters x followed by the noise e:
        a component-wise enclosure of x - eval_point(observation(x) + e)
        over that box.

        The default chains the two box evaluators, each over all boxes in
        one eval_boxes call, and subtracts. Estimators with structure that
        cancels the parameter dependency (the identity estimator) override
        this with a tighter, still-sound enclosure.
        """
        n = observation.n_params
        ideal = observation.eval_boxes([box[:n] for box in boxes])
        estimates = self.eval_boxes([y + box[n:] for y, box in zip(ideal, boxes)])
        # zip stops at the n estimate components, pairing each with its x.
        return [
            _box(tuple(map(isub, box.components, estimate.components)))
            for box, estimate in zip(boxes, estimates)
        ]

    def _check_rows(self, rows: np.ndarray) -> None:
        if rows.shape[-1] != self.n_obs:
            raise ValueError(
                f"observation vector has dim {rows.shape[-1]}, estimator expects "
                f"{self.n_obs}"
            )

    def _check_box(self, box: IntervalBox) -> None:
        if box.dim != self.n_obs:
            raise ValueError(
                f"observation box has dim {box.dim}, estimator expects {self.n_obs}"
            )


class ErrorObjective:
    """Estimation error over a parameter box and a noise box.

    Exposes the error in point form and, negated, in interval
    (inclusion-function) form over the concatenated (parameters, noise)
    search box: the minimization objective.
    """

    def __init__(
        self,
        observation: ObservationModel,
        estimator: EstimatorModel,
        param_box: IntervalBox,
        noise_box: IntervalBox,
    ) -> None:
        if observation.n_obs != estimator.n_obs:
            raise ValueError(
                f"observation outputs dim {observation.n_obs} but estimator "
                f"expects dim {estimator.n_obs}"
            )
        if observation.n_params != estimator.n_params:
            raise ValueError(
                f"observation takes parameters of dim {observation.n_params} but "
                f"estimator produces dim {estimator.n_params}"
            )
        if param_box.dim != observation.n_params:
            raise ValueError(
                f"param_box has dim {param_box.dim} but observation expects "
                f"dim {observation.n_params}"
            )
        if noise_box.dim != observation.n_obs:
            raise ValueError(
                f"noise_box has dim {noise_box.dim} but observation outputs "
                f"dim {observation.n_obs}"
            )
        self.observation = observation
        self.estimator = estimator
        self.param_box = param_box
        self.noise_box = noise_box

    @property
    def n_params(self) -> int:
        return self.observation.n_params

    @property
    def n_obs(self) -> int:
        return self.observation.n_obs

    def error_point(
        self, x: Sequence[float] | np.ndarray, e: Sequence[float] | np.ndarray
    ) -> float | np.ndarray:
        """Euclidean distance between x and its estimate under noise e.

        x and e are either one sample each, giving a float, or 2-D arrays
        holding one sample per row, giving a 1-D array of distances.
        """
        xs = np.asarray(x, dtype=np.float64)
        es = np.asarray(e, dtype=np.float64)
        if es.shape[-1] != self.n_obs:
            raise ValueError(
                f"noise vector has dim {es.shape[-1]}, expected {self.n_obs}"
            )
        rows = np.atleast_2d(xs)
        diff = rows - self.estimator.eval_points(
            self.observation.eval_points(rows) + es
        )
        # Sequential sum of squares, mirroring the interval evaluation order.
        acc = 0.0
        for d in diff.T:
            acc = acc + d * d
        dist = np.sqrt(acc)
        return float(dist[0]) if xs.ndim == 1 else dist

    def objective_box(
        self, box: IntervalBox | Sequence[IntervalBox]
    ) -> Interval | list[Interval]:
        """Enclosure of -error_point over a concatenated (parameters, noise)
        box; this is the function minimized by the branch-and-bound search.

        box is either one search box, giving one Interval, or a sequence of
        them, giving a list of one Interval per box, in order. All boxes of
        a sequence go to the estimator in one batched evaluation.
        """
        single = isinstance(box, IntervalBox)
        boxes = (box,) if single else box
        n, m = self.n_params, self.n_obs
        for b in boxes:
            if b.dim != n + m:
                raise ValueError(
                    f"search box has dim {b.dim}, expected {n} + {m} = {n + m}"
                )
        out = []
        diffs = self.estimator.error_vector_box(self.observation, boxes)
        for b, diff in zip(boxes, diffs):
            comps = diff.components
            acc = isqr(comps[0])
            for c in comps[1:]:
                acc = iadd(acc, isqr(c))
            if acc.ub == math.inf:
                raise ValueError(
                    f"the estimation error overflows float range on {b!r}"
                )
            out.append(ineg(isqrt(acc)))
        return out[0] if single else out

    def initial_box(self) -> IntervalBox:
        """The full search box: parameter box then noise box."""
        return self.param_box.concat(self.noise_box)

    def split_dims(self) -> tuple[int, ...]:
        """Indices the optimizer may split: the parameter components only."""
        return tuple(range(self.n_params))
