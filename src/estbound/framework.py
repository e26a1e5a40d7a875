"""Observation/estimator contracts and the worst-case error objective.

An observation model maps a parameter vector to an ideal observation; an
estimator maps a (noisy) observation back to a parameter estimate. Both
carry a point evaluator, a row-batched form of it (`eval_points`, which
defaults to one `eval_point` call per row), and a box evaluator that must
be a sound inclusion of the point one: x in X implies eval_point(x) in
eval_box(X). `ErrorObjective` composes the two into the estimation error
e(x, e) = ||x - estimate(observation(x) + e)|| and its negation, the objective
handed to the branch-and-bound minimizer.

All models must be stateless per call; objectives may be evaluated on many
boxes concurrently.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .interval import Interval, IntervalBox, iadd, ineg, isqr, isqrt, isub

__all__ = ["ObservationModel", "EstimatorModel", "ErrorObjective"]

Vector = tuple[float, ...]


class ObservationModel(ABC):
    """Maps parameters (dim n_params) to ideal observations (dim n_obs)."""

    n_params: int
    n_obs: int

    @abstractmethod
    def eval_point(self, x: Sequence[float]) -> Vector:
        """Observation at a single parameter vector."""

    @abstractmethod
    def eval_box(self, box: IntervalBox) -> IntervalBox:
        """Sound, isotone inclusion of eval_point over a parameter box."""

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        """eval_point of each row of a (k, n_params) array, stacked into a
        (k, n_obs) array. Overrides must return the same floats."""
        return np.array([self.eval_point(r) for r in rows.tolist()], dtype=np.float64)

    def _check_point(self, x: Sequence[float]) -> None:
        if len(x) != self.n_params:
            raise ValueError(
                f"parameter vector has dim {len(x)}, model expects {self.n_params}"
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
    def eval_point(self, y: Sequence[float]) -> Vector:
        """Estimate from a single observation vector."""

    @abstractmethod
    def eval_box(self, box: IntervalBox) -> IntervalBox:
        """Sound inclusion of eval_point over an observation box."""

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        """eval_point of each row of a (k, n_obs) array, stacked into a
        (k, n_params) array. Overrides must return the same floats."""
        return np.array([self.eval_point(r) for r in rows.tolist()], dtype=np.float64)

    def error_vector_box(
        self,
        observation: ObservationModel,
        param_box: IntervalBox,
        noise_box: IntervalBox,
    ) -> IntervalBox:
        """Component-wise enclosure of x - eval_point(observation(x) + e)
        over param_box x noise_box.

        The default chains the two box evaluators and subtracts. Estimators
        with structure that cancels the parameter dependency (the identity
        estimator) override this with a tighter, still-sound enclosure.
        """
        noisy = observation.eval_box(param_box) + noise_box
        estimate = self.eval_box(noisy)
        return IntervalBox(isub(x, xh) for x, xh in zip(param_box, estimate))

    def _check_point(self, y: Sequence[float]) -> None:
        if len(y) != self.n_obs:
            raise ValueError(
                f"observation vector has dim {len(y)}, estimator expects {self.n_obs}"
            )

    def _check_box(self, box: IntervalBox) -> None:
        if box.dim != self.n_obs:
            raise ValueError(
                f"observation box has dim {box.dim}, estimator expects {self.n_obs}"
            )


class ErrorObjective:
    """Estimation error over a parameter box and a noise box.

    Exposes the error in point form, in interval (inclusion-function) form,
    and negated as the minimization objective over the concatenated
    (parameters, noise) search box.
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

    def error_box(self, param_box: IntervalBox, noise_box: IntervalBox) -> Interval:
        """Enclosure of error_point over param_box x noise_box; lb >= 0."""
        if param_box.dim != self.n_params:
            raise ValueError(
                f"param box has dim {param_box.dim}, expected {self.n_params}"
            )
        if noise_box.dim != self.n_obs:
            raise ValueError(
                f"noise box has dim {noise_box.dim}, expected {self.n_obs}"
            )
        return self._error_box(param_box, noise_box)

    def _error_box(self, param_box: IntervalBox, noise_box: IntervalBox) -> Interval:
        # error_box for boxes whose dims the caller has checked.
        diff = self.estimator.error_vector_box(
            self.observation, param_box, noise_box
        ).components
        acc = isqr(diff[0])
        for c in diff[1:]:
            acc = iadd(acc, isqr(c))
        return isqrt(acc)

    def objective_box(self, box: IntervalBox) -> Interval:
        """Negated error over a concatenated (parameters, noise) box; this
        is the function minimized by the branch-and-bound search."""
        n, m = self.n_params, self.n_obs
        if box.dim != n + m:
            raise ValueError(
                f"search box has dim {box.dim}, expected {n} + {m} = {n + m}"
            )
        return ineg(self._error_box(box[:n], box[n:]))

    def initial_box(self) -> IntervalBox:
        """The full search box: parameter box then noise box."""
        return self.param_box.concat(self.noise_box)

    def split_dims(self) -> tuple[int, ...]:
        """Indices the optimizer may split: the parameter components only."""
        return tuple(range(self.n_params))
