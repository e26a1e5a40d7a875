"""Observation/estimator contracts and the worst-case error objective.

An observation model maps a parameter vector to an ideal observation; an
estimator maps a (noisy) observation back to a parameter estimate. Both
carry a row-batched point evaluator (`eval_points`; `eval_point` is its
one-row form) and a row-batched box evaluator (`eval_boxes`; `eval_box` is
its one-box form) that must be a sound inclusion of the point one: x in X
implies eval_point(x) in eval_box(X). A batch of k boxes is held as bound
arrays (`Bounds`), a (k, dim) float64 array of lower and one of upper
bounds, of one shape; `interval._bounds` reads `IntervalBox`es into them
only for the one-box forms here, the search's initial box and `Cover.insert`.

`ErrorObjective` composes the two into the estimation error
e(x, e) = ||x - estimate(observation(x) + e)|| and its negation, the objective
handed to the branch-and-bound minimizer, batched the way it calls it:
`objective_box(lb, ub)` takes k search boxes as bound arrays and returns
the bounds of their k enclosures as two (k,) arrays; `objective_box(box)`
is its one-box form. The estimator encloses the error vectors
(`error_vector_box`), and `objective_box` takes their norms a column at a
time over all boxes (`interval._inorm_rows`), bit for bit what `inorm`
gives each box alone. numpy's cost is paid per call, so a wider batch is
cheaper per box: on the identity scenario one box cost 5.5 us at 16 boxes
per call and 2.4 us at 64 (one CPU, min of 7 timings). That is why
`optimizer.LOOKAHEAD` is 32, 64 halves per call: at 64 trilat_mlp
evaluated 4027 boxes instead of 4001 and its peak RSS rose by 2.4 MB. Those
were boxes split ahead of their turn across runs of equal lower bounds,
which the search may never reach. Boxes of the front's run are all due, so
when the run is longer than LOOKAHEAD the search splits up to
`optimizer.TIED_SPLITS` (512) of them per call, 1024 halves. That costs no
extra box, but memory grows with the batch: the network keeps its largest
batch's working arrays (`mlp`'s module docstring gives their size). No
bundled scenario ties on the network.

An estimator may also carry a cheaper point pass with a bound on its
distance from eval_points (`screen_points`, the network's binary32 BLAS
pass); the oracle screens its samples with it through
`ErrorObjective.screen_error` and computes error_point only where the
bound leaves the maximum open.

A model's results must not depend on its earlier calls. A model may keep
working arrays between calls (the network does), so one objective must not
be called from two threads at once; nothing in estbound does that.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .interval import Bounds, Interval, IntervalBox, _bounds, _inorm_rows, _make
from .interval import _add_rows, _row_box, _sub_rows

__all__ = ["ObservationModel", "EstimatorModel", "ErrorObjective"]

Vector = tuple[float, ...]


class _Model(ABC):
    """The contract of both model kinds: a row-batched point evaluator and
    a row-batched box evaluator that contains it."""

    n_params: int
    n_obs: int
    # The input dim attribute, the input's name and the model's name.
    _input: tuple[str, str, str]

    @abstractmethod
    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        """Output at each row of a (k, input dim) float64 array, as a
        (k, output dim) array. Each row's floats must not depend on the
        other rows."""

    @abstractmethod
    def eval_boxes(self, lb: np.ndarray, ub: np.ndarray) -> Bounds:
        """Sound inclusion of eval_point over each input box, a row of the
        (k, input dim) bounds, as (k, output dim) bounds: x in the box
        implies eval_point(x) in the result's row. Each row's bounds must
        not depend on the other rows."""

    def eval_point(self, x: Sequence[float]) -> Vector:
        """Output at a single input vector: eval_points on one row."""
        return tuple(self.eval_points(np.array([x], dtype=np.float64))[0].tolist())

    def eval_box(self, box: IntervalBox) -> IntervalBox:
        """Inclusion over a single input box: eval_boxes on one row."""
        lb, ub = self.eval_boxes(*_bounds(box))
        return _row_box(lb[0], ub[0])

    def _check_rows(self, rows: np.ndarray, upper: np.ndarray | None = None) -> None:
        attr, vector, model = self._input
        dim = getattr(self, attr)
        if rows.ndim != 2:
            raise ValueError(
                f"{vector} vectors must be a 2-D array of rows, got shape {rows.shape}"
            )
        if rows.shape[-1] != dim:
            raise ValueError(
                f"{vector} vector has dim {rows.shape[-1]}, {model} expects {dim}"
            )
        if upper is not None:
            _check_upper(rows, upper)


class ObservationModel(_Model):
    """Maps parameters (dim n_params) to ideal observations (dim n_obs)."""

    _input = ("n_params", "parameter", "model")


class EstimatorModel(_Model):
    """Maps observations (dim n_obs) to parameter estimates (dim n_params)."""

    _input = ("n_obs", "observation", "estimator")

    def error_vector_box(
        self, observation: ObservationModel, lb: np.ndarray, ub: np.ndarray
    ) -> Bounds:
        """Per search box (x, e), a row of the (k, n_params + n_obs) bounds
        holding the parameters x then the noise e: a component-wise
        enclosure of x - eval_point(observation(x) + e) over that box, as
        (k, n_params) bounds.

        The default chains the two box evaluators, each in one eval_boxes
        call over all rows, adding and subtracting as iadd and isub do. An
        estimator whose structure cancels the parameter dependency (the
        identity) overrides it with a tighter, still sound enclosure.
        """
        n = observation.n_params
        x = lb[:, :n], ub[:, :n]
        y = _add_rows(observation.eval_boxes(*x), (lb[:, n:], ub[:, n:]))
        return _sub_rows(x, self.eval_boxes(*y))

    # A cheaper point pass than eval_points, or None where eval_points is
    # the cheapest. screen_points(rows) takes eval_points' rows and returns
    # the outputs at each row, a (k, n_params) float64 array, and per
    # output a (n_params,) bound on their distance from eval_points'
    # outputs, over all the rows: |screen_points(rows)[0] -
    # eval_points(rows)| <= bound wherever the bound is finite, and
    # eval_points' outputs are finite there too. The pass may work in a
    # lower precision than eval_points, as MlpModel's binary32 one does, as
    # long as the bound covers it. ErrorObjective.screen_error uses it.
    screen_points = None


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

        x and e are one sample each, giving a float, or 2-D arrays of as
        many rows, one sample per row, giving a 1-D array of distances.
        """
        xs = np.asarray(x, dtype=np.float64)
        es = np.asarray(e, dtype=np.float64)
        one = xs.ndim == es.ndim == 1
        if not one and not (xs.ndim == es.ndim == 2 and len(xs) == len(es)):
            raise ValueError(
                f"x has shape {xs.shape} and e has shape {es.shape}, expected "
                "one sample each or 2-D arrays with as many rows"
            )
        if es.shape[-1] != self.n_obs:
            raise ValueError(
                f"noise vector has dim {es.shape[-1]}, expected {self.n_obs}"
            )
        rows = np.atleast_2d(xs)
        y = self.observation.eval_points(rows) + es
        dist = _distance(rows, self.estimator.eval_points(y))
        return float(dist[0]) if one else dist

    def screen_error(
        self, x: np.ndarray, e: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """error_point's distances at the samples, one per row of the 2-D
        arrays x and e, taken from the estimator's screen_points, and per
        sample a bound on how far each can be from error_point's: where
        that slack is finite, error_point's distance is finite and within
        it. An estimator without screen_points gives error_point's
        distances and a zero slack.

        The slack adds to the screen's spread D (the sum of its bounds,
        no less than their Euclidean norm) the rounding of both norms.
        With c = gamma_{m+2} for m = n_params terms and an underflow term
        t = sqrt(m) 2^-537, the float norm of x - p for an estimate p is
        within c ||x - p|| + t of the exact one: the m differences, their
        squares and m - 1 adds are each rounded once, then the square
        root. So
        error_point's distance is within D + c (2 (s + t) / (1 - c) + D)
        + 2 t of the screen's s. That is evaluated in floats, with a
        factor 1 + gamma_16 over its own roundings. A slack that takes
        s + slack above 2^511 is infinite: below it, no square of the
        exact differences can overflow.
        """
        if self.estimator.screen_points is None:
            values = self.error_point(x, e)
            return values, np.zeros(len(values))
        y = self.observation.eval_points(x) + e
        estimate, bound = self.estimator.screen_points(y)
        values = _distance(x, estimate)
        m = self.n_params
        c = _gamma(m + 2)
        t = math.sqrt(m) * 2.0**-537
        pad = 1.0 + _gamma(16)
        spread = float(np.sum(bound))
        offset = (spread + c * (2.0 * t / (1.0 - c) + spread) + 2.0 * t) * pad
        slack = offset + (2.0 * c / (1.0 - c) * pad) * values
        return values, np.where(values + slack <= 2.0**511, slack, np.inf)

    def objective_box(
        self, lb: np.ndarray | IntervalBox, ub: np.ndarray | None = None
    ) -> Bounds | Interval:
        """Enclosure of -error_point over concatenated (parameters, noise)
        boxes; this is the function minimized by the branch-and-bound search.

        Batched, as the search calls it: lb and ub are (k, n + m) bound
        arrays, one search box per row, evaluated together; the result is
        the lower and the upper bounds of the k enclosures, as two (k,)
        arrays. objective_box(box) is the one-box form, giving an Interval.

        A NaN or reversed error bound raises inorm's ValueError, and an
        error that overflows float range one naming its box; the first
        holds for any box of the batch, the second for the first such box.
        A model's ValueError is raised again with the hull of the batch's
        boxes appended.
        """
        if isinstance(lb, IntervalBox):
            f_lb, f_ub = self.objective_box(*_bounds(lb))
            return _make(f_lb.item(), f_ub.item())
        n, m = self.n_params, self.n_obs
        if lb.shape[-1] != n + m:
            raise ValueError(
                f"search box has dim {lb.shape[-1]}, expected {n} + {m} = {n + m}"
            )
        _check_upper(lb, ub)
        try:
            e_lb, e_ub = self.estimator.error_vector_box(self.observation, lb, ub)
        except ValueError as exc:
            hull = _row_box(lb.min(axis=0), ub.max(axis=0))
            raise ValueError(f"{exc}, within search box {hull!r}") from exc
        norm_lb, norm_ub = _inorm_rows(e_lb, e_ub)
        overflow = norm_ub == math.inf
        if overflow.any():
            i = int(overflow.argmax())
            raise ValueError(
                "the estimation error overflows float range on "
                f"{_row_box(lb[i], ub[i])!r}"
            )
        return -norm_ub, -norm_lb

    def initial_box(self) -> IntervalBox:
        """The full search box: parameter box then noise box."""
        return self.param_box.concat(self.noise_box)

    def split_dims(self) -> tuple[int, ...]:
        """Indices the optimizer may split: the parameter components only."""
        return tuple(range(self.n_params))


def _check_upper(lb: np.ndarray, ub: np.ndarray) -> None:
    """ValueError unless the upper bounds ub have the shape of the lower lb."""
    if ub.shape != lb.shape:
        raise ValueError(f"upper bounds have shape {ub.shape}, lower bounds {lb.shape}")


def _distance(rows: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row of rows from its estimate: the
    differences' squares summed in column order from 0.0, mirroring the
    interval evaluation order, then the square root."""
    acc = 0.0
    for d in (rows - estimates).T:
        acc = acc + d * d
    return np.sqrt(acc)


def _gamma(k: int, u: float = 2.0**-53) -> float:
    """gamma_k = k u / (1 - k u) for a unit roundoff u, by default IEEE
    binary64's 2^-53 (binary32's is 2^-24): k rounded operations on a sum
    or product change it by a factor within 1 +- gamma_k (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, Lemma 3.1), for k u < 1;
    it is infinite otherwise. Its float is below the real value by at most
    two roundings; the bounds that use it pad for that."""
    ku = k * u
    return ku / (1.0 - ku) if ku < 1.0 else math.inf
