"""Dense relu networks as estimators: forward pass, interval forward pass,
and loading from a JSON weight file.

The network is a given, fixed artifact: the validation method certifies it
as it is and never trains it.

Both passes are numpy kernels that vectorise only over independent values,
so they round exactly as a one-value-at-a-time loop would. The forward
pass takes a batch of rows and holds them feature-major, one array row per
neuron and one column per input row; per layer it sums the weighted inputs
of every output in column order, starting from 0.0, adds the bias and
applies relu.

The interval forward pass takes a batch of boxes and propagates one
interval per neuron and box. Per layer, each input's bounds are scaled by
the weights, taking the lower or upper bound by the weight's sign, and each
product is rounded outward. The products are summed one input column at a
time, rounding outward after every add, then the bias is added, rounded
outward, and the exact relu image is taken; a NaN bound before it is an
error. Evaluating several boxes at once shares numpy's per-call cost among
them; each box gets the bounds it would get alone. This is the plainest
possible bound propagation; it gets looser as networks grow deeper, which
is acceptable here because the validation method only needs soundness, not
tightness.

Rounding upward is what the box pass spends most of its time on. A layer's
products are rounded by an integer step on their bits (`_round_up`), which
gives np.nextafter's result at about a third of its cost; the step needs an
int64 scratch array of their shape, and the array the products' input
bounds were gathered into serves as one, since it is dead once the products
are taken. The column sums and the bias add keep np.nextafter: their arrays
hold one value per box and neuron, and on arrays that small the step's five
numpy calls cost more than nextafter's one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .framework import EstimatorModel
from .interval import IntervalBox, _box, _make

__all__ = ["MlpLayer", "MlpModel", "load_mlp"]

_ACTIVATIONS = ("relu", "linear")
_FLOAT_MAX = np.finfo(np.float64).max


@dataclass(frozen=True)
class MlpLayer:
    """One dense layer: weights are row-major (rows x cols), one row per
    output neuron."""

    weights: tuple[tuple[float, ...], ...]
    bias: tuple[float, ...]
    activation: str

    def __post_init__(self) -> None:
        if self.activation not in _ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}"
            )
        if not self.weights:
            raise ValueError("layer has no weight rows")
        cols = len(self.weights[0])
        if cols == 0:
            raise ValueError("layer has zero-width weight rows")
        for row in self.weights:
            if len(row) != cols:
                raise ValueError("weight rows have inconsistent lengths")
            for w in row:
                if not math.isfinite(w):
                    raise ValueError(f"non-finite weight: {w!r}")
        if len(self.bias) != len(self.weights):
            raise ValueError(
                f"bias length {len(self.bias)} != weight rows {len(self.weights)}"
            )
        for b in self.bias:
            if not math.isfinite(b):
                raise ValueError(f"non-finite bias: {b!r}")

    @property
    def rows(self) -> int:
        return len(self.weights)

    @property
    def cols(self) -> int:
        return len(self.weights[0])


class MlpModel(EstimatorModel):
    """Feed-forward dense network acting as an estimator."""

    def __init__(self, layers: Sequence[MlpLayer], meta: dict | None = None) -> None:
        layers = tuple(layers)
        if not layers:
            raise ValueError("model must have at least one layer")
        for i in range(1, len(layers)):
            if layers[i].cols != layers[i - 1].rows:
                raise ValueError(
                    f"layer {i} expects {layers[i].cols} inputs but layer "
                    f"{i - 1} produces {layers[i - 1].rows}"
                )
        self.layers = layers
        self.meta = dict(meta or {})
        self.n_obs = layers[0].cols
        self.n_params = layers[-1].rows
        # Per layer: weights transposed to C-ordered (cols, rows), so that
        # the kernels below step through contiguous rows; bias; relu flag.
        arrays = [
            (np.array(l.weights).T.copy(), np.array(l.bias), l.activation == "relu")
            for l in layers
        ]
        # The point pass, per layer: each input column's weights as a
        # (rows, 1) column, the bias as a (rows, 1) column, relu flag.
        self._arrays = tuple(
            (wt[:, :, None], bias[:, None], relu) for wt, bias, relu in arrays
        )
        # The box pass holds a layer's negated lower bounds and its upper
        # bounds in one array, so one upward rounding serves both: negation
        # is exact and round-to-nearest is symmetric. Per layer: weights
        # (cols, 1, 2 * rows) for that array, where each term takes its
        # input's lower bound rather than its upper one (lower bounds for
        # w >= 0, upper bounds for w < 0, as _mul_scalar does), bias, relu
        # flag. The middle axis broadcasts over the boxes. The products are
        # rounded with _round_up, the sums with np.nextafter (see the module
        # docstring).
        self._box_arrays = tuple(
            (
                np.concatenate((-wt, wt), axis=1)[:, None, :],
                np.concatenate((wt >= 0.0, wt < 0.0), axis=1)[:, None, :],
                np.concatenate((-bias, bias)),
                relu,
            )
            for wt, bias, relu in arrays
        )

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        self._check_rows(rows)
        h = rows.T
        # Like Python floats, the arrays overflow to inf and NaN without a
        # warning; the oracle reports both.
        with np.errstate(over="ignore", invalid="ignore"):
            for w_cols, bias, relu in self._arrays:
                acc = np.zeros((len(bias), h.shape[1]))
                prod = np.empty_like(acc)
                for w, column in zip(w_cols, h):
                    np.multiply(w, column, out=prod)
                    acc += prod
                del prod  # so the next layer's buffers do not add to the peak
                acc += bias
                if relu:
                    acc[acc < 0.0] = 0.0
                h = acc
        return h.T

    def eval_boxes(self, boxes: Sequence[IntervalBox]) -> list[IntervalBox]:
        if not boxes:
            return []
        for box in boxes:
            self._check_box(box)
        # C-ordered (inputs, boxes) arrays of the lower and of the upper
        # bounds, so that each layer's bounds array below is C-ordered too.
        lb = np.array([[c.lb for c in box.components] for box in boxes]).T.copy()
        ub = np.array([[c.ub for c in box.components] for box in boxes]).T.copy()
        # An overflow gives an infinite bound, which objective_box reports,
        # or a NaN bound, which the check below reports.
        with np.errstate(over="ignore", invalid="ignore"):
            for layer, (w2, take_lb, bias2, relu) in enumerate(self._box_arrays):
                # terms[j] holds the terms of input j for every box, rounded as
                # _mul_scalar rounds them; they are summed one input at a time,
                # rounding each add. C order keeps each terms[j] one contiguous
                # block, where numpy's per-call cost is lowest. Once the
                # products are taken, bounds is the rounding's scratch space.
                bounds = np.where(take_lb, lb[:, :, None], ub[:, :, None])
                terms = np.multiply(w2, bounds, order="C")
                _round_up(terms, bounds.view(np.int64))
                acc = terms[0]
                for t in terms[1:]:
                    np.add(acc, t, out=acc)
                    np.nextafter(acc, np.inf, out=acc)
                acc = np.nextafter(acc + bias2, np.inf)
                # A NaN bound (an infinite bound times a zero weight, or inf -
                # inf) says nothing, and relu would turn it into 0.0.
                if np.isnan(acc).any():
                    box = boxes[int(np.isnan(acc).any(axis=1).argmax())]
                    raise ValueError(
                        f"network layer {layer} gives a NaN bound on {box!r}: "
                        "its bounds overflow"
                    )
                rows = len(bias2) // 2
                acc = acc.T.copy()
                lb, ub = -acc[:rows], acc[rows:]
                if relu:
                    lb = np.where(lb > 0.0, lb, 0.0)
                    ub = np.where(ub > 0.0, ub, 0.0)
        return [
            _box(tuple(map(_make, lows, highs)))
            for lows, highs in zip(lb.T.tolist(), ub.T.tolist())
        ]


def _round_up(x: np.ndarray, scratch: np.ndarray) -> None:
    """Round every element of the float64 array x up to the next float, in
    place: bit for bit np.nextafter(x, np.inf), at a fraction of the cost of
    its per-element libm call. scratch is an int64 array of x's shape that
    the step overwrites.

    -0.0 is first mapped to +0.0 and +inf to the largest float; then adding
    one to the int64 view of a float that is not negative, and subtracting
    one from that of a negative float, steps it to its neighbour towards
    +inf. A NaN stays NaN, except the one whose bits are all ones after the
    sign (0x7fffffffffffffff), which wraps to -0.0; the products eval_boxes
    rounds are never that NaN, since a product of two non-NaN floats that is
    NaN is the processor's default NaN.
    """
    np.add(x, 0.0, out=x)
    np.minimum(x, _FLOAT_MAX, out=x)
    bits = x.view(np.int64)
    np.right_shift(bits, 63, out=scratch)
    np.bitwise_or(scratch, 1, out=scratch)
    np.add(bits, scratch, out=bits)


def load_mlp(path: str | Path) -> MlpModel:
    """Load a model from a JSON weight file: a "layers" list of objects with
    "weights" (row-major, one row per output neuron), "bias" and
    "activation", and an optional "meta" object. Errors name the offending
    layer."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read weight file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "layers" not in doc:
        raise ValueError(f"weight file {path} has no 'layers' entry")
    if not isinstance(doc["layers"], list):
        raise ValueError(f"weight file {path}: 'layers' must be a list")
    if not isinstance(doc.get("meta"), (dict, type(None))):
        raise ValueError(f"weight file {path}: 'meta' must be an object or null")
    layers = []
    for i, spec in enumerate(doc["layers"]):
        try:
            layers.append(
                MlpLayer(
                    weights=tuple(tuple(float(w) for w in row) for row in spec["weights"]),
                    bias=tuple(float(b) for b in spec["bias"]),
                    activation=spec.get("activation", "relu"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"weight file {path}, layer {i}: {exc}") from exc
    try:
        return MlpModel(layers, meta=doc.get("meta"))
    except ValueError as exc:
        raise ValueError(f"weight file {path}: {exc}") from exc
