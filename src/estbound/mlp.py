"""Dense relu networks as estimators: forward pass, interval forward pass,
serialization, and a small full-batch trainer for building fixtures.

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

__all__ = ["MlpLayer", "MlpModel", "load_mlp", "save_mlp", "train_mlp"]

_ACTIVATIONS = ("relu", "linear")


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
        # flag. The middle axis broadcasts over the boxes.
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

    def eval_box(self, box: IntervalBox) -> IntervalBox:
        return self.eval_boxes((box,))[0]

    def eval_boxes(self, boxes: Sequence[IntervalBox]) -> list[IntervalBox]:
        if not boxes:
            return []
        for box in boxes:
            self._check_box(box)
        # (boxes, inputs) arrays of the lower and of the upper bounds.
        lb = np.array([[c.lb for c in box.components] for box in boxes])
        ub = np.array([[c.ub for c in box.components] for box in boxes])
        for layer, (w2, take_lb, bias2, relu) in enumerate(self._box_arrays):
            # terms[j] holds the terms of input j for every box, rounded as
            # _mul_scalar rounds them; they are summed one input at a time,
            # rounding each add. C order keeps each terms[j] one contiguous
            # block, where numpy's per-call cost is lowest.
            bounds = np.where(take_lb, lb.T[:, :, None], ub.T[:, :, None])
            terms = np.multiply(w2, bounds, order="C")
            np.nextafter(terms, np.inf, out=terms)
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
            lb, ub = -acc[:, :rows], acc[:, rows:]
            if relu:
                lb = np.where(lb > 0.0, lb, 0.0)
                ub = np.where(ub > 0.0, ub, 0.0)
        return [
            _box(tuple(map(_make, lows, highs)))
            for lows, highs in zip(lb.tolist(), ub.tolist())
        ]


def save_mlp(model: MlpModel, path: str | Path) -> None:
    """Write the model as JSON; floats keep full round-trip precision."""
    doc = {
        "layers": [
            {
                "weights": [list(row) for row in layer.weights],
                "bias": list(layer.bias),
                "activation": layer.activation,
            }
            for layer in model.layers
        ],
        "meta": model.meta,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_mlp(path: str | Path) -> MlpModel:
    """Load a model saved by save_mlp; errors name the offending layer."""
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


def train_mlp(
    data: Sequence[tuple[Sequence[float], Sequence[float]]],
    sizes: Sequence[int],
    epochs: int,
    rate: float,
    seed: int,
    output_activation: str = "relu",
) -> MlpModel:
    """Full-batch gradient descent on mean squared error.

    sizes lists the layer widths input-first, e.g. (3, 32, 32, 2). Hidden
    layers use relu; the output layer uses output_activation. The relu
    subgradient at 0 is taken as 0. Deterministic for a fixed seed.
    """
    if not data:
        raise ValueError("training data is empty")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if len(sizes) < 2:
        raise ValueError("sizes must list at least input and output widths")
    if output_activation not in _ACTIVATIONS:
        raise ValueError(f"unknown output activation {output_activation!r}")

    inputs = np.asarray([row[0] for row in data], dtype=np.float64)
    targets = np.asarray([row[1] for row in data], dtype=np.float64)
    if inputs.shape[1] != sizes[0]:
        raise ValueError(
            f"inputs have dim {inputs.shape[1]}, sizes[0] is {sizes[0]}"
        )
    if targets.shape[1] != sizes[-1]:
        raise ValueError(
            f"targets have dim {targets.shape[1]}, sizes[-1] is {sizes[-1]}"
        )

    rng = np.random.default_rng(seed)
    n_layers = len(sizes) - 1
    weights = []
    biases = []
    for i in range(n_layers):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    activations = ["relu"] * (n_layers - 1) + [output_activation]

    n_samples = inputs.shape[0]
    first_loss = None
    loss = None
    # divergence is detected via the finite-loss check, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            # forward
            acts = [inputs]
            pre = []
            h = inputs
            for W, b, act in zip(weights, biases, activations):
                z = h @ W.T + b
                pre.append(z)
                h = np.maximum(z, 0.0) if act == "relu" else z
                acts.append(h)
            err = h - targets
            loss = float(np.mean(err * err))
            if not math.isfinite(loss):
                raise ValueError(
                    f"training diverged (loss {loss!r}); use a smaller rate"
                )
            if first_loss is None:
                first_loss = loss
            # backward
            grad = 2.0 * err / (n_samples * targets.shape[1])
            for i in range(n_layers - 1, -1, -1):
                if activations[i] == "relu":
                    grad = grad * (pre[i] > 0.0)
                gw = grad.T @ acts[i]
                gb = grad.sum(axis=0)
                grad = grad @ weights[i]
                weights[i] = weights[i] - rate * gw
                biases[i] = biases[i] - rate * gb

    if loss is not None and first_loss is not None and loss > first_loss:
        raise ValueError(
            f"training did not improve (loss {first_loss:.6g} -> {loss:.6g}); "
            "use a smaller rate"
        )

    layers = [
        MlpLayer(
            weights=tuple(tuple(float(w) for w in row) for row in W),
            bias=tuple(float(b) for b in bv),
            activation=act,
        )
        for W, bv, act in zip(weights, biases, activations)
    ]
    return MlpModel(layers, meta={"seed": seed})
