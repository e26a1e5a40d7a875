"""Dense relu networks as estimators: forward pass, its BLAS screen,
interval forward pass, and loading from a JSON weight file.

The network is a given, fixed artifact: the validation method certifies it
as it is and never trains it.

The forward and the interval pass are numpy kernels that vectorise only
over independent values, so they round exactly as a one-value-at-a-time
loop would. The forward pass copies a batch of rows into contiguous
columns, one array row per neuron; per layer it sums the weighted inputs
of each output in column order from 0.0, adds the bias and applies relu
as np.maximum(x, 0.0), the loop's `0.0 if x < 0.0` bit for bit: x is
never -0.0, and np.maximum keeps a NaN's bits. It works _BLOCK (16) outputs at a time, so at 4096 rows a
block's sums and products (512 KiB each) stay in a 2 MiB per-core L2. Blocks
split the outputs, not the rows: numpy's broadcast multiply runs about 4x
slower per element on rows of up to a third of its 8192-element buffer.

The screen (`screen_points`) is the forward pass at BLAS speed, for the
oracle: one np.matmul per layer on (rows, neurons) arrays, then the bias
and relu. BLAS sums in an order of its own, maybe with fused multiply-adds
and over threads, so its outputs may differ from the forward pass's in the
last bits; the screen returns with them a bound, per output neuron and over
all the rows, on that difference. It holds for IEEE binary64 arithmetic
rounding to nearest with gradual underflow, in any summation order, with or
without FMA. A layer with n inputs takes inputs within delta of the forward
pass's, the screen's at most M in magnitude. Each pass's sums are within
gamma_{n+1} (|W| |h| + |b|) of the exact ones, whatever the order, plus
n 2^-1075 from underflow (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, section 3.1), so the outputs differ by at most

    delta' = |W| delta + gamma_{n+1} (|W| (2 M + delta) + 2 |b|) + (n + 1) 2^-1074.

Relu is 1-Lipschitz, so it passes delta' on unchanged. delta' is evaluated
in floats with the underflow term doubled, for underflow in the bound's own
products, and a factor 1 + gamma_{n+10} over its roundings. Where |W| (2 M
+ delta) + 2 |b| is above 2^1022 or NaN, delta' is infinite: below it no
sum of either pass can overflow, so a finite bound also says that the
forward pass's outputs are finite. The first layer's delta is 0 and its M
the largest input magnitude.

The interval forward pass takes the bound arrays of a batch of boxes, one
row per box, and propagates one interval per neuron and box. Per layer,
each input's bounds are scaled by the weights, taking the lower or upper
bound by the weight's sign, and each product is rounded outward. The
products are summed one input column at a time, rounding outward after
every add, then the bias is added, rounded outward, and the exact relu
image is taken; a NaN bound before it is an error. Evaluating several boxes
at once shares numpy's per-call cost among them; each box gets the bounds
it would get alone. This is the plainest possible bound propagation; it
gets looser as networks grow deeper, which is acceptable here because the
validation method only needs soundness, not tightness.

Rounding upward is what the box pass spends most of its time on. Every
rounding, of the products, of each column sum and of the bias add, is an
integer step on the bits (`_round_up`): np.nextafter's result at a
fraction of its cost, 15 us against 60 us on the (64, 64) sums of 64 boxes
(one CPU, min of 7 timings), though 6.9 against 3.9 us on a two-output
layer's (64, 4), too small a loss for a size switch. Its int64 scratch is
the array the products' input bounds were gathered into, dead by then.

All three passes take their large working arrays from one float64 scratch
array that the model keeps and grows to its largest batch, so a call no
larger allocates none and faults in no fresh pages; results are new
arrays. On the bundled 3x32x32x2 network it holds 2 MiB after the screen
of a 4096-row oracle chunk, 2.6 MiB after a forward pass of one, 2 MiB at
64 halves per box call and 32 MiB at 1024.
No two threads may call one model at once, and none in estbound do.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .framework import Bounds, EstimatorModel, _gamma

__all__ = ["MlpLayer", "MlpModel", "load_mlp"]

_ACTIVATIONS = ("relu", "linear")
_FLOAT_MAX = float(np.finfo(np.float64).max)
_BLOCK = 16  # output neurons per block of the point pass
# A screen bound is infinite where a layer's |W| (2 M + delta) + 2 |b|
# exceeds this: below it, neither pass's sums can overflow.
_SPREAD_LIMIT = 2.0**1022


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
        # (cols, 1, 2 * rows), the middle axis broadcasting over the boxes;
        # an int64 (cols, 2 * rows) mask, all ones where the term takes its
        # input's lower bound (a lower bound's for w >= 0, an upper bound's
        # for w < 0, as an interval product does); bias; relu flag.
        self._box_arrays = tuple(
            (
                np.concatenate((-wt, wt), axis=1)[:, None, :],
                np.where(np.concatenate((wt >= 0.0, wt < 0.0), axis=1), -1, 0),
                np.concatenate((-bias, bias)),
                relu,
            )
            for wt, bias, relu in arrays
        )
        # The screen, per layer: weights (cols, rows) and their magnitudes,
        # bias, relu flag.
        self._screen_arrays = tuple(
            (wt, np.abs(wt), bias, relu) for wt, bias, relu in arrays
        )
        self._width = max(l.rows for l in layers)
        self._scratch = np.empty(0)

    def _scratch_arrays(self, *shapes: tuple[int, ...]) -> list[np.ndarray]:
        """float64 arrays of the given shapes, end to end in the scratch."""
        sizes = [math.prod(shape) for shape in shapes]
        if self._scratch.size < sum(sizes):
            self._scratch = np.empty(sum(sizes))
        ends = itertools.accumulate(sizes)
        parts = (self._scratch[end - size : end] for size, end in zip(sizes, ends))
        return [part.reshape(shape) for part, shape in zip(parts, shapes)]

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        self._check_rows(rows)
        n = len(rows)
        # Input columns, two accumulators the layers fill in turn, one block's products.
        h, acc_next, acc_free, prods = self._scratch_arrays(
            (self.n_obs, n), (self._width, n), (self._width, n), (_BLOCK, n)
        )
        np.copyto(h, rows.T)
        # Like Python floats, the arrays overflow to inf and NaN without a
        # warning; the oracle reports both.
        with np.errstate(over="ignore", invalid="ignore"):
            for w_cols, bias, relu in self._arrays:
                for start in range(0, len(bias), _BLOCK):
                    block = slice(start, min(start + _BLOCK, len(bias)))
                    acc, prod = acc_next[block], prods[: block.stop - start]
                    acc.fill(0.0)
                    for w, column in zip(w_cols[:, block], h):
                        np.multiply(w, column, out=prod)
                        acc += prod
                    acc += bias[block]
                    if relu:
                        np.maximum(acc, 0.0, out=acc)
                h = acc_next[: len(bias)]
                acc_next, acc_free = acc_free, acc_next
        return h.T.copy()

    def screen_points(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """eval_points' outputs from one BLAS matmul per layer, and per
        output neuron a bound over all the rows on their distance from
        eval_points' (the module docstring gives the bound)."""
        self._check_rows(rows)
        n = len(rows)
        # Two (rows, width) regions the layers write in turn.
        bufs = self._scratch_arrays((n * self._width,), (n * self._width,))
        h = rows
        delta = np.zeros(self.n_obs)
        with np.errstate(over="ignore", invalid="ignore"):
            for (wt, abs_wt, bias, relu), buf in zip(
                self._screen_arrays, itertools.cycle(bufs)
            ):
                cols = len(wt)
                # The largest input magnitude, NaN if any input is NaN.
                top = np.maximum(h.max(initial=0.0), -h.min(initial=0.0))
                spread = (2.0 * top + delta) @ abs_wt + 2.0 * np.abs(bias)
                delta = delta @ abs_wt + _gamma(cols + 1) * spread
                delta += (2 * cols + 4) * 2.0**-1074
                delta *= 1.0 + _gamma(cols + 10)
                delta = np.where(spread <= _SPREAD_LIMIT, delta, np.inf)
                h = np.matmul(h, wt, out=buf[: n * len(bias)].reshape(n, len(bias)))
                h += bias
                if relu:
                    np.maximum(h, 0.0, out=h)
        return h.copy(), delta

    def eval_boxes(self, lb: np.ndarray, ub: np.ndarray) -> Bounds:
        self._check_rows(lb)
        # (inputs, boxes) float64 arrays of the lower and the upper bounds.
        h_lb, h_ub = (b.T.astype(np.float64, order="C") for b in (lb, ub))
        # An overflow gives an infinite bound, which objective_box reports,
        # or a NaN bound, which the check below reports.
        with np.errstate(over="ignore", invalid="ignore"):
            for layer, (w2, lb_bits, bias2, relu) in enumerate(self._box_arrays):
                # terms[j] holds input j's terms for every box, each product
                # stepped outward, summed one input at a time with a rounding
                # per add; C order keeps each terms[j] one contiguous block.
                shape = (len(w2), len(lb), w2.shape[2])
                bounds, terms = self._scratch_arrays(shape, shape)
                # Each term's input bound, selected on the bits: ub's, xor'ed
                # with lb ^ ub where lb_bits is all ones. Only np.copyto
                # broadcasts (a ufunc buffers a broadcast operand: slower).
                # Once the products are taken, bounds is _round_up's scratch.
                scratch = bounds.view(np.int64)
                lb_i, ub_i = h_lb.view(np.int64), h_ub.view(np.int64)
                np.copyto(scratch, (lb_i ^ ub_i)[:, :, None])
                np.bitwise_and(scratch, lb_bits[:, None], out=scratch)
                np.bitwise_xor(scratch, ub_i[:, :, None], out=scratch)
                np.copyto(terms, w2)
                np.multiply(terms, bounds, out=terms)
                _round_up(terms, scratch)
                acc = terms[0]
                scratch = scratch[0]
                for t in terms[1:]:
                    np.add(acc, t, out=acc)
                    _round_up(acc, scratch)
                np.add(acc, bias2, out=acc)
                _round_up(acc, scratch)
                # A NaN bound (an infinite bound times a zero weight, or inf -
                # inf) says nothing, and relu would turn it into 0.0.
                if np.isnan(acc).any():
                    i = int(np.isnan(acc).any(axis=1).argmax())
                    box = map("[{!r}, {!r}]".format, lb[i].tolist(), ub[i].tolist())
                    raise ValueError(
                        f"network layer {layer} gives a NaN bound on "
                        f"Box({' x '.join(box)}): its bounds overflow"
                    )
                rows = len(bias2) // 2
                h = acc.T.copy()
                h_lb, h_ub = h[:rows], h[rows:]
                np.negative(h_lb, out=h_lb)
                if relu:
                    np.maximum(h, 0.0, out=h)
        return h_lb.T, h_ub.T


def _round_up(x: np.ndarray, scratch: np.ndarray) -> None:
    """Round every element of the float64 array x up to the next float, in
    place: bit for bit np.nextafter(x, np.inf), at a fraction of the cost of
    its per-element libm call. scratch is an int64 array of x's shape that
    the step overwrites.

    -0.0 is first mapped to +0.0 and +inf to the largest float; then adding
    one to the int64 view of a float that is not negative, and subtracting
    one from that of a negative float, steps it to its neighbour towards
    +inf. A NaN stays NaN, except the one whose bits are all ones after the
    sign (0x7fffffffffffffff), which wraps to -0.0, and the one just past
    -inf (0xfff0000000000001), which steps to -inf. eval_boxes never rounds
    either: a product or sum of two non-NaN floats that is NaN is the
    processor's default NaN, 2^51 steps from both, and the layer's NaN check
    rejects it after at most one step per input column and two more.
    """
    np.add(x, 0.0, out=x)
    np.minimum(x, _FLOAT_MAX, out=x)
    bits = x.view(np.int64)
    np.right_shift(bits, 63, out=scratch)
    np.bitwise_or(scratch, 1, out=scratch)
    np.add(bits, scratch, out=bits)


def _number(value) -> float:
    """A JSON number as a float; ValueError for a string (or a character of
    one, or an object's key), true, false, an int beyond float range and
    the non-finite floats Python's json reads from Infinity, NaN and 1e400."""
    if isinstance(value, float) and math.isfinite(value):
        return float(value)
    if type(value) is int and abs(value) <= _FLOAT_MAX:
        return float(value)
    raise ValueError(f"{value!r} is not a finite number")


def load_mlp(path: str | Path) -> MlpModel:
    """Load a model from a JSON weight file: a "layers" list of objects with
    "weights" (row-major, one row per output neuron), "bias" and
    "activation", and an optional "meta" object. Errors name the offending
    layer."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    # ValueError: invalid JSON, or an integer over Python's parsing limit.
    except (OSError, ValueError) as exc:
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
                    weights=tuple(tuple(map(_number, row)) for row in spec["weights"]),
                    bias=tuple(map(_number, spec["bias"])),
                    activation=spec.get("activation", "relu"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"weight file {path}, layer {i}: {exc}") from exc
    try:
        return MlpModel(layers, meta=doc.get("meta"))
    except ValueError as exc:
        raise ValueError(f"weight file {path}: {exc}") from exc
