"""Dense relu networks as estimators: forward pass, its binary32 BLAS
screen, interval forward pass, and loading from a JSON weight file.

The network is a given, fixed artifact: the validation method certifies it
as it is and never trains it.

The forward and the interval pass are numpy kernels that vectorise only
over independent values, so they round exactly as a one-value-at-a-time
loop would. The one exception, the interval pass's BLAS product per layer
(below), adds only exact zeros to each product, so it rounds that way
too. The forward pass holds a batch of rows as one array row per neuron;
per layer it sums the weighted inputs of each output in column order from
0.0, adds the bias and applies relu as np.maximum(x, 0.0), the loop's
`0.0 if x < 0.0` bit for bit: x is never -0.0, and np.maximum keeps a
NaN's bits.

The screen (`screen_points`) is the forward pass at BLAS speed in IEEE
binary32, for the oracle: the rows are cast to binary32, then each layer
is one np.matmul on (rows, neurons) arrays against the weights cast to
binary32 once in __init__, then the bias add and relu in place; the
outputs are cast back to float64. BLAS sums in an order of its own, maybe
with fused multiply-adds and over threads, and binary32 keeps 24 bits, so
its outputs differ from the forward pass's; the screen returns with them a
bound, per output neuron and over all the rows, on that difference. It
holds in any summation order, with or without FMA, and whether the
binary32 arithmetic has gradual underflow, flushes results to zero or
reads subnormal operands as zero; the forward pass and the bound's own
evaluation are numpy's binary64, with gradual underflow. Write u = 2^-53
and gamma_k for binary64, u' = 2^-24 and gamma'_k for binary32, and L =
2^-126, binary32's smallest normal magnitude: a cast, product or sum that
underflows, or an operand read as zero, moves a value by less than L. A
layer with n inputs takes inputs x' within delta of the forward pass's x,
with |x'| below M, the largest input magnitude plus L (a maximum taken
with subnormals read as zero may miss one); so |x| <= M + delta. With W
the weights and b the bias, W' = fl32(W) and b' = fl32(b), |W| standing
for a neuron's row sum of weight magnitudes against a scalar:

- The exact sums W' x' + b' and W x + b differ by at most |W| delta +
  u' (|W| M + |b|) + L (n M + 1): the input gap, and the casts, each
  within u' of its value or L of it.
- The forward pass's sums are within gamma_{n+1} (|W| (M + delta) + |b|)
  of exact, whatever the order (Higham, Accuracy and Stability of
  Numerical Algorithms, 2002, section 3.1), plus its underflow.
- The screen's are within gamma'_{n+1} (|W'| M + |b'|) of exact, plus
  L (n M + |W'|) for the products' operands read as zero and L for each
  of its 2 n roundings, 2 n adds' operands, the relu and the output cast,
  every one scaled by the at most n + 1 roundings after it.

Binary64 underflow, in the forward pass and in the bound's evaluation,
adds less than 2^-1000 n, and one more L covers it. With P = L (2 n M +
|W'| + 4 n + 4), the outputs differ by at most

    delta' = |W| delta + u' (|W| M + |b|) + gamma_{n+1} (|W| (M + delta) + |b|)
             + gamma'_{n+1} (|W'| M + |b'| + P) + P.

Relu is 1-Lipschitz, so it passes delta' on unchanged. The first layer's
delta is the input cast, u' M + L. delta' is evaluated in floats with a
factor 1 + gamma_{n+16} over its roundings, of which no term takes more
than n + 12. Where |W| (M + delta) + |b| is above 2^1022 or NaN, or the
binary32 reach (1 + gamma'_{n+1}) (|W'| M + |b'| + P) is above 2^125,
delta' is infinite: below them no sum of either pass can overflow, so a
finite bound also says that the forward pass's outputs are finite. A
weight, bias or row beyond binary32's range casts to an infinity, which
makes the bound infinite, so the oracle confirms every sample with
error_point: the same result, only slower.

The interval forward pass takes the bound arrays of a batch of boxes, one
row per box, and propagates one interval per neuron and box; each box
gets the bounds it would get alone. Per layer, each term is the upper
bound of a weight times an input's interval, the larger of its two end
products, rounded up; the negated weights give the negated lower bounds
the same way, so one upward rounding serves both bounds (negation is
exact and round-to-nearest is symmetric). The terms are summed one input
column at a time, rounding up after every add, then the bias is added,
rounded up, and the exact relu image is taken. This is the plainest
possible bound propagation; it gets looser as networks grow deeper, which
is acceptable here because the validation method only needs soundness.

A layer takes all its terms from one np.matmul. Its inputs are one
(3, inputs, boxes) array of planes (-l, u, 1), read as a stack
S[j] = (-l_j, u_j, 1) per input j, its weights w2 = [-w | w] the stack
W[j] = (-min(w2, 0), max(w2, 0), 0), and W @ S holds in entry (j, k, box)
the sum (-min(v, 0)) (-l) + max(v, 0) u + 0 * 1 for v = w2[j, k]. For
l <= u, as in every box, the larger end product of v [l, u] is v u for
v > 0 and v l otherwise, and it is the one product of the three that can
be nonzero; the other two are a zero times a finite float, exact zeros.
So on any BLAS that keeps gradual underflow, whatever its summation
order, fused multiply-adds and threads, every entry is that end product
rounded once plus 0.0, bit for bit: the +0 * 1 term maps -0.0 to +0.0, as
in round-to-nearest x + y is -0.0 only if x and y both are. test_kernels
checks the host's BLAS on subnormal terms, which a BLAS that flushed
subnormals to zero would change. A layer writes its result, the upper
bounds of [-l; u], straight into the next layer's planes: as it is, or
after relu as np.minimum(-l, -0.0), -max(l, 0.0) bit for bit as numpy
returns the second operand of two zeros, and np.maximum(u, 0.0);
test_kernels checks both rules on the host.

Rounding upward is an integer step on the bits (`_step_up`), bit for bit
np.nextafter(x, inf) except on -0.0, +inf and NaN, at 4.3 us against 39
us on the (64, 64) sums of 64 boxes and 1.7 against 2.2 us on a
two-output layer's (4, 64) (one CPU, min of 25 timings). Two arguments
let the pass take it on every rounding:

- No sum is -0.0. In round-to-nearest, x + y is -0.0 only if x and y
  both are. The bias has -0.0 mapped to +0.0 in __init__ and the terms
  after their rounding, so no sum in the column loop is -0.0, though a
  rounded sum may be: -5e-324 steps to -0.0. Zeros of either sign give
  the same sums after that, so the bounds are unchanged.
- No sum overflows. A rounding to nearest or a step up scales a
  magnitude by at most 1 + 2^-52 and adds at most 2^-1074, and an output
  of n inputs takes 2 n + 2 of them; for n below 2^49 every product and
  partial sum is then below 1.3 (sum_j |w_j| M + |b|) + 2^-1020, M the
  largest input magnitude. A layer's limit (`_overflow_limit`) is
  (2^1021 - max |b|) / max_k sum_j |w_jk|, evaluated in floats, whose
  roundings add less than a factor 1.07. With every input inside
  (-limit, limit), no value reaches 2^1022 and no step meets +inf.

A batch with an input to a layer at or beyond its limit, an infinite or
NaN one included (a zero weight times an infinite input is NaN), is
refused before the product: a ValueError names the layer, the limit and
the batch's first such box, and a validation run ends with exit 1. Each
batch is checked on its own bounds, so should rounding take a sub-box
past a limit that its parent box met, the run ends the same way, never
with a wrong bound.

The screen and the box pass take their large working arrays from one
float64 scratch array that the model keeps and grows to its largest batch
(the screen's are binary32 views of it), so a call no larger allocates
none and faults in no fresh pages; results are new arrays. On the bundled
3x32x32x2 network it holds 1.05 MiB after the screen of a 4096-row oracle
chunk, 2.1 MiB at 64 halves per box call and 33.5 MiB at 1024.
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
# binary32's unit roundoff and its smallest normal magnitude, the screen's
# precision and the most a value can lose to flushed or absent underflow.
_U32 = 2.0**-24
_TINY32 = 2.0**-126
# A screen bound is infinite where a layer's binary64 spread |W| (M +
# delta) + |b| exceeds the first, or its binary32 reach the second: below
# them, neither pass's sums can overflow.
_SPREAD_LIMIT = 2.0**1022
_REACH_LIMIT32 = 2.0**125


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

    def __init__(self, layers: Sequence[MlpLayer]) -> None:
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
        # The box pass, per layer: the stacked weights (-min(w2, 0), max(w2,
        # 0), 0) of w2 = [-w | w] as a (cols, 2 * rows, 3) array; bias [-b |
        # b] as a (2 * rows, 1) column, -0.0 mapped to +0.0; the input
        # magnitude below which no sum overflows; relu flag.
        self._box_arrays = tuple(
            (
                np.stack(
                    (-np.minimum(w2, 0.0), np.maximum(w2, 0.0), np.zeros_like(w2)),
                    axis=2,
                ),
                np.concatenate((-bias, bias))[:, None] + 0.0,
                _overflow_limit(wt, bias),
                relu,
            )
            for wt, bias, relu in arrays
            for w2 in [np.concatenate((-wt, wt), axis=1)]
        )
        # The screen, per layer: weights (cols, rows) and bias in binary32,
        # relu flag; for its bound, |W| and float64 (rows,) arrays of the
        # column sums of |W| and of |fl32(W)|, |b| and |fl32(b)|. A weight
        # beyond binary32's range casts to an infinity, which makes the
        # bound infinite.
        with np.errstate(over="ignore"):
            self._screen_arrays = tuple(
                (
                    wt32,
                    bias32,
                    relu,
                    np.abs(wt),
                    np.abs(wt).sum(axis=0),
                    np.abs(wt32).sum(axis=0, dtype=np.float64),
                    np.abs(bias),
                    np.abs(bias32).astype(np.float64),
                )
                for wt, bias, relu in arrays
                for wt32, bias32 in [(wt.astype(np.float32), bias.astype(np.float32))]
            )
        self._width = max(l.rows for l in layers)
        self._scratch = np.empty(0)

    def _scratch_arrays(
        self, *shapes: tuple[int, ...], dtype=np.float64
    ) -> list[np.ndarray]:
        """Arrays of the given shapes and dtype, end to end in the float64
        scratch, each from a float64 boundary."""
        counts = [math.prod(shape) for shape in shapes]
        sizes = [-(-count * np.dtype(dtype).itemsize // 8) for count in counts]
        if self._scratch.size < sum(sizes):
            self._scratch = np.empty(sum(sizes))
        ends = itertools.accumulate(sizes)
        parts = (self._scratch[end - size : end] for size, end in zip(sizes, ends))
        return [
            part.view(dtype)[:count].reshape(shape)
            for part, count, shape in zip(parts, counts, shapes)
        ]

    def eval_points(self, rows: np.ndarray) -> np.ndarray:
        self._check_rows(rows)
        h = rows.T
        # Like Python floats, the arrays overflow to inf and NaN without a
        # warning; the oracle reports both.
        with np.errstate(over="ignore", invalid="ignore"):
            for w_cols, bias, relu in self._arrays:
                acc = np.zeros((len(bias), len(rows)))
                for w, column in zip(w_cols, h):
                    acc += w * column
                acc += bias
                if relu:
                    np.maximum(acc, 0.0, out=acc)
                h = acc
        return h.T.copy()

    def screen_points(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """eval_points' outputs from one binary32 BLAS matmul per layer, and
        per output neuron a bound over all the rows on their distance from
        eval_points' (the module docstring gives the bound)."""
        self._check_rows(rows)
        n = len(rows)
        # The rows in binary32, and two (rows, width) regions the layers
        # write in turn.
        h, *bufs = self._scratch_arrays(
            (n, self.n_obs), (n * self._width,), (n * self._width,), dtype=np.float32
        )
        with np.errstate(over="ignore", invalid="ignore"):
            np.copyto(h, rows, casting="same_kind")
            # The first layer's inputs differ by the cast.
            delta = np.full(self.n_obs, _U32 * _magnitude(h) + _TINY32)
            for (w32, b32, relu, abs_w, mag, mag32, abs_b, abs_b32), buf in zip(
                self._screen_arrays, itertools.cycle(bufs)
            ):
                cols = len(w32)
                top = _magnitude(h)
                gap = delta @ abs_w
                base = top * mag + abs_b
                spread = gap + base
                pad = _TINY32 * (2 * cols * top + mag32 + (4 * cols + 4))
                reach32 = top * mag32 + abs_b32 + pad
                err32 = _gamma(cols + 1, _U32) * reach32
                delta = gap + _U32 * base + _gamma(cols + 1) * spread + err32 + pad
                delta *= 1.0 + _gamma(cols + 16)
                fits = (spread <= _SPREAD_LIMIT) & (reach32 + err32 <= _REACH_LIMIT32)
                delta = np.where(fits, delta, np.inf)
                h = np.matmul(h, w32, out=buf[: n * len(b32)].reshape(n, len(b32)))
                h += b32
                if relu:
                    np.maximum(h, 0.0, out=h)
        return h.astype(np.float64), delta

    def eval_boxes(self, lb: np.ndarray, ub: np.ndarray) -> Bounds:
        self._check_rows(lb, ub)
        n = len(lb)
        # Two plane regions the layers write in turn, the terms, their scratch.
        terms_size = max(w3[..., 0].size for w3, *_ in self._box_arrays) * n
        regions, terms, other = self._scratch_arrays(
            (2, 3 * max(self.n_obs, self._width) * n), (terms_size,), (terms_size,)
        )
        planes = regions[0][: 3 * lb.size].reshape(3, self.n_obs, n)
        # Cast, then negate: negated in int64, -2**63 would stay -2**63.
        np.negative(lb.T, out=planes[0], dtype=np.float64)
        np.copyto(planes[1], ub.T)
        planes[2] = 1.0
        for layer, (w3, bias2, limit, relu) in enumerate(self._box_arrays):
            # Inside the limit every input is finite (a NaN fails the
            # comparisons) and no sum overflows.
            bounds = planes[:2]
            if n and not -limit < bounds.min() <= bounds.max() < limit:
                inside = ((-limit < bounds) & (bounds < limit)).all(axis=(0, 1))
                i = int(inside.argmin())
                box = map("[{!r}, {!r}]".format, lb[i].tolist(), ub[i].tolist())
                raise ValueError(
                    f"network layer {layer} input overflows its limit {limit!r} "
                    f"on Box({' x '.join(box)})"
                )
            shape = (*w3.shape[:2], n)
            work = (buf[: math.prod(shape)].reshape(shape) for buf in (terms, other))
            acc = _layer_up(planes.transpose(1, 0, 2), w3, bias2, *work)
            rows = len(bias2) // 2
            halves = acc.reshape(2, rows, n)
            planes = regions[(layer + 1) % 2][: 3 * rows * n].reshape(3, rows, n)
            if relu:
                np.minimum(halves[0], -0.0, out=planes[0])
                np.maximum(halves[1], 0.0, out=planes[1])
            else:
                planes[:2] = halves
            planes[2] = 1.0
        return -planes[0].T, planes[1].T.copy()


def _magnitude(h: np.ndarray) -> float:
    """The screen's M for its binary32 inputs h: their largest magnitude
    plus 2^-126, as a maximum taken with subnormals read as zero may miss
    one; NaN if h holds a NaN."""
    return float(np.maximum(h.max(initial=0.0), -h.min(initial=0.0))) + _TINY32


def _overflow_limit(wt: np.ndarray, bias: np.ndarray) -> float:
    """The input magnitude below which no product or sum of _layer_up's
    pass through a layer with weights wt (cols, rows) and bias reaches
    2^1022 (the module docstring gives the argument); eval_boxes refuses a
    batch with an input to the layer at or beyond it."""
    room = 2.0**1021 - float(np.abs(bias).max())
    spread = float(np.abs(wt).sum(axis=0).max())
    return room / spread if spread > 0.0 else math.copysign(math.inf, room)


def _layer_up(
    stack: np.ndarray,
    w3: np.ndarray,
    bias2: np.ndarray,
    terms: np.ndarray,
    other: np.ndarray,
) -> np.ndarray:
    """One layer of the box pass before its activation, for inputs inside
    its _overflow_limit: the (2 * rows, boxes) upper bounds of the image of
    the inputs' intervals [l, u] under w2 = [-w | w] plus bias2, every
    product and add rounded up, that is the negated lower bounds of the
    layer's sums over their upper bounds, as a view of terms. stack is the
    (inputs, 3, boxes) stack (-l, u, 1), w3 the (inputs, 2 * rows, 3)
    stacked weights of w2, bias2 the (2 * rows, 1) column [-b | b] with no
    -0.0; terms and other are float64 scratch of shape (inputs, 2 * rows,
    boxes)."""
    scratch = other.view(np.int64)
    # One exact BLAS product gives every term with no -0.0; rounded up and
    # -0.0 mapped out again, the terms give no column sum -0.0, so the sums
    # take the bare step.
    np.matmul(w3, stack, out=terms)
    _step_up(terms, scratch)
    np.add(terms, 0.0, out=terms)
    acc = terms[0]
    scratch = scratch[0]
    for t in terms[1:]:
        np.add(acc, t, out=acc)
        _step_up(acc, scratch)
    np.add(acc, bias2, out=acc)
    _step_up(acc, scratch)
    return acc


def _step_up(x: np.ndarray, scratch: np.ndarray) -> None:
    """np.nextafter(x, np.inf) in place, bit for bit, for a float64 array x
    that holds no -0.0, no +inf and no NaN: adding one to the int64 view of
    a float that is not negative, and subtracting one from that of a
    negative float, steps it to its neighbour towards +inf. scratch is an
    int64 array of x's shape that the step overwrites."""
    bits = x.view(np.int64)
    # sign(bits) | 1 is (bits >> 63) | 1, +1 or -1, and numpy's int64 sign
    # is the cheaper of the two on L1-sized arrays.
    np.sign(bits, out=scratch)
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
        return MlpModel(layers)
    except ValueError as exc:
        raise ValueError(f"weight file {path}: {exc}") from exc
