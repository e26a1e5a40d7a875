"""The numpy kernels against plain-Python references.

The trilateration distances, the descent's and the network's point passes,
the network's box pass and the batched error evaluation must give the same
floats, bit for bit, as the scalar loops below, which perform the same IEEE
operations in the same order one value at a time. Every model's eval_boxes
must give each row of a batch of bound arrays the bounds of a one-box
reference; the box references are loops of interval operations, with the
scalar product, quotient and unit direction below. The box passes of the
trilateration model, the descent and the network must also contain the
exact value, checked against mpmath, and so must the error objective of
each committed scenario, end to end.
"""

import dataclasses
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from estbound.interval import (
    Interval,
    IntervalBox,
    _make,
    iadd,
    imul,
    isqr,
    isqrt,
    isub,
)
from estbound import mlp
from estbound.mlp import MlpLayer, MlpModel, _step_up, load_mlp
from estbound.models import (
    ConstantEstimator,
    GradientDescentEstimator,
    IdentityEstimator,
    IdentityObservation,
    TrilaterationModel,
    _UNIT_BOUND,
    _first_max,
    _first_min,
)
from estbound.pipeline import load_scenario, run_validate
from conftest import bounds_of
from test_interval import irelu


def reference_distances(landmarks, x):
    """Scalar trilateration: the distance from x to each landmark."""
    x0, x1 = float(x[0]), float(x[1])
    out = []
    for ax, ay in landmarks:
        dx = ax - x0
        dy = ay - x1
        out.append(math.sqrt(dx * dx + dy * dy))
    return tuple(out)


def reference_eval_point(model, y):
    """Scalar forward pass: per output, sum the weighted inputs in column
    order starting from 0.0, add the bias, then apply relu."""
    values = [float(v) for v in y]
    for layer in model.layers:
        out = []
        for row, b in zip(layer.weights, layer.bias):
            acc = 0.0
            for w, v in zip(row, values):
                acc += w * v
            acc += b
            if layer.activation == "relu" and acc < 0.0:
                acc = 0.0
            out.append(acc)
        values = out
    return tuple(values)


def reference_descent_point(est, y):
    """Scalar descent: per step, sum each landmark's gradient term in
    landmark order starting from 0.0, skipping a landmark the iterate sits
    on, then take the step."""
    x0, x1 = est.init
    for _ in range(est.iterations):
        gx = 0.0
        gy = 0.0
        for (ax, ay), yi in zip(est.observation.landmarks, y):
            dx = x0 - ax
            dy = x1 - ay
            d = math.sqrt(dx * dx + dy * dy)
            if d == 0.0:
                continue
            r = d - yi
            ux = dx / d
            uy = dy / d
            t = 2.0 * r
            gx += t * ux
            gy += t * uy
        x0 = x0 - est.step * gx
        x1 = x1 - est.step * gy
    return (x0, x1)


def _mul_scalar(w, a):
    """The product of the float w and the interval a, outward-rounded: the
    bounds of imul(Interval(w, w), a) from two products instead of four."""
    if w >= 0.0:
        lo = w * a.lb
        hi = w * a.ub
    else:
        lo = w * a.ub
        hi = w * a.lb
    return _make(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


def _div(a, b):
    """Quotient for a strictly positive divisor, outward-rounded."""
    q0 = a.lb / b.lb
    q1 = a.lb / b.ub
    q2 = a.ub / b.lb
    q3 = a.ub / b.ub
    lo = math.nextafter(min(q0, q1, q2, q3), -math.inf)
    hi = math.nextafter(max(q0, q1, q2, q3), math.inf)
    return _make(lo, hi)


def _unit_direction(num, dist):
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


def reference_eval_box(model, box):
    """Scalar interval forward pass with the outward-rounded operations."""
    values = list(box.components)
    for layer in model.layers:
        out = []
        for row, b in zip(layer.weights, layer.bias):
            acc = _mul_scalar(row[0], values[0])
            for w, v in zip(row[1:], values[1:]):
                acc = iadd(acc, _mul_scalar(w, v))
            acc = iadd(acc, Interval(b, b))
            if layer.activation == "relu":
                acc = irelu(acc)
            out.append(acc)
        values = out
    return IntervalBox(values)


def reference_distances_box(model, box):
    """Scalar trilateration box pass: per landmark, the distance enclosure."""
    out = []
    for ax, ay in model.landmarks:
        dx = isub(Interval(ax, ax), box[0])
        dy = isub(Interval(ay, ay), box[1])
        out.append(isqrt(iadd(isqr(dx), isqr(dy))))
    return IntervalBox(out)


def reference_descent_box(est, box):
    """Scalar descent box pass: the steps of reference_descent_point in
    interval arithmetic, each direction enclosed by _unit_direction."""
    x0, x1 = Interval(est.init[0], est.init[0]), Interval(est.init[1], est.init[1])
    for _ in range(est.iterations):
        gx = gy = Interval(0.0, 0.0)
        for (ax, ay), y in zip(est.observation.landmarks, box):
            dx = isub(x0, Interval(ax, ax))
            dy = isub(x1, Interval(ay, ay))
            d = isqrt(iadd(isqr(dx), isqr(dy)))
            t = _mul_scalar(2.0, isub(d, y))
            gx = iadd(gx, imul(t, _unit_direction(dx, d)))
            gy = iadd(gy, imul(t, _unit_direction(dy, d)))
        x0 = isub(x0, _mul_scalar(est.step, gx))
        x1 = isub(x1, _mul_scalar(est.step, gy))
    return IntervalBox([x0, x1])


def reference_identity_error_vector(n, box):
    """Scalar identity override of error_vector_box, for g(x) = x: per
    component, the noise bounds stepped outward as iadd(0, e) steps them,
    padded by 4 ulp(max(|x|, |C|, 1)) and negated, as (lb, ub) pairs."""
    comps = box.components
    out = []
    for x, e in zip(comps, comps[n:]):
        lo = math.nextafter(e.lb, -math.inf)
        hi = math.nextafter(e.ub, math.inf)
        pad = 4.0 * math.ulp(max(-x.lb, x.ub, -lo, hi, 1.0))
        out.append((-(hi + pad), -(lo - pad)))
    return out


def reference_error(obj, x, e, estimate):
    """Scalar error_point with the estimator's point pass given."""
    if isinstance(obj.observation, TrilaterationModel):
        ideal = reference_distances(obj.observation.landmarks, x)
    else:
        assert isinstance(obj.observation, IdentityObservation)
        ideal = x
    y = [yi + ei for yi, ei in zip(ideal, e)]
    acc = 0.0
    for xi, xh in zip(x, estimate(y)):
        d = xi - xh
        acc += d * d
    return math.sqrt(acc)


def bits(values):
    # float.hex tells -0.0 from 0.0.
    return [float(v).hex() for v in values]


def box_bits(box):
    return [(c.lb.hex(), c.ub.hex()) for c in box]


def rows_bits(lb, ub):
    """box_bits of each row of two bound arrays."""
    return [
        list(zip(bits(lows), bits(highs)))
        for lows, highs in zip(lb.tolist(), ub.tolist())
    ]


@pytest.fixture(scope="module")
def net(scenario_dir):
    return load_mlp(scenario_dir / "mlp_3x32x32x2.json")


def with_layer(model, index, weights=None, bias=None):
    layers = list(model.layers)
    old = layers[index]
    layers[index] = MlpLayer(
        weights=old.weights if weights is None else weights,
        bias=old.bias if bias is None else bias,
        activation=old.activation,
    )
    return MlpModel(layers)


def boundary_model(model, y, index):
    """model with layer `index`'s bias chosen so that every pre-activation
    of that layer is exactly 0.0 at input y."""
    values = list(y)
    if index:
        values = list(reference_eval_point(MlpModel(model.layers[:index]), y))
    bias = []
    for row in model.layers[index].weights:
        acc = 0.0
        for w, v in zip(row, values):
            acc += w * v
        bias.append(-acc)
    return with_layer(model, index, bias=tuple(bias))


def zeroed_model(model):
    """model with a column of 0.0 weights in layer 0, a row of -0.0 weights
    in layer 1, and an output whose weights and bias are all -0.0 (the sum
    starts from 0.0, so it is 0.0, not -0.0)."""
    w0 = tuple((row[0], 0.0, row[2]) for row in model.layers[0].weights)
    w1 = list(model.layers[1].weights)
    w1[3] = tuple(-0.0 for _ in w1[3])
    last = model.layers[-1]
    w2 = (last.weights[0], tuple(-0.0 for _ in last.weights[1]))
    model = with_layer(with_layer(model, 0, weights=w0), 1, weights=tuple(w1))
    return with_layer(model, 2, weights=w2, bias=(last.bias[0], -0.0))


def sample_boxes(rng, center, count):
    boxes = []
    for _ in range(count):
        bounds = []
        for c in center:
            w = rng.choice([0.0, 1e-9, rng.uniform(0, 0.5), rng.uniform(0, 5)])
            lo = c - rng.uniform(0, w)
            bounds.append((lo, lo + w))
        boxes.append(IntervalBox.from_bounds(bounds))
    return boxes


def check_points(model, rows, reference=reference_eval_point):
    rows = np.array(rows, dtype=np.float64)
    expected = [bits(reference(model, row)) for row in rows.tolist()]
    # The passes read their rows feature-major; the memory order of the
    # input array must not matter.
    for batch in (rows, np.asfortranarray(rows)):
        out = model.eval_points(batch)
        assert out.shape == (len(rows), model.n_params)
        assert [bits(r) for r in out] == expected
    for row, want in zip(rows.tolist(), expected):
        assert bits(model.eval_point(row)) == want


def check_boxes(model, boxes, reference=reference_eval_box):
    expected = [box_bits(reference(model, box)) for box in boxes]
    for box, want in zip(boxes, expected):
        assert box_bits(model.eval_box(box)) == want
    # Batches of 1, 2 and 3 boxes: each box's result must not depend on the
    # boxes evaluated next to it.
    for size in (1, 2, 3):
        for start in range(0, len(boxes), size):
            batch = boxes[start : start + size]
            lb, ub = model.eval_boxes(*bounds_of(batch, boxes[0].dim))
            assert lb.dtype == ub.dtype == np.float64
            assert lb.shape == ub.shape == (len(batch), len(expected[0]))
            assert rows_bits(lb, ub) == expected[start : start + size]
    lb, ub = model.eval_boxes(*bounds_of([], boxes[0].dim))
    assert lb.shape == ub.shape == (0, len(expected[0]))


class TestNetworkBitIdentity:

    def test_random_inputs(self, net):
        rng = random.Random(3)
        rows = [[rng.uniform(-50, 50) for _ in range(3)] for _ in range(200)]
        check_points(net, rows)
        boxes = []
        for row in rows[:100]:
            boxes += sample_boxes(rng, row, 1)
        check_boxes(net, boxes)

    @pytest.mark.parametrize("index", [0, 1])
    def test_relu_boundary(self, net, index):
        y = (12.5, 7.25, 30.0)
        model = boundary_model(net, y, index)
        check_points(model, [y, [v + 1e-9 for v in y], [v - 1e-9 for v in y]])
        rng = random.Random(11 + index)
        point = IntervalBox.from_bounds(zip(y, y))
        check_boxes(model, [point] + sample_boxes(rng, y, 30))

    def test_signed_zeros_and_zero_weights(self, net):
        rng = random.Random(5)
        rows = [
            (-0.0, 5.0, -0.0),
            (0.0, -0.0, 0.0),
            (-0.0, -0.0, -0.0),
            (3.0, -0.0, 9.5),
        ]
        boxes = [
            IntervalBox.from_bounds([(-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)]),
            IntervalBox.from_bounds([(-0.0, 1.0), (-2.0, -0.0), (0.0, 3.0)]),
            IntervalBox.from_bounds([(-0.0, -0.0), (4.0, 4.5), (-1.0, -0.0)]),
        ]
        for model in (net, zeroed_model(net)):
            more = [[rng.uniform(-5, 5) for _ in range(3)] for _ in range(20)]
            check_points(model, rows + more)
            check_boxes(model, boxes + sample_boxes(rng, (1.0, -2.0, 3.0), 20))

    def test_empty_batches(self, net):
        lb, ub = net.eval_boxes(np.zeros((0, 3)), np.zeros((0, 3)))
        assert lb.shape == ub.shape == (0, 2)
        assert net.eval_points(np.zeros((0, 3))).shape == (0, 2)

    def test_degenerate_box_components(self, net):
        rng = random.Random(7)
        boxes = []
        for _ in range(40):
            y = [rng.uniform(0, 45) for _ in range(3)]
            flat = rng.randrange(3)
            bounds = [
                (v, v) if i == flat else (v, v + rng.uniform(0, 2))
                for i, v in enumerate(y)
            ]
            boxes += [
                IntervalBox.from_bounds(bounds),
                IntervalBox.from_bounds(zip(y, y)),
            ]
        check_boxes(net, boxes)

    def test_negative_weight_on_zero_bound(self):
        # An upper bound takes a negative weight times a lower bound of 0.0,
        # a term of -0.0, which rounds up to 5e-324 as in the scalar pass.
        layers = [
            MlpLayer(((-1.0, 2.0), (-3.0, -0.5)), (0.0, -0.0), "relu"),
            MlpLayer(((-2.0, 1.0),), (0.0,), "linear"),
        ]
        model = MlpModel(layers)
        first = MlpModel(layers[:1])
        boxes = [
            IntervalBox.from_bounds([(0.0, 1.0), (-0.0, 0.0)]),
            IntervalBox.from_bounds([(0.0, 0.0), (0.0, 4.0)]),
        ]
        check_boxes(model, boxes)
        check_boxes(first, boxes)
        # Both terms of the first neuron are zeros stepped to 5e-324; their
        # sum and the bias add each step once more.
        assert first.eval_box(boxes[0])[0].ub == 4 * 5e-324

    def test_column_sum_of_negative_zeros(self):
        # The first two upper-bound terms, -1e-300 * (5e-324 / 1e-300), each
        # round to -5e-324 and step up to -0.0, and so does their sum. The
        # rounding must step that sum as +0.0: stepped on its own bits it
        # becomes a NaN, which the next step wraps back to -0.0, losing the
        # third term (the upper bound came out 5e-324).
        model = MlpModel([MlpLayer(((-1e-300, -1e-300, 1.0),), (0.0,), "linear")])
        y = 5e-324 / 1e-300
        box = IntervalBox.from_bounds([(y, y), (y, y), (100.0, 100.0)])
        check_boxes(model, [box])
        assert model.eval_box(box)[0].ub >= 100.0

    def test_bias_add_to_a_negative_zero_sum(self):
        # The upper bound's terms round up to -1e-323 and 5e-324, and their
        # sum, -5e-324, steps up to -0.0. Added to the bias -0.0 it stays
        # -0.0, which the bare step would turn into a NaN; the pass keeps
        # -0.0 out of the bias, and the bound is 5e-324.
        model = MlpModel([MlpLayer(((-1e-300, 1.0),), (-0.0,), "linear")])
        y = 1.5e-323 / 1e-300
        box = IntervalBox.from_bounds([(y, y), (0.0, 0.0)])
        check_boxes(model, [box])
        assert model.eval_box(box)[0].ub == 5e-324

    @pytest.mark.parametrize("width", [1, 15, 16, 17, 33])
    def test_blocked_point_pass(self, width):
        # The point pass works through a layer 16 outputs at a time: layers
        # narrower than, equal to and wider than one block, under an input
        # wider than every layer, at batch sizes on both sides of 2730 rows,
        # where numpy's broadcast multiply changes path (1696 is the last
        # chunk of a 100k-sample oracle).
        rng = random.Random(width)
        sizes = [width + 2, width, width, width]
        layers = []
        for cols, act in zip(sizes, ("relu", "linear", "relu")):
            weights = [[rng.uniform(-2, 2) for _ in range(cols)] for _ in range(width)]
            weights[0][-1] = 0.0
            bias = [rng.choice([0.0, -0.0, rng.uniform(-1, 1)]) for _ in range(width)]
            layers.append(MlpLayer(tuple(map(tuple, weights)), tuple(bias), act))
        model = MlpModel(layers)
        rows = np.random.default_rng(width).uniform(-3, 3, (4096, width + 2))
        rows[::5, 0] = -0.0
        expected = [bits(reference_eval_point(model, row)) for row in rows.tolist()]
        for k in (0, 1, 1696, 2048, 2049, 2730, 2731, 4096):
            for batch in (rows[:k], np.asfortranarray(rows[:k])):
                out = model.eval_points(batch)
                assert out.shape == (k, width)
                assert [bits(r) for r in out.tolist()] == expected[:k]


@pytest.mark.parametrize("size", [7, 64, 4096, 131072])
def test_maximum_is_relu(size):
    # Both network passes apply relu as np.maximum(x, 0.0, out=x), which is
    # `0.0 if x <= 0.0 else x` bit for bit only while numpy returns the
    # second operand of two zeros and a NaN operand with its payload. numpy
    # picks its loop by length and processor, so each length is checked on
    # the running host.
    patterns = [0x8000000000000000, 0, 0x7FF8000000000123, 0xFFF8000000000456]
    patterns += [0x7FF0000000000001, 0x8000000000000001, 1, 0xFFF0000000000000]
    patterns += [0x7FF0000000000000, 0xBFF0000000000000, 0x3FF0000000000000]
    x = np.resize(np.array(patterns, dtype=np.uint64).view(np.float64), size)
    with np.errstate(invalid="ignore"):
        want = np.where(x <= 0.0, 0, x.view(np.int64))
        np.maximum(x, 0.0, out=x)
    assert (x.view(np.int64) == want).all()


# Weights and bounds for the box pass's product stage: signed zeros, the
# smallest subnormal and normal, and magnitudes whose products are
# subnormal (1e-160 * 1e-160) or underflow to zero (1e-170 * 1e-170), among
# floats small enough that no product overflows.
stage_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-160, -1e-170]),
    st.floats(-1e150, 1e150),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stacked_product_is_one_rounded_product(data):
    # Each entry of the stacked np.matmul holds one product and exact
    # zeros, so it must be the element-by-element upper bound of the weight
    # times the input's interval, -0.0 mapped to +0.0, whatever order,
    # fused multiply-adds, threads or kernel the BLAS picks for the shape.
    # A BLAS that flushes subnormals to zero fails here.
    inputs, rows, boxes = (data.draw(st.integers(1, n)) for n in (40, 40, 70))
    weights = data.draw(arrays(np.float64, (rows, inputs), elements=stage_floats))
    ends = data.draw(arrays(np.float64, (2, inputs, boxes), elements=stage_floats))
    # Ordered ends, equal ends, and the zero pairs [0.0, -0.0], [-0.0, 0.0].
    first, second = ends
    equal = data.draw(arrays(np.bool_, (inputs, boxes)))
    swap = ~equal & (second < first)
    lower = np.where(swap, second, first)
    upper = np.where(equal, first, np.where(swap, first, second))
    layer = MlpLayer(tuple(map(tuple, weights.tolist())), (0.0,) * rows, "linear")
    w3 = MlpModel([layer])._box_arrays[0][0]
    w2 = np.concatenate((-weights.T, weights.T), axis=1)
    stack = mlp._fill_stack(np.empty(3 * inputs * boxes), lower, upper, relu=False)
    got = np.matmul(w3, stack, out=np.empty((inputs, 2 * rows, boxes)))
    v = w2[:, :, None]
    want = np.where(v > 0, v * upper[:, None], v * lower[:, None]) + 0.0
    assert (got.view(np.int64) == want.view(np.int64)).all()


def in_step_domain(pattern):
    """Whether an int64 bit pattern is in _step_up's domain: every float but
    -0.0, +inf and the NaNs."""
    neg_zero, inf = -(2**63), 0x7FF0000000000000
    magnitude = pattern & (2**63 - 1)
    return pattern != neg_zero and (magnitude < inf or pattern == neg_zero + inf)


def from_bits(pattern):
    return float(np.array(pattern, dtype=np.int64).view(np.float64))


class TestStepUp:
    """The bare step of the box pass's column sums against np.nextafter,
    over its domain."""

    @given(
        st.lists(
            st.integers(-(2**63), 2**63 - 1).filter(in_step_domain),
            min_size=1,
            max_size=50,
        )
    )
    def test_arbitrary_bit_patterns(self, patterns):
        x = np.array(patterns, dtype=np.int64).view(np.float64)
        with np.errstate(over="ignore"):
            expected = np.nextafter(x, np.inf)
        got = x.copy()
        _step_up(got, np.empty(x.shape, dtype=np.int64))
        assert bits(got) == bits(expected)

    def test_domain_edges(self):
        tiny = 5e-324
        largest = 1.7976931348623157e308
        values = [0.0, tiny, -tiny, 2.0**-1022, -(2.0**-1022), largest, -largest]
        values.append(-math.inf)
        got = np.array(values)
        _step_up(got, np.empty(got.shape, dtype=np.int64))
        assert bits(got) == bits(math.nextafter(v, math.inf) for v in values)
        # -5e-324 steps to -0.0 (which the step itself must not be given)
        # and the largest float to +inf.
        assert bits(got[[2, 5]]) == bits([-0.0, math.inf])


def guard_network(case, layer):
    """The first layer + 1 layers of a 2-3-2-1 network, linear but for the
    relu of layer 1. Layer 2's weights are large enough that its inputs
    reach its overflow limit before layer 1's reach layer 1's. In the
    "bias" case the last layer's bias takes most of its limit's room,
    2^1021."""
    layers = [
        MlpLayer(
            ((3.0, -2.0), (0.5, 1.0), (-1.0, -0.25)), (0.25, -0.5, 0.0), "linear"
        ),
        MlpLayer(((1.5, -4.0, 2.0), (0.125, 1.0, -1.0)), (1.0, -2.0), "relu"),
        MlpLayer(((16.0, -8.0),), (0.5,), "linear"),
    ][: layer + 1]
    if case == "bias":
        big = tuple(f * 2.0**1021 for f in (0.875, -0.75, 0.5)[: layers[-1].rows])
        layers[-1] = MlpLayer(layers[-1].weights, big, layers[-1].activation)
    return MlpModel(layers)


def scaled_boxes(scale):
    """Three boxes scaled by scale and one small box."""
    base = [
        [(-1.0, 0.5), (0.25, 1.0)],
        [(-0.75, -0.5), (-1.0, 1.0)],
        [(0.0, 0.0), (1.0, 1.0)],
    ]
    boxes = [[(scale * lo, scale * hi) for lo, hi in box] for box in base]
    return [IntervalBox.from_bounds(b) for b in boxes + [[(0.1, 0.2), (-0.3, 0.4)]]]


def largest_input(model, layer, boxes):
    """The largest bound magnitude that reaches the given layer."""
    lb, ub = bounds_of(boxes, 2)
    if layer:
        lb, ub = MlpModel(model.layers[:layer]).eval_boxes(lb, ub)
    return max(np.abs(lb).max(), np.abs(ub).max())


def exact_eval_box(model, box):
    """The network's natural interval extension over box in exact
    rationals, as (lower, upper) Fractions per output: per neuron, the bias
    plus the smaller and the larger end product of each weight times its
    input's interval, then relu. Floats are exact rationals, so this
    contains the exact image of box with no rounding in it, and the float
    pass must contain it."""
    values = [(Fraction(c.lb), Fraction(c.ub)) for c in box]
    for layer in model.layers:
        out = []
        for row, b in zip(layer.weights, layer.bias):
            low = high = Fraction(b)
            for w, (lo, hi) in zip(map(Fraction, row), values):
                low += min(w * lo, w * hi)
                high += max(w * lo, w * hi)
            if layer.activation == "relu":
                low, high = max(low, Fraction(0)), max(high, Fraction(0))
            out.append((low, high))
        values = out
    return values


class TestOverflowGuard:
    """Both sides of each layer's overflow limit: below it the pass must
    give reference_eval_box's bounds bit for bit and contain the exact
    image of each box; at and above it the pass must refuse the batch and
    name the layer, the limit and the batch's first box beyond it."""

    @pytest.mark.parametrize("case", ["weights", "bias"])
    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_just_below_and_above_the_limit(self, case, layer):
        model = guard_network(case, layer)
        limit = model._box_arrays[layer][2]
        # Adjacent scales whose inputs to the layer fall below the limit and
        # reach it: double a scale until they reach it, then bisect the bits
        # of the positive floats between.
        def below_limit(pattern):
            boxes = scaled_boxes(from_bits(pattern))
            return largest_input(model, layer, boxes) < limit

        below = above = int(np.array(1.0).view(np.int64))
        while below_limit(above):
            below, above = above, int(np.array(2 * from_bits(above)).view(np.int64))
        while above - below > 1:
            mid = (below + above) // 2
            if below_limit(mid):
                below = mid
            else:
                above = mid
        # Below the limit, every output's exact sum_j |w_j| M + |b| is within
        # 0.1% of 2^1021: the premise of the module docstring's argument
        # that no sum overflows.
        weights, bias = model.layers[layer].weights, model.layers[layer].bias
        boxes = scaled_boxes(from_bits(below))
        largest = largest_input(model, layer, boxes)
        spread = max(sum(map(abs, map(Fraction, row))) for row in weights)
        room = max(map(abs, map(Fraction, bias)))
        assert Fraction(largest) * spread + room < 2**1021 * 1.001
        lb, ub = model.eval_boxes(*bounds_of(boxes, 2))
        assert np.isfinite(lb).all() and np.isfinite(ub).all()
        check_boxes(model, boxes)
        for low, high, box in zip(lb.tolist(), ub.tolist(), boxes):
            exact = exact_eval_box(model, box)
            assert all(l <= e_lo for l, (e_lo, _) in zip(map(Fraction, low), exact))
            assert all(e_hi <= u for u, (_, e_hi) in zip(map(Fraction, high), exact))
        # At the next scale up, the first box whose input to the layer
        # reaches the limit is refused.
        boxes = scaled_boxes(from_bits(above))
        first = next(b for b in boxes if largest_input(model, layer, [b]) >= limit)
        with pytest.raises(ValueError) as error:
            model.eval_boxes(*bounds_of(boxes, 2))
        assert str(error.value) == (
            f"network layer {layer} input overflows its limit {limit!r} on {first!r}"
        )

    def test_overflowing_boxes(self):
        # test_mlp's overflow network with a unit weight where it has a zero.
        # The second box lies outside layer 0's limit, about 2.2e297, so a
        # batch holding it is refused at layer 0, and the first box alone
        # passes.
        model = MlpModel(
            [
                MlpLayer(((1e10,), (1e-300,)), (0.0, 0.0), "relu"),
                MlpLayer(((1.0, 1.0),), (0.5,), "relu"),
                MlpLayer(((1.0,),), (0.0,), "linear"),
            ]
        )
        boxes = [
            IntervalBox.from_bounds([(0.0, 1.0)]),
            IntervalBox.from_bounds([(1e300, 2e300)]),
        ]
        limit = model._box_arrays[0][2]
        with pytest.raises(ValueError) as error:
            model.eval_boxes(*bounds_of(boxes, 1))
        assert str(error.value) == (
            f"network layer 0 input overflows its limit {limit!r} on {boxes[1]!r}"
        )
        check_boxes(model, boxes[:1])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_nan_names_the_first_overflowing_box(self, zero):
        # Layer 1 weighs layer 0's first neuron by a zero of either sign, so
        # a box taking that neuron to infinity would make 0 * inf, a NaN
        # bound, there. Layer 0's limit is 2^1021 / 1e10, so the boxes
        # reaching 2e300 are refused before any such product, and so are an
        # infinite and a NaN input; the error must name layer 0 and the
        # first such box of the batch.
        model = MlpModel(
            [
                MlpLayer(((1e10,), (1.0,)), (0.0, 0.0), "linear"),
                MlpLayer(((zero, 1.0),), (0.5,), "linear"),
            ]
        )
        limit = model._box_arrays[0][2]
        fine = (0.0, 1.0)
        low = (-2e300, 1.0)
        high = (1.0, 2e300)
        both = (-2e300, 2e300)
        infinite = (1.0, math.inf)
        nan = (math.nan, math.nan)
        for batch, first in (
            ([fine, low, high, both], "[-2e+300, 1.0]"),
            ([fine, high, low], "[1.0, 2e+300]"),
            ([both, fine], "[-2e+300, 2e+300]"),
            ([fine, infinite, low], "[1.0, inf]"),
            ([fine, fine, nan], "[nan, nan]"),
            ([(-math.inf, 0.0)], "[-inf, 0.0]"),
        ):
            lb, ub = np.array(batch).T[:, :, None]
            with pytest.raises(ValueError) as error:
                model.eval_boxes(lb, ub)
            assert str(error.value) == (
                f"network layer 0 input overflows its limit {limit!r} on Box({first})"
            )
        check_boxes(model, [IntervalBox.from_bounds([fine])])


def test_network_scenario_takes_one_product_per_layer_pass(
    scenario_dir, monkeypatch
):
    # Every batch of the network scenario's search lies far inside each
    # layer's overflow limit, so the search must run to its cap with no
    # refusal, and every layer pass must take its products from one
    # stacked np.matmul: a guard that silently fails shows here in seconds.
    steps = []
    step_up = mlp._step_up

    def counting(x, scratch):
        steps.append(x.shape)
        step_up(x, scratch)

    products = []
    matmul = np.matmul

    def counting_matmul(*args, **kwargs):
        products.append(np.shape(args[0]))
        return matmul(*args, **kwargs)

    matmuls_per_pass = []
    layer_up = mlp._layer_up

    def counting_layer(*args):
        before = len(products)
        acc = layer_up(*args)
        matmuls_per_pass.append(len(products) - before)
        return acc

    scenario = dataclasses.replace(
        load_scenario(scenario_dir / "trilat_mlp.scn"),
        max_iterations=2000,
        oracle=None,
    )
    monkeypatch.setattr(mlp, "_step_up", counting)
    monkeypatch.setattr(mlp, "_layer_up", counting_layer)
    monkeypatch.setattr(np, "matmul", counting_matmul)
    report = run_validate(scenario)
    assert report.iterations == 2000
    assert len(steps) > 0
    # Three layers per batch, one product call per layer pass.
    assert len(matmuls_per_pass) % 3 == 0
    assert set(matmuls_per_pass) == {1}
    assert len(products) == len(matmuls_per_pass)


class TestDescentBitIdentity:
    """The descent's numpy point pass against reference_descent_point."""

    @pytest.fixture(scope="class")
    def est(self, scenario_dir):
        scenario = load_scenario(scenario_dir / "trilat_gd.scn")
        return scenario.build_objective().estimator

    @staticmethod
    def variant(est, **changes):
        kwargs = dict(iterations=est.iterations, step=est.step, init=est.init)
        return GradientDescentEstimator(est.observation, **dict(kwargs, **changes))

    def test_random_rows(self, est):
        rng = np.random.Generator(np.random.PCG64(4))
        params = rng.uniform(5, 25, size=(200, 2))
        noise = rng.uniform(-0.2, 0.2, size=(200, 3))
        rows = np.concatenate(
            (est.observation.eval_points(params) + noise, rng.uniform(0, 40, (100, 3)))
        )
        check_points(est, rows, reference_descent_point)

    @pytest.mark.parametrize("landmark", [0, 1, 2])
    def test_init_on_landmark(self, est, landmark):
        # The first step finds d == 0 for that landmark and skips its term.
        on = self.variant(est, init=est.observation.landmarks[landmark])
        rng = np.random.Generator(np.random.PCG64(landmark))
        check_points(on, rng.uniform(0, 40, size=(50, 3)), reference_descent_point)

    def test_signed_zeros(self):
        model = TrilaterationModel([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
        rows = [
            (-0.0, 5.0, -0.0),
            (0.0, -0.0, 0.0),
            (-0.0, -0.0, -0.0),
            (3.0, -0.0, 9.5),
        ]
        for init in ((-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, 10.0)):
            est = GradientDescentEstimator(model, iterations=5, step=0.01, init=init)
            check_points(est, rows, reference_descent_point)

    def test_one_row_and_empty_batch(self, est):
        check_points(est, [(12.0, 18.0, 7.5)], reference_descent_point)
        assert est.eval_points(np.zeros((0, 3))).shape == (0, 2)

    def test_overflow_propagates_silently(self, est):
        # The iterates overflow to inf, then NaN, as Python floats do; the
        # suite turns a numpy RuntimeWarning into an error.
        huge = self.variant(est, step=1e300)
        rows = np.random.Generator(np.random.PCG64(9)).uniform(0, 40, (20, 3))
        check_points(huge, rows, reference_descent_point)
        assert np.isnan(huge.eval_points(rows)).all()

    def test_row_width_checked(self, est):
        with pytest.raises(ValueError, match="dim 2"):
            est.eval_points(np.zeros((4, 2)))


class TestModelBoxBatches:
    """The other models' eval_boxes against their one-box references."""

    def test_trilateration(self, scenario_dir):
        obj = load_scenario(scenario_dir / "trilat_gd.scn").build_objective()
        tri = obj.observation
        rng = random.Random(23)
        centers = [(rng.uniform(-20, 30), rng.uniform(-20, 30)) for _ in range(10)]
        boxes = [b for c in centers for b in sample_boxes(rng, c, 2)]
        # Boxes holding a landmark, where a distance's lower bound is 0.
        for ax, ay in tri.landmarks:
            boxes.append(IntervalBox.from_bounds([(ax - 1, ax + 2), (ay, ay + 1)]))
        check_boxes(tri, boxes, reference_distances_box)

    @pytest.mark.parametrize("init", ["scenario", "on_landmark"])
    def test_descent(self, scenario_dir, init):
        est = load_scenario(scenario_dir / "trilat_gd.scn").build_objective().estimator
        if init == "on_landmark":
            est = GradientDescentEstimator(
                est.observation, est.iterations, est.step, est.observation.landmarks[1]
            )
        rng = random.Random(31)
        boxes = []
        for _ in range(7):
            x = (rng.uniform(5, 25), rng.uniform(5, 25))
            boxes += sample_boxes(rng, est.observation.eval_point(x), 1)
        check_boxes(est, boxes, reference_descent_box)

    def test_identity_and_constant(self):
        rng = random.Random(29)
        boxes = sample_boxes(rng, (1.0, -2.0, 3.0), 6) + [
            IntervalBox.from_bounds([(-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)])
        ]
        for model in (IdentityObservation(3), IdentityEstimator(3)):
            check_boxes(model, boxes, lambda model, box: box)
        constant = ConstantEstimator((15.0, -0.0), n_obs=3)
        value = IntervalBox.from_bounds(zip(constant.value, constant.value))
        check_boxes(constant, boxes, lambda model, box: value)


class TestDescentBoxPass:
    """The descent's numpy box pass against reference_descent_box, bit for
    bit, on boxes of widths 20/2^k and on degenerate and signed-zero boxes,
    under estimators whose iterates sit on a landmark, overflow or start
    far out."""

    @pytest.fixture(scope="class")
    def boxes(self, scenario_dir):
        obs = load_scenario(scenario_dir / "trilat_gd.scn").build_objective().observation
        rng = random.Random(37)
        boxes = []
        for k in range(13):
            width = 20.0 / 2**k
            for _ in range(3):
                center = obs.eval_point((rng.uniform(0, 25), rng.uniform(0, 25)))
                lows = [c - rng.uniform(0, width) for c in center]
                boxes.append(IntervalBox.from_bounds([(lo, lo + width) for lo in lows]))
        boxes += [
            IntervalBox.from_bounds([(12.0, 12.0), (18.0, 18.0), (7.5, 7.5)]),
            IntervalBox.from_bounds([(-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)]),
            IntervalBox.from_bounds([(-0.0, 1.0), (5.0, 5.0), (0.0, 40.0)]),
            IntervalBox.from_bounds([(-5.0, -0.0), (0.0, 0.0), (0.0, 40.0)]),
        ]
        return boxes

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"init": "landmark"},
            {"step": 1e300},
            {"init": (1e200, -1e200)},
            {"iterations": 20, "step": 0.3, "init": (-0.0, 0.0)},
        ],
        ids=["scenario", "on_landmark", "huge_step", "far_init", "signed_zero_init"],
    )
    def test_rows_equal_the_reference(self, scenario_dir, boxes, changes):
        est = load_scenario(scenario_dir / "trilat_gd.scn").build_objective().estimator
        if changes.get("init") == "landmark":
            changes = {"init": est.observation.landmarks[1]}
        est = TestDescentBitIdentity.variant(est, **changes)
        lb, ub = est.eval_boxes(*bounds_of(boxes, 3))
        got = rows_bits(lb, ub)
        assert got == [box_bits(reference_descent_box(est, box)) for box in boxes]
        if changes in ({"step": 1e300}, {"init": (1e200, -1e200)}):
            # Large intermediate values; each row still equals a one-box call.
            assert got == [box_bits(est.eval_box(box)) for box in boxes]
        if changes == {"step": 1e300}:
            assert np.isinf(lb).all() and np.isinf(ub).all()

    def test_nan_product_after_the_first(self):
        # At (-2 ulp(0), 1.0), dx to the landmark (0, 0) is [-3, -1] ulp(0):
        # its unit direction's upper bound rounds up from -ulp(0) to -0.0.
        # A noise bound of 1e308 makes t's lower bound -inf, so the second of
        # the four products, -inf * -0.0, is NaN. Python's min and max skip
        # it there; np.minimum and np.maximum would return it.
        model = TrilaterationModel([(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)])
        box = IntervalBox.from_bounds([(0.0, 1e308), (19.0, 21.0), (19.0, 21.0)])
        for iterations in (1, 2):
            est = GradientDescentEstimator(
                model, iterations=iterations, step=0.01, init=(-2 * 5e-324, 1.0)
            )
            lb, ub = est.eval_boxes(*bounds_of([box], 3))
            assert rows_bits(lb, ub) == [box_bits(reference_descent_box(est, box))]
            assert not np.isnan(lb).any() and not np.isnan(ub).any()
        assert lb.tolist() == [[-math.inf, -math.inf]]
        assert ub.tolist() == [[math.inf, math.inf]]

    def test_selection_takes_the_first_of_ties_and_nan_by_position(self):
        nan = math.nan
        rows = [
            (1.0, nan, 2.0, 3.0),
            (nan, 1.0, 2.0, 3.0),
            (3.0, 2.0, 1.0, nan),
            (0.0, -0.0, 1.0, -1.0),
            (-0.0, 0.0, -1.0, 1.0),
            (0.0, -0.0, 0.0, -0.0),
            (-0.0, 0.0, -0.0, 0.0),
            (math.inf, nan, -math.inf, nan),
        ]
        columns = tuple(np.array(c) for c in zip(*rows))
        assert bits(_first_min(columns)) == bits(min(row) for row in rows)
        assert bits(_first_max(columns)) == bits(max(row) for row in rows)
        # numpy's own reductions differ on these rows.
        assert bits(np.minimum.reduce(columns)) != bits(min(row) for row in rows)
        assert bits(np.maximum.reduce(columns)) != bits(max(row) for row in rows)


class TestIdentityErrorVector:
    """The identity estimator's array override of error_vector_box against
    its scalar reference, bit for bit, over one batch and box by box."""

    @staticmethod
    def check(boxes):
        n = boxes[0].dim // 2
        est, obs = IdentityEstimator(n), IdentityObservation(n)
        expected = [
            [(lo.hex(), hi.hex()) for lo, hi in reference_identity_error_vector(n, b)]
            for b in boxes
        ]
        for batch in [boxes] + [[b] for b in boxes]:
            lb, ub = est.error_vector_box(obs, *bounds_of(batch, 2 * n))
            assert lb.shape == ub.shape == (len(batch), n)
            got = [
                [(lo.hex(), hi.hex()) for lo, hi in zip(lows, highs)]
                for lows, highs in zip(lb.tolist(), ub.tolist())
            ]
            start = boxes.index(batch[0])
            assert got == expected[start : start + len(batch)]

    def test_powers_of_two(self):
        # S = max(|x|, |C|, 1) on, just below and just above a power of
        # two, where ulp(S) changes, from the noise or from the parameters.
        boxes = []
        for k in (0, 1, 2, 10, 52, 53, 100, 1000, 1023):
            p = 2.0**k
            below = math.nextafter(p, 0.0)
            above = math.nextafter(p, math.inf)
            for v in (p, below, above):
                boxes += [
                    IntervalBox.from_bounds(bounds)
                    for bounds in (
                        [(-v, 0.5), (0.0, 1.0), (-0.25, 0.0), (0.0, 0.0)],
                        [(0.0, 1.0), (-1.0, v), (-v, v), (-0.0, -0.0)],
                        [(0.0, 0.0), (0.0, 0.0), (-0.5, 0.5), (v, v)],
                    )
                ]
        self.check(boxes)

    @pytest.mark.parametrize("magnitude", [1.0, 1e3, 1e6])
    def test_random_magnitudes(self, magnitude):
        rng = random.Random(int(magnitude) + 41)
        boxes = []
        for _ in range(64):
            xs = [rng.uniform(-magnitude, magnitude) for _ in range(3)]
            halves = [rng.choice((0.0, rng.uniform(0, 1e-3 * magnitude))) for _ in xs]
            noise = [sorted(rng.uniform(-0.5, 0.5) for _ in "lu") for _ in xs]
            boxes.append(
                IntervalBox.from_bounds(
                    [(x - h, x + h) for x, h in zip(xs, halves)] + noise
                )
            )
        self.check(boxes)

    def test_infinite_and_overflowing_bounds(self):
        # An infinite S gives an infinite pad (np.spacing(inf) is NaN); a
        # finite S at the top of the range gives a sum that overflows.
        big = sys.float_info.max
        inf = math.inf
        unit = (0.0, 1.0)
        boxes = [
            IntervalBox.from_bounds(bounds)
            for bounds in (
                [(-inf, 1.0), unit, (-0.1, 0.1), (0.0, 0.0)],
                [unit, (0.0, inf), (-0.1, 0.1), (0.0, 0.0)],
                [unit, unit, (-0.1, inf), (-inf, 0.0)],
                [unit, unit, (inf, inf), (-inf, -inf)],
                [(0.0, big), unit, (-0.1, 0.1), (-big, big)],
                [unit, unit, (0.0, math.nextafter(big, 0.0)), (-1.0, 1.0)],
            )
        ]
        self.check(boxes)

    @given(
        st.lists(
            st.lists(
                st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
                min_size=4,
                max_size=4,
            ).map(lambda pairs: IntervalBox.from_bounds(map(sorted, pairs))),
            min_size=1,
            max_size=4,
            unique_by=repr,
        )
    )
    def test_arbitrary_floats(self, boxes):
        self.check(boxes)

    def test_empty_batch(self):
        lb, ub = IdentityEstimator(2).error_vector_box(
            IdentityObservation(2), np.zeros((0, 4)), np.zeros((0, 4))
        )
        assert lb.shape == ub.shape == (0, 2)


class TestErrorPointChunks:
    @pytest.mark.parametrize("name", ["trilat_mlp", "trilat_gd", "identity"])
    def test_chunk_equals_reference(self, scenario_dir, name):
        obj = load_scenario(scenario_dir / f"{name}.scn").build_objective()
        if isinstance(obj.estimator, MlpModel):
            estimate = lambda y: reference_eval_point(obj.estimator, y)  # noqa: E731
        elif isinstance(obj.estimator, GradientDescentEstimator):
            estimate = lambda y: reference_descent_point(obj.estimator, y)  # noqa: E731
        else:
            estimate = tuple  # the identity estimator
        box = obj.initial_box()
        rng = np.random.Generator(np.random.PCG64(1))
        lows, highs = [c.lb for c in box], [c.ub for c in box]
        rows = rng.uniform(lows, highs, size=(300, box.dim))
        n = obj.n_params
        values = obj.error_point(rows[:, :n], rows[:, n:])
        assert values.shape == (len(rows),)
        for row, value in zip(rows.tolist(), values):
            expected = reference_error(obj, row[:n], row[n:], estimate)
            assert float(value).hex() == expected.hex()
        x, e = rows[0, :n].tolist(), rows[0, n:].tolist()
        single = obj.error_point(x, e)
        assert isinstance(single, float)
        assert single.hex() == reference_error(obj, x, e, estimate).hex()

    def test_trilateration_rows_equal_eval_point(self, scenario_dir):
        obj = load_scenario(scenario_dir / "trilat_mlp.scn").build_objective()
        obs = obj.observation
        rng = np.random.Generator(np.random.PCG64(2))
        rows = rng.uniform(-30, 30, size=(200, 2))
        rows[0] = obs.landmarks[0]
        rows[1] = (-0.0, 0.0)
        for row, out in zip(rows.tolist(), obs.eval_points(rows)):
            expected = bits(reference_distances(obs.landmarks, row))
            assert bits(out) == expected
            assert bits(obs.eval_point(row)) == expected

    def test_row_width_checked(self, net):
        with pytest.raises(ValueError, match="dim 2"):
            net.eval_points(np.zeros((4, 2)))


class TestNetworkContainsExactValue:
    """The box pass against the network evaluated in mpmath at 60 digits,
    where the products of doubles are exact and each sum is off by at most
    1e-60 relative: far below the one-ulp outward steps being checked."""

    @staticmethod
    def exact(mpmath, model, y):
        values = [mpmath.mpf(v) for v in y]
        for layer in model.layers:
            out = []
            for row, b in zip(layer.weights, layer.bias):
                acc = mpmath.mpf(b)
                for w, v in zip(row, values):
                    acc += mpmath.mpf(w) * v
                if layer.activation == "relu" and acc < 0:
                    acc = mpmath.mpf(0)
                out.append(acc)
            values = out
        return values

    @pytest.mark.parametrize("which", ["bundled", "boundary", "zeroed"])
    def test_random_boxes(self, net, which):
        mpmath = pytest.importorskip("mpmath")
        model = {
            "bundled": net,
            "boundary": boundary_model(net, (12.5, 7.25, 30.0), 0),
            "zeroed": zeroed_model(net),
        }[which]
        rng = random.Random(13)
        with mpmath.workdps(60):
            for box in sample_boxes(rng, (12.5, 7.25, 30.0), 6) + sample_boxes(
                rng, (rng.uniform(0, 45), rng.uniform(0, 45), rng.uniform(0, 45)), 6
            ):
                out = model.eval_box(box)
                corner = [rng.choice((c.lb, c.ub)) for c in box]
                inside = [[rng.uniform(c.lb, c.ub) for c in box] for _ in range(3)]
                for y in [corner] + inside:
                    exact = self.exact(mpmath, model, y)
                    assert all(c.lb <= v <= c.ub for c, v in zip(out, exact))
                    point_out = model.eval_box(IntervalBox.from_bounds(zip(y, y)))
                    assert all(c.lb <= v <= c.ub for c, v in zip(point_out, exact))
                    assert point_out.contains(model.eval_point(y))


class TestRangeModelsContainExactValue:
    """The trilateration and descent box passes against the same maps
    evaluated in mpmath at 60 digits, at a corner and at inner points of
    random boxes. The descent's exact map skips a landmark term exactly
    where the iterate sits on the landmark, as its point pass does."""

    @staticmethod
    def exact_distances(mpmath, landmarks, x):
        x0, x1 = (mpmath.mpf(v) for v in x)
        return [mpmath.sqrt((ax - x0) ** 2 + (ay - x1) ** 2) for ax, ay in landmarks]

    @staticmethod
    def exact_descent(mpmath, est, y):
        x0, x1 = (mpmath.mpf(v) for v in est.init)
        step = mpmath.mpf(est.step)
        for _ in range(est.iterations):
            gx = gy = mpmath.mpf(0)
            for (ax, ay), yi in zip(est.observation.landmarks, y):
                dx, dy = x0 - ax, x1 - ay
                d = mpmath.sqrt(dx * dx + dy * dy)
                if d == 0:
                    continue
                t = 2 * (d - mpmath.mpf(yi))
                gx += t * dx / d
                gy += t * dy / d
            x0 -= step * gx
            x1 -= step * gy
        return [x0, x1]

    @staticmethod
    def check(model, boxes, exact, rng):
        for box in boxes:
            out = model.eval_box(box)
            corner = [rng.choice((c.lb, c.ub)) for c in box]
            inside = [[rng.uniform(c.lb, c.ub) for c in box] for _ in range(3)]
            for point in [corner] + inside:
                values = exact(point)
                assert all(c.lb <= v <= c.ub for c, v in zip(out, values))
                point_out = model.eval_box(IntervalBox.from_bounds(zip(point, point)))
                assert all(c.lb <= v <= c.ub for c, v in zip(point_out, values))
                assert point_out.contains(model.eval_point(point))

    def test_trilateration(self, scenario_dir):
        mpmath = pytest.importorskip("mpmath")
        obj = load_scenario(scenario_dir / "trilat_gd.scn").build_objective()
        tri = obj.observation
        rng = random.Random(17)
        centers = [(rng.uniform(-20, 30), rng.uniform(-20, 30)) for _ in range(20)]
        boxes = [b for c in centers for b in sample_boxes(rng, c, 2)]
        # Boxes holding a landmark inside, on an edge and at a corner.
        for ax, ay in tri.landmarks:
            boxes += [
                IntervalBox.from_bounds([(ax - 1, ax + 2), (ay - 0.5, ay + 0.25)]),
                IntervalBox.from_bounds([(ax, ax + 1), (ay - 1, ay + 1)]),
                IntervalBox.from_bounds([(ax - 3, ax), (ay, ay + 2)]),
            ]
        with mpmath.workdps(60):
            self.check(
                tri, boxes, lambda x: self.exact_distances(mpmath, tri.landmarks, x), rng
            )

    @pytest.mark.parametrize("init", ["scenario", "on_landmark"])
    def test_descent(self, scenario_dir, init):
        mpmath = pytest.importorskip("mpmath")
        obj = load_scenario(scenario_dir / "trilat_gd.scn").build_objective()
        est = obj.estimator
        if init == "on_landmark":
            est = GradientDescentEstimator(
                est.observation, est.iterations, est.step, est.observation.landmarks[1]
            )
        rng = random.Random(19)
        boxes = []
        for _ in range(6):
            x = (rng.uniform(5, 25), rng.uniform(5, 25))
            boxes += sample_boxes(rng, est.observation.eval_point(x), 2)
        with mpmath.workdps(60):
            self.check(est, boxes, lambda y: self.exact_descent(mpmath, est, y), rng)


class TestObjectiveContainsExactError:
    """objective_box of each committed scenario against the error
    ||x - psi(g(x) + e)|| evaluated in mpmath at 60 digits, at corners and
    inner points of random sub-boxes of the initial box, from the whole box
    down to points: the observation, the noise, the estimator (the identity
    estimator's padded error_vector_box and the constant one included) and
    the norm, end to end."""

    @staticmethod
    def exact_error(mpmath, obj, point):
        n = obj.n_params
        x = [mpmath.mpf(v) for v in point[:n]]
        if isinstance(obj.observation, TrilaterationModel):
            ideal = TestRangeModelsContainExactValue.exact_distances(
                mpmath, obj.observation.landmarks, point[:n]
            )
        else:
            ideal = x
        y = [g + mpmath.mpf(v) for g, v in zip(ideal, point[n:])]
        est = obj.estimator
        if isinstance(est, MlpModel):
            estimate = TestNetworkContainsExactValue.exact(mpmath, est, y)
        elif isinstance(est, GradientDescentEstimator):
            estimate = TestRangeModelsContainExactValue.exact_descent(mpmath, est, y)
        elif isinstance(est, ConstantEstimator):
            estimate = [mpmath.mpf(v) for v in est.value]
        else:
            assert isinstance(est, IdentityEstimator)
            estimate = y
        return mpmath.sqrt(sum((xi - xh) ** 2 for xi, xh in zip(x, estimate)))

    @pytest.mark.parametrize("name", ["constant", "identity", "trilat_gd", "trilat_mlp"])
    def test_random_sub_boxes(self, scenario_dir, name):
        mpmath = pytest.importorskip("mpmath")
        obj = load_scenario(scenario_dir / f"{name}.scn").build_objective()
        initial = obj.initial_box()
        rng = random.Random(23)
        boxes = [initial]
        for scale in [1.0, 1.0, 0.1, 1e-3, 1e-9, 0.0]:
            bounds = []
            for c in initial:
                lo = rng.uniform(c.lb, c.ub)
                bounds.append((lo, min(lo + scale * rng.uniform(0, c.width), c.ub)))
            boxes.append(IntervalBox.from_bounds(bounds))
        with mpmath.workdps(60):
            for box in boxes:
                out = obj.objective_box(box)
                corners = [[rng.choice((c.lb, c.ub)) for c in box] for _ in range(3)]
                inside = [[rng.uniform(c.lb, c.ub) for c in box] for _ in range(3)]
                for point in corners + inside:
                    exact = self.exact_error(mpmath, obj, point)
                    assert -out.ub <= exact <= -out.lb, (box, point)
