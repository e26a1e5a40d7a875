"""The numpy kernels against plain-Python references.

The trilateration distances, the descent's and the network's point passes,
the network's box pass and the batched error evaluation must give the same
floats, bit for bit, as the scalar loops below, which perform the same IEEE
operations in the same order one value at a time. Every model's eval_boxes
must give each box of a batch the bounds of a one-box reference. The box
passes of the trilateration model, the descent and the network must also
contain the exact value, checked against mpmath.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from estbound.interval import (
    Interval,
    IntervalBox,
    _mul_scalar,
    iadd,
    imul,
    isqr,
    isqrt,
    isub,
)
from estbound.mlp import MlpLayer, MlpModel, _round_up, load_mlp
from estbound.models import (
    ConstantEstimator,
    GradientDescentEstimator,
    IdentityEstimator,
    IdentityObservation,
    TrilaterationModel,
    _unit_direction,
)
from estbound.pipeline import load_scenario
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


def reference_eval_box(model, box):
    """Scalar interval forward pass with the outward-rounded operations."""
    values = list(box.components)
    for layer in model.layers:
        out = []
        for row, b in zip(layer.weights, layer.bias):
            acc = _mul_scalar(row[0], values[0])
            for w, v in zip(row[1:], values[1:]):
                acc = iadd(acc, _mul_scalar(w, v))
            acc = iadd(acc, Interval.point(b))
            if layer.activation == "relu":
                acc = irelu(acc)
            out.append(acc)
        values = out
    return IntervalBox(values)


def reference_distances_box(model, box):
    """Scalar trilateration box pass: per landmark, the distance enclosure."""
    out = []
    for ax, ay in model.landmarks:
        dx = isub(Interval.point(ax), box[0])
        dy = isub(Interval.point(ay), box[1])
        out.append(isqrt(iadd(isqr(dx), isqr(dy))))
    return IntervalBox(out)


def reference_descent_box(est, box):
    """Scalar descent box pass: the steps of reference_descent_point in
    interval arithmetic, each direction enclosed by _unit_direction."""
    x0, x1 = Interval.point(est.init[0]), Interval.point(est.init[1])
    for _ in range(est.iterations):
        gx = gy = Interval.point(0.0)
        for (ax, ay), y in zip(est.observation.landmarks, box):
            dx = isub(x0, Interval.point(ax))
            dy = isub(x1, Interval.point(ay))
            d = isqrt(iadd(isqr(dx), isqr(dy)))
            t = _mul_scalar(2.0, isub(d, y))
            gx = iadd(gx, imul(t, _unit_direction(dx, d)))
            gy = iadd(gy, imul(t, _unit_direction(dy, d)))
        x0 = isub(x0, _mul_scalar(est.step, gx))
        x1 = isub(x1, _mul_scalar(est.step, gy))
    return IntervalBox([x0, x1])


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
            out = model.eval_boxes(batch)
            assert [box_bits(b) for b in out] == expected[start : start + size]
    assert model.eval_boxes([]) == []


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
        check_boxes(model, [IntervalBox.point(y)] + sample_boxes(rng, y, 30))

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
        assert net.eval_boxes([]) == []
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
            boxes += [IntervalBox.from_bounds(bounds), IntervalBox.point(y)]
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


def rounded_up(values):
    x = np.array(values, dtype=np.float64)
    # Signaling NaNs raise numpy's invalid-value flag.
    with np.errstate(invalid="ignore"):
        _round_up(x, np.empty(x.shape, dtype=np.int64))
    return x


class TestRoundUp:
    """The integer step of the network's box pass against np.nextafter."""

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50))
    def test_arbitrary_bit_patterns(self, patterns):
        x = np.array(patterns, dtype=np.int64).view(np.float64)
        with np.errstate(invalid="ignore"):
            expected = np.nextafter(x, np.inf)
        got = rounded_up(x)
        nan = np.isnan(x)
        assert (got.view(np.int64)[~nan] == expected.view(np.int64)[~nan]).all()
        # The one NaN whose bits after the sign are all ones wraps to -0.0
        # (see _round_up); every other NaN stays NaN.
        wraps = x.view(np.int64) == 2**63 - 1
        assert np.isnan(got[nan & ~wraps]).all()
        assert bits(got[wraps]) == bits([-0.0] * int(wraps.sum()))

    def test_edge_values(self):
        tiny = 5e-324
        smallest_normal = 2.2250738585072014e-308
        largest = 1.7976931348623157e308
        values = [0.0, -0.0, tiny, -tiny, smallest_normal, -smallest_normal]
        values += [largest, -largest, math.inf, -math.inf]
        got = rounded_up(values)
        assert bits(got) == bits(math.nextafter(v, math.inf) for v in values)
        # -0.0 steps to the smallest subnormal, the largest float to inf,
        # inf stays inf and -inf steps to the most negative float.
        assert bits(got[[1, 6, 8, 9]]) == bits([tiny, math.inf, math.inf, -largest])

    def test_nan_stays_nan(self):
        with np.errstate(invalid="ignore"):
            products = np.array([0.0, -0.0, 0.0]) * np.array([1, 1, -1]) * math.inf
        assert np.isnan(rounded_up([math.nan, -math.nan, *products])).all()


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
        check_boxes(constant, boxes, lambda model, box: IntervalBox.point(model.value))


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
                    point_out = model.eval_box(IntervalBox.point(y))
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
                point_out = model.eval_box(IntervalBox.point(point))
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
