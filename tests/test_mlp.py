import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from estbound.interval import Interval, IntervalBox
from estbound.mlp import MlpLayer, MlpModel, load_mlp
from test_interval import encloses


def single_layer(weights, bias, activation="relu"):
    return MlpModel(
        [
            MlpLayer(
                weights=tuple(tuple(float(w) for w in row) for row in weights),
                bias=tuple(float(b) for b in bias),
                activation=activation,
            )
        ]
    )


def random_model(rng, sizes=None, all_relu=False):
    if sizes is None:
        depth = rng.randint(1, 3)
        sizes = [rng.randint(1, 6) for _ in range(depth + 1)]
    layers = []
    for i in range(len(sizes) - 1):
        rows, cols = sizes[i + 1], sizes[i]
        act = "relu" if (all_relu or i < len(sizes) - 2 or rng.random() < 0.5) else "linear"
        layers.append(
            MlpLayer(
                weights=tuple(
                    tuple(rng.uniform(-2, 2) for _ in range(cols))
                    for _ in range(rows)
                ),
                bias=tuple(rng.uniform(-1, 1) for _ in range(rows)),
                activation=act,
            )
        )
    return MlpModel(layers)


class TestPointPass:
    def test_relu_of_identity(self):
        m = single_layer([[1, 0], [0, 1]], [0, 0], "relu")
        assert m.eval_point((-1.0, 2.0)) == (0.0, 2.0)

    def test_affine_linear_layer(self):
        m = single_layer([[2, 0], [0, 3]], [1, -1], "linear")
        assert m.eval_point((1.0, 1.0)) == (3.0, 2.0)

    def test_zero_weights_give_relu_of_bias(self):
        m = single_layer([[0, 0], [0, 0]], [0.5, -0.5], "relu")
        assert m.eval_point((123.0, -4.0)) == (0.5, 0.0)

    def test_all_relu_outputs_nonnegative(self):
        rng = random.Random(17)
        for _ in range(20):
            m = random_model(rng, all_relu=True)
            y = [rng.uniform(-3, 3) for _ in range(m.n_obs)]
            assert all(v >= 0.0 for v in m.eval_point(y))

    def test_dim_mismatch(self):
        m = single_layer([[1, 0], [0, 1]], [0, 0])
        with pytest.raises(ValueError, match="dim"):
            m.eval_point((1.0,))


class TestBoxPass:
    def test_point_box_brackets_point_result(self):
        rng = random.Random(23)
        for _ in range(20):
            m = random_model(rng)
            y = tuple(rng.uniform(-2, 2) for _ in range(m.n_obs))
            out = m.eval_box(IntervalBox.from_bounds(zip(y, y)))
            val = m.eval_point(y)
            for v, c in zip(val, out):
                assert c.lb <= v <= c.ub
                assert c.width <= 1e-9

    def test_containment_sampling(self):
        rng = random.Random(29)
        for _ in range(20):
            m = random_model(rng)
            centers = [rng.uniform(-2, 2) for _ in range(m.n_obs)]
            box = IntervalBox.from_bounds(
                [(c - rng.uniform(0, 0.5), c + rng.uniform(0, 0.5)) for c in centers]
            )
            out = m.eval_box(box)
            for _ in range(50):
                y = [rng.uniform(c.lb, c.ub) for c in box]
                val = m.eval_point(y)
                for v, c in zip(val, out):
                    assert c.lb <= v <= c.ub

    def test_box_contains_corner_hull(self):
        # piecewise-affine nets attain extremes beyond the corner hull, so
        # the box result must enclose (and usually exceed) it
        rng = random.Random(31)
        for _ in range(10):
            m = random_model(rng, sizes=[2, rng.randint(1, 5), 2])
            box = IntervalBox.from_bounds(
                [(rng.uniform(-1, 0), rng.uniform(0.1, 1)) for _ in range(2)]
            )
            out = m.eval_box(box)
            corner_vals = [
                m.eval_point(c)
                for c in itertools.product(*[(iv.lb, iv.ub) for iv in box])
            ]
            for k in range(m.n_params):
                ch = Interval(
                    min(v[k] for v in corner_vals), max(v[k] for v in corner_vals)
                )
                assert encloses(out[k], ch)

    def test_isotonicity(self):
        rng = random.Random(37)
        m = random_model(rng, sizes=[3, 4, 2])
        outer = IntervalBox.from_bounds([(-1, 1), (-2, 0.5), (0, 3)])
        inner = IntervalBox.from_bounds([(-0.5, 0.2), (-1, 0), (1, 2)])
        assert encloses(m.eval_box(outer), m.eval_box(inner))

    def test_integer_bound_arrays_read_as_floats(self):
        # -2**63 is cast before it is negated: negated as an int64 it wraps.
        m = single_layer([[1, -2], [3, 0.5]], [0.25, -1], "linear")
        lb = np.array([[-1, 0], [2, -7], [-(2**63), 0]])
        ub = np.array([[2, 3], [2, 5], [2**63 - 1, 1]])
        got = m.eval_boxes(lb, ub)
        want = m.eval_boxes(lb.astype(np.float64), ub.astype(np.float64))
        assert bits(got) == bits(want)


class TestSerialization:
    def test_round_trip_bundled_fixture(self, scenario_dir):
        path = scenario_dir / "mlp_3x32x32x2.json"
        model = load_mlp(path)
        assert [l.rows for l in model.layers] == [32, 32, 2]
        assert model.n_obs == 3 and model.n_params == 2
        meta = json.loads(path.read_text())["meta"]
        assert "seed" in meta and "trained_on" in meta

    def test_round_trip_bit_exact(self, tmp_path):
        rng = random.Random(41)
        model = random_model(rng, sizes=[3, 5, 2])
        doc = {
            "layers": [
                {"weights": l.weights, "bias": l.bias, "activation": l.activation}
                for l in model.layers
            ]
        }
        p = tmp_path / "weights.json"
        p.write_text(json.dumps(doc))
        assert load_mlp(p).layers == model.layers

    def test_mismatched_bias_length(self, tmp_path):
        doc = {
            "layers": [
                {"weights": [[1, 0], [0, 1]], "bias": [0.0], "activation": "relu"}
            ]
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="layer 0"):
            load_mlp(p)

    def test_nan_weight(self, tmp_path):
        doc = {
            "layers": [
                {
                    "weights": [[1, float("nan")], [0, 1]],
                    "bias": [0.0, 0.0],
                    "activation": "relu",
                }
            ]
        }
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(doc, allow_nan=True))
        with pytest.raises(ValueError, match="layer 0"):
            load_mlp(p)

    def test_shape_chain_mismatch(self, tmp_path):
        doc = {
            "layers": [
                {"weights": [[1, 0], [0, 1]], "bias": [0, 0], "activation": "relu"},
                {"weights": [[1, 0, 0]], "bias": [0], "activation": "linear"},
            ]
        }
        p = tmp_path / "shape.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="layer 1"):
            load_mlp(p)

    @pytest.mark.parametrize(
        "weights, bias, words",
        [
            (((1.0, math.inf),), (0.0,), "non-finite weight: inf"),
            (((1.0, 0.0),), (math.nan,), "non-finite bias: nan"),
        ],
    )
    def test_non_finite_layer_rejected(self, weights, bias, words):
        # A weight file cannot hold these (its reader takes finite numbers
        # only), so the layer's own check is reached only directly.
        with pytest.raises(ValueError, match=words):
            MlpLayer(weights, bias, "relu")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_mlp(tmp_path / "nope.json")



def bits(arrays):
    return [np.ascontiguousarray(a).view(np.int64).tolist() for a in arrays]


class TestScratch:
    """The screen and the box pass work in one scratch array that the model
    keeps: a call no larger than an earlier one allocates little, results
    never share it, and what it held before never shows in a result, the
    point pass's included."""

    @pytest.fixture
    def load(self, scenario_dir):
        return lambda: load_mlp(scenario_dir / "mlp_3x32x32x2.json")

    @staticmethod
    def inputs(seed, k):
        # k rows of points in and around the bundled network's input range,
        # and k boxes with those lower bounds.
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-1.0, 15.0, (k, 3))
        return rows, rows + rng.uniform(0.0, 0.5, (k, 3))

    @pytest.mark.parametrize(
        "pass_, k",
        [("eval_boxes", 64), ("screen_points", 4096), ("screen_points", 1696)],
    )
    def test_repeat_call_allocates_little(self, load, pass_, k):
        # Without the scratch such a call allocates about 2.4 MB (64 halves)
        # or 1.2 MB (4096 rows); with it, the results and a few small arrays.
        # 4096 and 1696 rows are the chunks of a 100k-sample oracle.
        net, args = load(), self.inputs(1, k)[: 2 if pass_ == "eval_boxes" else 1]
        getattr(net, pass_)(*args)
        tracemalloc.start()
        try:
            getattr(net, pass_)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    def test_results_do_not_share_the_scratch(self, load):
        net = load()
        lb, ub = self.inputs(2, 64)
        first = [*net.eval_boxes(lb, ub), net.eval_points(lb)]
        kept = bits(first)
        lb, ub = self.inputs(3, 64)
        net.eval_boxes(lb, ub)
        net.eval_points(ub)
        assert bits(first) == kept

    def test_large_then_small_batch_equals_a_fresh_model(self, load):
        net = load()
        lb, ub = self.inputs(4, 4096)
        net.eval_points(lb)
        net.eval_boxes(lb[:1024], ub[:1024])
        lb, ub = self.inputs(5, 3)
        assert bits(net.eval_points(lb)) == bits(load().eval_points(lb))
        assert bits(net.eval_boxes(lb, ub)) == bits(load().eval_boxes(lb, ub))
