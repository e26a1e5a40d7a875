import itertools
import json
import math
import random

import pytest

from estbound.interval import Interval, IntervalBox
from estbound.mlp import MlpLayer, MlpModel, load_mlp, save_mlp, train_mlp
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
            out = m.eval_box(IntervalBox.point(y))
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_bound_is_rejected_before_relu(self):
        # Layer 0 overflows to [inf, inf] in its first neuron; layer 1
        # weighs that neuron by 0.0, and 0 * inf is NaN. Relu would map the
        # NaN bounds to 0.0 and give a reversed enclosure.
        m = MlpModel(
            [
                MlpLayer(((1e10,), (1e-300,)), (0.0, 0.0), "relu"),
                MlpLayer(((0.0, 1.0),), (0.5,), "relu"),
                MlpLayer(((1.0,),), (0.0,), "linear"),
            ]
        )
        box = IntervalBox.from_bounds([(1e300, 2e300)])
        with pytest.raises(
            ValueError, match=r"network layer 1 gives a NaN bound on Box\(\[1e\+300"
        ):
            m.eval_boxes([IntervalBox.from_bounds([(0.0, 1.0)]), box])


class TestSerialization:
    def test_round_trip_bundled_fixture(self, scenario_dir):
        path = scenario_dir / "mlp_3x32x32x2.json"
        model = load_mlp(path)
        assert [l.rows for l in model.layers] == [32, 32, 2]
        assert model.n_obs == 3 and model.n_params == 2
        assert "seed" in model.meta and "trained_on" in model.meta

    def test_round_trip_bit_exact(self, tmp_path):
        rng = random.Random(41)
        model = random_model(rng, sizes=[3, 5, 2])
        p = tmp_path / "weights.json"
        save_mlp(model, p)
        loaded = load_mlp(p)
        assert loaded.layers == model.layers
        save_mlp(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == p.read_text()

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_mlp(tmp_path / "nope.json")


class TestTraining:
    @staticmethod
    def line_data(n=64):
        xs = [(-1.0 + 2.0 * i / (n - 1),) for i in range(n)]
        return [(x, (2.0 * x[0],)) for x in xs]

    def test_fits_doubling_line(self):
        model = train_mlp(
            self.line_data(), sizes=(1, 1), epochs=400, rate=0.5, seed=3,
            output_activation="linear",
        )
        w = model.layers[0].weights[0][0]
        b = model.layers[0].bias[0]
        assert abs(w - 2.0) <= 1e-3
        assert abs(b) <= 1e-3

    def test_deterministic_given_seed(self):
        a = train_mlp(self.line_data(), (1, 3, 1), 50, 0.05, seed=11,
                      output_activation="linear")
        b = train_mlp(self.line_data(), (1, 3, 1), 50, 0.05, seed=11,
                      output_activation="linear")
        assert a.layers == b.layers

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train_mlp([], (1, 1), 10, 0.1, seed=0)

    def test_divergence_advises_smaller_rate(self):
        with pytest.raises(ValueError, match="smaller rate"):
            train_mlp(self.line_data(), (1, 1), 500, 50.0, seed=0,
                      output_activation="linear")

    def test_finite_weights(self):
        model = train_mlp(self.line_data(), (1, 4, 1), 100, 0.05, seed=5,
                          output_activation="linear")
        for layer in model.layers:
            assert all(math.isfinite(w) for row in layer.weights for w in row)
            assert all(math.isfinite(b) for b in layer.bias)
