import math
import random

import numpy as np
import pytest

from estbound import framework
from estbound.framework import ErrorObjective, EstimatorModel
from estbound.interval import Interval, IntervalBox, _make, inorm, isub
from estbound.models import (
    ConstantEstimator,
    IdentityEstimator,
    IdentityObservation,
    TrilaterationModel,
)
from estbound.pipeline import load_scenario
from conftest import bounds_of
from test_interval import encloses, ineg

LANDMARKS = [(10.0, -9.0), (5.0, 12.0), (-15.0, 0.0)]


def identity_objective(n=2, lo=0.0, hi=1.0, noise=0.1):
    return ErrorObjective(
        IdentityObservation(n),
        IdentityEstimator(n),
        IntervalBox.from_bounds([(lo, hi)] * n),
        IntervalBox.from_bounds([(-noise, noise)] * n),
    )


def trilat_constant_objective():
    obs = TrilaterationModel(LANDMARKS)
    return ErrorObjective(
        obs,
        ConstantEstimator((15.0, 15.0), n_obs=3),
        IntervalBox.from_bounds([(5, 25), (5, 25)]),
        IntervalBox.from_bounds([(-0.2, 0.2)] * 3),
    )


def error_enclosure(obj, param_box, noise_box):
    """The error enclosure over param_box x noise_box: objective_box over
    their concatenation, negated back."""
    return ineg(obj.objective_box(param_box.concat(noise_box)))


class TestErrorPoint:
    def test_identity_pair(self):
        obj = identity_objective()
        e = obj.error_point((1.0, 2.0), (0.1, -0.1))
        assert math.isclose(e, math.sqrt(0.02), rel_tol=1e-12)

    def test_noise_dim_mismatch(self):
        obj = identity_objective()
        with pytest.raises(ValueError, match="dim"):
            obj.error_point((1.0, 2.0), (0.1,))

    @pytest.mark.parametrize(
        "x_shape, e_shape", [((2,), (3, 2)), ((3, 2), (2,)), ((2, 2), (3, 2))]
    )
    def test_sample_count_mismatch(self, x_shape, e_shape):
        # Broadcasting one side over the other's rows would drop rows or
        # reuse one sample; both shapes are named instead.
        obj = identity_objective()
        with pytest.raises(ValueError) as err:
            obj.error_point(np.zeros(x_shape), np.zeros(e_shape))
        assert f"shape {x_shape}" in str(err.value)
        assert f"shape {e_shape}" in str(err.value)

    def test_perfect_estimate_zero_noise(self):
        obj = identity_objective()
        assert obj.error_point((0.3, 0.7), (0.0, 0.0)) == 0.0

    def test_constant_estimator(self):
        obj = ErrorObjective(
            IdentityObservation(2),
            ConstantEstimator((0.0, 0.0), n_obs=2),
            IntervalBox.from_bounds([(0, 5), (0, 5)]),
            IntervalBox.from_bounds([(-1, 1), (-1, 1)]),
        )
        assert obj.error_point((3.0, 4.0), (0.5, -0.2)) == 5.0


class TestErrorBox:
    """The error enclosure that objective_box negates."""

    def test_identity_point_box(self):
        obj = identity_objective()
        x = IntervalBox.from_bounds([(1.0, 1.0), (2.0, 2.0)])
        out = error_enclosure(obj, x, obj.noise_box)
        assert out.lb <= 0.0 + 1e-12
        assert out.ub >= math.sqrt(0.02)
        assert out.ub <= math.sqrt(0.02) + 1e-12

    def test_degenerate_everything(self):
        obj = identity_objective()
        x = IntervalBox.from_bounds([(0.5, 0.5), (0.5, 0.5)])
        e = IntervalBox.from_bounds([(0.0, 0.0), (0.0, 0.0)])
        out = error_enclosure(obj, x, e)
        assert out.lb == 0.0
        assert out.ub <= 1e-13

    def test_nonnegative_lower_bound(self):
        obj = trilat_constant_objective()
        out = error_enclosure(obj, obj.param_box, obj.noise_box)
        assert out.lb >= 0.0

    def test_containment_brute_force(self):
        rng = random.Random(42)
        for obj in (identity_objective(), trilat_constant_objective()):
            box = error_enclosure(obj, obj.param_box, obj.noise_box)
            for _ in range(1000):
                x = [rng.uniform(c.lb, c.ub) for c in obj.param_box]
                e = [rng.uniform(c.lb, c.ub) for c in obj.noise_box]
                assert box.lb <= obj.error_point(x, e) <= box.ub

    def test_point_consistency_at_midpoints(self):
        for obj in (identity_objective(), trilat_constant_objective()):
            box = error_enclosure(obj, obj.param_box, obj.noise_box)
            v = obj.error_point(
                obj.param_box.midpoint(), obj.noise_box.midpoint()
            )
            assert box.lb <= v <= box.ub

    def test_isotonicity(self):
        obj = trilat_constant_objective()
        inner_x = IntervalBox.from_bounds([(10, 20), (8, 22)])
        inner_e = IntervalBox.from_bounds([(-0.1, 0.1)] * 3)
        inner = error_enclosure(obj, inner_x, inner_e)
        outer = error_enclosure(obj, obj.param_box, obj.noise_box)
        assert encloses(outer, inner)


class TestObjectiveBox:
    def test_containment_of_negated_samples(self):
        obj = trilat_constant_objective()
        full = obj.initial_box()
        out = obj.objective_box(full)
        rng = random.Random(7)
        for _ in range(500):
            x = [rng.uniform(c.lb, c.ub) for c in obj.param_box]
            e = [rng.uniform(c.lb, c.ub) for c in obj.noise_box]
            assert out.lb <= -obj.error_point(x, e) <= out.ub

    @pytest.mark.parametrize(
        "name", ["identity", "constant", "trilat_mlp", "trilat_gd"]
    )
    def test_sequence_equals_one_call_per_box(self, scenario_dir, name):
        # A batch of bound arrays gives each box the bits it gets alone, in
        # order.
        obj = load_scenario(scenario_dir / f"{name}.scn").build_objective()
        left, right = obj.initial_box().bisect(0)
        boxes = [left, *right.bisect(1), obj.initial_box()]
        dim = obj.initial_box().dim
        singles = [obj.objective_box(box) for box in boxes]
        assert all(isinstance(out, Interval) for out in singles)
        for batch in ([boxes[0]], boxes[:2], boxes):
            f_lb, f_ub = obj.objective_box(*bounds_of(batch, dim))
            assert f_lb.dtype == f_ub.dtype == np.float64
            assert f_lb.shape == f_ub.shape == (len(batch),)
            got = zip(f_lb.tolist(), f_ub.tolist())
            assert [(lo.hex(), hi.hex()) for lo, hi in got] == [
                (v.lb.hex(), v.ub.hex()) for v in singles[: len(batch)]
            ]
        f_lb, f_ub = obj.objective_box(*bounds_of([], dim))
        assert f_lb.shape == f_ub.shape == (0,)

    @pytest.mark.parametrize("name", ["constant", "trilat_mlp", "trilat_gd"])
    def test_batch_is_one_call_per_model(self, scenario_dir, monkeypatch, name):
        # The observation's and the estimator's eval_boxes each see the whole
        # batch at once, and a batch of bound arrays is not read from boxes.
        obj = load_scenario(scenario_dir / f"{name}.scn").build_objective()
        calls = []

        def bounds_spy(box, evaluate=framework._bounds):
            lb, ub = evaluate(box)
            calls.append(("_bounds", len(lb)))
            return lb, ub

        monkeypatch.setattr(framework, "_bounds", bounds_spy)
        for role in ("observation", "estimator"):
            model = getattr(obj, role)

            def spy(lb, ub, role=role, evaluate=model.eval_boxes):
                calls.append((role, len(lb)))
                return evaluate(lb, ub)

            monkeypatch.setattr(model, "eval_boxes", spy)
        left, right = obj.initial_box().bisect(0)
        lb, ub = bounds_of([left, *right.bisect(1)], left.dim)
        obj.objective_box(lb, ub)
        assert calls == [("observation", 3), ("estimator", 3)]
        obj.objective_box(left)
        assert calls[2:] == [("_bounds", 1), ("observation", 1), ("estimator", 1)]

    def test_wrong_dim(self):
        obj = identity_objective()
        with pytest.raises(ValueError, match="search box"):
            obj.objective_box(IntervalBox.from_bounds([(0, 1)] * 3))
        with pytest.raises(ValueError, match="search box has dim 3"):
            obj.objective_box(np.zeros((2, 3)), np.ones((2, 3)))
        words = r"^upper bounds have shape \(1, 4\), lower bounds \(2, 4\)$"
        with pytest.raises(ValueError, match=words):
            obj.objective_box(np.zeros((2, 4)), np.ones((1, 4)))

    def test_overflow_rejected(self):
        obj = ErrorObjective(
            IdentityObservation(2),
            ConstantEstimator((1e308, 0.0), n_obs=2),
            IntervalBox.from_bounds([(0, 1)] * 2),
            IntervalBox.from_bounds([(0, 1)] * 2),
        )
        with pytest.raises(ValueError, match="overflows"):
            obj.objective_box(obj.initial_box())

    def test_overflow_names_the_box(self):
        # The identity override's error vector is finite, but its squares
        # overflow; the batch's first overflowing box is named.
        obj = identity_objective()
        huge = IntervalBox.from_bounds([(0, 1), (0, 1), (-1e200, 1e200), (0, 1)])
        huger = IntervalBox.from_bounds([(0, 1)] * 2 + [(-1e300, 0)] * 2)
        with pytest.raises(ValueError, match="overflows") as info:
            obj.objective_box(*bounds_of([obj.initial_box(), huge, huger], 4))
        assert str(info.value).endswith(f"on {huge!r}")

    def test_model_error_names_the_search_box(self):
        # The search hands in the two halves of the box it splits; a model's
        # error gets their hull, that box, appended.
        class RefusingEstimator(EstimatorModel):
            n_obs = n_params = 2

            def eval_points(self, rows):
                return rows.copy()

            def eval_boxes(self, lb, ub):
                raise ValueError("refused")

        obj = ErrorObjective(
            IdentityObservation(2),
            RefusingEstimator(),
            IntervalBox.from_bounds([(0, 1)] * 2),
            IntervalBox.from_bounds([(-0.1, 0.1)] * 2),
        )
        box = obj.initial_box()
        with pytest.raises(ValueError) as info:
            obj.objective_box(*bounds_of(list(box.bisect(1)), 4))
        assert str(info.value) == f"refused, within search box {box!r}"

    def test_reversed_estimate_rejected_as_inorm_rejects_it(self):
        # A custom box pass that returns reversed bounds gives a reversed
        # difference, which the norm rejects with inorm's message.
        class ReversedEstimator(EstimatorModel):
            n_obs = n_params = 2

            def eval_points(self, rows):
                return rows.copy()

            def eval_boxes(self, lb, ub):
                lb, ub = lb.copy(), ub.copy()
                lb[:, 0], ub[:, 0] = 5.0, -5.0
                return lb, ub

        obj = ErrorObjective(
            IdentityObservation(2),
            ReversedEstimator(),
            IntervalBox.from_bounds([(0, 1)] * 2),
            IntervalBox.from_bounds([(-0.1, 0.1)] * 2),
        )
        with pytest.raises(ValueError) as expected:
            inorm([isub(Interval(0.0, 1.0), _make(5.0, -5.0))])
        with pytest.raises(ValueError) as got:
            obj.objective_box(*bounds_of([obj.initial_box()], 4))
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("norm of a component with bounds")

    def test_nan_estimate_rejected(self):
        # A NaN bound from a custom box pass must not come out of the norm
        # as a valid-looking enclosure.
        class NanLowerBoundEstimator(EstimatorModel):
            n_obs = n_params = 2

            def eval_points(self, rows):
                return rows.copy()

            def eval_boxes(self, lb, ub):
                lb = lb.copy()
                lb[:, 0] = math.nan
                return lb, ub

        obj = ErrorObjective(
            IdentityObservation(2),
            NanLowerBoundEstimator(),
            IntervalBox.from_bounds([(0, 1)] * 2),
            IntervalBox.from_bounds([(-0.1, 0.1)] * 2),
        )
        with pytest.raises(ValueError, match="nan"):
            obj.objective_box(obj.initial_box())

    def test_split_dims_are_parameter_indices(self):
        obj = trilat_constant_objective()
        assert obj.split_dims() == (0, 1)
        assert obj.initial_box().dim == 5


class TestConstructionValidation:
    def test_mismatched_observation_estimator(self):
        with pytest.raises(ValueError, match="observation outputs dim 2"):
            ErrorObjective(
                IdentityObservation(2),
                ConstantEstimator((0.0, 0.0), n_obs=3),
                IntervalBox.from_bounds([(0, 1)] * 2),
                IntervalBox.from_bounds([(0, 1)] * 2),
            )

    def test_mismatched_param_box(self):
        with pytest.raises(ValueError, match="param_box has dim 3"):
            ErrorObjective(
                IdentityObservation(2),
                IdentityEstimator(2),
                IntervalBox.from_bounds([(0, 1)] * 3),
                IntervalBox.from_bounds([(0, 1)] * 2),
            )

    def test_mismatched_noise_box(self):
        with pytest.raises(ValueError, match="noise_box has dim 1"):
            ErrorObjective(
                IdentityObservation(2),
                IdentityEstimator(2),
                IntervalBox.from_bounds([(0, 1)] * 2),
                IntervalBox.from_bounds([(0, 1)]),
            )


def test_inclusion_soundness_randomized_sweep():
    # randomized scenario/box/sample sweep across the cheap model pairings
    rng = random.Random(2024)
    checks = 0
    while checks < 10_000:
        n = rng.choice((1, 2, 3))
        lo = rng.uniform(-5, 5)
        hi = lo + rng.uniform(0.01, 10)
        noise = rng.uniform(0.0, 0.5)
        if rng.random() < 0.5:
            estimator = IdentityEstimator(n)
        else:
            estimator = ConstantEstimator(
                [rng.uniform(-5, 5) for _ in range(n)], n_obs=n
            )
        obj = ErrorObjective(
            IdentityObservation(n),
            estimator,
            IntervalBox.from_bounds([(lo, hi)] * n),
            IntervalBox.from_bounds([(-noise, noise)] * n),
        )
        box = error_enclosure(obj, obj.param_box, obj.noise_box)
        for _ in range(50):
            x = [rng.uniform(c.lb, c.ub) for c in obj.param_box]
            e = [rng.uniform(c.lb, c.ub) for c in obj.noise_box]
            assert box.lb <= obj.error_point(x, e) <= box.ub
            checks += 1
