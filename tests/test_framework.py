import math
import random

import pytest

from estbound.framework import ErrorObjective
from estbound.interval import Interval, IntervalBox, ineg
from estbound.models import (
    ConstantEstimator,
    IdentityEstimator,
    IdentityObservation,
    TrilaterationModel,
)
from estbound.pipeline import load_scenario
from test_interval import encloses

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
        out = error_enclosure(obj, IntervalBox.point((1.0, 2.0)), obj.noise_box)
        assert out.lb <= 0.0 + 1e-12
        assert out.ub >= math.sqrt(0.02)
        assert out.ub <= math.sqrt(0.02) + 1e-12

    def test_degenerate_everything(self):
        obj = identity_objective()
        out = error_enclosure(
            obj, IntervalBox.point((0.5, 0.5)), IntervalBox.point((0.0, 0.0))
        )
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
        # A batch gives each box the bits it gets alone, in order.
        obj = load_scenario(scenario_dir / f"{name}.scn").build_objective()
        left, right = obj.initial_box().bisect(0)
        boxes = [left, *right.bisect(1), obj.initial_box()]
        singles = [obj.objective_box(box) for box in boxes]
        assert all(isinstance(out, Interval) for out in singles)
        for batch in ([boxes[0]], boxes[:2], boxes):
            out = obj.objective_box(batch)
            assert isinstance(out, list)
            assert [(v.lb.hex(), v.ub.hex()) for v in out] == [
                (v.lb.hex(), v.ub.hex()) for v in singles[: len(batch)]
            ]
        assert obj.objective_box([]) == []

    @pytest.mark.parametrize("name", ["constant", "trilat_mlp", "trilat_gd"])
    def test_batch_is_one_call_per_model(self, scenario_dir, monkeypatch, name):
        # The observation's and the estimator's eval_boxes each see the whole
        # batch at once.
        obj = load_scenario(scenario_dir / f"{name}.scn").build_objective()
        calls = []
        for role in ("observation", "estimator"):
            model = getattr(obj, role)

            def spy(boxes, role=role, evaluate=model.eval_boxes):
                calls.append((role, len(boxes)))
                return evaluate(boxes)

            monkeypatch.setattr(model, "eval_boxes", spy)
        left, right = obj.initial_box().bisect(0)
        obj.objective_box([left, *right.bisect(1)])
        assert calls == [("observation", 3), ("estimator", 3)]

    def test_wrong_dim(self):
        obj = identity_objective()
        with pytest.raises(ValueError, match="search box"):
            obj.objective_box(IntervalBox.from_bounds([(0, 1)] * 3))
        with pytest.raises(ValueError, match="search box"):
            obj.objective_box(
                [obj.initial_box(), IntervalBox.from_bounds([(0, 1)] * 3)]
            )

    def test_overflow_rejected(self):
        obj = ErrorObjective(
            IdentityObservation(2),
            ConstantEstimator((1e308, 0.0), n_obs=2),
            IntervalBox.from_bounds([(0, 1)] * 2),
            IntervalBox.from_bounds([(0, 1)] * 2),
        )
        with pytest.raises(ValueError, match="overflows"):
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
