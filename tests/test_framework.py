import math
import random

import pytest

from estbound.framework import ErrorObjective
from estbound.interval import IntervalBox
from estbound.models import (
    ConstantEstimator,
    IdentityEstimator,
    IdentityObservation,
    TrilaterationModel,
)
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
    def test_identity_point_box(self):
        obj = identity_objective()
        out = obj.error_box(
            IntervalBox.point((1.0, 2.0)), obj.noise_box
        )
        assert out.lb <= 0.0 + 1e-12
        assert out.ub >= math.sqrt(0.02)
        assert out.ub <= math.sqrt(0.02) + 1e-12

    def test_degenerate_everything(self):
        obj = identity_objective()
        out = obj.error_box(
            IntervalBox.point((0.5, 0.5)), IntervalBox.point((0.0, 0.0))
        )
        assert out.lb == 0.0
        assert out.ub <= 1e-13

    def test_nonnegative_lower_bound(self):
        obj = trilat_constant_objective()
        out = obj.error_box(obj.param_box, obj.noise_box)
        assert out.lb >= 0.0

    def test_containment_brute_force(self):
        rng = random.Random(42)
        for obj in (identity_objective(), trilat_constant_objective()):
            box = obj.error_box(obj.param_box, obj.noise_box)
            for _ in range(1000):
                x = [rng.uniform(c.lb, c.ub) for c in obj.param_box]
                e = [rng.uniform(c.lb, c.ub) for c in obj.noise_box]
                assert box.lb <= obj.error_point(x, e) <= box.ub

    def test_point_consistency_at_midpoints(self):
        for obj in (identity_objective(), trilat_constant_objective()):
            box = obj.error_box(obj.param_box, obj.noise_box)
            v = obj.error_point(
                obj.param_box.midpoint(), obj.noise_box.midpoint()
            )
            assert box.lb <= v <= box.ub

    def test_isotonicity(self):
        obj = trilat_constant_objective()
        inner_x = IntervalBox.from_bounds([(10, 20), (8, 22)])
        inner_e = IntervalBox.from_bounds([(-0.1, 0.1)] * 3)
        inner = obj.error_box(inner_x, inner_e)
        outer = obj.error_box(obj.param_box, obj.noise_box)
        assert encloses(outer, inner)

    def test_bad_dims(self):
        obj = identity_objective()
        with pytest.raises(ValueError, match="param box"):
            obj.error_box(IntervalBox.from_bounds([(0, 1)]), obj.noise_box)
        with pytest.raises(ValueError, match="noise box"):
            obj.error_box(obj.param_box, IntervalBox.from_bounds([(0, 1)]))


class TestObjectiveBox:
    def test_negation_of_error(self):
        obj = identity_objective()
        full = obj.initial_box()
        err = obj.error_box(obj.param_box, obj.noise_box)
        neg = obj.objective_box(full)
        assert neg.lb == -err.ub and neg.ub == -err.lb

    def test_containment_of_negated_samples(self):
        obj = trilat_constant_objective()
        full = obj.initial_box()
        out = obj.objective_box(full)
        rng = random.Random(7)
        for _ in range(500):
            x = [rng.uniform(c.lb, c.ub) for c in obj.param_box]
            e = [rng.uniform(c.lb, c.ub) for c in obj.noise_box]
            assert out.lb <= -obj.error_point(x, e) <= out.ub

    def test_wrong_dim(self):
        obj = identity_objective()
        with pytest.raises(ValueError, match="search box"):
            obj.objective_box(IntervalBox.from_bounds([(0, 1)] * 3))

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
        box = obj.error_box(obj.param_box, obj.noise_box)
        for _ in range(50):
            x = [rng.uniform(c.lb, c.ub) for c in obj.param_box]
            e = [rng.uniform(c.lb, c.ub) for c in obj.noise_box]
            assert box.lb <= obj.error_point(x, e) <= box.ub
            checks += 1
