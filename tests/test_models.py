import math
import random

import numpy as np
import pytest

from estbound.framework import ObservationModel
from estbound.interval import Interval, IntervalBox, iadd, imul
from estbound.mlp import load_mlp
from estbound.models import (
    ConstantEstimator,
    GradientDescentEstimator,
    IdentityEstimator,
    IdentityObservation,
    TrilaterationModel,
)
from conftest import bounds_of
from test_interval import encloses

LANDMARKS = [(10.0, -9.0), (5.0, 12.0), (-15.0, 0.0)]


def error_vector(est, obs, param_box, noise_box):
    """est.error_vector_box over the one search box param_box x noise_box,
    as one Interval per component; Interval rejects NaN or reversed
    bounds."""
    dim = param_box.dim + noise_box.dim
    lb, ub = est.error_vector_box(obs, *bounds_of([param_box.concat(noise_box)], dim))
    assert lb.dtype == ub.dtype == np.float64
    assert lb.shape == ub.shape == (1, est.n_params)
    return [Interval(lo, hi) for lo, hi in zip(lb[0].tolist(), ub[0].tolist())]


class AffineObservation(ObservationModel):
    """g(x) = a x + b for a square matrix a: a square observation that is
    not the identity. Sums run in row order, starting from b. Its box pass
    composes scalar interval operations, one row of bounds at a time."""

    def __init__(self, a, b):
        self.a = a
        self.b = b
        self.n_params = self.n_obs = len(b)

    def eval_points(self, rows):
        self._check_rows(rows)
        out = []
        for row, bi in zip(self.a, self.b):
            acc = bi
            for aij, xj in zip(row, rows.T):
                acc = acc + aij * xj
            out.append(acc)
        return np.stack(out, axis=1)

    def eval_boxes(self, lb, ub):
        self._check_rows(lb)
        out_lb, out_ub = [], []
        for lows, highs in zip(lb.tolist(), ub.tolist()):
            box = [Interval(lo, hi) for lo, hi in zip(lows, highs)]
            comps = []
            for row, bi in zip(self.a, self.b):
                acc = Interval(bi, bi)
                for aij, xj in zip(row, box):
                    acc = iadd(acc, imul(Interval(aij, aij), xj))
                comps.append(acc)
            out_lb.append([c.lb for c in comps])
            out_ub.append([c.ub for c in comps])
        return (
            np.array(out_lb, dtype=np.float64).reshape(-1, self.n_obs),
            np.array(out_ub, dtype=np.float64).reshape(-1, self.n_obs),
        )


@pytest.fixture
def tri():
    return TrilaterationModel(LANDMARKS)


class TestTrilaterationPoint:
    def test_distances_from_first_landmark(self, tri):
        d = tri.eval_point((10.0, -9.0))
        assert d[0] == 0.0
        assert math.isclose(d[1], math.sqrt(466), rel_tol=1e-12)
        assert math.isclose(d[2], math.sqrt(706), rel_tol=1e-12)

    def test_distance_to_self_is_zero(self, tri):
        assert tri.eval_point((5.0, 12.0))[1] == 0.0

    def test_reflection_symmetry(self, tri):
        # reflecting the query across a landmark keeps that distance
        ax, ay = LANDMARKS[0]
        x = (13.0, -4.0)
        mirrored = (2 * ax - x[0], 2 * ay - x[1])
        d1 = tri.eval_point(x)[0]
        d2 = tri.eval_point(mirrored)[0]
        assert math.isclose(d1, d2, rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            TrilaterationModel([(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="distinct"):
            TrilaterationModel([(0, 0), (1, 1), (0, 0)])


class TestTrilaterationBox:
    def test_point_box_at_landmark(self, tri):
        out = tri.eval_box(IntervalBox.from_bounds([(10.0, 10.0), (-9.0, -9.0)]))
        assert out[0].lb == 0.0
        assert out[0].ub <= 1e-12

    def test_containment_sampling(self, tri):
        rng = random.Random(5)
        box = IntervalBox.from_bounds([(5, 25), (5, 25)])
        out = tri.eval_box(box)
        for _ in range(1000):
            x = (rng.uniform(5, 25), rng.uniform(5, 25))
            d = tri.eval_point(x)
            for di, ci in zip(d, out):
                assert ci.lb <= di <= ci.ub

    def test_isotonicity_nested_boxes(self, tri):
        rng = random.Random(6)
        for _ in range(100):
            lo0, lo1 = rng.uniform(-30, 20), rng.uniform(-30, 20)
            w0, w1 = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
            outer = IntervalBox.from_bounds([(lo0, lo0 + w0), (lo1, lo1 + w1)])
            inner = IntervalBox.from_bounds(
                [
                    (lo0 + 0.25 * w0, lo0 + 0.75 * w0),
                    (lo1 + 0.25 * w1, lo1 + 0.75 * w1),
                ]
            )
            assert encloses(tri.eval_box(outer), tri.eval_box(inner))


class TestIdentityAndConstant:
    def test_identity_observation_deviation_is_exact_zero(self):
        # g(x) - x is exactly zero, so the error vector box is the negated
        # noise box widened by the rounding pad alone, however wide the
        # parameter box is.
        est = IdentityEstimator(3)
        out = error_vector(
            est,
            IdentityObservation(3),
            IntervalBox.from_bounds([(0, 5)] * 3),
            IntervalBox.from_bounds([(-0.1, 0.2)] * 3),
        )
        for c in out:
            assert -0.2 - 1e-12 < c.lb < -0.2 and 0.1 < c.ub < 0.1 + 1e-12

    def test_identity_error_vector_bits(self):
        # Each noise bound is first stepped one ulp outward, as iadd(0, e)
        # rounds it, then padded by 4 ulp(S): -(4 + 5 ulp(4)) below. A -0.0
        # noise bound ends on the pad alone.
        out = error_vector(
            IdentityEstimator(2),
            IdentityObservation(2),
            IntervalBox.from_bounds([(0, 1), (-2, 7)]),
            IntervalBox.from_bounds([(-3.0, 4.0), (-0.0, 0.0)]),
        )
        assert [(c.lb.hex(), c.ub.hex()) for c in out] == [
            ("-0x1.0000000000005p+2", "0x1.8000000000009p+1"),
            ("-0x1.0000000000000p-48", "0x1.0000000000000p-48"),
        ]

    def test_constant_estimator_box_is_point(self):
        est = ConstantEstimator((1.5, -2.0), n_obs=4)
        out = est.eval_box(IntervalBox.from_bounds([(0, 9)] * 4))
        assert out == IntervalBox.from_bounds([(1.5, 1.5), (-2.0, -2.0)])

    def test_identity_estimator_round_trips(self):
        est = IdentityEstimator(2)
        assert est.eval_point((3.0, 4.0)) == (3.0, 4.0)


class TestRejections:
    @pytest.mark.parametrize(
        "make, words",
        [
            pytest.param(lambda: IdentityObservation(0), "dim must be", id="obs-dim"),
            pytest.param(lambda: IdentityEstimator(0), "dim must be", id="est-dim"),
            pytest.param(
                lambda: ConstantEstimator((1.0,), n_obs=0),
                "n_obs must be >= 1",
                id="constant-n_obs",
            ),
            pytest.param(
                lambda: ConstantEstimator((1.0, math.nan), n_obs=1),
                r"constant value must be finite, got \(1.0, nan\)",
                id="constant-value",
            ),
            pytest.param(
                lambda: TrilaterationModel([(10, -9), (5, math.inf), (-15, 0)]),
                r"landmark is not finite: \(5.0, inf\)",
                id="landmark",
            ),
            pytest.param(
                lambda: GradientDescentEstimator(
                    TrilaterationModel(LANDMARKS), init=(math.nan, 15.0)
                ),
                r"init must be finite, got \(nan, 15.0\)",
                id="descent-init",
            ),
        ],
    )
    def test_constructor_rejects(self, make, words):
        with pytest.raises(ValueError, match=words):
            make()

    def test_dim_check_names_the_input(self, tri, scenario_dir):
        # One check for both model kinds, each message naming its input.
        with pytest.raises(
            ValueError, match="^parameter vector has dim 3, model expects 2$"
        ):
            tri.eval_points(np.zeros((1, 3)))
        with pytest.raises(
            ValueError, match="^observation vector has dim 2, estimator expects 3$"
        ):
            GradientDescentEstimator(tri).eval_boxes(np.zeros((1, 2)), np.ones((1, 2)))
        # A single row of the right length is not a batch of rows.
        net = load_mlp(scenario_dir / "mlp_3x32x32x2.json")
        for model, dim, vector in [
            (net, 3, "observation"),
            (GradientDescentEstimator(tri), 3, "observation"),
            (tri, 2, "parameter"),
        ]:
            row = np.arange(5.0, 5.0 + dim)
            words = (
                rf"^{vector} vectors must be a 2-D array of rows, "
                rf"got shape \({dim},\)$"
            )
            with pytest.raises(ValueError, match=words):
                model.eval_points(row)
            with pytest.raises(ValueError, match=words):
                model.eval_boxes(row, row + 1.0)


class TestIdentityErrorVectorContainsExactValue:
    """IdentityEstimator.error_vector_box against x - (g(x) + e), evaluated in
    mpmath at 60 digits and in the floats the point evaluators use. Parameter
    magnitudes reach 1e6, where the point path's roundings (at the scale of
    x) are far above the ulps of the noise the enclosure is built from. An
    observation other than the identity takes the generic composition,
    which must contain the same two values."""

    @staticmethod
    def pick(rng, box):
        """A corner, edge or inner point of the box."""
        return [rng.choice((c.lb, c.ub, rng.uniform(c.lb, c.ub))) for c in box]

    def check(self, obs, exact_observation, magnitude):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(int(magnitude) + 7)
        dim = 3
        est = IdentityEstimator(dim)
        with mpmath.workdps(60):
            for _ in range(200):
                centers = [rng.uniform(-magnitude, magnitude) for _ in range(dim)]
                halves = [
                    rng.choice((0.0, rng.uniform(0, 1e-3 * magnitude)))
                    for _ in range(dim)
                ]
                param_box = IntervalBox.from_bounds(
                    (c - h, c + h) for c, h in zip(centers, halves)
                )
                noise_box = IntervalBox.from_bounds(
                    sorted((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
                    for _ in range(dim)
                )
                out = error_vector(est, obs, param_box, noise_box)
                rows = np.array([self.pick(rng, param_box) for _ in range(8)])
                noise = np.array([self.pick(rng, noise_box) for _ in range(8)])
                floats = rows - est.eval_points(obs.eval_points(rows) + noise)
                for x, e, fl in zip(rows.tolist(), noise.tolist(), floats.tolist()):
                    gx = exact_observation([mpmath.mpf(v) for v in x])
                    for c, xi, gi, ei, fi in zip(out, x, gx, e, fl):
                        exact = mpmath.mpf(xi) - (gi + mpmath.mpf(ei))
                        assert c.lb <= exact <= c.ub
                        assert c.lb <= fi <= c.ub

    @pytest.mark.parametrize("magnitude", [1.0, 1e3, 1e6])
    def test_random_boxes_and_points(self, magnitude):
        self.check(IdentityObservation(3), lambda x: x, magnitude)

    @pytest.mark.parametrize("magnitude", [1.0, 1e3, 1e6])
    def test_affine_observation(self, magnitude):
        a = [[2.0, 0.5, 0.0], [-1.0, 1.0, 0.25], [0.0, 3.0, -0.5]]
        b = [0.1, -2.0, 0.3]

        def exact(x):
            return [
                sum((aij * xj for aij, xj in zip(row, x)), bi)
                for row, bi in zip(a, b)
            ]

        self.check(AffineObservation(a, b), exact, magnitude)


class TestGradientDescentPoint:
    def test_recovers_noise_free_position(self, tri):
        est = GradientDescentEstimator(
            tri, iterations=600, step=0.05, init=(14.5, 15.5)
        )
        target = (15.0, 15.0)
        xhat = est.eval_point(tri.eval_point(target))
        assert math.dist(xhat, target) <= 1e-3

    def test_config_invariants(self, tri):
        with pytest.raises(ValueError, match="iterations"):
            GradientDescentEstimator(tri, iterations=0)
        with pytest.raises(ValueError, match="step"):
            GradientDescentEstimator(tri, step=0.0)
        with pytest.raises(ValueError, match="step"):
            GradientDescentEstimator(tri, step=-0.1)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            GradientDescentEstimator(tri, step=math.inf)

    def test_residual_decreases_on_well_posed_instance(self, tri):
        rng = random.Random(9)
        target = (rng.uniform(5, 25), rng.uniform(5, 25))
        y = tri.eval_point(target)
        init = (target[0] + 1.0, target[1] - 1.0)
        est = GradientDescentEstimator(tri, iterations=1, step=0.01, init=init)
        after_one = est.eval_point(y)

        def cost(x):
            """The descent's cost c(x) = sum_i (||x - a_i|| - y_i)^2."""
            return sum(
                (math.hypot(x[0] - ax, x[1] - ay) - yi) ** 2
                for (ax, ay), yi in zip(tri.landmarks, y)
            )

        assert cost(after_one) < cost(init)

    def test_singular_start_at_landmark_stays_finite(self):
        model = TrilaterationModel([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
        est = GradientDescentEstimator(
            model, iterations=5, step=0.01, init=(0.0, 0.0)
        )
        out = est.eval_point((5.0, 5.0, 5.0))
        assert all(math.isfinite(v) for v in out)

    def test_deterministic(self, tri):
        est = GradientDescentEstimator(tri, iterations=50, step=0.01)
        y = tri.eval_point((12.0, 18.0))
        assert est.eval_point(y) == est.eval_point(y)


class TestGradientDescentBox:
    def test_point_box_brackets_point_result(self, tri):
        est = GradientDescentEstimator(tri, iterations=50, step=0.01)
        y = tri.eval_point((12.0, 18.0))
        out = est.eval_box(IntervalBox.from_bounds(zip(y, y)))
        xhat = est.eval_point(y)
        for v, c in zip(xhat, out):
            assert c.lb <= v <= c.ub
        assert all(c.width <= 1e-9 for c in out)

    def test_containment_sampling(self, tri):
        est = GradientDescentEstimator(tri, iterations=30, step=0.01)
        rng = random.Random(13)
        centers = tri.eval_point((12.0, 18.0))
        box = IntervalBox.from_bounds([(c - 0.3, c + 0.3) for c in centers])
        out = est.eval_box(box)
        for _ in range(1000):
            y = [rng.uniform(c.lb, c.ub) for c in box]
            xhat = est.eval_point(y)
            for v, c in zip(xhat, out):
                assert c.lb <= v <= c.ub

    def test_width_nondecreasing_in_iteration_count(self, tri):
        centers = tri.eval_point((12.0, 18.0))
        box = IntervalBox.from_bounds([(c - 0.2, c + 0.2) for c in centers])
        widths = []
        for k in range(1, 9):
            est = GradientDescentEstimator(tri, iterations=k, step=0.01)
            out = est.eval_box(box)
            widths.append(out[0].width + out[1].width)
        assert all(a <= b for a, b in zip(widths, widths[1:]))

    def test_landmark_inside_iterate_box_stays_sound(self):
        model = TrilaterationModel([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
        est = GradientDescentEstimator(
            model, iterations=10, step=0.02, init=(0.0, 0.0)
        )
        y = (5.0, 5.0, 5.0)
        box = IntervalBox.from_bounds([(v - 0.1, v + 0.1) for v in y])
        out = est.eval_box(box)
        xhat = est.eval_point(y)
        for v, c in zip(xhat, out):
            assert math.isfinite(c.lb) and math.isfinite(c.ub)
            assert c.lb <= v <= c.ub

    def test_isotonicity(self, tri):
        est = GradientDescentEstimator(tri, iterations=20, step=0.01)
        centers = tri.eval_point((12.0, 18.0))
        outer = IntervalBox.from_bounds([(c - 0.4, c + 0.4) for c in centers])
        inner = IntervalBox.from_bounds([(c - 0.1, c + 0.1) for c in centers])
        assert encloses(est.eval_box(outer), est.eval_box(inner))

