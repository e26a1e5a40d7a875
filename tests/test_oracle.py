import math
import tracemalloc

import numpy as np
import pytest

from estbound import oracle
from estbound.framework import ErrorObjective
from estbound.interval import IntervalBox
from estbound.models import (
    ConstantEstimator,
    IdentityEstimator,
    IdentityObservation,
)
from estbound.oracle import (
    CHUNK,
    OracleConfig,
    OracleResult,
    certify,
    sample_max_error,
)
from estbound.pipeline import load_scenario


def identity_objective_of_dim(n):
    return ErrorObjective(
        IdentityObservation(n),
        IdentityEstimator(n),
        IntervalBox.from_bounds([(0, 1)] * n),
        IntervalBox.from_bounds([(-0.1, 0.1)] * n),
    )


def identity_objective():
    return identity_objective_of_dim(2)


class TestConfig:
    def test_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            OracleConfig(samples=0)

    def test_mode_must_be_known(self):
        with pytest.raises(ValueError):
            OracleConfig(mode="sobol")


class TestGridMode:
    def test_identity_max_sits_on_noise_corner(self):
        obj = identity_objective()
        res = sample_max_error(obj, OracleConfig(samples=500, seed=0, mode="grid"))
        assert math.isclose(res.max_observed, math.sqrt(0.02), rel_tol=1e-12)
        assert all(abs(e) == 0.1 for e in res.argmax_e)
        # reported argmax reproduces the reported maximum
        assert obj.error_point(res.argmax_x, res.argmax_e) == res.max_observed

    def test_all_corners_evaluated(self):
        # constant estimator: the error is ||x - c||, maximal at a parameter
        # corner, so missing any corner would lower the reported max
        obj = ErrorObjective(
            IdentityObservation(2),
            ConstantEstimator((0.0, 0.0), n_obs=2),
            IntervalBox.from_bounds([(-3, 1), (-1, 7)]),
            IntervalBox.from_bounds([(0, 0), (0, 0)]),
        )
        res = sample_max_error(obj, OracleConfig(samples=1, seed=0, mode="grid"))
        assert res.samples_used >= 2 ** 4
        assert res.max_observed == obj.error_point((-3.0, 7.0), (0.0, 0.0))
        assert res.argmax_x == (-3.0, 7.0)

    @pytest.mark.parametrize(
        "samples, side", [(4095, 3), (4096, 4), (4097, 4), (15625, 5)]
    )
    def test_grid_side_is_the_exact_root(self, samples, side):
        # A 6-dim search box: 2**6 corners, then side**6 grid points, the
        # largest grid that fits the budget (4096 = 4**6, 15625 = 5**6).
        obj = identity_objective_of_dim(3)
        res = sample_max_error(obj, OracleConfig(samples=samples, mode="grid"))
        assert res.samples_used == 2**6 + side**6

    def test_corners_beyond_the_sample_cap_rejected(self, monkeypatch):
        # Grid mode evaluates every corner whatever `samples` is, so a
        # search box with more than MAX_SAMPLES corners is refused before
        # any sampling: 2**28 corners for a 14-dim identity scenario.
        with pytest.raises(ValueError, match=r"2\*\*28 corners"):
            sample_max_error(
                identity_objective_of_dim(14), OracleConfig(samples=10, mode="grid")
            )
        # At a cap of 16, a 4-dim search box (16 corners) is sampled and a
        # 6-dim one (64 corners) is refused before its first sample.
        monkeypatch.setattr(oracle, "MAX_SAMPLES", 16)
        cfg = OracleConfig(samples=1, mode="grid")
        assert sample_max_error(identity_objective_of_dim(2), cfg).samples_used == 16
        obj = identity_objective_of_dim(3)
        calls = []
        monkeypatch.setattr(obj, "error_point", lambda x, e: calls.append(x))
        with pytest.raises(ValueError, match=r"2\*\*6 corners"):
            sample_max_error(obj, cfg)
        assert calls == []

    def test_degenerate_noise_perfect_estimator(self):
        obj = ErrorObjective(
            IdentityObservation(2),
            IdentityEstimator(2),
            IntervalBox.from_bounds([(0, 1), (0, 1)]),
            IntervalBox.from_bounds([(0.0, 0.0), (0.0, 0.0)]),
        )
        res = sample_max_error(obj, OracleConfig(samples=100, seed=0, mode="grid"))
        assert res.max_observed <= 1e-12


class TestRandomMode:
    def test_deterministic(self):
        obj = identity_objective()
        cfg = OracleConfig(samples=2000, seed=123)
        assert sample_max_error(obj, cfg) == sample_max_error(obj, cfg)

    def test_nondecreasing_in_sample_count(self):
        obj = identity_objective()
        maxes = [
            sample_max_error(obj, OracleConfig(samples=n, seed=9)).max_observed
            for n in (100, 1000, 5000)
        ]
        assert maxes[0] <= maxes[1] <= maxes[2]

    def test_stays_inside_boxes(self):
        obj = identity_objective()
        res = sample_max_error(obj, OracleConfig(samples=500, seed=2))
        assert obj.param_box.contains(res.argmax_x)
        assert obj.noise_box.contains(res.argmax_e)
        assert res.samples_used == 500

    def test_lower_bounds_the_true_maximum(self):
        obj = identity_objective()
        res = sample_max_error(obj, OracleConfig(samples=5000, seed=4))
        assert res.max_observed <= math.sqrt(0.02)

    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 2**40 + 3])
    def test_draws_are_generator_uniform_bit_for_bit(self, seed):
        # Zero-width and negative components, and a last chunk shorter than
        # CHUNK; the chunks share one buffer, so each is copied as it comes.
        lows = [0.0, -3.5, 2.0, -1e10, -0.25, -0.0]
        highs = [1.0, -1.25, 2.0, 1e10, -0.25, 0.0]
        samples = 2 * CHUNK + 123
        chunks = [
            rows.copy() for rows in oracle._random_chunks(lows, highs, samples, seed)
        ]
        assert [len(rows) for rows in chunks] == [CHUNK, CHUNK, 123]
        rng = np.random.Generator(np.random.PCG64(seed))
        expected = rng.uniform(lows, highs, size=(samples, len(lows)))
        assert np.vstack(chunks).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["random", "grid"])
    def test_box_wider_than_float_range_is_refused(self, mode):
        obj = ErrorObjective(
            IdentityObservation(2),
            IdentityEstimator(2),
            IntervalBox.from_bounds([(0.0, 1.0), (-1e308, 1e308)]),
            IntervalBox.from_bounds([(-0.1, 0.1)] * 2),
        )
        with pytest.raises(ValueError, match=r"component 1, \[-1e\+308, 1e\+308\]"):
            sample_max_error(obj, OracleConfig(samples=100, mode=mode))


class Recording(ErrorObjective):
    """Identity objective that records the rows the oracle evaluates and,
    when given scripted values, returns those instead of the errors."""

    def __init__(self, scripted=None):
        base = identity_objective()
        super().__init__(
            base.observation, base.estimator, base.param_box, base.noise_box
        )
        self.scripted = scripted
        self.chunks = []

    def error_point(self, x, e):
        start = sum(len(c) for c in self.chunks)
        self.chunks.append(np.hstack([x, e]))
        if self.scripted is None:
            return super().error_point(x, e)
        return np.asarray(self.scripted[start : start + len(x)], dtype=np.float64)


class TestChunking:
    @pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 10_001])
    def test_stream_and_result_match_one_shot_scan(self, samples):
        obj = Recording()
        res = sample_max_error(obj, OracleConfig(samples=samples, seed=7))
        box = obj.initial_box()
        rng = np.random.Generator(np.random.PCG64(7))
        expected = rng.uniform(
            [c.lb for c in box], [c.ub for c in box], size=(samples, box.dim)
        )
        assert all(len(c) <= CHUNK for c in obj.chunks)
        assert np.array_equal(np.vstack(obj.chunks), expected)
        # the sample-by-sample scan the chunked oracle must reproduce, with
        # the identity pair's error written out in plain Python
        best, best_row = -math.inf, None
        for row in expected.tolist():
            acc = 0.0
            for xi, ei in zip(row[:2], row[2:]):
                d = xi - (xi + ei)
                acc += d * d
            value = math.sqrt(acc)
            if value > best:
                best, best_row = value, row
        assert res.max_observed == best
        assert res.argmax_x == tuple(best_row[:2])
        assert res.argmax_e == tuple(best_row[2:])
        assert res.samples_used == samples

    def test_grid_mode_is_chunked(self):
        obj = Recording()
        res = sample_max_error(obj, OracleConfig(samples=10_000, seed=0, mode="grid"))
        assert all(len(c) <= CHUNK for c in obj.chunks)
        assert len(obj.chunks) > 1
        assert sum(len(c) for c in obj.chunks) == res.samples_used

    def test_ties_pick_the_first_sample(self):
        obj = Recording(scripted=[0.5] * (2 * CHUNK))
        res = sample_max_error(obj, OracleConfig(samples=2 * CHUNK, seed=3))
        first = obj.chunks[0][0].tolist()
        assert res.max_observed == 0.5
        assert res.argmax_x + res.argmax_e == tuple(first)

    def test_first_maximum_across_chunks(self):
        values = [1.0] * (2 * CHUNK)
        values[5] = values[CHUNK + 3] = 2.0
        obj = Recording(scripted=values)
        res = sample_max_error(obj, OracleConfig(samples=2 * CHUNK, seed=3))
        assert res.argmax_x + res.argmax_e == tuple(obj.chunks[0][5].tolist())

    def test_nan_is_never_the_maximum(self):
        obj = Recording(scripted=[math.nan, 1.0, math.nan, 3.0, math.nan])
        res = sample_max_error(obj, OracleConfig(samples=5, seed=0))
        assert res.max_observed == 3.0
        assert res.argmax_x + res.argmax_e == tuple(obj.chunks[0][3].tolist())
        res = sample_max_error(
            Recording(scripted=[math.nan] * 3), OracleConfig(samples=3, seed=0)
        )
        assert res.max_observed == -math.inf
        assert res.argmax_x == () and res.argmax_e == ()

    def test_nan_samples_are_counted_with_the_first(self):
        values = [1.0] * (2 * CHUNK + 5)
        for i in (CHUNK + 7, CHUNK + 9, 2 * CHUNK + 1):
            values[i] = math.nan
        obj = Recording(scripted=values)
        res = sample_max_error(obj, OracleConfig(samples=len(values), seed=4))
        assert res.nan_samples == 3
        first = tuple(obj.chunks[1][7].tolist())
        assert res.first_nan_x + res.first_nan_e == first
        assert len(res.first_nan_x) == obj.n_params
        assert res.max_observed == 1.0

    def test_no_nan_counts_zero(self):
        res = sample_max_error(Recording(), OracleConfig(samples=100, seed=0))
        assert res.nan_samples == 0
        assert res.first_nan_x == () and res.first_nan_e == ()

    def test_memory_stays_bounded(self, scenario_dir):
        # Drawing and evaluating 200k samples at once takes tens of MB; the
        # chunked oracle holds a few chunk-sized arrays, about 4 MiB.
        obj = load_scenario(scenario_dir / "trilat_mlp.scn").build_objective()
        tracemalloc.start()
        try:
            sample_max_error(obj, OracleConfig(samples=200_000, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestCertify:
    @staticmethod
    def result(value):
        return OracleResult(
            max_observed=value, argmax_x=(0.0,), argmax_e=(0.0,), samples_used=1
        )

    def test_passes_when_below(self):
        assert certify(1.7, self.result(1.52))

    def test_fails_when_above(self):
        assert not certify(0.5, self.result(0.6))

    def test_equal_passes_with_slack(self):
        assert certify(0.25, self.result(0.25))

    def test_fails_on_any_nan_sample(self):
        nan = OracleResult(
            max_observed=0.5, argmax_x=(0.0,), argmax_e=(0.0,), samples_used=9,
            nan_samples=1, first_nan_x=(0.25,), first_nan_e=(0.0,),
        )
        assert not certify(1.7, nan)

    def test_one_ulp_above_still_passes(self):
        upper = 0.25
        assert certify(upper, self.result(math.nextafter(upper, math.inf)))
        assert not certify(
            upper,
            self.result(math.nextafter(math.nextafter(upper, 1.0), 1.0)),
        )
