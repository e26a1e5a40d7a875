"""Brute-force lower bound on the worst-case estimation error.

Sampling the error function can only ever underestimate its maximum, so the
sampled maximum is a certified lower bound. Comparing it against the
branch-and-bound upper bound falsifies soundness bugs: a sampled error above
the reported bound is proof of one. The oracle never claims tightness.

Random sampling uses numpy's PCG64 generator so that a (seed, sample count)
pair reproduces the exact same sample sequence, and a longer run with the
same seed extends the shorter one. Samples are drawn and evaluated in
chunks of CHUNK rows, so memory stays bounded for any sample count: a few
chunk-sized arrays, and the network's scratch (`mlp`'s docstring gives its
size). Drawing the stream in row chunks yields the same rows as drawing it
in one call, and the batched error evaluation gives the same floats as one
call per sample, so the result is the same as a sample-by-sample scan: the
first occurrence of the largest error.

Each chunk is screened, then confirmed. `ErrorObjective.screen_error`
gives every sample's error from the estimator's cheap pass, with a slack
that bounds its distance from `error_point`'s (zero, and `error_point`
itself, for an estimator without a screen). Only the samples whose error
may reach the chunk's or an earlier chunk's largest lower bound (value -
slack) get their exact `error_point` value, in one call per chunk: those
with slack > 0 and not value + slack < that floor, which includes every
NaN or infinite value or slack. Any other sample's exact error is below
the floor, so it is finite and below some exact value the scan keeps, and
the maximum, its first occurrence, the NaN count and first NaN sample, and
the overflow error are those of `error_point` on every sample, on any host
and BLAS. On the bundled network about 3 of 100k samples are confirmed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .framework import ErrorObjective

__all__ = ["OracleConfig", "OracleResult", "sample_max_error", "certify"]

# Samples drawn and evaluated per call; bounds the oracle's memory use.
CHUNK = 4096
# Largest sample count accepted: 100k samples take about 0.016-0.028 s on
# the bundled network scenario and 0.16-0.25 s on the descent one
# (in-process after a first call, which also imports numpy.random, one
# CPU), so the cap allows about 16 s to four minutes of sampling there,
# while 10^12 samples would take two days to four weeks.
MAX_SAMPLES = 10**8


@dataclass(frozen=True)
class OracleConfig:
    samples: int = 100_000
    seed: int = 0
    mode: str = "random"

    def __post_init__(self) -> None:
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(
                f"oracle 'samples' must be 1 to {MAX_SAMPLES}, got {self.samples}"
            )
        if self.seed < 0:
            raise ValueError(f"oracle 'seed' must be non-negative, got {self.seed}")
        if self.mode not in ("random", "grid"):
            raise ValueError(
                f"oracle 'mode' must be 'random' or 'grid', got {self.mode!r}"
            )


@dataclass(frozen=True)
class OracleResult:
    """Largest sampled error and where it occurred. max_observed is a lower
    bound on the true worst-case error. nan_samples counts the samples
    whose error is NaN, which no bound contains; first_nan_x/_e is the
    first of them."""

    max_observed: float
    argmax_x: tuple[float, ...]
    argmax_e: tuple[float, ...]
    samples_used: int
    nan_samples: int = 0
    first_nan_x: tuple[float, ...] = ()
    first_nan_e: tuple[float, ...] = ()


def _grid_points(lows, highs, dim, budget):
    # All corners first (worst cases often sit there), then a regular grid
    # sized to the remaining budget.
    corners = itertools.product(*[(lo, hi) for lo, hi in zip(lows, highs)])
    yield from corners
    # k is the largest integer with k ** dim <= budget. The float root is
    # off by rounding only (4096 ** (1 / 6) is 3.9999999999999996), so
    # rounding it gives that k or one more.
    k = round(budget ** (1.0 / dim))
    while k ** dim > budget:
        k -= 1
    if k >= 2:
        axes = [np.linspace(lo, hi, k) for lo, hi in zip(lows, highs)]
        yield from itertools.product(*axes)


def _random_chunks(lows, highs, samples, seed):
    """Row-wise chunks of one PCG64 stream, uniform over [lows, highs]:
    each value takes one draw, in row-major order, so the rows equal a
    single draw of all samples. Each is low + (high - low) * u for a
    draw u in [0, 1), Generator.uniform's value bit for bit. The rows are
    one reused buffer: each chunk overwrites the rows yielded before it."""
    rng = np.random.Generator(np.random.PCG64(seed))
    low = np.array(lows, dtype=np.float64)
    span = np.array(highs, dtype=np.float64) - low
    buf = np.empty((min(CHUNK, samples), len(lows)))
    for start in range(0, samples, CHUNK):
        rows = buf[: min(CHUNK, samples - start)]
        rng.random(out=rows)
        rows *= span
        rows += low
        yield rows


def _grid_chunks(lows, highs, budget):
    points = _grid_points(lows, highs, len(lows), budget)
    while chunk := list(itertools.islice(points, CHUNK)):
        yield np.array(chunk, dtype=np.float64)


def sample_max_error(obj: ErrorObjective, cfg: OracleConfig) -> OracleResult:
    """Evaluate the error at sampled (parameter, noise) points and return
    the maximum, at its first occurrence; NaN errors are never the maximum,
    they are counted.
    Random mode draws uniformly over the search box; grid mode evaluates
    every corner of the box plus a regular interior grid, and refuses a box
    with more than MAX_SAMPLES corners. A box component whose width
    ub - lb is not finite, which neither mode can sample, and an error that
    overflows float range raise ValueError, the second as objective_box
    does."""
    n = obj.n_params
    box = obj.initial_box()
    lows = [c.lb for c in box]
    highs = [c.ub for c in box]
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        if not math.isfinite(hi - lo):
            raise ValueError(
                f"search box component {i}, [{lo!r}, {hi!r}]: ub - lb must be "
                "finite to sample it"
            )
    if cfg.mode == "grid" and 2**box.dim > MAX_SAMPLES:
        raise ValueError(
            f"grid oracle evaluates all 2**{box.dim} corners of the search box, "
            f"more than {MAX_SAMPLES} samples"
        )

    if cfg.mode == "random":
        chunks = _random_chunks(lows, highs, cfg.samples, cfg.seed)
    else:
        chunks = _grid_chunks(lows, highs, cfg.samples)

    best = -math.inf
    best_point: list[float] = []
    used = 0
    nan_samples = 0
    first_nan: list[float] = []
    for rows in chunks:
        x, e = rows[:, :n], rows[:, n:]
        # An overflow is reported below, with the sample it happened at.
        with np.errstate(over="ignore", invalid="ignore"):
            values, slack = obj.screen_error(x, e)
            # Only a sample whose error may reach the largest lower bound
            # known, here or in an earlier chunk, needs its exact error.
            lower = values - slack
            floor = np.max(lower, initial=best, where=np.isfinite(lower))
            confirm = ~((slack <= 0.0) | (values + slack < floor))
            if confirm.any():
                values[confirm] = obj.error_point(x[confirm], e[confirm])
        nan = np.isnan(values)
        count = int(np.count_nonzero(nan))
        if count and not nan_samples:
            first_nan = rows[int(np.argmax(nan))].tolist()
        nan_samples += count
        # argmax picks the first of equal maxima; later chunks must beat
        # the best strictly, as a sample-by-sample scan would. An infinite
        # error, if any, is the chunk's maximum.
        i = int(np.argmax(np.where(nan, -math.inf, values)))
        del nan  # so the next chunk's buffers do not add to the peak
        if values[i] == math.inf:
            raise ValueError(
                "the estimation error overflows float range at the sample "
                f"x={rows[i, :n].tolist()!r}, e={rows[i, n:].tolist()!r}"
            )
        if values[i] > best:
            best = float(values[i])
            best_point = rows[i].tolist()
        used += len(rows)
    return OracleResult(
        max_observed=best,
        argmax_x=tuple(best_point[:n]),
        argmax_e=tuple(best_point[n:]),
        samples_used=used,
        nan_samples=nan_samples,
        first_nan_x=tuple(first_nan[:n]),
        first_nan_e=tuple(first_nan[n:]),
    )


def certify(report_upper: float, oracle: OracleResult) -> bool:
    """True iff no sampled error is NaN and the sampled maximum does not
    exceed the reported upper bound (one ulp of slack for the comparison
    itself). False means the upper bound is provably wrong and must fail
    the build."""
    return oracle.nan_samples == 0 and oracle.max_observed <= math.nextafter(
        report_upper, math.inf
    )
