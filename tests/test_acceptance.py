"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line. Run with `pytest tests/test_acceptance.py -s` to see
the lines as they complete."""

import dataclasses
import math
import random
import re
import struct
import time

from estbound.interval import (
    Interval,
    IntervalBox,
    iadd,
    imul,
    irelu,
    isqr,
    isqrt,
    isub,
)
from estbound.models import GradientDescentEstimator, TrilaterationModel
from estbound.optimizer import MsConfig, moore_skelboe
from estbound.oracle import OracleConfig
from estbound.pipeline import Scenario, load_scenario, run_validate
from test_mlp import random_model

LANDMARKS = [[10, -9], [5, 12], [-15, 0]]


def report_line(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# --------------------------------------------------------------------------
# criterion 1: randomized fundamental-inclusion checks on the elementary ops


def test_criterion_1_interval_soundness_suite():
    rng = random.Random(0xC0FFEE)
    trials = 10_000

    def rand_interval(lo=-100.0, hi=100.0):
        a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
        if rng.random() < 0.05:
            b = a  # degenerate case
        return Interval(min(a, b), max(a, b))

    def rand_point(iv):
        x = iv.lb + rng.random() * (iv.ub - iv.lb)
        return min(max(x, iv.lb), iv.ub)

    start = time.perf_counter()
    violations = 0
    for _ in range(trials):
        a, b = rand_interval(), rand_interval()
        x, y = rand_point(a), rand_point(b)
        if not iadd(a, b).contains(x + y):
            violations += 1
        if not isub(a, b).contains(x - y):
            violations += 1
        if not imul(a, b).contains(x * y):
            violations += 1
        if not isqr(a).contains(x * x):
            violations += 1
        if not irelu(a).contains(max(0.0, x)):
            violations += 1
        nn = Interval(abs(min(a.lb, a.ub)), max(abs(a.lb), abs(a.ub)))
        nn = Interval(min(nn.lb, nn.ub), max(nn.lb, nn.ub))
        z = rand_point(nn)
        if not isqrt(nn).contains(math.sqrt(z)):
            violations += 1
    elapsed = time.perf_counter() - start
    report_line(
        1,
        f"interval soundness, {trials} trials/op, "
        f"{violations} violations, {elapsed:.2f}s (< 5s)",
        violations == 0 and elapsed < 5.0,
    )


# --------------------------------------------------------------------------
# criterion 2: branch-and-bound on objectives with known minima


def test_criterion_2_analytic_objectives():
    one = Interval.point(1.0)
    minus_two = Interval.point(-2.0)

    t0 = time.perf_counter()
    res1 = moore_skelboe(
        lambda b: isqr(b[0]),
        IntervalBox.from_bounds([(-5, 4)]),
        MsConfig(delta=1e-9, split_dims=(0,)),
    )
    t1 = time.perf_counter() - t0

    t0 = time.perf_counter()
    res2 = moore_skelboe(
        lambda b: iadd(isqr(isub(b[0], one)), isqr(isub(b[1], minus_two))),
        IntervalBox.from_bounds([(-5, 5), (-5, 5)]),
        MsConfig(delta=1e-9, split_dims=(0, 1)),
    )
    t2 = time.perf_counter() - t0

    ok = all(
        [
            res1.converged,
            res1.enclosure.lb <= 0.0 <= res1.enclosure.ub,
            res1.enclosure.width <= 1e-9,
            t1 < 1.0,
            res2.converged,
            res2.enclosure.lb <= 0.0 <= res2.enclosure.ub,
            res2.enclosure.width <= 1e-9,
            t2 < 1.0,
        ]
    )
    report_line(
        2,
        f"analytic minima enclosed, widths {res1.enclosure.width:.2e} / "
        f"{res2.enclosure.width:.2e} (<= 1e-9), {t1:.2f}s / {t2:.2f}s (< 1s)",
        ok,
    )


# --------------------------------------------------------------------------
# criterion 3: identity scenario reproduces the analytic worst case


def test_criterion_3_identity_scenario_exactness(scenario_dir):
    target = math.sqrt(0.02)
    start = time.perf_counter()
    report = run_validate(load_scenario(scenario_dir / "identity.scn"))
    elapsed = time.perf_counter() - start
    ok = all(
        [
            target <= report.eps_high <= target + 1e-4,
            report.eps_low <= target <= report.eps_high,
            elapsed < 10.0,
        ]
    )
    report_line(
        3,
        f"eps_high={report.eps_high:.12f} within [{target:.12f}, "
        f"{target + 1e-4:.12f}], eps_low={report.eps_low}, {elapsed:.2f}s (< 10s)",
        ok,
    )


# --------------------------------------------------------------------------
# criterion 4: range-based scenario is certified for both estimators


def _check_scenario_soundness(num, name, report):
    ok = all(
        [
            report.certified is True,
            (not report.converged) or (report.eps_high - report.eps_low <= report.delta),
            math.isfinite(report.eps_high),
            report.elapsed < 300.0,
        ]
    )
    report_line(
        num,
        f"{name}: certified={report.certified}, eps_high={report.eps_high:.3f} "
        f">= oracle_max={report.oracle_max:.3f}, {report.elapsed:.1f}s (< 300s); "
        f"order-of-magnitude sanity reference: 1.7 (informational only)",
        ok,
    )


def test_criterion_4_descent_estimator_soundness(trilat_gd_run):
    report = trilat_gd_run
    _check_scenario_soundness(4, "descent estimator", report)


def test_criterion_4_network_estimator_soundness(trilat_mlp_run):
    report = trilat_mlp_run
    _check_scenario_soundness(4, "network estimator", report)


# --------------------------------------------------------------------------
# criterion 5: witness semantics in converged runs


def _witness_checks(scenario, report):
    result = report.search
    n = scenario.param_box.dim
    noise_ok = True
    for i, noise_comp in enumerate(scenario.noise_box):
        w = result.witness[n + i]
        noise_ok = noise_ok and bits(w.lb) == bits(noise_comp.lb)
        noise_ok = noise_ok and bits(w.ub) == bits(noise_comp.ub)
    mid = result.witness.midpoint()
    v = scenario.build_objective().error_point(mid[:n], mid[n:])
    value_ok = report.eps_low - report.delta <= v <= report.eps_high
    return noise_ok, value_ok, v


def test_criterion_5_witness_semantics(scenario_dir):
    runs = []

    constant_sc = load_scenario(scenario_dir / "constant.scn")
    runs.append(("constant estimator", constant_sc, run_validate(constant_sc)))

    gd_sc = Scenario(
        param_box=IntervalBox.from_bounds([(10, 20), (10, 20)]),
        noise_box=IntervalBox.from_bounds([(-1e-6, 1e-6)] * 3),
        observation_spec={"type": "trilateration", "landmarks": LANDMARKS},
        estimator_spec={
            "type": "gradient_descent",
            "iterations": 20,
            "step": 0.01,
            "init": [15, 15],
        },
        delta=0.05,
        max_iterations=20_000,
        oracle=OracleConfig(samples=1000, seed=0),
    )
    runs.append(("descent, near-zero noise", gd_sc, run_validate(gd_sc)))

    all_ok = True
    details = []
    for name, sc, report in runs:
        assert report.converged, f"{name}: run unexpectedly did not converge"
        noise_ok, value_ok, v = _witness_checks(sc, report)
        all_ok = all_ok and noise_ok and value_ok
        details.append(f"{name}: noise-frozen={noise_ok}, mid-error {v:.4f} in range={value_ok}")
    report_line(5, "; ".join(details), all_ok)


# --------------------------------------------------------------------------
# criterion 6: interval evaluators contain their point twins


def test_criterion_6_estimator_inclusion_suites():
    rng = random.Random(606)
    violations = 0
    checks = 0

    for _ in range(20):
        model = random_model(rng)
        centers = [rng.uniform(-2, 2) for _ in range(model.n_obs)]
        box = IntervalBox.from_bounds(
            [(c - rng.uniform(0, 0.5), c + rng.uniform(0, 0.5)) for c in centers]
        )
        out = model.eval_box(box)
        for _ in range(50):
            y = [rng.uniform(c.lb, c.ub) for c in box]
            val = model.eval_point(y)
            checks += 1
            if not all(c.lb <= v <= c.ub for v, c in zip(val, out)):
                violations += 1

    for _ in range(20):
        pts = [(rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(3)]
        tri = TrilaterationModel(pts)
        est = GradientDescentEstimator(
            tri,
            iterations=rng.randint(1, 40),
            step=rng.uniform(0.001, 0.04),
            init=(rng.uniform(-5, 30), rng.uniform(-5, 30)),
        )
        target = (rng.uniform(-5, 30), rng.uniform(-5, 30))
        centers = tri.eval_point(target)
        box = IntervalBox.from_bounds(
            [(c - rng.uniform(0, 1), c + rng.uniform(0, 1)) for c in centers]
        )
        out = est.eval_box(box)
        for _ in range(50):
            y = [rng.uniform(c.lb, c.ub) for c in box]
            val = est.eval_point(y)
            checks += 1
            if not all(c.lb <= v <= c.ub for v, c in zip(val, out)):
                violations += 1

    report_line(
        6,
        f"{checks} point-in-box checks across 40 random models/configs, "
        f"{violations} violations",
        checks == 2000 and violations == 0,
    )


# --------------------------------------------------------------------------
# criterion 7: a truncated run is still sound


def test_criterion_7_iteration_cap_soundness(scenario_dir):
    scenario = load_scenario(scenario_dir / "trilat_gd.scn")
    scenario = dataclasses.replace(scenario, max_iterations=100)
    report = run_validate(scenario)
    ok = report.converged is False and report.certified is True
    report_line(
        7,
        f"cap=100: converged={report.converged}, certified={report.certified}, "
        f"eps_high={report.eps_high:.3f} >= oracle_max={report.oracle_max:.3f}",
        ok,
    )


# --------------------------------------------------------------------------
# criterion 8: identical inputs give byte-identical reports (minus timing)


def _strip_elapsed(text: str) -> str:
    return re.sub(r'"elapsed": [^\n,}]+', '"elapsed": 0', text)


def test_criterion_8_determinism(scenario_dir, trilat_gd_run, trilat_mlp_run):
    ok = True
    for name, first_report in (
        ("trilat_gd.scn", trilat_gd_run),
        ("trilat_mlp.scn", trilat_mlp_run),
    ):
        again = run_validate(load_scenario(scenario_dir / name))
        a = _strip_elapsed(first_report.to_json_text()).encode()
        b = _strip_elapsed(again.to_json_text()).encode()
        ok = ok and a == b
    report_line(8, "re-runs byte-identical modulo elapsed for both estimators", ok)
