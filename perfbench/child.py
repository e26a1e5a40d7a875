"""One measurement in a fresh, single-threaded interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's `src`; prints
one JSON object as its last line. Modes:

  setup     import estbound, load_scenario, Scenario.build_objective
  validate  set up, then time one pipeline.run_validate
  micro     layer microbenchmarks at fixed inputs

With --trace, spans are recorded around calls into estbound's public
functions (see tracing.py); the summary is part of the output and the raw
spans are written to --spans. With --calibrator, setup and validate also
report their CPU seconds and the calibrator's state at both ends of the
timed span (see calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import mmap
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import CHUNK_STATE
from tracing import Tracer

# Each microbenchmark repeat runs for at least this long; the reported
# figure is the median over MICRO_REPEATS repeats.
MICRO_TARGET_S = 0.05
MICRO_REPEATS = 5


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calibrator_state(path):
    """A function returning [chunks done, CPU seconds] of the calibrator
    writing to path, or None without a calibrator."""
    if not path:
        return lambda: None
    with open(path, "rb") as fh:
        state = mmap.mmap(fh.fileno(), CHUNK_STATE.size, access=mmap.ACCESS_READ)
    return lambda: list(CHUNK_STATE.unpack_from(state, 0))


def _install_layer_spans(tracer: Tracer) -> None:
    from estbound import framework, optimizer, oracle, pipeline

    tracer.install(pipeline, "load_scenario", "load_scenario")
    tracer.install(pipeline.Scenario, "build_objective", "build_objective")
    tracer.install(optimizer, "moore_skelboe", "moore_skelboe")
    tracer.install(framework.ErrorObjective, "objective_box", "objective_box")
    tracer.install(oracle, "sample_max_error", "sample_max_error")
    tracer.install(framework.ErrorObjective, "error_point", "error_point")


def cmd_setup(args) -> dict:
    if not args.trace:
        calibrator = _calibrator_state(args.calibrator)
        cal_start = calibrator()
        cpu_start = time.process_time()
        start = time.perf_counter()
        from estbound import pipeline

        pipeline.load_scenario(args.scenario).build_objective()
        return {
            "setup_s": time.perf_counter() - start,
            "setup_cpu_s": time.process_time() - cpu_start,
            "calibrator": [cal_start, calibrator()],
        }

    start = time.perf_counter()
    import estbound.cli  # noqa: F401  (what `estbound validate` imports)

    import_s = time.perf_counter() - start
    from estbound import pipeline

    tracer = Tracer()
    _install_layer_spans(tracer)
    pipeline.load_scenario(args.scenario).build_objective()
    spans = tracer.summary()
    return {
        "import_s": import_s,
        "load_scenario_s": spans["load_scenario"]["total_s"],
        "build_objective_s": spans["build_objective"]["total_s"],
    }


def cmd_validate(args) -> dict:
    from estbound import oracle, pipeline

    scenario = pipeline.load_scenario(args.scenario)
    scenario.build_objective()
    tracer = Tracer()
    if args.trace:
        _install_layer_spans(tracer)
    calibrator = _calibrator_state(args.calibrator)
    cal_start = calibrator()
    cpu_start = time.process_time()
    start = time.perf_counter()
    report = pipeline.run_validate(scenario)
    validate_s = time.perf_counter() - start
    out = {
        "validate_s": validate_s,
        "validate_cpu_s": time.process_time() - cpu_start,
        "calibrator": [cal_start, calibrator()],
        "report": report.to_dict(),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if args.oracle_samples:
        # A separate sampling pass for scenarios whose validation runs with
        # the oracle off, so the oracle layer is still measured.
        cfg = oracle.OracleConfig(samples=args.oracle_samples, seed=args.oracle_seed)
        result = oracle.sample_max_error(scenario.build_objective(), cfg)
        out["extra_oracle_max"] = result.max_observed
    if args.trace:
        out["spans"] = tracer.summary()
        out["span_count"] = len(tracer.spans)
        tracer.dump(args.spans)
    return out


def _per_call_s(fn, *args) -> float:
    """Median seconds per call of fn(*args) over MICRO_REPEATS repeats."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn(*args)
        if time.perf_counter() - start >= MICRO_TARGET_S / 4:
            break
        number *= 4
    times = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn(*args)
        times.append((time.perf_counter() - start) / number)
    return statistics.median(times)


def _push_pop(cover, entries) -> None:
    insert = cover.insert
    pop = cover.pop
    for entry in entries:
        insert(entry)
        pop()


def cmd_micro(args) -> dict:
    import numpy as np

    from estbound import interval, mlp, models, optimizer, oracle, pipeline

    Interval, IntervalBox = interval.Interval, interval.IntervalBox
    root = Path(args.root)
    failures = []

    def encloses(box, point, what):
        if not box.contains(point):
            failures.append(f"{what}: box result does not contain point result")

    # Fixed inputs, independent of the workload seed.
    a = Interval(1.25, 2.5)
    b = Interval(-0.75, 3.0)
    c = Interval(2.0, 9.0)
    search_box = IntervalBox.from_bounds(
        [(5, 25), (5, 25), (-0.2, 0.2), (-0.2, 0.2), (-0.2, 0.2)]
    )
    param_box = IntervalBox.from_bounds([(10.0, 10.5), (12.0, 12.5)])
    param_point = param_box.midpoint()
    noise_box = IntervalBox.from_bounds([(-0.2, 0.2)] * 3)

    trilat_doc = json.loads((root / "scenarios" / "trilat_gd.scn").read_text())
    observation = models.TrilaterationModel(trilat_doc["observation"]["landmarks"])
    gd_spec = trilat_doc["estimator"]
    gd = models.GradientDescentEstimator(
        observation,
        iterations=int(gd_spec["iterations"]),
        step=float(gd_spec["step"]),
        init=gd_spec["init"],
    )
    net = mlp.load_mlp(root / "scenarios" / "mlp_3x32x32x2.json")
    obs_box = observation.eval_box(param_box) + noise_box
    obs_point = observation.eval_point(param_point)
    encloses(observation.eval_box(param_box), obs_point, "trilateration")
    encloses(net.eval_box(obs_box), net.eval_point(obs_point), "mlp")
    encloses(gd.eval_box(obs_box), gd.eval_point(obs_point), "gradient descent")

    objective = pipeline.load_scenario(args.scenario).build_objective()
    initial = objective.initial_box()
    mid = initial.midpoint()
    n = objective.n_params
    if not objective.objective_box(initial).contains(
        -objective.error_point(mid[:n], mid[n:])
    ):
        failures.append("objective_box does not contain -error_point")

    # A cover held at a fixed size: each timed pair pushes one entry and
    # pops the front.
    cover_size = 10_000
    rng = np.random.Generator(np.random.PCG64(0))
    lbs = rng.uniform(-1.0, 0.0, size=2 * cover_size).tolist()
    cover_entries = [
        optimizer.CoverEntry(search_box, Interval(lb, lb + 1.0)) for lb in lbs
    ]
    cover = optimizer.Cover()
    for entry in cover_entries[:cover_size]:
        cover.insert(entry)
    pushes = cover_entries[cover_size:]

    oracle_samples = 500
    oracle_cfg = oracle.OracleConfig(samples=oracle_samples, seed=0)

    ns, us = 1e9, 1e6
    return {
        "failures": failures,
        "metrics": {
            "interval.iadd_ns": ns * _per_call_s(interval.iadd, a, b),
            "interval.imul_ns": ns * _per_call_s(interval.imul, a, b),
            "interval.isqr_ns": ns * _per_call_s(interval.isqr, b),
            "interval.isqrt_ns": ns * _per_call_s(interval.isqrt, c),
            "interval.bisect_ns": ns * _per_call_s(search_box.bisect, 0),
            "mlp.eval_box_us": us * _per_call_s(net.eval_box, obs_box),
            "mlp.eval_point_us": us * _per_call_s(net.eval_point, obs_point),
            "models.trilat_eval_box_us": us
            * _per_call_s(observation.eval_box, param_box),
            "models.trilat_eval_point_us": us
            * _per_call_s(observation.eval_point, param_point),
            "models.gd_eval_box_us": us * _per_call_s(gd.eval_box, obs_box),
            "models.gd_eval_point_us": us * _per_call_s(gd.eval_point, obs_point),
            "framework.objective_box_fixed_us": us
            * _per_call_s(objective.objective_box, initial),
            "optimizer.cover_push_pop_us": us
            * _per_call_s(_push_pop, cover, pushes)
            / len(pushes),
            "oracle.sample_us": us
            * _per_call_s(oracle.sample_max_error, objective, oracle_cfg)
            / oracle_samples,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "validate", "micro"))
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--root", default=".")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--calibrator")
    parser.add_argument("--oracle-samples", type=int, default=0)
    parser.add_argument("--oracle-seed", type=int, default=0)
    args = parser.parse_args()
    commands = {"setup": cmd_setup, "validate": cmd_validate, "micro": cmd_micro}
    try:
        out = commands[args.mode](args)
    except Exception as exc:  # reported to run.py, which counts the failure
        traceback.print_exc(file=sys.stderr)
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
