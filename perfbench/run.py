"""estbound benchmark: time to a certified bound, its tightness, and the cost
of each layer.

Run from the root of a checkout:

  python3 perfbench/run.py --workload trilat_mlp --seed 1 --seconds 60 --trace 0

Every measurement runs in a fresh single-threaded child interpreter
(child.py), one after another. With --trace 0 the run reports the
end-to-end metrics: set-up time and the time of pipeline.run_validate, both
taken at a reference host speed (see measure_end_to_end), peak memory and
the bound itself. With --trace 1 it reports per-layer metrics
from microbenchmarks at fixed inputs and from spans recorded around calls
into the library. Every validation result passes a correctness gate, and
the bounds must equal the references in reference.json bit for bit. The
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import CHUNK_STATE

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
WORK_DIR = ".perfbench_work"

# Fresh interpreters timed for setup_s before each validation, so that the
# set-up samples are spread over the whole run.
SETUPS_PER_VALIDATE = 6
# A fixed scale: setup_s and validate_s are CPU seconds at the host speed
# where one calibrate.chunk() takes this long. It is about the median chunk
# time beside a child on the 2.1 GHz Xeon host the benchmark was defined on.
REFERENCE_CHUNK_S = 250e-6
# Traced set-up runs for the pipeline / cli layer metrics.
TRACED_SETUP_RUNS = 3
# Samples of the separate oracle pass on workloads whose scenario has the
# oracle switched off.
EXTRA_ORACLE_SAMPLES = 20_000
# A run must end well inside the 180 s allowed per invocation.
CHILD_TIMEOUT_S = 150.0
IDENTITY_MAX_ERROR = math.sqrt(0.02)


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def _trilat(doc: dict, root: Path, work: Path, seed: int) -> dict:
    doc["ms"]["max_iterations"] = 2000
    doc["oracle"] = {"samples": 100_000, "seed": seed, "mode": "random"}
    estimator = doc["estimator"]
    if "weights_path" in estimator:
        weights = root / "scenarios" / estimator["weights_path"]
        estimator["weights_path"] = os.path.relpath(weights, work)
    return doc


def _identity_deep(doc: dict, root: Path, work: Path, seed: int) -> dict:
    doc["ms"]["max_iterations"] = 100_000
    doc["oracle"] = None
    return doc


# workload -> (committed scenario it is generated from, generator)
WORKLOADS = {
    "trilat_mlp": ("trilat_mlp.scn", _trilat),
    "trilat_gd": ("trilat_gd.scn", _trilat),
    "identity_deep": ("identity.scn", _identity_deep),
}


def write_scenario(workload: str, root: Path, work: Path, seed: int) -> Path:
    """Generate the workload's scenario document from --seed; the library
    only ever sees the generated file."""
    source, generate = WORKLOADS[workload]
    try:
        doc = json.loads((root / "scenarios" / source).read_text())
    except OSError as exc:
        raise BenchError(f"cannot read committed scenario: {exc}") from exc
    path = work / f"{workload}.scn"
    path.write_text(json.dumps(generate(doc, root, work, seed), indent=1) + "\n")
    return path


def run_child(root: Path, deadline: float, mode: str, scenario: Path, *extra) -> dict:
    """Run child.py once and return its JSON result; a crash or timeout is
    returned as {"error": ...}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode,
           "--scenario", str(scenario), "--root", str(root), *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{mode} child exited {proc.returncode}: {tail[0]}"}
    if proc.returncode != 0 and "error" not in out:
        out["error"] = f"{mode} child exited {proc.returncode}"
    return out


def _raised(result: dict) -> list[str]:
    return [f"raised: {result['error']}"] if "error" in result else []


def gate(workload: str, result: dict, reference: dict) -> list[str]:
    """Reasons a validation result is wrong; empty when it passes."""
    if "error" in result:
        return _raised(result)
    report = result["report"]
    lo, hi = report["eps_low"], report["eps_high"]
    problems = []
    if not (math.isfinite(lo) and math.isfinite(hi)):
        problems.append(f"non-finite bound [{lo!r}, {hi!r}]")
    elif lo > hi:
        problems.append(f"eps_low {lo!r} > eps_high {hi!r}")
    if report["certified"] is False:
        problems.append(f"not certified: oracle_max {report['oracle_max']!r} > eps_high")
    if workload.startswith("trilat") and report["certified"] is None:
        problems.append("oracle did not run")
    if workload == "identity_deep":
        if not lo <= IDENTITY_MAX_ERROR <= hi:
            problems.append(f"sqrt(0.02) outside [{lo!r}, {hi!r}]")
        extra = result.get("extra_oracle_max")
        if extra is not None and extra > hi:
            problems.append(f"oracle pass found {extra!r} > eps_high")
    for field, expected in reference.items():
        got = report[field]
        if isinstance(expected, float):
            same = isinstance(got, float) and got.hex() == expected.hex()
        else:
            same = got == expected
        if not same:
            problems.append(f"{field} differs: {got!r} != reference {expected!r}")
    return problems


def _bound_metrics(workload: str, report: dict) -> dict:
    lo, hi = report["eps_low"], report["eps_high"]
    best = report["oracle_max"] if workload.startswith("trilat") else IDENTITY_MAX_ERROR
    return {
        "eps_high": (hi, None, "param"),
        "enclosure_width": (hi - lo, None, "param"),
        "bound_gap": (hi - best, None, "param"),
    }


def _median(samples: list, scale: float = 1.0) -> tuple[float, list]:
    scaled = [scale * x for x in samples]
    return statistics.median(scaled), scaled


@contextlib.contextmanager
def calibrator(work: Path):
    """Pin this process, and with it every child it starts, to one CPU and
    run calibrate.py beside them there; yields the calibrator's state file."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    path = work / f"calibrator-{os.getpid()}.state"
    path.write_bytes(bytes(CHUNK_STATE.size))
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "calibrate.py"), str(path)])
    try:
        started = time.monotonic()
        while CHUNK_STATE.unpack(path.read_bytes())[0] == 0:
            if proc.poll() is not None or time.monotonic() - started > 10.0:
                raise BenchError("calibrator did not start")
            time.sleep(0.01)
        yield path
    finally:
        proc.terminate()
        proc.wait()
        path.unlink()


def at_reference_speed(cpu_s: float, calibrator_states: list) -> float:
    """cpu_s rescaled from the speed the host ran at during the span, as the
    calibrator saw it, to the speed at which a chunk takes REFERENCE_CHUNK_S."""
    (chunks_start, cpu_start), (chunks_end, cpu_end) = calibrator_states
    if chunks_end <= chunks_start:
        raise BenchError("calibrator made no progress during a measurement")
    chunk_s = (cpu_end - cpu_start) / (chunks_end - chunks_start)
    return cpu_s * REFERENCE_CHUNK_S / chunk_s


def measure_end_to_end(ctx) -> dict:
    """Rounds of set-ups and one validation, each child sharing one CPU
    with the calibrator.

    On a shared host the same validation took 1x to 1.9x its fastest wall
    time within one minute, and whole minutes ran 25% slow, so medians of
    wall time spread past the bounds from run to run. The child's CPU
    seconds, divided by the calibrator's CPU seconds per chunk over the same
    span, cancel the host's speed: the ratio is the work done, in units of
    a fixed reference loop, and is reported as seconds at the speed where
    one chunk takes REFERENCE_CHUNK_S. Wall times are printed beside it.
    """
    setup, passed, durations, walls = [], [], [], {"setup_s": [], "validate_s": []}
    with calibrator(ctx.work) as state:
        cal = ("--calibrator", str(state))

        def set_up() -> float:
            started = time.monotonic()
            out = ctx.attempt("setup", _raised, *cal)
            if "error" not in out:
                setup.append(at_reference_speed(out["setup_cpu_s"], out["calibrator"]))
                walls["setup_s"].append(out["setup_s"])
            return time.monotonic() - started

        # Set up and validate until the next round would likely overrun
        # --seconds; at least one round. Then set up for the time left, so
        # that a workload with long validations still gets many set-ups.
        while True:
            started = time.monotonic()
            for _ in range(SETUPS_PER_VALIDATE):
                set_up()
            out = ctx.attempt("validate", lambda r: gate(ctx.workload, r, ctx.reference),
                              *cal)
            durations.append(time.monotonic() - started)
            if "error" not in out:
                walls["validate_s"].append(out["validate_s"])
                out["validate_s"] = at_reference_speed(out["validate_cpu_s"], out["calibrator"])
                passed.append(out)
            if time.monotonic() + max(durations) > ctx.measure_until:
                break
        longest = 0.0
        while time.monotonic() + longest < ctx.measure_until:
            longest = max(longest, set_up())
    for name, samples in walls.items():
        print(f"{ctx.workload:14} {name:34} wall time beside the calibrator: {samples}")
    metrics = {}
    if setup:
        metrics["setup_s"] = (*_median(setup), "s")
    if passed:
        metrics["validate_s"] = (*_median([r["validate_s"] for r in passed]), "s")
        metrics["peak_rss_mb"] = (*_median([r["peak_rss_mb"] for r in passed]), "MB")
        metrics.update(_bound_metrics(ctx.workload, passed[0]["report"]))
    return metrics


def measure_layers(ctx) -> dict:
    micro = ctx.attempt("micro", lambda r: _raised(r) or list(r["failures"]))
    units = {"ns": "ns", "us": "us", "ms": "ms", "_s": "s"}
    metrics = {}
    for name, value in micro.get("metrics", {}).items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = (value, None, unit)

    setup = []
    for _ in range(TRACED_SETUP_RUNS):
        out = ctx.attempt("setup", _raised, "--trace")
        if "error" not in out:
            setup.append(out)
    if setup:
        metrics["cli.import_s"] = (*_median([r["import_s"] for r in setup]), "s")
        metrics["pipeline.load_scenario_ms"] = (
            *_median([r["load_scenario_s"] for r in setup], 1e3), "ms")
        metrics["pipeline.build_objective_ms"] = (
            *_median([r["build_objective_s"] for r in setup], 1e3), "ms")

    check = lambda r: gate(ctx.workload, r, ctx.reference)  # noqa: E731
    plain = ctx.attempt("validate", check)
    oracle_pass = []
    if ctx.workload == "identity_deep":
        oracle_pass = ["--oracle-samples", str(EXTRA_ORACLE_SAMPLES),
                       "--oracle-seed", str(ctx.seed)]
    spans_path = ctx.work / f"spans-{ctx.workload}.csv"
    traced = ctx.attempt("validate", check, "--trace", "--spans", str(spans_path),
                         *oracle_pass)
    if "error" in traced or "error" in plain:
        return metrics

    spans = traced["spans"]
    report = traced["report"]
    search = spans["moore_skelboe"]
    objective = spans["objective_box"]
    sampler = spans["sample_max_error"]
    error_point = spans["error_point"]
    iterations = report["iterations"]
    samples = error_point["calls"]
    traced_metrics = {
        "framework.objective_box_us": (1e6 * objective["total_s"] / objective["calls"], "us"),
        "framework.objective_box_calls": (objective["calls"], "count"),
        "framework.error_point_us": (1e6 * error_point["total_s"] / samples, "us"),
        "optimizer.search_s": (search["total_s"], "s"),
        "optimizer.self_s": (search["self_s"], "s"),
        "optimizer.iterations": (iterations, "count"),
        "optimizer.cover_size": (report["cover_size"], "count"),
        # The first objective_box call evaluates the initial box.
        "optimizer.evals_per_iter": ((objective["calls"] - 1) / iterations, "evals/iter"),
        "oracle.oracle_s": (sampler["total_s"], "s"),
        "oracle.self_s": (sampler["self_s"], "s"),
        "oracle.samples": (samples, "count"),
        "oracle.samples_per_s": (samples / sampler["total_s"], "1/s"),
        "trace.spans": (traced["span_count"], "count"),
        "trace.overhead_s": (traced["validate_s"] - plain["validate_s"], "s"),
    }
    for name, (value, unit) in traced_metrics.items():
        metrics[name] = (value, None, unit)
    return metrics


class Context:
    def __init__(self, args, root: Path, reference: dict) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.root = root
        self.reference = reference
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        self.scenario = write_scenario(args.workload, root, self.work, args.seed)
        now = time.monotonic()
        self.measure_until = now + args.seconds
        self.deadline = now + CHILD_TIMEOUT_S
        self.attempted = 0
        self.failed = 0

    def attempt(self, mode: str, check, *extra) -> dict:
        """Run one child, count it, and count it failed if check finds a
        problem; problems are reported on standard error."""
        out = run_child(self.root, self.deadline, mode, self.scenario, *extra)
        self.attempted += 1
        problems = check(out)
        if problems:
            self.failed += 1
            out.setdefault("error", "; ".join(problems))
            for problem in problems:
                print(f"FAILED {self.workload} {mode}: {problem}", file=sys.stderr)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "estbound" / "__init__.py").is_file():
            raise BenchError(f"no estbound sources under {root / 'src'}")
        references = json.loads(REFERENCE.read_text())["references"]
        ctx = Context(args, root, references[args.workload])
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        metrics = measure_layers(ctx) if args.trace else measure_end_to_end(ctx)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, (value, samples, unit) in sorted(metrics.items()):
        spread = f"  median of {len(samples)}: {samples}" if samples else ""
        print(f"{args.workload:14} {name:34} {value!r} {unit}{spread}")
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
