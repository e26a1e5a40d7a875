"""Command-line front end.

Subcommands:
  validate   run a scenario file end to end and emit a validation report
  oracle     run only the sampling oracle for a scenario
  train-mlp  fit a network on synthetic noisy observations (fixture builds)

Exit codes: 0 success (certified, or oracle disabled), 2 certification
failure, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .mlp import save_mlp, train_mlp
from .models import TrilaterationModel
from .oracle import OracleConfig, sample_max_error
from .pipeline import dump_cover, load_scenario, run_validate

__all__ = ["main", "entry"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="estbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="run a scenario and report bounds")
    p_val.add_argument("--scenario", required=True, help="scenario file (JSON)")
    p_val.add_argument("--delta", type=float, help="override stopping width")
    p_val.add_argument("--max-iters", type=int, help="override iteration cap")
    p_val.add_argument("--output", help="write the report to this path")
    p_val.add_argument("--dump-cover", help="write the final cover as CSV")

    p_ora = sub.add_parser("oracle", help="run only the sampling oracle")
    p_ora.add_argument("--scenario", required=True, help="scenario file (JSON)")
    p_ora.add_argument("--samples", type=int, help="override sample count")
    p_ora.add_argument("--seed", type=int, help="override sample seed")
    p_ora.add_argument("--mode", choices=("random", "grid"), help="override mode")

    p_tr = sub.add_parser("train-mlp", help="train a fixture network")
    p_tr.add_argument("--config", required=True, help="training config (JSON)")
    p_tr.add_argument("--out", required=True, help="where to write the weights")
    return parser


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if args.delta is not None:
        overrides["delta"] = args.delta
    if args.max_iters is not None:
        overrides["max_iterations"] = args.max_iters
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)

    report = run_validate(scenario)
    text = report.to_json_text()
    if args.output:
        Path(args.output).write_text(text)
    sys.stdout.write(text)

    if args.dump_cover:
        dump_cover(
            report.search.final_cover,
            scenario.param_box.dim,
            scenario.noise_box.dim,
            args.dump_cover,
        )

    if report.certified is False:
        print(
            f"certification FAILED: oracle found error {report.oracle_max!r} "
            f"above the reported bound {report.eps_high!r}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    base = scenario.oracle if scenario.oracle is not None else OracleConfig()
    cfg = OracleConfig(
        samples=args.samples if args.samples is not None else base.samples,
        seed=args.seed if args.seed is not None else base.seed,
        mode=args.mode if args.mode is not None else base.mode,
    )
    result = sample_max_error(scenario.build_objective(), cfg)
    doc = {
        "max_observed": result.max_observed,
        "argmax_x": list(result.argmax_x),
        "argmax_e": list(result.argmax_e),
        "samples_used": result.samples_used,
    }
    sys.stdout.write(json.dumps(doc, indent=1) + "\n")
    return 0


def _cmd_train_mlp(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise FileNotFoundError(f"training config not found: {path}")
    cfg = json.loads(path.read_text())
    for key in ("landmarks", "param_box", "noise_box"):
        if key not in cfg:
            raise ValueError(f"training config {path} needs {key!r}")
    landmarks = cfg["landmarks"]
    param_bounds = [(float(lo), float(hi)) for lo, hi in cfg["param_box"]]
    noise_bounds = [(float(lo), float(hi)) for lo, hi in cfg["noise_box"]]
    samples = int(cfg.get("samples", 10_000))
    seed = int(cfg.get("seed", 0))
    sizes = [int(s) for s in cfg.get("sizes", (len(landmarks), 32, 32, 2))]
    epochs = int(cfg.get("epochs", 2000))
    rate = float(cfg.get("rate", 1e-3))
    output_activation = str(cfg.get("output_activation", "relu"))

    observation = TrilaterationModel(landmarks)
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = rng.uniform(
        [lo for lo, _ in param_bounds],
        [hi for _, hi in param_bounds],
        size=(samples, len(param_bounds)),
    )
    es = rng.uniform(
        [lo for lo, _ in noise_bounds],
        [hi for _, hi in noise_bounds],
        size=(samples, len(noise_bounds)),
    )
    data = []
    for x, e in zip(xs.tolist(), es.tolist()):
        y = observation.eval_point(x)
        data.append(([yi + ei for yi, ei in zip(y, e)], list(x)))

    model = train_mlp(
        data, sizes, epochs=epochs, rate=rate, seed=seed,
        output_activation=output_activation,
    )
    model.meta.update(
        {
            "seed": seed,
            "trained_on": (
                f"trilateration landmarks={landmarks} "
                f"param_box={cfg['param_box']} noise_box={cfg['noise_box']} "
                f"samples={samples} epochs={epochs} rate={rate}"
            ),
        }
    )
    save_mlp(model, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "train-mlp":
            return _cmd_train_mlp(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
