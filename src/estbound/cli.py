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
from .oracle import OracleConfig, sample_max_error
from .pipeline import _float, _integer, _parse_box, _trilateration
from .pipeline import dump_cover, load_scenario, run_validate

__all__ = ["main", "entry"]


# Largest training sample count, ten times what the bundled network was
# trained on. The full-batch trainer holds several (samples, 32) arrays at
# once: at the cap a run peaks at about 250 MB resident.
MAX_TRAIN_SAMPLES = 100_000


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


def _override(config, **values):
    # config with each value that is not None in place of its field.
    return dataclasses.replace(
        config, **{key: v for key, v in values.items() if v is not None}
    )


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    scenario = _override(scenario, delta=args.delta, max_iterations=args.max_iters)
    report = run_validate(scenario)
    text = report.to_json_text()
    if args.output:
        Path(args.output).write_text(text)
    sys.stdout.write(text)

    if args.dump_cover:
        dump_cover(
            report.search.cover.entries(),
            scenario.param_box.dim,
            scenario.noise_box.dim,
            args.dump_cover,
        )

    nan = report.oracle.nan_samples if report.oracle else 0
    if nan:
        print(
            f"certification FAILED: the estimation error is NaN at {nan} of "
            f"{report.oracle.samples_used} oracle samples, first at "
            f"x={list(report.oracle.first_nan_x)!r}, "
            f"e={list(report.oracle.first_nan_e)!r}",
            file=sys.stderr,
        )
        return 2
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
    cfg = _override(
        scenario.oracle or OracleConfig(),
        samples=args.samples, seed=args.seed, mode=args.mode,
    )
    result = sample_max_error(scenario.build_objective(), cfg)
    if not result.argmax_x:
        # NaN errors are never the maximum, so no sample gave a number.
        raise ValueError(
            f"the estimation error is NaN at all {result.samples_used} samples"
        )
    doc = {
        "max_observed": result.max_observed,
        "argmax_x": list(result.argmax_x),
        "argmax_e": list(result.argmax_e),
        "samples_used": result.samples_used,
    }
    sys.stdout.write(json.dumps(doc, indent=1) + "\n")
    return 0


def _cmd_train_mlp(args) -> int:
    # The config follows the scenario field rules; see README.
    path = Path(args.config)
    if not path.exists():
        raise FileNotFoundError(f"training config not found: {path}")
    cfg = json.loads(path.read_text())
    where = f"training config {path}"
    if not isinstance(cfg, dict):
        raise ValueError(f"{where} must be a JSON object")
    observation = _trilateration(cfg, where)
    param_box = _parse_box(cfg, "param_box", where)
    noise_box = _parse_box(cfg, "noise_box", where)
    if noise_box.dim != observation.n_obs:
        raise ValueError(f"{where} 'noise_box' must have dim {observation.n_obs}")
    samples = _integer(cfg, "samples", 10_000, where)
    if not 1 <= samples <= MAX_TRAIN_SAMPLES:
        raise ValueError(
            f"{where} 'samples' must be 1 to {MAX_TRAIN_SAMPLES}, got {samples}"
        )
    seed = _integer(cfg, "seed", 0, where)
    sizes = cfg.get("sizes", [observation.n_obs, 32, 32, 2])
    if not isinstance(sizes, list):
        raise ValueError(f"{where} 'sizes' must be a list, got {sizes!r}")
    sizes = [_integer({"sizes": s}, "sizes", None, where) for s in sizes]
    epochs = _integer(cfg, "epochs", 2000, where)
    rate = _float(cfg, "rate", 1e-3, where)
    output_activation = str(cfg.get("output_activation", "relu"))

    rng = np.random.Generator(np.random.PCG64(seed))
    xs = rng.uniform(
        [c.lb for c in param_box], [c.ub for c in param_box],
        size=(samples, param_box.dim),
    )
    es = rng.uniform(
        [c.lb for c in noise_box], [c.ub for c in noise_box],
        size=(samples, noise_box.dim),
    )
    data = list(zip((observation.eval_points(xs) + es).tolist(), xs.tolist()))

    model = train_mlp(
        data, sizes, epochs=epochs, rate=rate, seed=seed,
        output_activation=output_activation,
    )
    model.meta.update(
        {
            "seed": seed,
            "trained_on": (
                f"trilateration landmarks={cfg['landmarks']} "
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
