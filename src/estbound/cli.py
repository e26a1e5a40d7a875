"""Command-line front end.

Subcommands:
  validate   run a scenario file end to end and emit a validation report
  oracle     run only the sampling oracle for a scenario

Exit codes: 0 success (certified, or oracle disabled), 2 certification
failure, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

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
    return parser


def _override(config, **values):
    # config with each value that is not None in place of its field.
    return dataclasses.replace(
        config, **{key: v for key, v in values.items() if v is not None}
    )


def _nan_failure(result) -> int:
    print(
        f"certification FAILED: the estimation error is NaN at "
        f"{result.nan_samples} of {result.samples_used} oracle samples, first "
        f"at x={list(result.first_nan_x)!r}, e={list(result.first_nan_e)!r}",
        file=sys.stderr,
    )
    return 2


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

    if report.oracle and report.oracle.nan_samples:
        return _nan_failure(report.oracle)
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
    if result.nan_samples:
        return _nan_failure(result)
    doc = {
        "max_observed": result.max_observed,
        "argmax_x": list(result.argmax_x),
        "argmax_e": list(result.argmax_e),
        "samples_used": result.samples_used,
    }
    sys.stdout.write(json.dumps(doc, indent=1) + "\n")
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
