"""Scenario files, validation runs, and reports.

A scenario file is a JSON document describing one validation problem: the
parameter box, the noise box, tagged observation/estimator specs, search
parameters, and an optional oracle configuration. `run_validate` assembles
the error objective, samples it with the oracle, minimizes its negation
over the parameter dimensions, cross-checks the resulting bound against the
sampled maximum, and returns a report with the certified error enclosure
[eps_low, eps_high].

eps_high is the deliverable: a guaranteed upper bound on the worst-case
estimation error over the scenario's boxes.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, TextIO

from .framework import ErrorObjective, EstimatorModel, ObservationModel
from .interval import IntervalBox
from .mlp import _number, load_mlp
from .models import (
    ConstantEstimator,
    GradientDescentEstimator,
    IdentityEstimator,
    IdentityObservation,
    TrilaterationModel,
)
from .optimizer import CoverEntry, MsConfig, MsResult, moore_skelboe
from .oracle import OracleConfig, OracleResult, certify, sample_max_error

__all__ = [
    "Scenario",
    "ValidationReport",
    "load_scenario",
    "run_validate",
    "dump_cover",
]

DEFAULT_DELTA = 1e-3


# The readers below take doc[key], or default when the key is absent, and
# name the key, after its section `where`, when the value has a wrong type.


def _section(doc: dict, key: str, default, nullable: bool = False):
    value = doc.get(key, default)
    if not isinstance(value, dict) and not (nullable and value is None):
        kind = "an object or null" if nullable else "an object"
        raise ValueError(f"scenario {key!r} must be {kind}, got {value!r}")
    return value


def _integer(doc: dict, key: str, default, where: str) -> int:
    value = doc.get(key, default)
    # A JSON number such as 2000.0 is integral; true and 2.7 are not.
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{where} {key!r} must be an integer, got {value!r}")


def _float(doc: dict, key: str, default, where: str) -> float:
    value = doc.get(key, default)
    try:
        return _number(value)
    except ValueError as exc:
        raise ValueError(f"{where} {key!r} must be a number, got {value!r}") from exc


def _floats(doc: dict, key: str, default, where: str, dim=None) -> tuple[float, ...]:
    value = doc.get(key, default)
    if isinstance(value, list) and dim in (None, len(value)):
        try:
            return tuple(map(_number, value))
        except ValueError:
            pass
    size = "" if dim is None else f" {dim}"
    raise ValueError(f"{where} {key!r} must be a list of{size} numbers, got {value!r}")


def _parse_box(doc: dict, key: str, where: str) -> IntervalBox:
    if key not in doc:
        raise ValueError(f"{where} needs {key!r}")
    try:
        box = IntervalBox.from_bounds((_number(lo), _number(hi)) for lo, hi in doc[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid {where} {key!r}: {exc}") from exc
    # A finite width and sum per component keep sampling and bisection
    # midpoints in float range.
    if not all(math.isfinite(c.ub - c.lb) and math.isfinite(c.lb + c.ub) for c in box):
        raise ValueError(f"invalid {where} {key!r}: ub - lb and lb + ub must be finite")
    return box


@dataclass(frozen=True)
class Scenario:
    """One validation problem, as described by a scenario file.

    search is the search's config, built from delta, max_iterations and
    split on construction, so a scenario with bad search settings is never
    made. split "params", the paper's rule, splits the parameter dimensions,
    as ErrorObjective.split_dims() does; "all" splits every dimension of
    the search box, the noise ones too.
    """

    param_box: IntervalBox
    noise_box: IntervalBox
    observation_spec: dict
    estimator_spec: dict
    delta: float = DEFAULT_DELTA
    max_iterations: int = MsConfig.max_iterations
    split: str = "params"
    oracle: OracleConfig | None = OracleConfig()
    base_dir: Path = Path(".")
    search: MsConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.split not in ("params", "all"):
            raise ValueError(
                f"ms 'split' must be 'params' or 'all', got {self.split!r}"
            )
        dims = self.param_box.dim
        if self.split == "all":
            dims += self.noise_box.dim
        search = MsConfig(
            delta=self.delta,
            split_dims=tuple(range(dims)),
            max_iterations=self.max_iterations,
        )
        object.__setattr__(self, "search", search)

    @staticmethod
    def from_dict(doc: dict, base_dir: str | Path = ".") -> "Scenario":
        if not isinstance(doc, dict):
            raise ValueError("scenario must be a JSON object")
        ms = _section(doc, "ms", {})
        oracle = _section(doc, "oracle", {}, nullable=True)
        if oracle is not None:
            oracle = OracleConfig(
                samples=_integer(oracle, "samples", OracleConfig.samples, "oracle"),
                seed=_integer(oracle, "seed", OracleConfig.seed, "oracle"),
                mode=oracle.get("mode", OracleConfig.mode),
            )
        return Scenario(
            param_box=_parse_box(doc, "param_box", "scenario"),
            noise_box=_parse_box(doc, "noise_box", "scenario"),
            observation_spec=dict(_section(doc, "observation", {"type": "identity"})),
            estimator_spec=dict(_section(doc, "estimator", {"type": "identity"})),
            delta=_float(ms, "delta", DEFAULT_DELTA, "ms"),
            max_iterations=_integer(
                ms, "max_iterations", MsConfig.max_iterations, "ms"
            ),
            split=ms.get("split", "params"),
            oracle=oracle,
            base_dir=Path(base_dir),
        )

    def build_observation(self) -> ObservationModel:
        spec = self.observation_spec
        kind = spec.get("type")
        if kind == "identity":
            return IdentityObservation(self.param_box.dim)
        if kind == "trilateration":
            if "landmarks" not in spec:
                raise ValueError("trilateration observation needs 'landmarks'")
            try:
                return TrilaterationModel(
                    [(_number(a), _number(b)) for a, b in spec["landmarks"]]
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"invalid trilateration observation 'landmarks': {exc}"
                ) from exc
        raise ValueError(f"unknown observation type {kind!r}")

    def build_estimator(self, observation: ObservationModel) -> EstimatorModel:
        spec = self.estimator_spec
        kind = spec.get("type")
        m = observation.n_obs
        if kind == "identity":
            return IdentityEstimator(m)
        if kind == "constant":
            return ConstantEstimator(_floats(spec, "value", None, "constant"), n_obs=m)
        if kind == "mlp":
            if not isinstance(spec.get("weights_path"), str):
                raise ValueError("mlp estimator needs 'weights_path', a string")
            return load_mlp(self.base_dir / spec["weights_path"])
        if kind == "gradient_descent":
            if not isinstance(observation, TrilaterationModel):
                raise ValueError(
                    "gradient_descent estimator requires a trilateration "
                    f"observation, scenario has {self.observation_spec.get('type')!r}"
                )
            return GradientDescentEstimator(
                observation,
                iterations=_integer(spec, "iterations", 50, "gradient_descent"),
                step=_float(spec, "step", 0.01, "gradient_descent"),
                init=_floats(spec, "init", [15.0, 15.0], "gradient_descent", dim=2),
            )
        raise ValueError(f"unknown estimator type {kind!r}")

    def build_objective(self) -> ErrorObjective:
        observation = self.build_observation()
        estimator = self.build_estimator(observation)
        return ErrorObjective(
            observation, estimator, self.param_box, self.noise_box
        )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scenario file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario file {path} is not valid JSON: {exc}") from exc
    # ValueError: e.g. an integer longer than Python's int parsing limit.
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read scenario file {path}: {exc}") from exc
    return Scenario.from_dict(doc, base_dir=path.parent)


@dataclass(frozen=True)
class ValidationReport:
    """Certified result of one validation run.

    [eps_low, eps_high] encloses the worst-case estimation error; eps_high
    is the guaranteed (pessimistic) bound. certified is None when the
    oracle was disabled, otherwise whether the sampled maximum stayed
    below eps_high and no sampled error was NaN. oracle_max is None too
    when every sampled error was NaN. search holds the search result,
    final cover included, and oracle the sampling result; as fields with
    compare=False, the written report leaves both out and equality ignores
    them.
    """

    eps_low: float
    eps_high: float
    delta: float
    converged: bool
    stop_reason: str
    iterations: int
    cover_size: int
    evaluated: int
    witness_param_box: IntervalBox
    oracle_max: float | None
    certified: bool | None
    elapsed: float
    search: MsResult | None = field(default=None, compare=False, repr=False)
    oracle: OracleResult | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        doc["witness_param_box"] = [[c.lb, c.ub] for c in self.witness_param_box]
        return doc

    def to_json_text(self) -> str:
        return json.dumps(self.to_dict(), indent=1, allow_nan=False) + "\n"


def run_validate(scenario: Scenario) -> ValidationReport:
    """Run the full validation pipeline for one scenario."""
    start = time.perf_counter()
    objective = scenario.build_objective()
    # The oracle runs first: the two phases are independent, and this way
    # the oracle's chunk buffers are freed before the cover grows, rather
    # than allocated on top of a cover the report keeps.
    oracle_result = None
    if scenario.oracle is not None:
        oracle_result = sample_max_error(objective, scenario.oracle)
    result = moore_skelboe(
        objective.objective_box, objective.initial_box(), scenario.search
    )
    n = objective.n_params
    eps_high = -result.enclosure.lb + 0.0
    eps_low = -result.enclosure.ub + 0.0

    oracle_max = None
    certified = None
    if oracle_result is not None:
        # NaN errors are never the maximum: with no argmax, no sample gave
        # a number.
        if oracle_result.argmax_x:
            oracle_max = oracle_result.max_observed
        certified = certify(eps_high, oracle_result)

    return ValidationReport(
        eps_low=eps_low,
        eps_high=eps_high,
        delta=scenario.delta,
        converged=result.converged,
        stop_reason=result.stop_reason,
        iterations=result.iterations,
        cover_size=result.final_cover_size,
        evaluated=result.evaluated,
        witness_param_box=result.witness[:n],
        oracle_max=oracle_max,
        certified=certified,
        elapsed=time.perf_counter() - start,
        search=result,
        oracle=oracle_result,
    )


def dump_cover(
    entries: Iterable[CoverEntry],
    n_params: int,
    n_noise: int,
    out: TextIO,
) -> None:
    """Write the final cover as CSV to a text file opened with newline="":
    per-dimension box bounds, then the objective enclosure bounds. One row
    per cover entry."""
    header = []
    for i in range(n_params):
        header += [f"x{i}_lb", f"x{i}_ub"]
    for j in range(n_noise):
        header += [f"e{j}_lb", f"e{j}_ub"]
    header += ["f_lb", "f_ub"]
    writer = csv.writer(out)
    writer.writerow(header)
    for entry in entries:
        row: list[float] = []
        for c in entry.box:
            row += [c.lb, c.ub]
        row += [entry.enclosure.lb, entry.enclosure.ub]
        if len(row) != len(header):
            raise ValueError(
                f"cover entry has {entry.box.dim} dims, header expects "
                f"{n_params} + {n_noise}"
            )
        writer.writerow([repr(v) for v in row])
