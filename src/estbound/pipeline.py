"""Scenario files, validation runs, and reports.

A scenario file is a JSON document describing one validation problem: the
parameter box, the noise box, tagged observation/estimator specs, search
parameters, and an optional oracle configuration. `run_validate` assembles
the error objective, minimizes its negation over the parameter dimensions,
cross-checks the resulting bound against the sampling oracle, and returns a
report with the certified error enclosure [eps_low, eps_high].

eps_high is the deliverable: a guaranteed upper bound on the worst-case
estimation error over the scenario's boxes.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .framework import ErrorObjective, EstimatorModel, ObservationModel
from .interval import IntervalBox
from .mlp import load_mlp
from .models import (
    ConstantEstimator,
    GradientDescentEstimator,
    IdentityEstimator,
    IdentityObservation,
    TrilaterationModel,
    UnsoundStubEstimator,
)
from .optimizer import CoverEntry, MsConfig, MsResult, moore_skelboe
from .oracle import OracleConfig, certify, sample_max_error

__all__ = [
    "Scenario",
    "ValidationReport",
    "load_scenario",
    "run_validate",
    "dump_cover",
]

DEFAULT_DELTA = 1e-3
DEFAULT_MAX_ITERATIONS = 1_000_000


def _parse_box(raw, name: str) -> IntervalBox:
    try:
        box = IntervalBox.from_bounds((float(lo), float(hi)) for lo, hi in raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid {name}: {exc}") from exc
    if not all(math.isfinite(c.lb) and math.isfinite(c.ub) for c in box):
        raise ValueError(f"invalid {name}: bounds must be finite, got {raw!r}")
    return box


@dataclass(frozen=True)
class Scenario:
    """One validation problem, as described by a scenario file."""

    param_box: IntervalBox
    noise_box: IntervalBox
    observation_spec: dict
    estimator_spec: dict
    delta: float = DEFAULT_DELTA
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    oracle: OracleConfig | None = OracleConfig()
    base_dir: Path = Path(".")

    @staticmethod
    def from_dict(doc: dict, base_dir: str | Path = ".") -> "Scenario":
        if "param_box" not in doc or "noise_box" not in doc:
            raise ValueError("scenario needs 'param_box' and 'noise_box'")
        ms = doc.get("ms", {})
        oracle_doc = doc.get("oracle", {})
        if not isinstance(ms, dict) or not isinstance(oracle_doc, (dict, type(None))):
            raise ValueError(
                "scenario 'ms' must be an object and 'oracle' an object or null"
            )
        if oracle_doc is None:
            oracle = None
        else:
            oracle = OracleConfig(
                samples=int(oracle_doc.get("samples", 100_000)),
                seed=int(oracle_doc.get("seed", 0)),
                mode=str(oracle_doc.get("mode", "random")),
            )
        return Scenario(
            param_box=_parse_box(doc["param_box"], "param_box"),
            noise_box=_parse_box(doc["noise_box"], "noise_box"),
            observation_spec=dict(doc.get("observation", {"type": "identity"})),
            estimator_spec=dict(doc.get("estimator", {"type": "identity"})),
            delta=float(ms.get("delta", DEFAULT_DELTA)),
            max_iterations=int(ms.get("max_iterations", DEFAULT_MAX_ITERATIONS)),
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
            return TrilaterationModel(spec["landmarks"])
        raise ValueError(f"unknown observation type {kind!r}")

    def build_estimator(self, observation: ObservationModel) -> EstimatorModel:
        spec = self.estimator_spec
        kind = spec.get("type")
        m = observation.n_obs
        if kind == "identity":
            return IdentityEstimator(m)
        if kind == "constant":
            if "value" not in spec:
                raise ValueError("constant estimator needs 'value'")
            return ConstantEstimator(spec["value"], n_obs=m)
        if kind == "mlp":
            if "weights_path" not in spec:
                raise ValueError("mlp estimator needs 'weights_path'")
            return load_mlp(self.base_dir / spec["weights_path"])
        if kind == "gradient_descent":
            if not isinstance(observation, TrilaterationModel):
                raise ValueError(
                    "gradient_descent estimator requires a trilateration "
                    f"observation, scenario has {self.observation_spec.get('type')!r}"
                )
            return GradientDescentEstimator(
                observation,
                iterations=int(spec.get("iterations", 50)),
                step=float(spec.get("step", 0.01)),
                init=spec.get("init", (15.0, 15.0)),
            )
        if kind == "unsound_stub":
            return UnsoundStubEstimator(m, offset=float(spec.get("offset", 10.0)))
        raise ValueError(f"unknown estimator type {kind!r}")

    def build_objective(self) -> ErrorObjective:
        observation = self.build_observation()
        estimator = self.build_estimator(observation)
        return ErrorObjective(
            observation, estimator, self.param_box, self.noise_box
        )

    def ms_config(self) -> MsConfig:
        return MsConfig(
            delta=self.delta,
            split_dims=tuple(range(self.param_box.dim)),
            max_iterations=self.max_iterations,
        )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scenario file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return Scenario.from_dict(doc, base_dir=path.parent)


def _box_to_pairs(box: IntervalBox) -> list[list[float]]:
    return [[c.lb, c.ub] for c in box]


@dataclass(frozen=True)
class ValidationReport:
    """Certified result of one validation run.

    [eps_low, eps_high] encloses the worst-case estimation error; eps_high
    is the guaranteed (pessimistic) bound. certified is None when the
    oracle was disabled, otherwise whether the sampled maximum stayed
    below eps_high.
    """

    eps_low: float
    eps_high: float
    delta: float
    converged: bool
    iterations: int
    cover_size: int
    witness_param_box: IntervalBox
    oracle_max: float | None
    certified: bool | None
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "eps_low": self.eps_low,
            "eps_high": self.eps_high,
            "delta": self.delta,
            "converged": self.converged,
            "iterations": self.iterations,
            "cover_size": self.cover_size,
            "witness_param_box": _box_to_pairs(self.witness_param_box),
            "oracle_max": self.oracle_max,
            "certified": self.certified,
            "elapsed": self.elapsed,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_dict(), indent=1) + "\n"

    @staticmethod
    def from_dict(doc: dict) -> "ValidationReport":
        return ValidationReport(
            eps_low=float(doc["eps_low"]),
            eps_high=float(doc["eps_high"]),
            delta=float(doc["delta"]),
            converged=bool(doc["converged"]),
            iterations=int(doc["iterations"]),
            cover_size=int(doc["cover_size"]),
            witness_param_box=IntervalBox.from_bounds(doc["witness_param_box"]),
            oracle_max=None if doc["oracle_max"] is None else float(doc["oracle_max"]),
            certified=None if doc["certified"] is None else bool(doc["certified"]),
            elapsed=float(doc["elapsed"]),
        )

    @staticmethod
    def from_json_text(text: str) -> "ValidationReport":
        return ValidationReport.from_dict(json.loads(text))


def _run(scenario: Scenario, on_iteration=None) -> tuple[ValidationReport, MsResult]:
    start = time.perf_counter()
    objective = scenario.build_objective()
    result = moore_skelboe(
        objective.objective_box,
        objective.initial_box(),
        scenario.ms_config(),
        on_iteration=on_iteration,
    )
    n = objective.n_params
    eps_high = -result.enclosure.lb + 0.0
    eps_low = -result.enclosure.ub + 0.0

    oracle_max = None
    certified = None
    if scenario.oracle is not None:
        oracle_result = sample_max_error(objective, scenario.oracle)
        oracle_max = oracle_result.max_observed
        certified = certify(eps_high, oracle_result)

    report = ValidationReport(
        eps_low=eps_low,
        eps_high=eps_high,
        delta=scenario.delta,
        converged=result.converged,
        iterations=result.iterations,
        cover_size=result.final_cover_size,
        witness_param_box=result.witness[:n],
        oracle_max=oracle_max,
        certified=certified,
        elapsed=time.perf_counter() - start,
    )
    return report, result


def run_validate(scenario: Scenario) -> ValidationReport:
    """Run the full validation pipeline for one scenario."""
    report, _ = _run(scenario)
    return report


def dump_cover(
    entries: Iterable[CoverEntry],
    n_params: int,
    n_noise: int,
    path: str | Path,
) -> None:
    """Write the final cover as CSV: per-dimension box bounds, then the
    objective enclosure bounds. One row per cover entry."""
    header = []
    for i in range(n_params):
        header += [f"x{i}_lb", f"x{i}_ub"]
    for j in range(n_noise):
        header += [f"e{j}_lb", f"e{j}_ub"]
    header += ["f_lb", "f_ub"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
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
