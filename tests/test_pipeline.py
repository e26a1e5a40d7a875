import dataclasses
import json
import math

import numpy as np
import pytest

from estbound.framework import EstimatorModel
from estbound.interval import IntervalBox, iadd, isqr, isub, Interval
from estbound import pipeline
from estbound.optimizer import LOOKAHEAD, MsConfig, moore_skelboe
from estbound.pipeline import (
    Scenario,
    ValidationReport,
    dump_cover,
    load_scenario,
    run_validate,
)
from estbound import cli
from conftest import SCENARIO_DIR
from test_optimizer import per_box


def write_scenario(path, doc):
    path.write_text(json.dumps(doc))
    return path


BASE_DOC = {
    "param_box": [[0, 1], [0, 1]],
    "noise_box": [[-0.1, 0.1], [-0.1, 0.1]],
    "observation": {"type": "identity"},
    "estimator": {"type": "identity"},
    "ms": {"delta": 1e-4, "max_iterations": 200},
    "oracle": {"samples": 2000, "seed": 0},
}

TRILATERATION = {"type": "trilateration", "landmarks": [[10, -9], [5, 12], [-15, 0]]}

TRILAT_GD = json.loads((SCENARIO_DIR / "trilat_gd.scn").read_text())

# An override value that leaves its key out of the scenario.
MISSING = object()


class UnsoundStubEstimator(EstimatorModel):
    """An estimator whose box evaluator lies: the point evaluator shifts
    every component by 10 while the box evaluator claims to be the
    identity, so its box results miss its point results."""

    def __init__(self, dim):
        self.n_obs = self.n_params = dim

    def eval_points(self, rows):
        self._check_rows(rows)
        return rows + 10.0

    def eval_boxes(self, boxes):
        for box in boxes:
            self._check_box(box)
        return list(boxes)


class NanStubEstimator(EstimatorModel):
    """The identity, except that its point evaluator returns NaN wherever
    the first observation component exceeds 0.5; its box evaluator stays
    finite, so only the oracle can see the NaN."""

    def __init__(self, dim):
        self.n_obs = self.n_params = dim

    def eval_points(self, rows):
        self._check_rows(rows)
        return np.where(rows[:, :1] > 0.5, math.nan, rows)

    def eval_boxes(self, boxes):
        for box in boxes:
            self._check_box(box)
        return list(boxes)


@pytest.fixture
def unsound_stub(monkeypatch):
    """Scenarios build the lying stub as their estimator."""
    monkeypatch.setattr(
        Scenario,
        "build_estimator",
        lambda self, observation: UnsoundStubEstimator(observation.n_obs),
    )


@pytest.fixture
def nan_stub(monkeypatch):
    """Scenarios build the NaN-sampling stub as their estimator."""
    monkeypatch.setattr(
        Scenario,
        "build_estimator",
        lambda self, observation: NanStubEstimator(observation.n_obs),
    )


def test_unsound_stub_box_misses_point_results():
    est = UnsoundStubEstimator(2)
    box = IntervalBox.from_bounds([(0, 1), (0, 1)])
    out = est.eval_box(box)
    xhat = est.eval_point((0.5, 0.5))
    assert not all(c.lb <= v <= c.ub for v, c in zip(xhat, out))


class TestScenarioParsing:
    def test_defaults(self):
        doc = {"param_box": [[0, 1]], "noise_box": [[0, 0]]}
        sc = Scenario.from_dict(doc)
        assert sc.delta == 1e-3
        assert sc.max_iterations == 1_000_000
        assert sc.oracle is not None
        assert sc.oracle.samples == 100_000 and sc.oracle.seed == 0
        assert sc.observation_spec["type"] == "identity"

    def test_oracle_can_be_disabled(self):
        doc = dict(BASE_DOC, oracle=None)
        sc = Scenario.from_dict(doc)
        assert sc.oracle is None

    def test_integral_floats_are_integers(self):
        doc = dict(
            BASE_DOC,
            ms={"max_iterations": 2000.0},
            oracle={"samples": 1e5, "seed": 3.0},
        )
        sc = Scenario.from_dict(doc)
        assert sc.max_iterations == 2000 and type(sc.max_iterations) is int
        assert (sc.oracle.samples, sc.oracle.seed) == (100_000, 3)

    def test_sections_must_be_objects(self):
        for override in ({"ms": [1]}, {"ms": None}, {"oracle": "off"}):
            with pytest.raises(ValueError, match="must be an object"):
                Scenario.from_dict(dict(BASE_DOC, **override))

    def test_box_bounds_must_be_finite(self):
        for bad in ([[0, "inf"]], [[-math.inf, 0]], [[0, "nan"]]):
            with pytest.raises(ValueError, match="param_box"):
                Scenario.from_dict(dict(BASE_DOC, param_box=bad))

    def test_missing_boxes(self):
        with pytest.raises(ValueError, match="param_box"):
            Scenario.from_dict({"noise_box": [[0, 1]]})

    def test_unknown_observation(self):
        sc = Scenario.from_dict(dict(BASE_DOC, observation={"type": "sonar"}))
        with pytest.raises(ValueError, match="sonar"):
            sc.build_objective()

    def test_unknown_estimator(self):
        sc = Scenario.from_dict(dict(BASE_DOC, estimator={"type": "kalman"}))
        with pytest.raises(ValueError, match="kalman"):
            sc.build_objective()

    def test_gradient_descent_needs_trilateration(self):
        sc = Scenario.from_dict(
            dict(BASE_DOC, estimator={"type": "gradient_descent"})
        )
        with pytest.raises(ValueError, match="trilateration"):
            sc.build_objective()

    def test_dimension_mismatch_names_the_pair(self):
        doc = dict(
            BASE_DOC,
            observation={
                "type": "trilateration",
                "landmarks": [[10, -9], [5, 12], [-15, 0]],
            },
            estimator={"type": "constant", "value": [15, 15]},
        )
        sc = Scenario.from_dict(doc)  # noise box has dim 2, model emits 3
        with pytest.raises(ValueError, match="noise_box has dim 2"):
            sc.build_objective()

    def test_estimator_dimension_mismatch_names_the_pair(self):
        doc = dict(
            BASE_DOC,
            param_box=[[0, 1], [0, 1]],
            noise_box=[[-0.1, 0.1]] * 3,
            observation={
                "type": "trilateration",
                "landmarks": [[10, -9], [5, 12], [-15, 0]],
            },
        )
        sc = Scenario.from_dict(doc)  # identity estimator emits dim 3
        with pytest.raises(ValueError, match="estimator produces dim 3"):
            sc.build_objective()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.scn"):
            load_scenario(tmp_path / "nope.scn")

    def test_load_invalid_json(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_scenario(p)


class TestReportRoundTrip:
    def test_all_fields_survive(self):
        report = ValidationReport(
            eps_low=1 / 3,
            eps_high=math.sqrt(0.02),
            delta=1e-3,
            converged=True,
            iterations=42,
            cover_size=43,
            witness_param_box=IntervalBox.from_bounds([(0.1, 0.7), (5e-324, 0.5)]),
            oracle_max=math.pi,
            certified=True,
            elapsed=0.125,
        )
        # Equality of floats is exact, so this holds only if every float
        # survives the text bit for bit.
        assert json.loads(report.to_json_text()) == report.to_dict()

    def test_none_fields_survive(self):
        report = ValidationReport(
            eps_low=0.0,
            eps_high=2.0,
            delta=1e-2,
            converged=False,
            iterations=7,
            cover_size=8,
            witness_param_box=IntervalBox.from_bounds([(0, 1)]),
            oracle_max=None,
            certified=None,
            elapsed=0.5,
        )
        assert json.loads(report.to_json_text()) == report.to_dict()


class TestRunValidate:
    def test_identity_scenario(self, scenario_dir):
        report = run_validate(load_scenario(scenario_dir / "identity.scn"))
        assert math.sqrt(0.02) <= report.eps_high <= math.sqrt(0.02) + 1e-4
        assert 0.0 <= report.eps_low <= math.sqrt(0.02)
        assert report.certified is True
        assert report.witness_param_box.dim == 2
        assert len(report.search.cover.entries()) == report.cover_size
        assert "search" not in report.to_dict()

    def test_oracle_disabled_leaves_fields_none(self, tmp_path):
        p = write_scenario(tmp_path / "s.scn", dict(BASE_DOC, oracle=None))
        report = run_validate(load_scenario(p))
        assert report.oracle_max is None and report.certified is None

    @pytest.mark.parametrize(
        "name", ["constant", "identity", "trilat_gd", "trilat_mlp"]
    )
    def test_splits_ahead_for_every_estimator(self, scenario_dir, monkeypatch, name):
        sizes = []

        def recording(f, b_init, cfg):
            def batched(boxes):
                sizes.append(len(boxes))
                return f(boxes)

            return moore_skelboe(batched, b_init, cfg)

        monkeypatch.setattr(pipeline, "moore_skelboe", recording)
        scenario = load_scenario(scenario_dir / f"{name}.scn")
        scenario = dataclasses.replace(scenario, max_iterations=40, oracle=None)
        report = run_validate(scenario)
        assert sizes[0] == 1 and max(sizes) > 2
        assert all(size <= 2 * LOOKAHEAD for size in sizes)
        assert report.search.evaluated == sum(sizes)
        assert report.search.evaluated >= 1 + 2 * report.iterations
        assert "evaluated" not in report.to_dict()
        assert "nan_samples" not in report.to_dict()

    def test_unsound_stub_fails_certification(self, tmp_path, unsound_stub):
        p = write_scenario(tmp_path / "stub.scn", BASE_DOC)
        report = run_validate(load_scenario(p))
        assert report.certified is False
        assert report.oracle_max > report.eps_high


class TestDumpCover:
    def test_paraboloid_rows_tile_the_domain(self, tmp_path):
        one = Interval.point(1.0)

        def f(box):
            return isqr(isub(box[0], one))

        res = moore_skelboe(
            per_box(f),
            IntervalBox.from_bounds([(-5, 4)]),
            MsConfig(delta=1e-6, split_dims=(0,)),
        )
        out = tmp_path / "cover.csv"
        dump_cover(res.cover.entries(), 1, 0, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x0_lb,x0_ub,f_lb,f_ub"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        assert len(rows) == res.final_cover_size
        pieces = sorted((r[0], r[1]) for r in rows)
        assert pieces[0][0] == -5.0 and pieces[-1][1] == 4.0
        for (_, ub), (lb2, _) in zip(pieces, pieces[1:]):
            assert ub == lb2  # no gaps, no overlap beyond shared endpoints

    def test_header_column_count(self, tmp_path):
        box = IntervalBox.from_bounds([(0, 1), (0, 1), (-0.1, 0.1)])

        def f(b):
            return iadd(isqr(b[0]), isqr(b[1]))

        res = moore_skelboe(per_box(f), box, MsConfig(delta=10.0, split_dims=(0, 1)))
        out = tmp_path / "c.csv"
        dump_cover(res.cover.entries(), 2, 1, out)
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 2 * (2 + 1) + 2

    def test_empty_entries_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        dump_cover([], 2, 3, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert len(lines[0].split(",")) == 2 * (2 + 3) + 2


class TestCli:
    def test_validate_identity_exit_0(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "validate",
                "--scenario",
                str(scenario_dir / "identity.scn"),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["certified"] is True
        printed = capsys.readouterr().out
        assert json.loads(printed)["certified"] is True

    def test_missing_scenario_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.scn"
        code = cli.main(["validate", "--scenario", str(missing)])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "oracle"])
    def test_scenario_is_a_directory_exit_1(self, tmp_path, capsys, command):
        code = cli.main([command, "--scenario", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    @pytest.mark.parametrize("flag", ["--output", "--dump-cover"])
    def test_output_is_a_directory_exit_1(self, scenario_dir, tmp_path, capsys, flag):
        scenario = str(scenario_dir / "identity.scn")
        code = cli.main(
            ["validate", "--scenario", scenario, "--max-iters", "10", flag, str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_unsound_stub_exit_2(self, tmp_path, capsys, unsound_stub):
        p = write_scenario(tmp_path / "stub.scn", BASE_DOC)
        code = cli.main(["validate", "--scenario", str(p)])
        assert code == 2
        assert "certification FAILED" in capsys.readouterr().err

    def test_nan_sampled_error_exit_2(self, tmp_path, capsys, nan_stub):
        p = write_scenario(tmp_path / "nan.scn", BASE_DOC)
        report = run_validate(load_scenario(p))
        assert report.certified is False
        assert report.oracle_max <= report.eps_high
        nan = report.oracle
        assert 0 < nan.nan_samples < nan.samples_used
        assert nan.first_nan_x[0] + nan.first_nan_e[0] > 0.5
        code = cli.main(["validate", "--scenario", str(p)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"NaN at {nan.nan_samples} of {nan.samples_used} oracle samples" in err
        assert f"x={list(nan.first_nan_x)!r}, e={list(nan.first_nan_e)!r}" in err

    def test_oracle_nan_sampled_error_exit_2(self, tmp_path, capsys, nan_stub):
        # Some samples, not all, are NaN: oracle fails as validate does.
        p = write_scenario(tmp_path / "nan.scn", BASE_DOC)
        assert cli.main(["validate", "--scenario", str(p)]) == 2
        line = capsys.readouterr().err
        assert cli.main(["oracle", "--scenario", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err == line and line.count("\n") == 1
        assert captured.out == ""

    def test_flag_overrides(self, scenario_dir, capsys):
        code = cli.main(
            [
                "validate",
                "--scenario",
                str(scenario_dir / "identity.scn"),
                "--delta",
                "0.5",
                "--max-iters",
                "10",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta"] == 0.5
        assert doc["iterations"] <= 10
        assert doc["converged"] is True  # delta 0.5 exceeds the error range

    def test_dump_cover_flag(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "cover.csv"
        code = cli.main(
            [
                "validate",
                "--scenario",
                str(scenario_dir / "identity.scn"),
                "--max-iters",
                "20",
                "--dump-cover",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 21  # header + cap+1 cover entries
        assert len(lines[0].split(",")) == 2 * (2 + 2) + 2
        capsys.readouterr()

    def test_oracle_subcommand(self, scenario_dir, capsys):
        code = cli.main(
            [
                "oracle",
                "--scenario",
                str(scenario_dir / "identity.scn"),
                "--samples",
                "500",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["samples_used"] == 500
        assert 0.0 <= doc["max_observed"] <= math.sqrt(0.02)

    @staticmethod
    def assert_one_line_error(capsys, *words):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for word in words:
            assert word in err

    @pytest.mark.parametrize(
        "override, words",
        [
            ({"ms": 5}, ["'ms'"]),
            ({"ms": None}, ["'ms'"]),
            ({"oracle": [1000]}, ["'oracle'"]),
            ({"param_box": [[0, "inf"], [0, 1]]}, ["param_box", "finite"]),
            ({"noise_box": [[-0.1, 0.1], [-math.inf, 0.1]]}, ["noise_box", "finite"]),
            ({"observation": 5}, ["'observation'"]),
            ({"estimator": {"type": "constant", "value": 5}}, ["'value'"]),
            ({"ms": {"max_iterations": None}}, ["'max_iterations'"]),
            ({"ms": {"max_iterations": 2.7}}, ["'max_iterations'"]),
            ({"ms": {"delta": None}}, ["'delta'"]),
            ({"observation": dict(TRILATERATION, landmarks=5)}, ["'landmarks'"]),
            (
                {
                    "observation": TRILATERATION,
                    "estimator": {"type": "gradient_descent", "init": 5},
                },
                ["'init'"],
            ),
            (
                {
                    "observation": TRILATERATION,
                    "estimator": {"type": "gradient_descent", "iterations": None},
                },
                ["'iterations'"],
            ),
            ({"oracle": {"samples": True}}, ["'samples'"]),
            ({"oracle": {"samples": 2.7}}, ["'samples'"]),
            ({"oracle": {"seed": "1"}}, ["'seed'"]),
            ({"oracle": {"samples": 1e12}}, ["'samples'"]),
            # Finite bounds whose width, or whose sum, is not finite.
            ({"param_box": [[-1e308, 1e308], [0, 1]]}, ["param_box", "finite"]),
            ({"param_box": [[1e308, 1.7e308], [0, 1]]}, ["param_box", "finite"]),
            ({"noise_box": [[-0.1, 0.1], [-1e308, 1e308]]}, ["noise_box", "finite"]),
            ({"estimator": {"type": "constant", "value": [1e308, 0]}}, ["overflows"]),
            # A descent step so large that every estimate overflows to NaN;
            # the suite turns a numpy RuntimeWarning into an error.
            (
                dict(TRILAT_GD, estimator=dict(TRILAT_GD["estimator"], step=1e300)),
                ["estimation error"],
            ),
            ({"observation": {"type": "trilateration"}}, ["'landmarks'"]),
            (
                {"observation": dict(TRILATERATION, landmarks=[[0, 0], [1, 0]])},
                ["'landmarks'", "3 landmarks"],
            ),
            ({"param_box": 5}, ["'param_box'"]),
            ({"noise_box": MISSING}, ["'noise_box'"]),
        ],
    )
    def test_malformed_scenario_exit_1(self, tmp_path, capsys, override, words):
        doc = {
            k: v for k, v in dict(BASE_DOC, **override).items() if v is not MISSING
        }
        p = write_scenario(tmp_path / "bad.scn", doc)
        for command in ("validate", "oracle"):
            assert cli.main([command, "--scenario", str(p)]) == 1
            self.assert_one_line_error(capsys, *words)

    def test_scenario_not_an_object_exit_1(self, tmp_path, capsys):
        p = tmp_path / "list.scn"
        p.write_text("[1, 2]")
        for command in ("validate", "oracle"):
            assert cli.main([command, "--scenario", str(p)]) == 1
            self.assert_one_line_error(capsys, "JSON object")

    @pytest.mark.parametrize(
        "field, value", [("layers", 5), ("meta", 5), ("meta", [1])]
    )
    def test_malformed_weight_file_exit_1(
        self, scenario_dir, tmp_path, capsys, field, value
    ):
        doc = json.loads((scenario_dir / "mlp_3x32x32x2.json").read_text())
        doc[field] = value
        (tmp_path / "net.json").write_text(json.dumps(doc))
        p = write_scenario(
            tmp_path / "bad.scn",
            dict(
                BASE_DOC,
                noise_box=[[-0.2, 0.2]] * 3,
                observation=TRILATERATION,
                estimator={"type": "mlp", "weights_path": "net.json"},
            ),
        )
        assert cli.main(["validate", "--scenario", str(p)]) == 1
        self.assert_one_line_error(capsys, f"'{field}'")

    def test_overflowing_weights_exit_1(self, scenario_dir, tmp_path, capsys):
        # The network's kernels overflow to inf and NaN; each run reports
        # this in its one error line, with no numpy warning before it.
        doc = json.loads((scenario_dir / "mlp_3x32x32x2.json").read_text())
        doc["layers"][0]["weights"][0][0] = 1e307
        (tmp_path / "net.json").write_text(json.dumps(doc))
        scn = json.loads((scenario_dir / "trilat_mlp.scn").read_text())
        scn["estimator"]["weights_path"] = "net.json"
        on = write_scenario(tmp_path / "on.scn", scn)
        off = write_scenario(tmp_path / "off.scn", dict(scn, oracle=None))
        for argv in (
            ["validate", "--scenario", str(on), "--max-iters", "50"],
            ["validate", "--scenario", str(off), "--max-iters", "50"],
            ["oracle", "--scenario", str(on)],
        ):
            assert cli.main(argv) == 1
            self.assert_one_line_error(capsys, "overflows")

    def test_oracle_samples_above_cap_exit_1(self, scenario_dir, capsys):
        code = cli.main(
            [
                "oracle",
                "--scenario",
                str(scenario_dir / "identity.scn"),
                "--samples",
                "1000000000000",
            ]
        )
        assert code == 1
        self.assert_one_line_error(capsys, "'samples'")

    def test_oracle_overflow_exit_1(self, scenario_dir, tmp_path, capsys):
        doc = json.loads((scenario_dir / "constant.scn").read_text())
        doc["estimator"]["value"] = [1e308, 0]
        p = write_scenario(tmp_path / "huge.scn", doc)
        for mode in ("random", "grid"):
            code = cli.main(["oracle", "--scenario", str(p), "--mode", mode])
            assert code == 1
            self.assert_one_line_error(capsys, "overflows", "x=", "e=")

    def test_unknown_flag_exit_1(self, capsys):
        code = cli.main(["validate", "--scenario", "x", "--frobnicate"])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_command_exit_1(self, capsys):
        assert cli.main(["explode"]) == 1
        capsys.readouterr()
