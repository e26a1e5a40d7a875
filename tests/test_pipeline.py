import dataclasses
import json
import math

import numpy as np
import pytest

from estbound.framework import EstimatorModel
from estbound.interval import IntervalBox, iadd, isqr, isub, Interval
from estbound import pipeline
from estbound.optimizer import LOOKAHEAD, CoverEntry, MsConfig, moore_skelboe
from estbound.pipeline import (
    Scenario,
    ValidationReport,
    dump_cover,
    load_scenario,
    run_validate,
)
from estbound import cli
from conftest import SCENARIO_DIR
from test_golden import cover_and_report_hashes
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

# An override value that leaves its key out of the document.
MISSING = object()

# The error words for a weight file field that is not a list of numbers.
NOT_A_NUMBER = ["layer 1", "is not a finite number"]


class UnsoundStubEstimator(EstimatorModel):
    """An estimator whose box evaluator lies: the point evaluator shifts
    every component by 10 while the box evaluator claims to be the
    identity, so its box results miss its point results."""

    def __init__(self, dim):
        self.n_obs = self.n_params = dim

    def eval_points(self, rows):
        self._check_rows(rows)
        return rows + 10.0

    def eval_boxes(self, lb, ub):
        self._check_rows(lb)
        return lb.copy(), ub.copy()


class NanStubEstimator(EstimatorModel):
    """The identity, except that its point evaluator returns NaN wherever
    the first observation component exceeds 0.5; its box evaluator stays
    finite, so only the oracle can see the NaN."""

    def __init__(self, dim):
        self.n_obs = self.n_params = dim

    def eval_points(self, rows):
        self._check_rows(rows)
        return np.where(rows[:, :1] > 0.5, math.nan, rows)

    def eval_boxes(self, lb, ub):
        self._check_rows(lb)
        return lb.copy(), ub.copy()


class AllNanStubEstimator(NanStubEstimator):
    """NanStubEstimator with a point evaluator that is NaN everywhere."""

    def eval_points(self, rows):
        self._check_rows(rows)
        return np.full_like(rows, math.nan)


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if a validation runs its search or its oracle, or the
    oracle subcommand samples."""

    def fail(*args, **kwargs):
        raise AssertionError("the validation ran")

    monkeypatch.setattr(pipeline, "moore_skelboe", fail)
    monkeypatch.setattr(pipeline, "sample_max_error", fail)
    monkeypatch.setattr(cli, "sample_max_error", fail)


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


@pytest.fixture
def all_nan_stub(monkeypatch):
    """Scenarios build the stub that is NaN at every sample."""
    monkeypatch.setattr(
        Scenario,
        "build_estimator",
        lambda self, observation: AllNanStubEstimator(observation.n_obs),
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

    def test_split_rule(self):
        sc = Scenario.from_dict(BASE_DOC)  # 2 parameters, 2 noise dims
        assert sc.split == "params" and sc.search.split_dims == (0, 1)
        doc = dict(BASE_DOC, ms=dict(BASE_DOC["ms"], split="all"))
        assert Scenario.from_dict(doc).search.split_dims == (0, 1, 2, 3)
        with pytest.raises(ValueError, match="^ms 'split' must be 'params' or 'all'"):
            dataclasses.replace(sc, split="noise")

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

    @pytest.mark.parametrize(
        "name", sorted(path.name for path in SCENARIO_DIR.glob("*.scn"))
    )
    def test_search_splits_the_objectives_dims(self, name):
        sc = load_scenario(SCENARIO_DIR / name)
        objective = sc.build_objective()
        if sc.split == "params":
            assert sc.search.split_dims == objective.split_dims()
        else:
            assert sc.search.split_dims == tuple(range(objective.initial_box().dim))
        assert (sc.search.delta, sc.search.max_iterations) == (
            sc.delta,
            sc.max_iterations,
        )

    def test_search_is_built_on_every_construction(self):
        sc = Scenario.from_dict(BASE_DOC)
        assert dataclasses.replace(sc, delta=0.5).search.delta == 0.5
        with pytest.raises(ValueError, match="^ms 'max_iterations'"):
            dataclasses.replace(sc, max_iterations=-1)
        with pytest.raises(ValueError, match="^ms 'delta'"):
            Scenario(sc.param_box, sc.noise_box, {}, {}, delta=0.0)

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
            stop_reason="width",
            iterations=42,
            cover_size=43,
            evaluated=85,
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
            stop_reason="iteration cap",
            iterations=7,
            cover_size=8,
            evaluated=15,
            witness_param_box=IntervalBox.from_bounds([(0, 1)]),
            oracle_max=None,
            certified=None,
            elapsed=0.5,
        )
        assert json.loads(report.to_json_text()) == report.to_dict()

    def test_non_finite_floats_are_refused(self):
        # The written report is strict JSON: no Infinity or NaN.
        report = ValidationReport(
            eps_low=0.0,
            eps_high=math.inf,
            delta=1e-2,
            converged=False,
            stop_reason="iteration cap",
            iterations=0,
            cover_size=1,
            evaluated=1,
            witness_param_box=IntervalBox.from_bounds([(0, 1)]),
            oracle_max=None,
            certified=None,
            elapsed=0.5,
        )
        with pytest.raises(ValueError, match="JSON"):
            report.to_json_text()


class TestRunValidate:
    def test_identity_scenario(self, scenario_dir):
        report = run_validate(load_scenario(scenario_dir / "identity.scn"))
        assert math.sqrt(0.02) <= report.eps_high <= math.sqrt(0.02) + 1e-4
        assert 0.0 <= report.eps_low <= math.sqrt(0.02)
        assert report.certified is True
        assert report.witness_param_box.dim == 2
        assert len(report.search.cover.entries()) == report.cover_size
        assert "search" not in report.to_dict()

    def test_stall_on_an_unsplittable_front_is_reported(self, scenario_dir):
        # Parameter-only splitting stalls on the network scenario before a
        # budget of 20000 iterations is spent.
        scenario = dataclasses.replace(
            load_scenario(scenario_dir / "trilat_mlp.scn"),
            max_iterations=20_000,
            oracle=None,
        )
        report = run_validate(scenario)
        assert report.iterations == 3367
        assert report.to_dict()["stop_reason"] == "unsplittable front"
        # No batch splits a box after one that cannot be split: the search
        # stops before it reaches them.
        assert report.search.evaluated == 6745
        assert report.converged is False

    def test_noise_splitting_scenario(self, scenario_dir, tmp_path, capsys):
        # trilat_mlp with every dimension split: at 20000 iterations its
        # enclosure is [4.912, 6.628], inside the paper's rule's [3.775,
        # 8.195] at 2000 (tests/test_golden.py) and no longer stalled on an
        # unsplittable front.
        assert cover_and_report_hashes(
            scenario_dir / "trilat_mlp_all.scn", 20_000, tmp_path, capsys
        ) == (
            "b798e53ff9e2fc1f456a45a66296bf92e4d454664181452ad3a590738888e29b",
            "fe5214ac8b441161884288e5dbc36260d0f112455d8b043493f7f1c3ee51a061",
        )

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
            def batched(lb, ub):
                sizes.append(len(lb))
                return f(lb, ub)

            return moore_skelboe(batched, b_init, cfg)

        monkeypatch.setattr(pipeline, "moore_skelboe", recording)
        scenario = load_scenario(scenario_dir / f"{name}.scn")
        scenario = dataclasses.replace(scenario, max_iterations=40, oracle=None)
        report = run_validate(scenario)
        assert sizes[0] == 1 and max(sizes) > 2
        assert all(size <= 2 * LOOKAHEAD for size in sizes)
        assert report.search.evaluated == sum(sizes)
        assert report.search.evaluated >= 1 + 2 * report.iterations
        assert report.evaluated == report.to_dict()["evaluated"] == sum(sizes)
        assert "nan_samples" not in report.to_dict()

    def test_unsound_stub_fails_certification(self, tmp_path, unsound_stub):
        p = write_scenario(tmp_path / "stub.scn", BASE_DOC)
        report = run_validate(load_scenario(p))
        assert report.certified is False
        assert report.oracle_max > report.eps_high


class TestDumpCover:
    def test_paraboloid_rows_tile_the_domain(self, tmp_path):
        one = Interval(1.0, 1.0)

        def f(box):
            return isqr(isub(box[0], one))

        res = moore_skelboe(
            per_box(f),
            IntervalBox.from_bounds([(-5, 4)]),
            MsConfig(delta=1e-6, split_dims=(0,)),
        )
        out = tmp_path / "cover.csv"
        with open(out, "w", newline="") as fh:
            dump_cover(res.cover.entries(), 1, 0, fh)
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
        with open(out, "w", newline="") as fh:
            dump_cover(res.cover.entries(), 2, 1, fh)
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 2 * (2 + 1) + 2

    def test_entry_of_another_dim_rejected(self, tmp_path):
        entry = CoverEntry(IntervalBox.from_bounds([(0, 1), (2, 3)]), Interval(-1, 0))
        with open(tmp_path / "c.csv", "w", newline="") as fh:
            with pytest.raises(
                ValueError, match=r"cover entry has 2 dims, header expects 1 \+ 0"
            ):
                dump_cover([entry], 1, 0, fh)

    def test_empty_entries_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        with open(out, "w", newline="") as fh:
            dump_cover([], 2, 3, fh)
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
    def test_output_is_a_directory_exit_1(
        self, scenario_dir, tmp_path, capsys, no_run, flag
    ):
        scenario = str(scenario_dir / "identity.scn")
        code = cli.main(
            ["validate", "--scenario", scenario, "--max-iters", "10", flag, str(tmp_path)]
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    @pytest.mark.parametrize("flag", ["--output", "--dump-cover"])
    def test_output_in_a_missing_directory_exit_1(
        self, scenario_dir, tmp_path, capsys, no_run, flag
    ):
        path = tmp_path / "missing" / "out"
        scenario = str(scenario_dir / "identity.scn")
        code = cli.main(["validate", "--scenario", scenario, flag, str(path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        assert not path.parent.exists()

    @pytest.mark.parametrize("where", ["scenario", "weight file"])
    def test_oversized_json_integer_exit_1(self, tmp_path, capsys, where):
        # Python's json refuses integers of more than 4300 digits with a
        # plain ValueError, not a JSONDecodeError.
        huge = "1" + "0" * 5000
        doc = json.dumps(dict(BASE_DOC, oracle=None))
        if where == "scenario":
            scenario = tmp_path / "huge.scn"
            scenario.write_text(doc.replace("200", huge))
            bad = scenario
        else:
            bad = tmp_path / "huge.json"
            layer = {"weights": [[0, 0]], "bias": [0], "activation": "linear"}
            bad.write_text(json.dumps({"layers": [layer]}).replace("[[0", "[[" + huge))
            doc = json.loads(doc)
            doc["estimator"] = {"type": "mlp", "weights_path": bad.name}
            scenario = write_scenario(tmp_path / "s.scn", doc)
        code = cli.main(["validate", "--scenario", str(scenario)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "4300 digits" in err

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

    def test_all_samples_nan_exit_2(self, tmp_path, capsys, all_nan_stub):
        # No sample gives a number: the report writes oracle_max as null,
        # and both subcommands fail with the same line as when some do.
        p = write_scenario(tmp_path / "nan.scn", BASE_DOC)
        assert cli.main(["validate", "--scenario", str(p)]) == 2
        out, line = capsys.readouterr()
        assert json.loads(out)["oracle_max"] is None
        assert "NaN at 2000 of 2000 oracle samples" in line
        assert cli.main(["oracle", "--scenario", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err == line and line.count("\n") == 1
        assert captured.out == ""

    def test_overflowing_descent(self, tmp_path, capsys):
        # A descent step so large that every estimate overflows to NaN: the
        # search names the overflow, the oracle alone the NaN samples. The
        # suite turns a numpy RuntimeWarning into an error.
        doc = dict(
            TRILAT_GD,
            estimator=dict(TRILAT_GD["estimator"], step=1e300),
            oracle={"samples": 2000},
        )
        p = write_scenario(tmp_path / "gd.scn", doc)
        assert cli.main(["validate", "--scenario", str(p)]) == 1
        self.assert_one_line_error(capsys, "estimation error overflows")
        assert cli.main(["oracle", "--scenario", str(p)]) == 2
        captured = capsys.readouterr()
        assert "NaN at 2000 of 2000 oracle samples" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize(
        "ms, flags, words",
        [
            ({"delta": -1}, [], ["ms 'delta'", "-1"]),
            ({"max_iterations": -1}, [], ["ms 'max_iterations'", "-1"]),
            ({}, ["--delta", "inf"], ["ms 'delta'", "inf"]),
            ({}, ["--delta", "nan"], ["ms 'delta'", "nan"]),
            ({}, ["--max-iters", "-1"], ["ms 'max_iterations'", "-1"]),
            ({"delta": -1, "max_iterations": -5}, [], ["ms 'delta'", "-1"]),
            ({"split": "noise"}, [], ["ms 'split'", "'noise'"]),
            ({"split": ["all"]}, [], ["ms 'split'", "['all']"]),
            ({"split": None}, [], ["ms 'split'", "None"]),
        ],
    )
    def test_bad_search_settings_exit_1_before_sampling(
        self, tmp_path, capsys, no_run, ms, flags, words
    ):
        doc = dict(BASE_DOC, ms=ms, oracle={"samples": 10**8})
        p = write_scenario(tmp_path / "s.scn", doc)
        assert cli.main(["validate", "--scenario", str(p), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in words)
        if not flags:  # the oracle subcommand takes no search flags
            assert cli.main(["oracle", "--scenario", str(p)]) == 1
            assert capsys.readouterr().err == err

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
        assert doc["stop_reason"] == "width"

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
            *(
                (
                    {
                        "observation": TRILATERATION,
                        "estimator": {"type": "gradient_descent", "iterations": n},
                    },
                    ["gradient_descent 'iterations'", "1 to 10000"],
                )
                for n in (0, 10_001, 1e12)
            ),
            ({"oracle": {"samples": True}}, ["'samples'"]),
            ({"oracle": {"samples": 2.7}}, ["'samples'"]),
            ({"oracle": {"seed": "1"}}, ["'seed'"]),
            ({"oracle": {"seed": -1}}, ["oracle 'seed'", "non-negative", "-1"]),
            ({"oracle": {"samples": 1e12}}, ["'samples'"]),
            # Finite bounds whose width, or whose sum, is not finite.
            ({"param_box": [[-1e308, 1e308], [0, 1]]}, ["param_box", "finite"]),
            ({"param_box": [[1e308, 1.7e308], [0, 1]]}, ["param_box", "finite"]),
            ({"noise_box": [[-0.1, 0.1], [-1e308, 1e308]]}, ["noise_box", "finite"]),
            ({"estimator": {"type": "constant", "value": [1e308, 0]}}, ["overflows"]),
            # Python's json reads Infinity, NaN and 1e400 as non-finite
            # floats, which a strict parser rejects.
            (
                dict(TRILAT_GD, estimator=dict(TRILAT_GD["estimator"], step=math.inf)),
                ["'step'", "inf"],
            ),
            ({"observation": {"type": "trilateration"}}, ["'landmarks'"]),
            (
                {"observation": dict(TRILATERATION, landmarks=[[0, 0], [1, 0]])},
                ["'landmarks'", "3 landmarks"],
            ),
            ({"param_box": 5}, ["'param_box'"]),
            ({"noise_box": MISSING}, ["'noise_box'"]),
            # Numbers are JSON numbers: not true or false, not strings, and
            # not integers beyond float range.
            ({"ms": {"delta": True}}, ["'delta'", "True"]),
            ({"param_box": [["0", "1"], [0, "1"]]}, ["param_box", "'0'"]),
            ({"noise_box": [[-0.1, 0.1], [False, 0.1]]}, ["noise_box", "False"]),
            ({"ms": {"delta": 10**400}}, ["'delta'"]),
            ({"param_box": [[0, 10**400], [0, 1]]}, ["param_box", "finite"]),
            (
                {"observation": dict(TRILATERATION, landmarks=[[10, -9], [5, "12"]])},
                ["'landmarks'", "'12'"],
            ),
            (
                {"observation": dict(TRILATERATION, landmarks=[[10, -9], [True, 0]])},
                ["'landmarks'", "True"],
            ),
            ({"estimator": {"type": "constant", "value": [True, 0]}}, ["'value'"]),
            (
                {
                    "observation": TRILATERATION,
                    "estimator": {"type": "gradient_descent", "step": "0.01"},
                },
                ["'step'"],
            ),
            # Grid mode evaluates all 2**28 corners of a 14-dim identity
            # scenario's search box, whatever `samples` is.
            (
                {
                    "param_box": [[0, 1]] * 14,
                    "noise_box": [[-0.1, 0.1]] * 14,
                    "oracle": {"samples": 10, "mode": "grid"},
                },
                ["2**28 corners"],
            ),
            ({"ms": {"delta": 1e400}}, ["'delta'", "inf"]),
            ({"estimator": {"type": "constant", "value": [math.nan]}}, ["'value'"]),
            (
                {"observation": dict(TRILATERATION, landmarks=[[math.inf, 0]])},
                ["'landmarks'", "inf"],
            ),
            ({"oracle": {"mode": 7}}, ["oracle 'mode'", "7"]),
            ({"oracle": {"mode": "sobol"}}, ["oracle 'mode'", "'sobol'"]),
            ({"estimator": {"type": "mlp"}}, ["'weights_path'"]),
            ({"estimator": {"type": "constant", "value": []}}, ["constant value"]),
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
        "field, value, words",
        [
            pytest.param("layers", 5, ["'layers'"], id="layers-5"),
            pytest.param("layers", MISSING, ["'layers'"], id="layers-missing"),
            pytest.param("layers", [], ["at least one layer"], id="layers-empty"),
            pytest.param("meta", 5, ["'meta'"], id="meta-5"),
            pytest.param("meta", [1], ["'meta'"], id="meta-value2"),
            # Fields of layer 1, which has 32 rows of 32 weights. A string
            # or an object is not a list of numbers, nor are true and false.
            pytest.param("bias", "1" * 32, NOT_A_NUMBER, id="bias-string"),
            pytest.param(
                "bias", {str(i): 1 for i in range(32)}, NOT_A_NUMBER, id="bias-object"
            ),
            pytest.param("bias", [True] * 32, NOT_A_NUMBER, id="bias-true"),
            pytest.param("bias", ["1"] * 32, NOT_A_NUMBER, id="bias-numeric-strings"),
            pytest.param(
                "weights", ["1" * 32] * 32, NOT_A_NUMBER, id="weights-strings"
            ),
            pytest.param(
                "weights", [[False] * 32] * 32, NOT_A_NUMBER, id="weights-false"
            ),
            pytest.param(
                "weights", [], ["layer 1", "no weight rows"], id="weights-empty"
            ),
            pytest.param(
                "weights", [[]], ["layer 1", "zero-width"], id="weights-empty-row"
            ),
            pytest.param(
                "weights",
                [[1.0] * 32] * 31 + [[1.0] * 31],
                ["layer 1", "inconsistent lengths"],
                id="weights-ragged",
            ),
            pytest.param("activation", "tanh", ["layer 1", "'tanh'"], id="activation"),
        ],
    )
    def test_malformed_weight_file_exit_1(
        self, scenario_dir, tmp_path, capsys, field, value, words
    ):
        doc = json.loads((scenario_dir / "mlp_3x32x32x2.json").read_text())
        if field not in ("layers", "meta"):
            doc["layers"][1][field] = value
        elif value is MISSING:
            del doc[field]
        else:
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
        self.assert_one_line_error(capsys, *words)

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

    def test_layer_1_input_beyond_its_limit_exit_1(
        self, scenario_dir, tmp_path, capsys
    ):
        # A huge weight in layer 1 leaves layer 0's overflow limit as it was
        # and takes layer 1's to about 2.2, below the bounds that layer 0
        # gives it on the search box: the search stops in layer 1.
        doc = json.loads((scenario_dir / "mlp_3x32x32x2.json").read_text())
        doc["layers"][1]["weights"][0][0] = 1e307
        (tmp_path / "net.json").write_text(json.dumps(doc))
        scn = json.loads((scenario_dir / "trilat_mlp.scn").read_text())
        scn["estimator"]["weights_path"] = "net.json"
        off = write_scenario(tmp_path / "off.scn", dict(scn, oracle=None))
        argv = ["validate", "--scenario", str(off), "--max-iters", "50"]
        assert cli.main(argv) == 1
        self.assert_one_line_error(capsys, "network layer 1 input overflows")

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

    def test_oracle_negative_seed_exit_1(self, scenario_dir, capsys):
        code = cli.main(
            ["oracle", "--scenario", str(scenario_dir / "identity.scn"), "--seed", "-1"]
        )
        assert code == 1
        self.assert_one_line_error(capsys, "oracle 'seed'", "non-negative", "-1")

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
