"""Search results pinned bit for bit.

The values were recorded before the optimizer's hot path was last
rewritten; the network cover, before both halves of a split were evaluated
in one batched call. Any change to the split order, the rounding of an
enclosure, the FIFO order among equal lower bounds or the final cover
shows up here as a changed bound, count or witness box.
"""

import dataclasses
import hashlib
import json

import pytest

from estbound import cli, pipeline
from estbound.optimizer import Cover, moore_skelboe
from estbound.pipeline import load_scenario, run_validate


def _pairs(box):
    return [[c.lb, c.ub] for c in box]


def test_identity_scenario_at_20k_iterations(scenario_dir):
    scenario = dataclasses.replace(
        load_scenario(scenario_dir / "identity.scn"),
        max_iterations=20_000,
        oracle=None,
    )
    report = run_validate(scenario)
    # repr tells 0.0 from -0.0 and names every bit of the bounds.
    assert repr(report.eps_low) == "0.0"
    assert repr(report.eps_high) == "0.14142135623731084"
    assert (report.iterations, report.cover_size) == (20_000, 20_001)
    # Every front box has the same enclosure, so the witness is fixed by the
    # FIFO order among equal lower bounds.
    assert _pairs(report.witness_param_box) == [
        [0.40625, 0.4140625],
        [0.2578125, 0.265625],
    ]


def test_trilat_gd_scenario(trilat_gd_run):
    report = trilat_gd_run
    assert repr(report.eps_low) == "1.518376834710833"
    assert repr(report.eps_high) == "15.220053561620821"
    assert (report.iterations, report.cover_size) == (2000, 2001)
    assert report.search.evaluated == 4001
    assert _pairs(report.witness_param_box) == [[6.875, 7.1875], [22.5, 22.8125]]


def test_trilat_mlp_scenario(trilat_mlp_run):
    report = trilat_mlp_run
    assert repr(report.eps_low) == "3.775279473562722"
    assert repr(report.eps_high) == "8.195294291576293"
    assert (report.iterations, report.cover_size) == (2000, 2001)
    assert report.search.evaluated == 4001
    assert _pairs(report.witness_param_box) == [
        [5.000000223517418, 5.000000298023224],
        [5.0, 5.000000149011612],
    ]


@pytest.mark.parametrize("name, evaluated", [("constant", 167), ("identity", 4001)])
def test_boxes_evaluated_at_the_committed_budget(scenario_dir, name, evaluated):
    # Splitting ahead (optimizer.LOOKAHEAD) may hand the objective boxes
    # the search never uses; at the committed budgets it hands over this
    # many, the initial box included. The network and descent scenarios
    # are pinned with their other figures above.
    report = run_validate(load_scenario(scenario_dir / f"{name}.scn"))
    assert report.search.evaluated == evaluated


def test_objective_calls_on_tied_boxes(scenario_dir, monkeypatch):
    # Every box of the identity scenario ties on one lower bound, so the
    # search splits up to optimizer.TIED_SPLITS front boxes per objective
    # call. Split LOOKAHEAD boxes per call, it made 631 calls here.
    sizes = []

    def recording(f, b_init, cfg):
        def batched(lb, ub):
            sizes.append(len(lb))
            return f(lb, ub)

        return moore_skelboe(batched, b_init, cfg)

    monkeypatch.setattr(pipeline, "moore_skelboe", recording)
    scenario = dataclasses.replace(
        load_scenario(scenario_dir / "identity.scn"),
        max_iterations=20_000,
        oracle=None,
    )
    report = run_validate(scenario)
    assert report.search.evaluated == sum(sizes) == 40_001
    assert len(sizes) == 49


def test_cover_pushes_on_tied_boxes(scenario_dir, monkeypatch):
    # Every box of the identity scenario ties, so each batch split from the
    # front's run leaves the cover in one step (Cover._retire), its halves
    # chained onto the run without a Cover._push each. Only the initial box
    # and the 63 splits made while the run held at most LOOKAHEAD boxes
    # push; one split at a time, it took 40001 pushes here.
    pushes = []
    push = Cover._push

    def counting(cover, row):
        pushes.append(row)
        push(cover, row)

    monkeypatch.setattr(Cover, "_push", counting)
    scenario = dataclasses.replace(
        load_scenario(scenario_dir / "identity.scn"),
        max_iterations=20_000,
        oracle=None,
    )
    report = run_validate(scenario)
    assert report.iterations == 20_000
    assert len(pushes) == 127


def cover_and_report_hashes(scenario, max_iters, tmp_path, capsys):
    """SHA-256 of the cover CSV and of the printed report without `elapsed`,
    re-serialised with the CLI's json.dumps(indent=1) layout. The report
    hashes were re-recorded when the report gained `evaluated`; each equals
    the hash of the earlier report with that one field inserted."""
    cover = tmp_path / "cover.csv"
    code = cli.main(
        [
            "validate",
            "--scenario",
            str(scenario),
            "--max-iters",
            str(max_iters),
            "--dump-cover",
            str(cover),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["elapsed"]
    report = (json.dumps(doc, indent=1) + "\n").encode()
    return (
        hashlib.sha256(cover.read_bytes()).hexdigest(),
        hashlib.sha256(report).hexdigest(),
    )


def test_cli_cover_dump_of_identity_scenario(scenario_dir, tmp_path, capsys):
    assert cover_and_report_hashes(
        scenario_dir / "identity.scn", 2000, tmp_path, capsys
    ) == (
        "5cdf5379847e389aff614e1ae0d02598a97c9553d30104a0db5bdd66efb43ac3",
        "c2cb55076fa74fe9ba31dc1e9b6c6fd5b29552d642d364028cc46a92db3b48a0",
    )


def test_cli_cover_dump_of_trilat_mlp_scenario(scenario_dir, tmp_path, capsys):
    # Every cover box went through the network's batched interval pass.
    assert cover_and_report_hashes(
        scenario_dir / "trilat_mlp.scn", 300, tmp_path, capsys
    ) == (
        "800dd0aadf502de0e1a63d0cd5b9220635c7d25ff0e12ec96caafd7f28ad6e5d",
        "fb7c91d4a0998cc22d4ba234f85af8726a46672f686993029aea55f7b8fe5748",
    )


def test_cli_cover_dump_of_trilat_gd_scenario(scenario_dir, tmp_path, capsys):
    # Every cover box went through the descent's batched interval pass. The
    # hashes were recorded from the descent's earlier scalar interval pass,
    # one Interval per bound and one box at a time.
    assert cover_and_report_hashes(
        scenario_dir / "trilat_gd.scn", 300, tmp_path, capsys
    ) == (
        "3a326cf3025659b3f39785f979c5be5aeb647262a88d8c266ae5293ccc59395d",
        "f910dc873dd95f6e4a6c201494c222134667e6e628cad972f528d5cfaa146653",
    )


def test_cli_cover_dump_of_constant_scenario_to_width(scenario_dir, tmp_path, capsys):
    # A budget the search never reaches: it stops on width after 42
    # iterations, and the grid oracle runs.
    assert cover_and_report_hashes(
        scenario_dir / "constant.scn", 100_000, tmp_path, capsys
    ) == (
        "a2c6edbc76d14f9da3492d7f01c64159ca5ffeef61bc699477fa2e423ded9a8d",
        "9fedaffa938c2087f584cb84156af2ebc53cf7c78e77aa5341c57466125f9c81",
    )


def test_cli_cover_dump_of_trilat_mlp_scenario_to_unsplittable_front(
    scenario_dir, tmp_path, capsys
):
    # Parameter-only splitting runs out: the search stops on an unsplittable
    # front after 3367 iterations, with 6745 boxes evaluated.
    assert cover_and_report_hashes(
        scenario_dir / "trilat_mlp.scn", 20_000, tmp_path, capsys
    ) == (
        "5542c6f9fb02c1f1eb778f68cf979d420275fe2229bdb33d7e1c09d6c1bcd923",
        "887e065459628aaa87efc9b803a3c9e068f99056da1250c57853606c914da933",
    )
