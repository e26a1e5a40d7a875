"""Search results pinned bit for bit.

The values were recorded before the optimizer's hot path was last
rewritten. Any change to the split order, the rounding of an enclosure, the
FIFO order among equal lower bounds or the final cover shows up here as a
changed bound, count or witness box.
"""

import dataclasses

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


def test_trilat_mlp_scenario(trilat_mlp_run):
    report, _ = trilat_mlp_run
    assert repr(report.eps_low) == "3.775279473562722"
    assert repr(report.eps_high) == "8.195294291576293"
    assert (report.iterations, report.cover_size) == (2000, 2001)
    assert _pairs(report.witness_param_box) == [
        [5.000000223517418, 5.000000298023224],
        [5.0, 5.000000149011612],
    ]
