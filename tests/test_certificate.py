"""The structure eps_high rests on, checked on whole final covers: the
cover's boxes tile the initial box, and eps_high is the largest error upper
bound, -f_lb, among them."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import bounds_of
from estbound.pipeline import load_scenario, run_validate


def volume(lb, ub):
    return math.prod(Fraction(hi) - Fraction(lo) for lo, hi in zip(lb, ub))


@pytest.mark.parametrize("name", ["constant", "identity", "trilat_mlp"])
def test_final_cover_tiles_the_initial_box(name, scenario_dir, request):
    scenario = load_scenario(scenario_dir / f"{name}.scn")
    if name == "trilat_mlp":
        report = request.getfixturevalue("trilat_mlp_run")
    else:
        report = run_validate(scenario)
    entries = report.search.cover.entries()
    assert len(entries) == report.cover_size > 1
    initial = scenario.build_objective().initial_box()
    lb, ub = bounds_of([entry.box for entry in entries], initial.dim)
    (init_lb,), (init_ub,) = bounds_of([initial], initial.dim)
    assert (init_lb <= lb).all() and (ub <= init_ub).all()
    # Pairwise interior-disjoint: every pair is apart in some dimension,
    # touching at most.
    for i in range(len(lb) - 1):
        inner = np.maximum(lb[i], lb[i + 1 :]) < np.minimum(ub[i], ub[i + 1 :])
        assert not inner.all(axis=1).any(), f"box {i} overlaps a later box"
    # With the boxes inside the initial box and apart, equal volumes mean
    # they cover it.
    total = sum(volume(*row) for row in zip(lb.tolist(), ub.tolist()))
    assert total == volume(init_lb.tolist(), init_ub.tolist())
    assert report.eps_high == max(-entry.enclosure.lb for entry in entries)
