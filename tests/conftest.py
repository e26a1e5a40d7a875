from pathlib import Path

import numpy as np
import pytest

from estbound.pipeline import load_scenario, run_validate

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def bounds_of(boxes, dim):
    """The lower and the upper bounds of the first dim components of each
    box, as two (len(boxes), dim) float64 arrays, one row per box: the
    many-box form of interval._bounds."""
    lb = [c.lb for box in boxes for c in box.components[:dim]]
    ub = [c.ub for box in boxes for c in box.components[:dim]]
    return (
        np.array(lb, dtype=np.float64).reshape(-1, dim),
        np.array(ub, dtype=np.float64).reshape(-1, dim),
    )


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def trilat_gd_run():
    """Report of a full pipeline run of the range-based scenario with the
    descent estimator; shared because it is the most expensive run in the
    suite."""
    return run_validate(load_scenario(SCENARIO_DIR / "trilat_gd.scn"))


@pytest.fixture(scope="session")
def trilat_mlp_run():
    """Report of a full pipeline run of the range-based scenario with the
    bundled network fixture."""
    return run_validate(load_scenario(SCENARIO_DIR / "trilat_mlp.scn"))
