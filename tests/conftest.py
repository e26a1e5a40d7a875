from pathlib import Path

import pytest

from estbound.pipeline import load_scenario, run_validate

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
