from pathlib import Path

import pytest
from hypothesis import settings

from crowdsync.scenario_io import load_scenario
from crowdsync.scenarios import ScenarioSpec

# Fresh examples on every run, each failure printed with the blob that replays it:
# pytest --hypothesis-profile=explore --hypothesis-seed=N. No example database, so N alone fixes the run.
settings.register_profile("explore", derandomize=False, database=None, print_blob=True)

REPO = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def spec_of(config, rule, profile, **fields) -> ScenarioSpec:
    """The spec of `config` under `rule` and `profile`; `fields` are its other fields, such as seed."""
    return ScenarioSpec(config=config, rule=rule, profile=profile, **fields)


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def golden(scenario_dir):
    """Load one of the golden scenario files by name."""
    return lambda name: load_scenario(scenario_dir / f"{name}.scenario")
