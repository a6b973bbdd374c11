from pathlib import Path

import pytest

from crowdsync.scenario_io import load_scenario

REPO = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


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
