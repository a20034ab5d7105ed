"""Fixtures shared by the test suite; plain helpers live in helpers.py."""

from pathlib import Path

import pytest

from helpers import SCENARIO_DIR


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR
