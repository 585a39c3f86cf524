import sys
from pathlib import Path

import pytest

# test modules import shared machinery from helpers.py next to them
sys.path.insert(0, str(Path(__file__).resolve().parent))

from edgex import extension, oracle  # noqa: E402


@pytest.fixture(autouse=True)
def cold_cube_pairs():
    """Every test starts and ends with no cube pair kept, so tests that
    count builds or derived rows pass in any order."""
    extension._cube_pair.cache_clear()
    yield
    extension._cube_pair.cache_clear()


@pytest.fixture(autouse=True)
def cold_sweep_states():
    """Every test starts and ends with no sweep state kept, so tests that
    count builds, trace a count or lower the count's cap pass in any
    order."""
    oracle._sweep_states.clear()
    yield
    oracle._sweep_states.clear()
