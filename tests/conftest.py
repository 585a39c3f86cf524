import sys
from pathlib import Path

import pytest

# test modules import shared machinery from helpers.py next to them
sys.path.insert(0, str(Path(__file__).resolve().parent))

from edgex import extension  # noqa: E402


@pytest.fixture(autouse=True)
def cold_cube_pairs():
    """Every test starts and ends with no cube pair kept, so tests that
    count builds or derived rows pass in any order."""
    extension._cube_pair.cache_clear()
    yield
    extension._cube_pair.cache_clear()
