import sys
from pathlib import Path

import pytest

# test modules import shared machinery from helpers.py next to them
sys.path.insert(0, str(Path(__file__).resolve().parent))

from edgex import families  # noqa: E402


@pytest.fixture(autouse=True)
def cold_store():
    """Every test starts and ends with nothing kept, no cube pair and no
    sweep state, so tests that count builds or derived rows, trace a count
    or lower the count's cap pass in any order."""
    families._kept_values.clear()
    yield
    families._kept_values.clear()
