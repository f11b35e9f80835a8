import sys
from pathlib import Path

import pytest

from qgcheck import linalg, models
from qgcheck.gns import build_gns

# the fault catalogue, tools/faults.py, is imported as ``faults``
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))


@pytest.fixture
def eliminations(monkeypatch):
    """Clear the elimination memo, then record each (map, right-hand side)
    that ``linalg._Eliminator`` eliminates, in order, until the test ends
    or calls ``monkeypatch.undo()``."""
    seen = []

    class Spy(linalg._Eliminator):
        def __init__(self, m, aug=None):
            seen.append((m, aug))
            super().__init__(m, aug)

    linalg._MEMO.clear()  # no result of an earlier test is read
    monkeypatch.setattr(linalg, "_Eliminator", Spy)
    return seen


@pytest.fixture(scope="session")
def model_cache():
    """Build each named model at most once per test session."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = models.builtin(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def gns_cache(model_cache):
    """Build each GNS realization at most once per test session."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_gns(model_cache(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def sweedler(model_cache):
    return model_cache("sweedler")


@pytest.fixture(scope="session")
def taft3(model_cache):
    return model_cache("taft3")


@pytest.fixture(scope="session")
def c_s3(model_cache):
    return model_cache("c_s3")


@pytest.fixture(scope="session")
def cg_s3(model_cache):
    return model_cache("cg_s3")


@pytest.fixture(scope="session")
def d_s3(model_cache):
    return model_cache("d_s3")
