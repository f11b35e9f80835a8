import functools
import sys
from pathlib import Path

import pytest

from qgcheck import linalg, models
from qgcheck.duality import build_alg_mult_unitary, build_dual
from qgcheck.gns import build_gns
from qgcheck.modular import solve_haar
from qgcheck.subgroups import build_dual_morphism

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


# Each named built-in and each stage of its chain, built at most once per
# test session, each stage from the cached stage before it.  The library
# caches no stage, so a test that reads a stage many times takes it here.


@pytest.fixture(scope="session")
def model_cache():
    return functools.cache(models.builtin)


@pytest.fixture(scope="session")
def haar_cache(model_cache):
    return functools.cache(lambda name: solve_haar(model_cache(name)))


@pytest.fixture(scope="session")
def duality_cache(haar_cache):
    return functools.cache(lambda name: build_dual(haar_cache(name)))


@pytest.fixture(scope="session")
def dual_morphism_cache():
    """build_dual_morphism(make()), built once per morphism maker (a
    function of no arguments) and test session; a test that faults the
    result applies the fault to the cached one, which it never changes."""
    return functools.cache(lambda make: build_dual_morphism(make()))


@pytest.fixture(scope="session")
def mw_cache(duality_cache):
    return functools.cache(
        lambda name: build_alg_mult_unitary(duality_cache(name)))


@pytest.fixture(scope="session")
def gns_cache(mw_cache):
    return functools.cache(lambda name: build_gns(mw_cache(name)))


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
