import itertools
from types import SimpleNamespace

import pytest
from hypothesis import settings

from wtf_lab import ThetaSequence, model_spec, validate_system, verify

# Property tests draw the same examples on every run and write no example
# database, so the suite stays deterministic and leaves no .hypothesis/.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def systems():
    return {name: validate_system(model_spec(name)) for name in ("M1", "M2", "M3", "M4", "M5")}


@pytest.fixture(scope="session")
def m1(systems):
    return systems["M1"]


@pytest.fixture(scope="session")
def m2(systems):
    return systems["M2"]


@pytest.fixture(scope="session")
def m3(systems):
    return systems["M3"]


@pytest.fixture(scope="session")
def m4(systems):
    return systems["M4"]


@pytest.fixture(scope="session")
def m5(systems):
    return systems["M5"]


@pytest.fixture(scope="session")
def zeros():
    return ThetaSequence.zeros()


@pytest.fixture
def battery_clock(monkeypatch):
    """battery_clock(step) gives wtf_lab.verify a clock that advances step
    seconds at every reading."""
    def install(step):
        ticks = itertools.count()
        monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: step * next(ticks)))
    return install
