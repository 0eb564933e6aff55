import pytest

from netgen import closed_corpus, open_corpus
from spinnet import evaluator
from spinnet.evaluator import EvalCache
from spinnet.radical import Radical


@pytest.fixture(scope="session")
def closed_nets():
    return closed_corpus()


@pytest.fixture(scope="session")
def open_nets():
    return open_corpus()


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty process cache for one test; the shared one is put back after."""
    cache = EvalCache()
    monkeypatch.setattr(evaluator, "_default_cache", cache)
    return cache


@pytest.fixture
def no_radicals(monkeypatch):
    """Make every way to build or combine a Radical raise."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("this path must not build a Radical")

    for name in ("__init__", "_from_square", "sqrt", "__add__", "__radd__", "__mul__",
                 "__rmul__", "__sub__", "__truediv__"):
        monkeypatch.setattr(Radical, name, forbidden)
