import math

import pytest

from hullforge import estimators
from hullforge.corpora import euclid_corpus, line_corpus, param_corpus


@pytest.fixture(scope="session")
def planar_corpus():
    return euclid_corpus(2, 120, 10, seed=101)


@pytest.fixture(scope="session")
def spatial_corpus():
    return euclid_corpus(3, 80, 10, seed=102)


@pytest.fixture(scope="session")
def band_corpus():
    return param_corpus(1, 120, 10, seed=103)


@pytest.fixture(scope="session")
def lines_corpus():
    return line_corpus(120, 8, seed=104, window=2.0)


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)`` patches ``owner.name`` to record each call; returns the calls."""

    def install(owner, name) -> list:
        calls, real = [], getattr(owner, name)

        def record(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, record)
        return calls

    return install


@pytest.fixture
def nan_residual_at(monkeypatch):
    """``nan_residual_at(k)`` makes ``estimators.ks_error`` return nan at its k-th call."""

    def install(k: int) -> None:
        real, calls = estimators.ks_error, []

        def ks_error(*args, **kwargs):
            calls.append(None)
            return math.nan if len(calls) == k else real(*args, **kwargs)

        monkeypatch.setattr(estimators, "ks_error", ks_error)

    return install
