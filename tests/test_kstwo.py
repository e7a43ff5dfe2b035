"""The in-house two-sample KS test equals scipy's, bit for bit and dtype for dtype."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hullforge import kstwo

#: n x^2 at the rule's switch points: DMTW / Pomeranz (n <= 140), smirnov for
#: n > 140, the (cdf-only) one at 18 and the survival function's zero cutoff
_SWITCHES = (0.754693, 2.2, 4.0, 18.0, 370.0)
_LARGE_N = (141, 400, 1000, 2500, 10000, 20000)


def _points():
    """(x, n) pairs reaching every branch of the survival function."""
    for n in [*range(1, 301), *_LARGE_N]:
        xs = {0.5 / n, math.nextafter(0.5 / n, 1.0), 0.75 / n, 1.0 / n, 0.5,
              math.nextafter(0.5, 0.0), 1.0, math.nextafter(1.0, 0.0), 1.5, 0.0,
              (n - 1) / n, 1.5 / n, 3.7 / n}
        for c in _SWITCHES:
            xs.update(math.sqrt(c * e / n) for e in (0.999, 1.0, 1.001))
        xs.update((1.4 / n) ** (2 / 3) * e for e in (0.999, 1.001))  # DMTW / Pelz-Good
        yield from ((x, float(n)) for x in sorted(xs))


def _scipy_sf(x, n):
    with np.errstate(divide="ignore"):  # scipy forms its support 0.5/n before checking n
        return stats.kstwo.sf(x, n)


def _same(got, want):
    return type(got) is type(want) and (got == want or (np.isnan(got) and np.isnan(want)))


def test_sf_equals_scipy_on_every_branch(spy):
    calls = {name: spy(kstwo, name)
             for name in ("_kolmogn_DMTW", "_kolmogn_Pomeranz", "_kolmogn_PelzGood", "smirnov")}
    wrong = [(x, n, got, want) for x, n in _points()
             if not _same(got := kstwo.kstwo_sf(x, n), want := _scipy_sf(x, n))]
    assert wrong == []
    # DMTW and smirnov on both sides of n = 140
    assert {n <= 140 for n, _ in calls["_kolmogn_DMTW"]} == {True, False}
    assert {n <= 140 for n, _ in calls["smirnov"]} == {True, False}
    assert calls["_kolmogn_Pomeranz"] and calls["_kolmogn_PelzGood"]


@pytest.mark.parametrize("x, n", [(0.3, 0.0), (0.3, 0.5), (0.3, 2.5), (math.nan, 10.0),
                                  (0.001, 1e6), (2e-5, 1e6), (math.sqrt(370.0 / 4e6), 4e6),
                                  (0.5, 1.0)])
def test_sf_edges_equal_scipy(x, n):
    # sizes scipy refuses, a nan statistic, Pelz-Good past DMTW's n <= 1e5, also where its
    # series underflows (z < 0.0417), and the cutoff n x^2 >= 370 where 2 smirnov is not 0
    assert _same(kstwo.kstwo_sf(x, n), _scipy_sf(x, n))


def _assert_same_test(a, b):
    got = kstwo.ks_2samp(a, b)
    with np.errstate(divide="ignore"):
        want = stats.ks_2samp(a, b, method="asymp")
    assert _same(got.statistic, want.statistic) and _same(got.pvalue, want.pvalue)


@pytest.mark.parametrize("n1, n2", [(1, 1), (3, 3), (5, 5), (1, 3), (7, 9), (60, 20),
                                    (150, 150), (500, 300)])
def test_two_sample_equals_scipy_on_tied_integer_arms(n1, n2):
    # counts with many ties; n1 = n2 = 1, 3, 5 give n1 n2 / (n1 + n2) = 0.5, 1.5, 2.5,
    # which round half to even to 0 (a nan p-value), 2 and 2
    rng = np.random.default_rng(n1 * 1000 + n2)
    for hi in (1, 3, 12):
        _assert_same_test(rng.integers(0, hi, n1).astype(float),
                          rng.integers(0, hi, n2).astype(float))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=80),
       st.lists(st.integers(0, 6), min_size=1, max_size=80),
       st.floats(0.0, 2.0))
def test_two_sample_equals_scipy_on_shifted_arms(a, b, shift):
    _assert_same_test(np.asarray(a, dtype=float), np.asarray(b, dtype=float) * 0.5 + shift)
