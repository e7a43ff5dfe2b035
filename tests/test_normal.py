"""The in-house normal CDF and quantile equal scipy.special's, bit for bit."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from hullforge import normal

_SQRTH = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843E2
_TINY = (5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300)


def _assert_bitwise(got, want):
    # the same float64 bits, so a nan's sign and a zero's sign count too
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    bad = got.view(np.uint64) != want.view(np.uint64)
    assert not bad.any(), list(zip(got[bad][:5], want[bad][:5]))


def _around(v, k=3):
    """The 2k + 1 floats nearest v, v among them."""
    out = [v]
    for toward in (math.inf, -math.inf):
        w = v
        for _ in range(k):
            w = math.nextafter(w, toward)
            out.append(w)
    return out


def test_ndtri_equals_scipy_on_the_w1_grids():
    # normality_diagnostics asks for ndtri((i - 1/2)/n), i = 1..n
    for n in [*range(100, 3000), 5000, 10**4, 2 * 10**4, 10**5]:
        grid = (np.arange(1, n + 1) - 0.5) / n
        _assert_bitwise(normal.ndtri(grid), special.ndtri(grid))


def test_ndtri_equals_scipy_at_every_branch_edge():
    e2, e32 = 0.13533528323661269189, math.exp(-32)  # exp(-2); exp(-32), where z = 8
    edges = [  # (floats around a switch, the side Cephes's test puts each on)
        (_around(1.0 - e2), lambda y: y > 1.0 - e2),  # the upper tail, solved at 1 - y
        (_around(e2), lambda y: y > e2),  # the central rational function
        (_around(e32, 64), lambda y: math.sqrt(-2.0 * math.log(y)) < 8.0),  # P1/Q1 or P2/Q2
        (_around(1.0 - e32), lambda y: math.sqrt(-2.0 * math.log(1.0 - y)) < 8.0),
    ]
    for points, side in edges:
        assert {side(y) for y in points} == {True, False}
    special_values = [0.0, -0.0, 0.5, 1.0, math.nextafter(1.0, 0.0), math.nextafter(0.0, 1.0),
                      *_TINY, math.exp(-2), 1 - math.exp(-2), -1e-300, -1.0, 1.5, math.inf,
                      -math.inf, math.nan, -math.nan]
    y = np.array([y for points, _ in edges for y in points] + special_values)
    _assert_bitwise(normal.ndtri(y), special.ndtri(y))


def test_ndtr_equals_scipy_at_every_branch_edge():
    # |a|/sqrt(2) = 1/sqrt(2) (erf or erfc), 1 (erfc's own switch), 8 (P/Q or R/S) and
    # sqrt(MAXLOG) (exp(-z^2) underflows; erfc returns 0)
    edges = [_around(s * v, 8) for v in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                                         math.sqrt(2.0 * _MAXLOG)) for s in (1.0, -1.0)]
    sides = (lambda z: z < _SQRTH, lambda z: z < 1.0, lambda z: z < 8.0,
             lambda z: -z * z < -_MAXLOG)
    for side, points in zip(sides, edges[::2]):
        assert {side(abs(a * _SQRTH)) for a in points} == {True, False}
    a = np.array([v for vs in edges for v in vs]
                 + [0.0, -0.0, *_TINY, *(-v for v in _TINY), 40.0, -40.0, math.inf, -math.inf,
                    math.nan, -math.nan])
    _assert_bitwise(normal.ndtr(a), special.ndtr(a))


def test_ndtr_equals_scipy_on_random_reals():
    rng = np.random.default_rng(20)
    a = np.concatenate([rng.normal(size=20000), rng.uniform(-40.0, 40.0, 20000),
                        rng.uniform(-1.5, 1.5, 20000)])
    _assert_bitwise(normal.ndtr(a), special.ndtr(a))
    u = np.concatenate([rng.random(20000), np.exp(-rng.uniform(0.0, 744.0, 20000))])
    _assert_bitwise(normal.ndtri(u), special.ndtri(u))
    _assert_bitwise(normal.ndtri(1.0 - u), special.ndtri(1.0 - u))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
@example([0.0, 1.0, 5e-324, 0.5])
def test_ndtri_equals_scipy_on_any_float_in_the_unit_interval(ys):
    y = np.array(ys)
    _assert_bitwise(normal.ndtri(y), special.ndtri(y))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([math.nan, math.inf, -math.inf, -0.0, 1.0, -1.0, 1e308])
def test_ndtr_and_ndtri_equal_scipy_on_any_float(xs):
    x = np.array(xs)
    _assert_bitwise(normal.ndtr(x), special.ndtr(x))
    _assert_bitwise(normal.ndtri(x), special.ndtri(x))


def test_shapes_follow_the_input():
    assert normal.ndtr(0.0).shape == () and normal.ndtr(0.0) == 0.5
    assert normal.ndtri(np.full((2, 3), 0.5)).shape == (2, 3)
    assert normal.ndtri(np.array([])).shape == (0,)
