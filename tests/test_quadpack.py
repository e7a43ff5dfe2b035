"""The in-house QAGI equals ``scipy.integrate.quad`` on [bound, inf), bit for bit."""

import bisect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hullforge import analytics, montecarlo, quadpack

#: the first words of ``quad``'s warning -> its ier
_SCIPY_IER = {"The maximum number": 1, "The occurrence of roundoff": 2, "Extremely bad": 3,
              "The algorithm does not converge": 4, "The integral is probably divergent": 5}
#: every t the rates grid, C9, C10, the CLI tests and the golden configs evaluate bounds at
_TS = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
#: the largest t of a clt grid: C10 (16..1024) and the CLI tests (16..128)
_CLT_TS = (128.0, 1024.0)


def _hex(values):
    return [float(v).hex() for v in values]


def _scipy(fn, bound=0.0, **kw):
    """``quad`` on [bound, inf): (value, abserr, ier, last, neval, lists), floats as hex."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr, info, *msg = integrate.quad(fn, bound, np.inf, full_output=1, **kw)
    ier = next((v for k, v in _SCIPY_IER.items() if msg[0].startswith(k)), None) if msg else 0
    last, limit = info["last"], kw.get("limit", 50)
    k = last if last <= limit // 2 + 2 else limit + 1 - last
    lists = [_hex(info[key][:last]) for key in ("alist", "blist", "rlist", "elist")]
    return (value.hex(), abserr.hex(), ier, last, info["neval"], *lists,
            info["iord"][:k].tolist())


def _port(fn, bound=0.0, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", quadpack.IntegrationWarning)
        got = quadpack.qagi(fn, bound, **kw)
    return (got.value.hex(), got.abserr.hex(), got.ier, got.last, got.neval,
            *map(_hex, (got.alist, got.blist, got.rlist, got.elist)), got.iord)


def _assert_same(fn, bound=0.0, **kw):
    """The port's outputs equal ``quad``'s, ``full_output`` included; returns the flag."""
    want = _scipy(fn, bound, **kw)
    assert _port(fn, bound, **kw) == want
    return want[2]


def _analytics_integrands(spy, call, ts):
    """Every integrand ``call(params at t)`` hands to ``analytics._quad_to_inf``."""
    calls = spy(analytics, "_quad_to_inf")
    for t in ts:
        call(montecarlo.hoelder_scenario_params(t))
    return [fn for fn, in calls]


def test_variance_bound_integrands_equal_scipy(spy):
    fns = _analytics_integrands(spy, analytics.hoelder_variance_bounds, _TS)
    assert len(fns) == 2 * len(_TS)
    for fn in fns:
        _assert_same(fn, epsrel=1e-6, limit=200)


def test_clt_bound_integrands_equal_scipy(spy):
    fns = _analytics_integrands(spy, analytics.clt_bound_terms, _CLT_TS)
    assert len(fns) == 5 * len(_CLT_TS)
    for fn in fns:
        _assert_same(fn, epsrel=1e-6, limit=200)


@st.composite
def _kinked_profiles(draw):
    """A piecewise-linear profile through (0, v0), (u1, v1), ..., 0 past the last knot."""
    knots = [0.0, *sorted(draw(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=4,
                                        unique=True)))]
    values = draw(st.lists(st.floats(0.0, 2.0), min_size=len(knots), max_size=len(knots)))

    def profile(u: float) -> float:
        i = bisect.bisect_right(knots, u)
        if i == len(knots):
            return 0.0
        w = (u - knots[i - 1]) / (knots[i] - knots[i - 1])
        return values[i - 1] + w * (values[i] - values[i - 1])

    return profile


@settings(max_examples=200, deadline=None)
@given(_kinked_profiles(), st.floats(0.01, 1000.0),
       st.sampled_from([1.0, 4.0 / 3.0, 1.5, 2.0, 3.0]), st.sampled_from([200, 10, 3]),
       st.sampled_from([1e-6, 1e-10]))
def test_decaying_kinked_profiles_equal_scipy(profile, a, q, limit, epsrel):
    # the depth exponents (d + beta) / beta of Direction 10 among q; small limits
    # reach the shortened ordered list of dqpsrt
    _assert_same(lambda u: profile(u) * math.exp(-a * u**q), epsrel=epsrel, limit=limit)


@settings(max_examples=150, deadline=None)
@given(st.floats(-0.95, 1.0), st.floats(0.1, 5.0), st.floats(0.0, 4.0),
       st.sampled_from([{"epsrel": 1e-6, "limit": 200}, {"epsabs": 0.0, "epsrel": 1e-10},
                        {"epsabs": 0.0, "epsrel": 1.2e-14, "limit": 200}]))
def test_singular_integrands_equal_scipy(p, a, c, kw):
    # a power singularity at c, at the bound or inside: extrapolation and the roundoff flags
    _assert_same(lambda u: abs(u - c) ** p * math.exp(-a * u) if u != c else 0.0, **kw)


def _root_decay(u):
    return u**-0.5 * math.exp(-u) if u > 0.0 else 0.0


def _log_decay(u):
    return math.log(u) * math.exp(-u) if u > 0.0 else 0.0


_FLAGGED = [  # (integrand, bound, quad's keywords, ier)
    (_root_decay, 0.0, {"epsrel": 1e-6, "limit": 200}, 0),
    (_log_decay, 0.0, {"epsrel": 1e-6, "limit": 200}, 0),
    (lambda u: math.cos(u) / (1.0 + u * u), 0.0, {"epsrel": 1e-6, "limit": 200}, 1),
    (lambda u: math.cos(u) / (1.0 + u * u), 0.0, {"limit": 50}, 1),
    (_root_decay, 0.0, {"limit": 1}, 1),
    (lambda u: math.exp(-u), 2.5, {"limit": 1}, 1),
    (_log_decay, 0.0, {"epsabs": 0.0, "epsrel": 1.2e-14}, 2),
    (lambda u: math.cos(u) * math.exp(-u), 0.0, {"epsabs": 0.0, "epsrel": 1.2e-14}, 2),
    (lambda u: math.exp(-u) / u if u > 0.0 else 0.0, 0.0, {}, 3),
    (_root_decay, 0.0, {"epsabs": 0.0, "epsrel": 1.2e-14}, 4),
    (lambda u: math.sin(u), 0.0, {"limit": 200}, 4),
    (lambda u: (1.0 + u) ** -0.5, 0.0, {}, 5),
    (lambda u: 1.0 / (u - 1.0) ** 2 if u != 1.0 else 0.0, 0.0, {"limit": 200}, 5),
    (lambda u: 1.0 / (1.0 + u**1.1), 1.0, {"epsrel": 1e-8, "limit": 200}, 0),
    (lambda u: math.exp(-u * u), -3.0, {}, 0),
    (lambda u: 0.0, 0.0, {}, 0),
    # zero error estimates off the band tie in dqpsrt's ordered list, and their order shows
    (lambda u: 1.0 if 1.5 < u < 1.6 else 0.0, 0.0, {}, 0),
]


@pytest.mark.parametrize("fn, bound, kw, ier", _FLAGGED)
def test_flagged_and_extrapolated_integrals_equal_scipy(fn, bound, kw, ier):
    assert _assert_same(fn, bound, **kw) == ier


def test_extrapolation_runs_on_the_singular_integrands(spy):
    elg = spy(quadpack, "_dqelg")
    for fn in (_root_decay, _log_decay):
        assert quadpack.qagi(fn, epsrel=1e-6, limit=200).ier == 0
        assert len(elg) >= 4, len(elg)  # enough for dqelg's three-result error estimate
        elg.clear()


def test_warns_as_quad_warns():
    with pytest.warns(quadpack.IntegrationWarning, match=r"subintervals \(1\)"):
        quadpack.qagi(_root_decay, limit=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quadpack.qagi(lambda u: math.exp(-u)).ier == 0
    assert not issubclass(quadpack.IntegrationWarning, RuntimeWarning)


@pytest.mark.parametrize("kw", [{"limit": 0}, {"epsabs": 0.0, "epsrel": 1e-15},
                                {"epsabs": -1.0, "epsrel": 0.0}])
def test_invalid_input_raises_as_quad_does(kw):
    with pytest.raises(ValueError):
        integrate.quad(math.exp, 0.0, np.inf, **kw)
    with pytest.raises(ValueError):
        quadpack.qagi(math.exp, **kw)
