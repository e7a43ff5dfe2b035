import math

import numpy as np
import pytest

from hullforge.analytics import (
    HoelderScenarioParams,
    clt_bound_terms,
    coordmin_expected_card,
    hoelder_h_bounds,
    hoelder_pair_bound,
    hoelder_variance_bounds,
    meanwidth_target,
)
from hullforge.core import DomainError
from hullforge.montecarlo import hoelder_scenario_params, rate_fit


def test_coordmin_card_values_and_limits():
    # Frozen from two independent derivations (collision probability E[1/N]
    # and the union void probability), confirmed by a 2e6-sample raw-numpy
    # simulation: 0.77988 +- 0.00048 at t=1.  The widely quoted value
    # 0.864665 drops the overlap of the two coordinate strips and is
    # excluded by that simulation at z = -175.
    assert coordmin_expected_card(1.0) == pytest.approx(0.779412011, abs=1e-8)
    assert coordmin_expected_card(0.5) == pytest.approx(0.441124363, abs=1e-8)
    assert coordmin_expected_card(1e-9) == pytest.approx(0.0, abs=1e-6)
    assert coordmin_expected_card(80.0) == pytest.approx(2.0, abs=0.02)
    with pytest.raises(DomainError):
        coordmin_expected_card(0.0)


def test_coordmin_card_collision_series_identity():
    # 2 P(N>=1) - E[1/N; N>=1] with explicit series arithmetic
    for t in (0.3, 1.0, 2.7):
        pk = math.exp(-t)
        acc = 0.0
        for k in range(1, 80):
            pk *= t / k
            acc += pk / k
        want = 2.0 * (1.0 - math.exp(-t)) - acc
        assert coordmin_expected_card(t) == pytest.approx(want, rel=1e-12)


def test_coordmin_card_monotone_and_bounded():
    ts = np.linspace(0.05, 30, 200)
    vals = [coordmin_expected_card(t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert max(vals) < 2.0


def _flat_params(rate=1.0, holder_const=0.0):
    prof = lambda u: max(0.0, 1.0 - u)
    return HoelderScenarioParams(
        dim=1,
        beta=1.0,
        env_const=1.0,
        holder_const=holder_const,
        rate=rate,
        f_profiles={i: prof for i in (1, 2, 3, 4)},
    )


def test_h_bounds_worked_example():
    lo, hi = hoelder_h_bounds(_flat_params(), 1.0)
    assert lo == pytest.approx(math.exp(-1.0))
    assert hi == pytest.approx(math.exp(-0.5))
    assert hoelder_h_bounds(_flat_params(), 0.0) == (1.0, 1.0)


def test_h_bounds_scale_linearly_in_rate():
    lo1, hi1 = hoelder_h_bounds(_flat_params(rate=1.0), 0.7)
    lo3, hi3 = hoelder_h_bounds(_flat_params(rate=3.0), 0.7)
    assert math.log(lo3) == pytest.approx(3.0 * math.log(lo1))
    assert math.log(hi3) == pytest.approx(3.0 * math.log(hi1))


def test_h_bounds_ordered_and_monotone():
    p = hoelder_scenario_params(2.0)
    prev_lo, prev_hi = hoelder_h_bounds(p, 0.0)
    for u in np.linspace(0.05, 1.5, 20):
        lo, hi = hoelder_h_bounds(p, float(u))
        assert lo <= hi
        assert lo <= prev_lo + 1e-12 and hi <= prev_hi + 1e-12
        prev_lo, prev_hi = lo, hi


def test_h_bounds_degenerate_holder_constant():
    p = _flat_params(holder_const=1.0)
    lo, hi = hoelder_h_bounds(p, 0.5)
    assert lo == 0.0 and 0.0 < hi < 1.0


def test_pair_bound_dominates_single_widecone_bound():
    p = hoelder_scenario_params(4.0)
    for u, v in [(0.1, 0.3), (0.4, 0.2), (0.5, 0.5)]:
        pb = hoelder_pair_bound(p, u, v)
        _, hi = hoelder_h_bounds(p, max(u, v))
        assert pb == pytest.approx(hi)


def test_variance_bounds_zero_profile_and_order():
    zero = HoelderScenarioParams(
        dim=1, beta=1.0, env_const=1.0, holder_const=0.5, rate=2.0,
        f_profiles={i: (lambda u: 0.0) for i in (1, 2, 3, 4)},
    )
    assert hoelder_variance_bounds(zero) == (0.0, 0.0)
    lo, hi = hoelder_variance_bounds(hoelder_scenario_params(16.0))
    assert 0.0 < lo <= hi


def test_variance_bounds_grow_at_square_root_rate():
    ts = [2.0**k for k in range(4, 11)]
    lows, highs = zip(*(hoelder_variance_bounds(hoelder_scenario_params(t)) for t in ts))
    slope_lo, _ = rate_fit(list(zip(ts, lows)))
    slope_hi, _ = rate_fit(list(zip(ts, highs)))
    assert slope_lo == pytest.approx(0.5, abs=0.05)
    assert slope_hi == pytest.approx(0.5, abs=0.05)


def test_clt_terms_zero_integrand():
    params = HoelderScenarioParams(
        dim=1, beta=1.0, env_const=1.0, holder_const=0.5, rate=4.0,
        f_profiles={i: (lambda u: 0.0) for i in (1, 2, 3, 4)},
    )
    with pytest.raises(DomainError):
        clt_bound_terms(params)  # variance proxy degenerates with f == 0


def test_clt_terms_error_when_constants_coincide():
    with pytest.raises(DomainError):
        clt_bound_terms(_flat_params(holder_const=1.0, rate=8.0))


def test_clt_terms_strictly_decrease_when_t_doubles():
    lo = clt_bound_terms(hoelder_scenario_params(64.0))
    hi = clt_bound_terms(hoelder_scenario_params(128.0))
    for a, b in zip(lo, hi):
        assert b < a


def test_clt_sum_nonincreasing_on_grid():
    sums = [
        sum(clt_bound_terms(hoelder_scenario_params(t)))
        for t in (2.0**k for k in range(4, 11))
    ]
    assert all(b <= a for a, b in zip(sums, sums[1:]))


def test_t3_scaling_exponent():
    grid = [2.0**k for k in range(6, 13)]
    t3s = [clt_bound_terms(hoelder_scenario_params(t))[1] for t in grid]
    slope, _ = rate_fit(list(zip(grid, t3s)))
    assert slope == pytest.approx(-0.25, abs=0.03)


def test_meanwidth_target():
    assert meanwidth_target(1.0, 2.0) == pytest.approx(2 * math.pi)
    assert meanwidth_target(0.7, 0.7) == 0.0
    assert meanwidth_target(1.0, 3.0) == pytest.approx(4 * math.pi)
    with pytest.raises(DomainError):
        meanwidth_target(2.0, 1.0)
