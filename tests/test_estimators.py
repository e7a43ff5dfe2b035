import itertools
import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from hullforge import (
    ConvexHullGen,
    CoordMinGen,
    ParetoGen,
    PointPattern,
    euclid,
    hull_estimate,
    hull_estimate_k,
    ks_error,
    param,
)
from hullforge.core import ConfigurationError
from hullforge.estimators import (
    Constant,
    CustomIntegrand,
    Indicator,
    PowerDepth,
    PowerTail,
    RadialPower,
    envelope_grid_error,
    hull_integral,
)
from hullforge.generators import EnvelopeGen
from hullforge.montecarlo import _hoelder_band, get_scenario
from hullforge.sampling import HalfLine, RngStream, UniformBox, sample_poisson


SQUARE5 = PointPattern.from_points(
    [euclid(0, 0), euclid(1, 0), euclid(0, 1), euclid(1, 1), euclid(0.5, 0.5)]
)
BOX5 = UniformBox((0, 0), (1, 1), rate=5.0)


# -- integrand primitives -----------------------------------------------------


@pytest.mark.parametrize(
    "f,lo",
    [
        (Constant(0.7), 0.0),
        (Indicator(), 0.0),
        (PowerDepth(2.0), 0.0),
        (PowerDepth(1.5), 0.0),
    ],
)
def test_depth_primitive_matches_quadrature(f, lo):
    for v in (0.1, 0.35, 0.8, 1.7):
        num, _ = quad(lambda u: f.value(param(0.0, u)), lo, v, epsrel=1e-10)
        assert f.depth_primitive(v) == pytest.approx(num, rel=1e-8)
    grid = np.array([0.1, 0.35, 0.8])
    assert f.depth_primitive_grid(grid) == pytest.approx(
        [f.depth_primitive(v) for v in grid]
    )


def test_radial_primitive_matches_quadrature():
    f = RadialPower(beta=1.0, weight=1.0)
    num, _ = quad(lambda u: 1.0, 1.2, 1.9)
    assert f.radial_primitive(1.2, 1.9) == pytest.approx(num, rel=1e-10)
    g = RadialPower(beta=2.0, weight=0.5)
    num, _ = quad(lambda u: 0.5 * 2.0 * u, 1.2, 1.9)
    assert g.radial_primitive(1.2, 1.9) == pytest.approx(num, rel=1e-10)


# -- hull estimate ------------------------------------------------------------


def test_hull_estimate_square_example():
    est = hull_estimate(ConvexHullGen(2), BOX5, Constant(0.2), SQUARE5)
    assert est.hull_term == pytest.approx(1.0)
    assert est.boundary_term == pytest.approx(0.8)
    assert est.value == pytest.approx(1.8)
    assert est.boundary_count == 4
    assert est.variance_estimate == pytest.approx(4 * 0.04)
    assert est.value == est.hull_term + est.boundary_term


def test_hull_estimate_min_generator_example():
    model = HalfLine(start=1.0, rate=1.0)
    mu = PointPattern.from_points([euclid(2.0), euclid(3.0), euclid(9.0)])
    est = hull_estimate(ParetoGen(1), model, PowerTail(2.0), mu)
    assert est.value == pytest.approx(0.75)


def test_hull_estimate_empty_pattern():
    est = hull_estimate(ConvexHullGen(2), BOX5, Constant(1.0), PointPattern.empty())
    assert est.value == 0.0
    assert est.boundary_count == 0


def test_unsupported_pairing_raises():
    with pytest.raises(ConfigurationError):
        hull_integral(ConvexHullGen(2), HalfLine(1.0), Indicator(), SQUARE5)


def test_weighted_convex_integral_matches_grid():
    gen = ConvexHullGen(2)
    f = CustomIntegrand("xy2", lambda p: p.coords[0] * p.coords[1] ** 2 + 0.3)
    rng = random.Random(21)
    xs = (np.arange(400) + 0.5) / 400
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    for _ in range(6):
        pts = [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(3, 8))]
        mu = PointPattern.from_points(pts)
        got = hull_integral(gen, BOX5, f, mu)
        inside = np.array(
            gen.hull_contains_many(
                mu, [euclid(x, y) for x, y in zip(gx.ravel(), gy.ravel())]
            )
        )
        vals = (gx.ravel() * gy.ravel() ** 2 + 0.3) * inside
        approx = 5.0 * vals.sum() / len(vals)
        assert got == pytest.approx(approx, abs=0.02)


# -- anticipating-integral error identity --------------------------------------


def test_ks_error_examples():
    f = Constant(0.2)
    assert ks_error(ConvexHullGen(2), BOX5, f, SQUARE5, 1.0) == pytest.approx(0.8)
    assert ks_error(ConvexHullGen(2), BOX5, f, PointPattern.empty(), 1.0) == pytest.approx(-1.0)
    # one vertex and the centre doubled: removing one copy of (0, 0) leaves it
    # off the hull of the other atoms, so both copies count; the centre stays
    # inside whichever copy is removed.  Hull integral 5 * 0.2 * 1 = 1.
    doubled = SQUARE5.add(euclid(0, 0)).add(euclid(0.5, 0.5))
    expected = 0.2 * (2 + 1 + 1 + 1) - (1.0 - 5.0 * 0.2 * 1.0)
    assert ks_error(ConvexHullGen(2), BOX5, f, doubled, 1.0) == pytest.approx(expected)
    est = hull_estimate(ConvexHullGen(2), BOX5, f, doubled)
    assert est.value - 1.0 == pytest.approx(expected)


@pytest.mark.parametrize(
    "scenario,t", [("convex_square", 30.0), ("hoelder_d1", 10.0), ("coordmin", 2.0),
                   ("pareto_square", 10.0), ("meanwidth_disks", 1.0),
                   ("disk_support_sanity", 1.0), ("halfline_min", 1.0)]
)
def test_ks_identity_on_random_patterns(scenario, t):
    scen = get_scenario(scenario)
    model = scen.make_model(t)
    f = scen.make_integrand(t)
    target = scen.target(t)
    for rep in range(60):
        pattern = sample_poisson(model, RngStream(77, rep))
        est = hull_estimate(scen.gen, model, f, pattern)
        err = ks_error(scen.gen, model, f, pattern, target)
        assert abs(est.value - target - err) <= 1e-10 * (1.0 + abs(target))


def test_band_grid_error_diagnostic_small():
    model = _hoelder_band(20.0)
    gen = EnvelopeGen(dim=1, env_const=1.0, beta=1.0)
    pattern = sample_poisson(model, RngStream(5))
    err = envelope_grid_error(gen, model, Indicator(), pattern)
    assert err < 1e-4


# -- higher-order estimators ---------------------------------------------------


def test_hull_estimate_k_square_example():
    gen = ConvexHullGen(2)
    model = UniformBox((0, 0), (1, 1), rate=1.0)
    square = PointPattern.from_points(
        [euclid(0, 0), euclid(1, 0), euclid(0, 1), euclid(1, 1)]
    )
    # hull mass 1, four boundary atoms
    assert hull_estimate_k(gen, model, 2, square) == pytest.approx(21.0)
    est1 = hull_estimate(gen, model, Constant(1.0), square)
    assert hull_estimate_k(gen, model, 1, square) == pytest.approx(est1.value)


def test_hull_estimate_k_small_boundary():
    # two boundary atoms, hull mass 1: enumeration over ordered distinct
    # boundary tuples gives 0, 6, 6, 1 across the binomial terms
    gen = CoordMinGen()
    model = UniformBox((0, 0), (1, 1), rate=4.0)
    mu = PointPattern.from_points([euclid(0.5, 0.9), euclid(0.9, 0.5)])
    lam = 4.0 * (1 - 0.5) * (1 - 0.5)
    assert lam == pytest.approx(1.0)
    expected = 0.0
    atoms = list(range(2))
    for i in range(4):
        tuples = sum(1 for _ in itertools.permutations(atoms, 3 - i)) if 3 - i <= 2 else 0
        expected += math.comb(3, i) * lam**i * tuples
    assert expected == pytest.approx(13.0)
    assert hull_estimate_k(gen, model, 3, mu) == pytest.approx(13.0)


def test_hull_estimate_k_product_form_matches_enumeration():
    gen = ConvexHullGen(2)
    model = UniformBox((0, 0), (1, 1), rate=3.0)
    g = CustomIntegrand("gx", lambda p: 1.0 + p.coords[0])
    rng = random.Random(4)
    for _ in range(20):
        pts = [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 7))]
        mu = PointPattern.from_points(pts)
        got = hull_estimate_k(gen, model, 2, mu, pair_factor=g)
        a = hull_integral(gen, model, g, mu)
        copies = []
        for p, m in gen.boundary(mu).entries:
            copies.extend([g.value(p)] * m)
        pair_sum = sum(
            x * y for i, x in enumerate(copies) for j, y in enumerate(copies) if i != j
        )
        want = a * a + 2 * a * sum(copies) + pair_sum
        assert got == pytest.approx(want, rel=1e-12)


def test_hull_estimate_k_validates_order():
    gen = ConvexHullGen(2)
    model = UniformBox((0, 0), (1, 1), rate=1.0)
    with pytest.raises(ConfigurationError):
        hull_estimate_k(gen, model, 0, SQUARE5)
    with pytest.raises(ConfigurationError):
        hull_estimate_k(gen, model, 3, SQUARE5, pair_factor=Constant(1.0))
