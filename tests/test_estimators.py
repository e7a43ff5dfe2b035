import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hullforge import (
    ConvexHullGen,
    CoordMinGen,
    DiskHullGen,
    ParetoGen,
    PointPattern,
    euclid,
    hull_estimate,
    hull_estimate_k,
    ks_error,
    param,
)
from hullforge.core import ConfigurationError, point_from_row
from hullforge.estimators import (
    Constant,
    CustomIntegrand,
    Indicator,
    Integrand,
    PowerDepth,
    PowerTail,
    RadialPower,
    hull_integral,
)
from hullforge import generators
from hullforge.generators import EnvelopeGen, hull_mass
from hullforge.montecarlo import _hoelder_band, get_scenario, scenario_names
from oracles import hull_estimate_2_product, hull_estimate_k_falling
from hullforge.sampling import (
    HalfLine,
    HoelderBand,
    LinesBand,
    RngStream,
    UniformAnnulus,
    UniformBox,
    UniformDisk,
    UniformPolygon,
    sample_poisson,
    stream_generators,
)


SQUARE5 = PointPattern.from_points(
    [euclid(0, 0), euclid(1, 0), euclid(0, 1), euclid(1, 1), euclid(0.5, 0.5)]
)
BOX5 = UniformBox((0, 0), (1, 1), rate=5.0)
XY = CustomIntegrand("xy", lambda p: p.coords[0] * p.coords[1])


# -- integrand primitives -----------------------------------------------------


@pytest.mark.parametrize(
    "f,lo",
    [
        (Indicator(), 0.0),
        (PowerDepth(2.0), 0.0),
        (PowerDepth(1.5), 0.0),
    ],
)
def test_depth_primitive_matches_quadrature(f, lo):
    v = np.array([0.1, 0.35, 0.8, 1.7])
    num = [quad(lambda u: f.value(param(0.0, u)), lo, x, epsrel=1e-10)[0] for x in v]
    assert f.depth_primitive(v) == pytest.approx(num, rel=1e-8)
    assert f.depth_primitive(np.array([-0.5, 0.0])).tolist() == [0.0, 0.0]


def test_radial_primitive_matches_quadrature():
    a = np.array([1.2, 1.5, 1.9, 2.4])
    b = 1.9
    for f, density in (
        (RadialPower(beta=1.0, weight=1.0), lambda u: 1.0),
        (RadialPower(beta=2.0, weight=0.5), lambda u: 0.5 * 2.0 * u),
    ):
        num = [quad(density, x, b)[0] if x < b else 0.0 for x in a]
        assert f.radial_primitive(a, b) == pytest.approx(num, rel=1e-10)


def test_tail_integral_only_on_tail_integrands():
    z = np.array([1.0, 2.0, 4.0])
    assert PowerTail(2.0).tail_integral(z).tolist() == [1.0, 0.5, 0.25]
    with pytest.raises(ConfigurationError):
        Indicator().tail_integral(z)


_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310])
_FLOAT = st.one_of(_SPECIAL, st.floats(allow_nan=False, allow_infinity=False))
_ROWS = {
    ("euclid", 1): st.tuples(_FLOAT),
    ("euclid", 2): st.tuples(_FLOAT, _FLOAT),
    ("param", 1): st.tuples(_FLOAT, _FLOAT),
    ("param", 2): st.tuples(_FLOAT, _FLOAT, _FLOAT),
    ("line",): st.tuples(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                         st.one_of(_SPECIAL.map(abs), st.floats(0.0, 1e300))),
}
_ROW_SUM = CustomIntegrand("row_sum", lambda p: 1.0 + 0.25 * sum(p.row))


def _scalar_formula(f, p):
    """f at the point p by the scalar formula of each built-in integrand (the oracle of
    ``values``); a custom integrand answers through its function."""
    if isinstance(f, Constant):
        return f.c
    if isinstance(f, PowerTail):
        return (f.p - 1.0) * p.coords[0] ** (-f.p)
    if isinstance(f, Indicator):
        return 1.0 if p.level >= 0.0 else 0.0
    if isinstance(f, PowerDepth):
        return f.p * p.level ** (f.p - 1.0) if p.level > 0.0 else 0.0
    if isinstance(f, RadialPower):
        return f.weight * f.beta * p.offset ** (f.beta - 1.0)
    return f.fn(p)


@pytest.mark.parametrize("f, tag", [
    (Constant(0.3), ("param", 1)), (Constant(-2.5), ("euclid", 2)),
    (PowerTail(2.0), ("euclid", 1)), (PowerTail(3.0), ("euclid", 1)),
    (Indicator(), ("param", 1)), (Indicator(), ("param", 2)),
    (PowerDepth(2.0), ("param", 1)), (PowerDepth(0.5), ("param", 2)), (PowerDepth(3.5), ("param", 1)),
    (RadialPower(1.0, 1.0), ("line",)), (RadialPower(0.5, 2.0), ("line",)),
    (RadialPower(-1.0, 0.5), ("line",)),
    (_ROW_SUM, ("param", 1)), (_ROW_SUM, ("line",)), (XY, ("euclid", 2)),
], ids=lambda v: type(v).__name__ if isinstance(v, Integrand) else "-".join(map(str, v)))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_values_equal_value_of_each_row_bit_for_bit(f, tag, data):
    # ``values`` on the array and ``value`` of each point against the scalar formula:
    # both zeros, subnormals and negative levels; an overflow or a zero to a negative
    # power raises the same error every way
    rows = data.draw(st.lists(_ROWS[tag], max_size=8))
    width = 2 if tag == ("line",) else tag[1] + (tag[0] == "param")
    coords = np.array(rows, dtype=float).reshape(len(rows), width)
    points = [point_from_row(tag, r) for r in rows]
    try:
        want = np.array([_scalar_formula(f, p) for p in points], dtype=float)
    except ArithmeticError as exc:
        with pytest.raises(type(exc)):
            f.values(coords, tag)
        with pytest.raises(type(exc)):
            [f.value(p) for p in points]
        return
    got = f.values(coords, tag)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array([f.value(p) for p in points], dtype=float).tobytes() == want.tobytes()


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


UNSUPPORTED = {
    "unknown-pair": (ConvexHullGen(2), HalfLine(1.0), Indicator(), SQUARE5),
    "coordmin-weighted": (CoordMinGen(), BOX5, XY, SQUARE5),
    "pareto-box-weighted": (ParetoGen(2), BOX5, XY, SQUARE5),
    "convex3-weighted": (
        ConvexHullGen(3),
        UniformBox((0, 0, 0), (1, 1, 1), rate=2.0),
        CustomIntegrand("x", lambda p: p.coords[0]),
        PointPattern.from_points([euclid(0, 0, 0), euclid(1, 0, 0), euclid(0, 1, 0),
                                  euclid(0, 0, 1)]),
    ),
    "diskhull-weighted": (
        DiskHullGen(0.3),
        UniformAnnulus(0.3, 1.0, rate=2.0),
        XY,
        PointPattern.from_points([euclid(0.5, 0.0), euclid(0.0, -0.6)]),
    ),
    "halfline-mass": (ParetoGen(1), HalfLine(1.0), Constant(1.0),
                      PointPattern.from_points([euclid(2.0), euclid(3.0)])),
}


@pytest.mark.parametrize("case", list(UNSUPPORTED))
def test_unsupported_pairing_raises(case):
    gen, model, f, mu = UNSUPPORTED[case]
    with pytest.raises(ConfigurationError):
        hull_integral(gen, model, f, mu)


#: (generator, model) of every scenario, and the planar convex hull on a box
SPACE_PAIRINGS = [(get_scenario(n).gen, get_scenario(n).make_model(4.0)) for n in scenario_names()]
SPACE_PAIRINGS.append((ConvexHullGen(2), BOX5))


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_constant_refuses_a_non_finite_c(c):
    # f = 1/t at t = 5e-324 is inf, and every estimate of it nan
    with pytest.raises(ConfigurationError, match="finite c"):
        Constant(c)


@pytest.mark.parametrize("f", [Indicator(), PowerDepth(2.0), RadialPower(2.0, 0.5),
                               PowerTail(2.0)], ids=lambda f: type(f).__name__)
def test_integrand_on_another_space_is_a_configuration_error(f):
    # raised by the one space check on every pattern, never as an AttributeError of f.value
    for gen, model in SPACE_PAIRINGS:
        if f.space == gen.space_tag[0]:
            continue
        sampled = sample_poisson(model, RngStream(8).generator())
        assert not sampled.is_empty
        for mu in (PointPattern.empty(), sampled):
            for run in (lambda: hull_estimate(gen, model, f, mu),
                        lambda: hull_integral(gen, model, f, mu),
                        lambda: ks_error(gen, model, f, mu, 1.0),
                        lambda: ks_error(gen, model, f, mu, 1.0, hull_term=0.0)):
                with pytest.raises(ConfigurationError, match="integrates on"):
                    run()


FLAT_MODELS = [
    (ConvexHullGen(2), UniformDisk((0.0, 0.0), 1.0, rate=20.0)),
    (ConvexHullGen(2), UniformPolygon(((0, 0), (2, 0), (1, 1.5)), rate=10.0)),
    (ParetoGen(1), UniformBox((0.0,), (2.0,), rate=3.0)),
]


def test_flat_integrands_match_hull_mass():
    # a flat integrand's hull term is the hull mass times its value, exactly
    scenarios = [get_scenario(name) for name in scenario_names()]
    pairings = [(s.gen, s.make_model(2.0 * s.default_t)) for s in scenarios] + FLAT_MODELS
    pairings = [(g, m) for g, m in pairings if not isinstance(m, HalfLine)]  # infinite mass
    assert len({(type(g), type(m)) for g, m in pairings}) == 8  # every table row but one
    for gen, model in pairings:
        for rng in stream_generators(RngStream(31).stream(i) for i in range(12)):
            mu = sample_poisson(model, rng)
            mass = hull_mass(gen, mu, model)
            for c in (1.0, 0.37, 1.0 / 7.0):
                assert hull_integral(gen, model, Constant(c), mu) == c * mass, model
            if isinstance(model, HoelderBand):
                assert hull_integral(gen, model, Indicator(), mu) == mass
            if isinstance(model, LinesBand):
                assert hull_integral(gen, model, RadialPower(1.0, 1.0), mu) == mass


@pytest.mark.parametrize("scenario, t, owner, kernel", [
    pytest.param("convex_square", 50.0, generators, "_extreme_2d", id="convex_square"),
    pytest.param("pareto_square", 20.0, ParetoGen, "_frontier", id="pareto_square"),
    pytest.param("disk_support_sanity", 8.0, DiskHullGen, "_separable", id="disk_support_sanity"),
])
def test_hull_estimate_reads_the_geometry_once(spy, scenario, t, owner, kernel):
    # one pass gives the boundary mask, the hull mass and the hull term; the
    # disk-hull kernel runs once per atom
    scen = get_scenario(scenario)
    model, f = scen.make_model(t), scen.make_integrand(t)
    mu = sample_poisson(model, RngStream(41).generator())
    assert len(mu.entries) >= 3
    calls = spy(owner, kernel)
    est = hull_estimate(scen.gen, model, f, mu)
    assert len(calls) == (len(mu.entries) if owner is DiskHullGen else 1)
    assert est.hull_mass == hull_mass(scen.gen, mu, model)
    assert est.boundary_count == scen.gen.boundary(mu).total_mass


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
    for rng in stream_generators(RngStream(77, rep) for rep in range(60)):
        pattern = sample_poisson(model, rng)
        est = hull_estimate(scen.gen, model, f, pattern)
        err = ks_error(scen.gen, model, f, pattern, target)
        assert abs(est.value - target - err) <= 1e-10 * (1.0 + abs(target))


def test_band_grid_error_diagnostic_small():
    model = _hoelder_band(20.0)
    gen = EnvelopeGen(dim=1, env_const=1.0, beta=1.0)
    pattern = sample_poisson(model, RngStream(5).generator())
    # the band quadrature's error: the same integral on a grid twice as fine
    fine = dataclasses.replace(model, resolution=2 * model.resolution)
    err = abs(hull_integral(gen, model, Indicator(), pattern)
              - hull_integral(gen, fine, Indicator(), pattern))
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


def _tuple_sum_estimate(gen, model, k, mu, g):
    """sum_i C(k, i) a^i (the g-products summed over ordered (k-i)-tuples of distinct boundary
    copies), by ``itertools.permutations``; and the same sum of absolute values, its scale."""
    a = hull_integral(gen, model, g, mu)
    copies = [g.value(p) for p, m in gen.boundary(mu).entries for _ in range(m)]
    total = scale = 0.0
    for i in range(k + 1):
        products = [math.prod(t) for t in itertools.permutations(copies, k - i)]
        total += math.comb(k, i) * a**i * sum(products)
        scale += math.comb(k, i) * abs(a) ** i * sum(map(abs, products))
    return total, scale


#: lattice points of the unit square, so that drawn lists repeat atoms
_LATTICE_POINT = st.builds(euclid, *[st.integers(0, 8).map(lambda i: i / 8)] * 2)
#: g(x, y) = c (x - x0): signed, and zero on the lattice column x = 1/2 where x0 = 1/2
_FACTOR_PARAMS = st.tuples(st.sampled_from([1.0, -2.5, 0.1]), st.sampled_from([0.5, -1.0]))
_EXAMPLE_POINTS = [euclid(0.12, 0.77), euclid(0.93, 0.41), euclid(0.35, 0.08),
                   euclid(0.61, 0.66), euclid(0.48, 0.95)]


@settings(max_examples=200, deadline=None)
@given(st.lists(_LATTICE_POINT, max_size=7), st.booleans(), _FACTOR_PARAMS, st.integers(1, 4))
@example(_EXAMPLE_POINTS, False, (1.0, -1.0), 2)  # g = 1 + x on five atoms in general position
def test_hull_estimate_k_matches_tuple_enumeration(points, array_first, factor, k):
    # any order, any product kernel: the tuple sums equal the enumeration over ordered tuples of
    # distinct boundary copies (copies of a repeated atom are distinct); with g omitted, the
    # falling-factorial formula bit for bit; at k = 2, the expanded square
    gen = ConvexHullGen(2)
    model = UniformBox((0, 0), (1, 1), rate=3.0)
    mu = PointPattern.from_array(("euclid", 2), [p.row for p in points]) if array_first and points \
        else PointPattern.from_points(points)
    c, x0 = factor
    g = CustomIntegrand("c(x-x0)", lambda p: c * (p.coords[0] - x0))
    want, scale = _tuple_sum_estimate(gen, model, k, mu, g)
    got = hull_estimate_k(gen, model, k, mu, pair_factor=g)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)
    if k == 2:
        assert got == pytest.approx(hull_estimate_2_product(gen, model, mu, g),
                                    rel=1e-12, abs=1e-12 * scale)
    assert repr(hull_estimate_k(gen, model, k, mu)) \
        == repr(hull_estimate_k_falling(gen, model, k, mu))


@pytest.mark.parametrize("scenario", [n for n in scenario_names()
                                      if not isinstance(get_scenario(n).make_model(1.0), HalfLine)])
def test_hull_estimate_k_without_factor_is_the_falling_factorial(scenario):
    # on sampled patterns of every pairing with a finite hull mass, up to order 6, bit for bit
    scen = get_scenario(scenario)
    model = scen.make_model(scen.default_t)
    for rng in stream_generators(RngStream(93, rep) for rep in range(20)):
        mu = sample_poisson(model, rng)
        for k in range(1, 7):
            assert repr(hull_estimate_k(scen.gen, model, k, mu)) \
                == repr(hull_estimate_k_falling(scen.gen, model, k, mu))


def test_hull_estimate_k_validates_order():
    gen = ConvexHullGen(2)
    model = UniformBox((0, 0), (1, 1), rate=1.0)
    with pytest.raises(ConfigurationError):
        hull_estimate_k(gen, model, 0, SQUARE5)
