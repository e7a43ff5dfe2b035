import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hullforge import (
    ConvexHullGen,
    CoordMinGen,
    DiskHullGen,
    EnvelopeGen,
    HalfPlaneGen,
    ParetoGen,
    PointPattern,
    euclid,
    hull_mass,
    line,
    param,
)
from hullforge import generators
from hullforge.core import (
    EPS_GEOM,
    ConfigurationError,
    SpaceMismatchError,
    check_axioms,
    point_from_row,
)
from hullforge.corpora import GENERATOR_SUITE, euclid_corpus
from hullforge.estimators import Indicator, PowerDepth
from hullforge.montecarlo import _hoelder_band
from hullforge.sampling import (
    HoelderBand,
    LinesBand,
    RngStream,
    UniformAnnulus,
    UniformBox,
    sample_poisson,
)
from oracles import (
    disk_boundary_by_others,
    disk_contains_by_others,
    pareto_contains,
    pareto_minimal,
    prime_factorization_holds,
)


# -- convex hull kernel -------------------------------------------------------


def test_convex_boundary_excludes_face_points():
    gen = ConvexHullGen(2)
    mu = PointPattern.from_points(
        [euclid(0, 0), euclid(2, 0), euclid(0, 2), euclid(1, 0), euclid(0.5, 0.5)]
    )
    bd = gen.boundary(mu)
    assert set(bd.support()) == {euclid(0, 0), euclid(2, 0), euclid(0, 2)}
    # on-edge and interior points live in the hull; vertices do not
    assert gen.hull_contains(mu, euclid(1, 0))
    assert gen.hull_contains(mu, euclid(0.5, 0.5))
    assert not gen.hull_contains(mu, euclid(0, 0))


def test_convex_boundary_retains_multiplicities():
    gen = ConvexHullGen(2)
    mu = PointPattern.from_points([euclid(0, 0), euclid(0, 0), euclid(1, 0), euclid(0, 1)])
    bd = gen.boundary(mu)
    assert bd.multiplicity(euclid(0, 0)) == 2


def _relint_member(subset, q, tol=1e-9):
    """q in the relative interior of the convex hull of the subset."""
    pts = np.asarray(subset, dtype=float)
    qv = np.asarray(q, dtype=float)
    k, d = pts.shape
    scale = max(1.0, float(np.abs(pts).max()), float(np.abs(qv).max()))
    if k == 1:
        return bool(np.all(pts[0] == qv))
    centered = pts[1:] - pts[0]
    rank = np.linalg.matrix_rank(centered, tol=tol * scale)
    if rank < k - 1:
        return False  # degenerate simplex; covered by a smaller subset
    lam, res, *_ = np.linalg.lstsq(centered.T, qv - pts[0], rcond=None)
    recon = pts[0] + centered.T @ lam
    if np.linalg.norm(recon - qv) > tol * scale:
        return False
    lam0 = 1.0 - lam.sum()
    eps = 1e-12
    return bool(lam0 > eps and np.all(lam > eps))


def relint_oracle(points, q, dim, tol=1e-9):
    """Brute force: some subset of size <= dim+1 holds q in its relative interior."""
    pts = list(dict.fromkeys(points))
    for k in range(1, dim + 2):
        for subset in itertools.combinations(pts, k):
            if _relint_member(subset, q, tol):
                return True
    return False


@pytest.mark.parametrize("dim", [2, 3])
def test_convex_membership_matches_relint_oracle(dim):
    # The subset criterion characterises closed-hull membership, which also
    # reports extreme support points; the hull proper excludes them (adding a
    # copy bumps the boundary multiplicity), so those probes are asserted
    # separately.
    rng = random.Random(900 + dim)
    gen = ConvexHullGen(dim)
    for _ in range(120):
        n = rng.randint(1, 8)
        pts = [tuple(rng.uniform(0, 1) for _ in range(dim)) for _ in range(n)]
        mu = PointPattern.from_points([euclid(*p) for p in pts])
        probes = [tuple(rng.uniform(-0.1, 1.1) for _ in range(dim)) for _ in range(8)]
        # crafted probes: pair midpoints and convex combinations
        if n >= 2:
            a, b = rng.sample(pts, 2)
            probes.append(tuple((ai + bi) / 2 for ai, bi in zip(a, b)))
        if n >= 3:
            a, b, c = rng.sample(pts, 3)
            probes.append(tuple((ai + bi + ci) / 3 for ai, bi, ci in zip(a, b, c)))
        ext = {p.coords for p in gen.boundary(mu).support()}
        for q in probes:
            if q in ext:
                continue
            got = gen.hull_contains(mu, euclid(*q))
            want = relint_oracle(pts, q, dim)
            assert got == want, (pts, q, got, want)
        for p in ext:
            assert not gen.hull_contains(mu, euclid(*p))


_PLANE_COORD = st.one_of(st.integers(-128, 128).map(lambda k: k / 64),
                         st.floats(-1e3, 1e3, allow_nan=False))
_PLANE_ROW = st.tuples(_PLANE_COORD, _PLANE_COORD)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PLANE_ROW, min_size=1, max_size=12), st.lists(_PLANE_ROW, max_size=12))
def test_planar_contains_mask_equals_scalar_rule(atoms, extra):
    # the array pass against the scalar rule, query for query, called directly and
    # through contains_mask: the atoms, the edge midpoints of the polygon (ties on
    # the k/64 lattice) and free rows
    gen = ConvexHullGen(2)
    mu = PointPattern.from_array(("euclid", 2), atoms)
    _, ext, _ = gen._extreme(mu)
    mids = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(ext, ext[1:] + ext[:1])]
    queries = np.array(list(mu.rows) + mids + extra, dtype=float)
    scale, vertices = generators._coord_scale(ext), set(ext)
    want = [q not in vertices and generators._point_in_polygon(ext, scale, q)
            for q in map(tuple, queries.tolist())]
    assert gen.contains_mask(mu, queries) == want
    if len(ext) >= 3:
        assert generators._polygon_mask(ext, queries).tolist() == want


def test_convex3_membership_builds_one_hull_per_call(spy):
    # the vertex test and the facet test read one qhull build, and a batch of
    # probes shares it
    builds = spy(generators, "_SciPyHull")
    gen = ConvexHullGen(3)
    corners = [euclid(*c) for c in itertools.product((0.0, 1.0), repeat=3)]
    mu = PointPattern.from_points(corners + [euclid(0.5, 0.5, 0.5)])
    probes = [euclid(0.2, 0.3, 0.4), euclid(1.5, 0.5, 0.5), corners[0],
              euclid(0.5, 0.5, 0.5), euclid(1.0, 0.5, 0.5)]
    want = [True, False, False, True, True]
    for probe, expect in zip(probes, want):
        builds.clear()
        assert gen.hull_contains(mu, probe) is expect
        assert len(builds) == 1
    builds.clear()
    assert gen.hull_contains_many(mu, probes) == want
    assert len(builds) == 1


def test_flat_solid_takes_the_planar_path_when_qhull_refuses(monkeypatch):
    # a square with its centre lifted a hair above the rank tolerance: the rank pass
    # says 3, and when qhull refuses the set the hull is taken in its best-fit plane
    from scipy.spatial import QhullError

    builds = []

    def refuse(coords):
        builds.append(len(coords))
        raise QhullError("QH6154 initial simplex is flat")

    monkeypatch.setattr(generators, "_SciPyHull", refuse)
    rows = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
            (0.5, 0.5, 1e-8)]
    assert generators._affine_rank(np.array(rows), EPS_GEOM)[0] == 3
    solid = generators._Solid(rows)
    assert builds == [5] and solid.rank == 2 and solid.qhull is None and solid.volume == 0.0
    assert sorted(solid.ext) == sorted(rows[:4])

    gen = ConvexHullGen(3)
    mu = PointPattern.from_points(euclid(*r) for r in rows)
    plane = solid.c + np.random.default_rng(5).uniform(-1.0, 1.0, size=(40, 2)) @ solid.basis
    probes = [euclid(*q) for q in plane.tolist()]
    got = [gen.hull_contains(mu, x) for x in probes]
    assert got == [gen.hull_contains_definitional(mu, x) for x in probes]
    assert 0 < sum(got) < len(got)
    # the set is thicker than the rank tolerance, so a query may lie off the fitted
    # plane by as much as the set does, and no farther
    for q in [euclid(0.5, 0.5, 1e-8), euclid(0.25, 0.25, 4e-9)]:
        assert gen.hull_contains_definitional(mu, q) and gen.hull_contains(mu, q)
    assert not gen.hull_contains(mu, euclid(0.5, 0.5, 1e-3))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="half-plane bodies without area: contains_mask disagrees with "
                   "the definitional rule until Direction 3 closes the shells")
def test_halfplane_body_without_area_agrees_with_the_definitional_rule():
    # two opposite lines through the origin bound a body without area
    gen = HalfPlaneGen()
    mu = PointPattern.from_points([line(0.0, 0.0), line(math.pi, 0.0)])
    q = line(1.0, 0.5)
    assert gen.hull_contains(mu, q) == gen.hull_contains_definitional(mu, q)


def test_far_query_in_the_batch_leaves_an_answer_unchanged():
    # the tolerance of a query is set by the pattern and that query alone
    gen = ConvexHullGen(2)
    square = PointPattern.from_points([euclid(0, 0), euclid(1, 0), euclid(1, 1), euclid(0, 1)])
    below = euclid(0.5, -1e-7)
    assert not gen.hull_contains(square, below)
    assert gen.hull_contains_many(square, [below, euclid(1e3, 1e3)]) == [False, False]


def _wrong_space_point(space_tag):
    return euclid(0.5, 0.0) if space_tag == ("euclid", 3) else euclid(0.5, 0.0, 7.0)


@pytest.mark.parametrize("name", sorted(GENERATOR_SUITE))
def test_membership_rejects_a_query_from_another_space(name):
    gen, make_corpus = GENERATOR_SUITE[name]
    patterns, probes = make_corpus(20, 6, 3)
    mu = next(mu for mu in patterns if len(mu.rows) >= 2)
    wrong = _wrong_space_point(gen.space_tag)
    with pytest.raises(SpaceMismatchError):
        gen.hull_contains(mu, wrong)
    with pytest.raises(SpaceMismatchError):
        gen.hull_contains_many(mu, [probes[0], wrong])


@pytest.mark.parametrize("name", sorted(GENERATOR_SUITE))
def test_batch_membership_equals_single_queries_on_suite_corpus(name):
    gen, make_corpus = GENERATOR_SUITE[name]
    patterns, probes = make_corpus(40, 10, 23)
    for mu in patterns:
        queries = probes + list(mu.support())
        assert gen.hull_contains_many(mu, queries) == [gen.hull_contains(mu, q) for q in queries]
        assert gen.hull_contains_many(mu, []) == []


def _atom_rule(gen, mu, points, off_atoms):
    """Membership as the point-based ``_split_atoms`` answered it: a query in ``mu``
    (``x in mu``, so 0.0 equals -0.0) reads the boundary mask, and the others go to
    ``off_atoms`` as the rows of one array."""
    at = [mu.rows.index(x.row) if x in mu else None for x in points]
    mask = gen.boundary_mask(mu) if any(i is not None for i in at) else ()
    rest = np.array([x.row for x, i in zip(points, at) if i is None], dtype=float)
    answers = iter(off_atoms(rest).tolist() if len(rest) else [])
    return [next(answers) if i is None else not mask[i] for i in at]


def _off_atom_rule(gen, mu):
    """The off-atom membership of ``_atom_rule``: the envelope and the support function
    of the array kernels, the definitional form for the other generators."""
    if isinstance(gen, EnvelopeGen):
        return lambda q: q[:, -1] <= gen.envelope_at(mu, q[:, :-1])
    if isinstance(gen, HalfPlaneGen):
        return lambda q: q[:, 1] >= gen.hull_support(mu, q[:, 0])
    return lambda q: np.array([gen.hull_contains_definitional(mu, point_from_row(gen.space_tag, r))
                               for r in map(tuple, q.tolist())], dtype=bool)


@pytest.mark.parametrize("name", sorted(GENERATOR_SUITE))
def test_array_membership_equals_the_point_adapters_and_the_atom_rule(name):
    # atom queries, atoms given with the other sign of zero, repeated atoms and repeated
    # queries, patterns stored as rows or as an array, the empty pattern, the empty batch
    gen, make_corpus = GENERATOR_SUITE[name]
    tag = gen.space_tag
    patterns, probes = make_corpus(24, 6, 41)
    cases = [PointPattern.empty()]
    for k, mu in enumerate(p for p in patterns if not p.is_empty):
        first = mu.rows[0]  # its first coordinate set to a zero of either sign
        signed = PointPattern.from_points([point_from_row(tag, (-0.0 if k % 2 else 0.0,
                                                                *first[1:])),
                                           *mu.support()[1:]])
        cases += [mu, signed, signed.add(signed.support()[-1], 2),
                  PointPattern.from_array(tag, signed.coords)]
    width, flips = len(probes[0].row), 0
    for mu in cases:
        flipped = [point_from_row(tag, (-r[0], *r[1:])) for r in mu.rows if r[0] == 0.0]
        flips += len(flipped)
        points = probes[:4] + list(mu.support()) + list(mu.support()[:1]) * 2 + flipped
        got = gen.contains_mask(mu, np.array([x.row for x in points]))
        assert got == gen.hull_contains_many(mu, points)
        assert got == _atom_rule(gen, mu, points, _off_atom_rule(gen, mu)), mu
        assert gen.contains_mask(mu, np.empty((0, width))) == []
    assert flips >= len(cases) // 2  # three of every four patterns hold a signed zero


@pytest.mark.parametrize("owner, kernel, gen, reads", [
    pytest.param(ParetoGen, "_frontier", ParetoGen(2), 1, id="pareto"),
    pytest.param(CoordMinGen, "_argmins", CoordMinGen(), 1, id="coordmin"),
    pytest.param(ConvexHullGen, "_extreme", ConvexHullGen(2), 1, id="convex2"),
])
def test_batch_membership_reads_the_geometry_once(spy, owner, kernel, gen, reads):
    patterns, probes = euclid_corpus(2, 20, 8, seed=5)
    mu = max(patterns, key=lambda mu: len(mu.rows))
    calls = spy(owner, kernel)
    gen.hull_contains_many(mu, probes[:5] + list(mu.support()))
    assert len(calls) == reads


@pytest.mark.parametrize("name", ["envelope", "halfplane"])
def test_batch_membership_skips_the_boundary_mask_without_atom_queries(spy, name):
    gen, make_corpus = GENERATOR_SUITE[name]
    patterns, probes = make_corpus(20, 8, 5)
    mu = max(patterns, key=lambda mu: len(mu.rows))
    calls = spy(type(gen), "boundary_mask")
    gen.hull_contains_many(mu, probes[:5])
    assert calls == []
    gen.hull_contains_many(mu, probes[:5] + [mu.support()[0]])
    assert len(calls) == 1


def test_convex_hull_mass_examples():
    gen = ConvexHullGen(2)
    box = UniformBox((0, 0), (1, 1), rate=5.0)
    square = PointPattern.from_points(
        [euclid(0, 0), euclid(1, 0), euclid(0, 1), euclid(1, 1)]
    )
    assert hull_mass(gen, square, box) == pytest.approx(5.0)
    assert hull_mass(gen, PointPattern.empty(), box) == 0.0
    two = PointPattern.from_points([euclid(0, 0), euclid(1, 1)])
    assert hull_mass(gen, two, box) == 0.0


def test_coordmin_hull_mass_quadrant():
    gen = CoordMinGen()
    box = UniformBox((0, 0), (1, 1), rate=1.0)
    mu = PointPattern.from_points([euclid(0.5, 0.5)])
    assert hull_mass(gen, mu, box) == pytest.approx(0.25)


def test_pareto_staircase_mass_matches_grid():
    gen = ParetoGen(2)
    box = UniformBox((0, 0), (1, 1), rate=2.0)
    rng = random.Random(7)
    for _ in range(25):
        pts = [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 9))]
        mu = PointPattern.from_points(pts)
        exact = hull_mass(gen, mu, box)
        xs = (np.arange(160) + 0.5) / 160
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        covered = np.zeros_like(gx, dtype=bool)
        for p in mu.support():
            covered |= (gx >= p.coords[0]) & (gy >= p.coords[1])
        approx = 2.0 * covered.mean()
        assert exact == pytest.approx(approx, abs=0.03)


def test_hull_mass_monotone_in_pattern():
    gen = ConvexHullGen(2)
    box = UniformBox((0, 0), (1, 1), rate=1.0)
    rng = random.Random(3)
    for _ in range(30):
        pts = [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(0, 8))]
        mu = PointPattern.from_points(pts)
        bigger = mu.add(euclid(rng.uniform(0, 1), rng.uniform(0, 1)))
        assert hull_mass(gen, bigger, box) >= hull_mass(gen, mu, box) - 1e-12


# -- envelope generator -------------------------------------------------------


def test_envelope_value_examples():
    gen = EnvelopeGen(dim=1, env_const=2.0, beta=1.0)
    mu = PointPattern.from_points([param(0.0, 1.0)])
    at = np.array([[0.1]])
    assert gen.envelope_at(mu, at)[0] == pytest.approx(0.8)
    assert gen.envelope_at(PointPattern.empty(), at)[0] == -math.inf
    mu2 = PointPattern.from_points([param(0.0, 1.0), param(0.1, 0.5)])
    assert gen.envelope_at(mu2, at)[0] == pytest.approx(0.8)


def _envelope_line_oracle(gen, s, u, q):
    """The d=1, beta=1 envelope by searching each query in the sorted sites."""
    rise = np.maximum.accumulate(u + gen.env_const * s)
    fall = np.maximum.accumulate((u - gen.env_const * s)[::-1])[::-1]
    idx = np.searchsorted(s, q, side="right")
    left = np.where(idx > 0, rise[np.maximum(idx - 1, 0)] - gen.env_const * q, -np.inf)
    jdx = np.searchsorted(s, q, side="left")
    right = np.where(jdx < len(s), fall[np.minimum(jdx, len(s) - 1)] + gen.env_const * q, -np.inf)
    return np.maximum(left, right)


# few distinct sites, so that sites repeat with other levels and queries land on them;
# values off the binary grid, so that a cone value from the left and one from the right
# of a site can differ in the last bit
_ENV_SITES = st.sampled_from([0.0, -0.0, 0.1, 0.3, 0.5, 0.7, 1.0, -0.6, 1e-300])
_ENV_FLOATS = st.one_of(st.sampled_from([0.1, 0.2, -0.7, 1.3]), st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ENV_SITES, _ENV_FLOATS), min_size=1, max_size=8),
       st.lists(st.one_of(_ENV_SITES, _ENV_FLOATS, st.sampled_from([-9.0, 9.0])), max_size=12),
       st.sampled_from([0.3, 1.0, 3.0]))
@example([(0.5, 0.25)], [0.5, -9.0, 9.0, 0.75, 0.0], 1.0)
@example([(0.3, 0.1)], [0.3], 1.0)  # (0.1 + 0.3) - 0.3 and (0.1 - 0.3) + 0.3 differ
@example([(0.0, 1.0), (-0.0, 1.5), (0.0, -0.5), (0.25, 0.0)], [0.25, -0.0, 0.0, 0.1, -1.0], 1.0)
def test_envelope_line_matches_the_search_per_query_bit_for_bit(atoms, queries, env_const):
    # queries on a site, repeated sites with other levels, both zeros, one site, queries
    # outside every site; unsorted queries go through envelope_at
    gen = EnvelopeGen(dim=1, env_const=env_const, beta=1.0)
    mu = PointPattern.from_points([param(s, u) for s, u in atoms])
    s, u = mu.coords[:, 0], mu.coords[:, 1]
    q = np.array(queries, dtype=float)
    ordered = np.sort(q)
    want = _envelope_line_oracle(gen, s, u, ordered)
    assert gen._envelope_line(s, ordered, *gen._sweeps(s, u)).tobytes() == want.tobytes()
    assert gen.envelope_at(mu, ordered[:, None]).tobytes() == want.tobytes()
    assert gen.envelope_at(mu, q[:, None]).tobytes() == _envelope_line_oracle(gen, s, u, q).tobytes()


def test_envelope_boundary_examples():
    gen = EnvelopeGen(dim=1, env_const=2.0, beta=1.0)
    mu = PointPattern.from_points([param(0.0, 1.0), param(0.1, 0.5)])
    bd = gen.boundary(mu)
    assert set(bd.support()) == {param(0.0, 1.0)}
    single = PointPattern.from_points([param(0.3, 0.2)])
    assert gen.boundary(single) == single
    far = PointPattern.from_points([param(0.0, 1.0), param(10.0, 1.0)])
    assert gen.boundary(far) == far
    assert gen.boundary(PointPattern.empty()).is_empty


def test_envelope_boundary_atoms_touch_envelope():
    gen = EnvelopeGen(dim=1, env_const=1.0, beta=0.7)
    rng = random.Random(5)
    for _ in range(40):
        pts = [param(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 9))]
        mu = PointPattern.from_points(pts)
        bd = gen.boundary(mu)
        env = gen.envelope_at(mu, np.array([p.site for p in mu.support()]))
        for p, e in zip(mu.support(), env):
            on_env = e == pytest.approx(p.level, abs=1e-12)
            assert (p in bd) == on_env


def test_envelope_prime_property_on_corpus(band_corpus):
    gen = EnvelopeGen(dim=1, env_const=1.0, beta=1.0)
    patterns, probes = band_corpus
    for mu in patterns[:50]:
        for z in probes[:6]:
            assert prime_factorization_holds(gen, mu, z)


@pytest.mark.parametrize("dim", [1, 2])
def test_band_rule_reads_the_model_grid_bit_for_bit(dim):
    # the grid each model builds once gives the mass and integrals of a fresh grid_sites()
    model = HoelderBand(lo=(0.0,) * dim, hi=(1.0,) * dim,
                        phi=lambda s: 1.0 - 0.5 * np.abs(s[:, 0] - 0.5) - 0.25 * s[:, -1],
                        phi_sup=1.0, phi_integral=0.75, holder_const=0.5, holder_exp=1.0,
                        rate=40.0, resolution=1024)
    gen = EnvelopeGen(dim=dim, env_const=1.0, beta=1.0)
    sites, cell, phi = model.band_grid
    assert model.band_grid is model.band_grid
    assert not (sites.flags.writeable or phi.flags.writeable)
    fine = dataclasses.replace(model, resolution=2 * model.resolution)
    assert fine.band_grid[0].shape != sites.shape  # its own grid, not the coarse one
    for i in range(6):
        mu = sample_poisson(model, RngStream(23, i).generator())
        if mu.is_empty:
            continue
        fresh_sites, fresh_cell = model.grid_sites()
        depth = np.clip(gen.envelope_at(mu, fresh_sites), 0.0, model.phi_at(fresh_sites))
        mask, mass, integrate = generators._band_rule(gen, model, mu)
        assert mass == model.rate * float(depth.sum()) * fresh_cell
        for f in (Indicator(), PowerDepth(2.0), PowerDepth(0.5)):
            want = model.rate * float(f.depth_primitive(depth).sum()) * fresh_cell
            assert integrate(f) == want
        assert mask == gen.boundary_mask(mu)


def test_band_rule_sweeps_each_pattern_once(band_corpus, spy):
    # at d = 1, beta = 1 one pair of sweeps gives both the mask and the envelope on the grid
    gen, model = EnvelopeGen(dim=1, env_const=1.0, beta=1.0), _hoelder_band(48.0)
    sites, cell, phi = model.band_grid
    patterns, _ = band_corpus
    calls = spy(EnvelopeGen, "_sweeps")
    for mu in patterns:
        if mu.is_empty:
            continue
        calls.clear()
        mask, mass, _ = generators.evaluate(gen, model, mu)
        assert len(calls) == 1
        depth = np.clip(gen.envelope_at(mu, sites), 0.0, phi)
        assert mask == gen.boundary_mask(mu)
        assert repr(mass) == repr(model.rate * float(depth.sum()) * cell)


def test_pareto_prime_property_on_corpus(planar_corpus):
    gen = ParetoGen(2)
    patterns, probes = planar_corpus
    for mu in patterns[:50]:
        for z in probes[:6]:
            assert prime_factorization_holds(gen, mu, z)


_LINE_VALUES = st.sampled_from([-0.0, 0.0, 1.0, 1.5, -2.0]) | st.floats(-4.0, 4.0, width=16)


def _rows(values, dim):
    return [tuple(values[i:i + dim]) for i in range(0, len(values) - dim + 1, dim)]


@given(st.sampled_from([1, 2, 3]), st.lists(_LINE_VALUES, max_size=36),
       st.lists(_LINE_VALUES, max_size=18), st.booleans())
def test_pareto_masks_match_the_pairwise_reference(dim, values, queries, from_array):
    # repeated values and both signs of zero, the empty pattern and atom queries; the
    # pattern built either way
    gen = ParetoGen(dim)
    rows = _rows(values, dim)
    if from_array and rows:
        mu = PointPattern.from_array(("euclid", dim), np.array(rows))
    else:
        mu = PointPattern.from_points(euclid(*r) for r in rows)
    if rows:
        assert gen.boundary_mask(mu) == pareto_minimal(mu)
    q = np.array(_rows(queries, dim) + rows).reshape(-1, dim)  # atoms among the queries
    assert gen.contains_mask(mu, q) == pareto_contains(mu, q.tolist())


# -- half-plane generator -----------------------------------------------------


def _square_lines():
    return [
        line(0.0, 0.5),
        line(math.pi / 2, 0.5),
        line(math.pi, 0.5),
        line(3 * math.pi / 2, 0.5),
    ]


def test_polytope_boundary_square():
    gen = HalfPlaneGen(window_radius=5.0)
    mu = PointPattern.from_points(_square_lines())
    assert gen.boundary(mu) == mu
    extra = mu.add(line(0.3, 3.0))
    bd2 = gen.boundary(extra)
    assert set(bd2.support()) == set(mu.support())
    assert gen.boundary(PointPattern.empty()).is_empty


def test_halfplane_support_function():
    gen = HalfPlaneGen(window_radius=5.0)
    mu = PointPattern.from_points(_square_lines())
    angles = np.array([0.0, math.pi / 4, math.pi / 2])
    h = gen.hull_support(mu, angles)
    assert h[0] == pytest.approx(0.5, abs=1e-9)
    assert h[1] == pytest.approx(0.5 * math.sqrt(2), abs=1e-9)
    assert h[2] == pytest.approx(0.5, abs=1e-9)
    # empty pattern: the window disk itself
    assert gen.hull_support(PointPattern.empty(), angles) == pytest.approx([5.0] * 3)


def test_halfplane_hull_mass_square_band():
    gen = HalfPlaneGen(window_radius=2.0)
    band = LinesBand(0.4, 2.0, rate=1.0)
    mu = PointPattern.from_points(_square_lines())
    got = hull_mass(gen, mu, band)
    # support function of the square of half-width 0.5
    angles = (np.arange(20000) + 0.5) * (2 * math.pi / 20000)
    h_sq = 0.5 * (np.abs(np.cos(angles)) + np.abs(np.sin(angles)))
    want = float(np.clip(2.0 - np.maximum(h_sq, 0.4), 0, None).sum() * (2 * math.pi / 20000))
    assert got == pytest.approx(want, rel=1e-3)


def test_halfplane_duplicate_lines_keep_multiplicity():
    gen = HalfPlaneGen(window_radius=5.0)
    pts = _square_lines()
    mu = PointPattern.from_points(pts + [pts[0]])
    bd = gen.boundary(mu)
    assert bd.multiplicity(pts[0]) == 2


def _edge_mask_loop(W, dirs, offs):
    """The per-line clipping loop the vectorized edge mask replaced (reference)."""
    n = len(offs)
    tol_len = 1e-9 * max(1.0, W)
    keep = np.zeros(n, dtype=bool)
    for i in range(n):
        d2 = W * W - offs[i] * offs[i]
        if d2 <= 0.0:
            continue
        lo, hi = -math.sqrt(d2), math.sqrt(d2)
        si = dirs[i]
        perp = (-si[1], si[0])
        ok = True
        for j in range(n):
            if j == i:
                continue
            a = dirs[j, 0] * perp[0] + dirs[j, 1] * perp[1]
            b = offs[j] - offs[i] * (dirs[j, 0] * si[0] + dirs[j, 1] * si[1])
            if abs(a) < 1e-14 * max(1.0, W):
                if b < 0.0:
                    ok = False
                    break
            elif a > 0.0:
                hi = min(hi, b / a)
            else:
                lo = max(lo, b / a)
            if hi - lo <= tol_len:
                ok = False
                break
        keep[i] = ok and hi - lo > tol_len
    return keep


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.5, 2.0, 4.0]),
       st.lists(st.tuples(st.sampled_from([0.0, 1.0, math.pi / 2, math.pi, 3.0, 5.5]),
                          st.sampled_from([0.0, 0.3, 1.0, 2.0, 4.0])), min_size=1, max_size=9),
       st.lists(st.tuples(st.floats(0.0, 6.28), st.floats(0.0, 5.0)), max_size=6))
def test_halfplane_edge_mask_matches_loop(W, lattice, spread):
    # parallel, coincident and tangent lines come from the lattice values
    angs, offs = (np.array(c, dtype=float) for c in zip(*(lattice + spread)))
    dirs = np.column_stack([np.cos(angs), np.sin(angs)])
    got = HalfPlaneGen(window_radius=W)._edge_mask(dirs, offs)
    assert got.tolist() == _edge_mask_loop(W, dirs, offs).tolist()


def _feasible_vertices_loop(W, dirs, offs):
    """The per-pair candidate loop the array candidate builder replaced (reference)."""
    slack = 1e-12 * max(1.0, W)
    n = len(offs)
    cands = [np.zeros(2)]
    for i in range(n):
        d2 = W * W - offs[i] * offs[i]
        si = dirs[i]
        perp = np.array([-si[1], si[0]])
        if d2 > 0:
            t = math.sqrt(d2)
            cands.append(offs[i] * si + t * perp)
            cands.append(offs[i] * si - t * perp)
        for j in range(i + 1, n):
            det = si[0] * dirs[j, 1] - si[1] * dirs[j, 0]
            if abs(det) < 1e-14:
                continue
            x = (offs[i] * dirs[j, 1] - offs[j] * si[1]) / det
            y = (si[0] * offs[j] - dirs[j, 0] * offs[i]) / det
            cands.append(np.array([x, y]))
    C = np.asarray(cands)
    good = np.linalg.norm(C, axis=1) <= W + slack
    if n:
        good &= np.all(C @ dirs.T <= offs[None, :] + slack, axis=1)
    return C[good]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.5, 2.0, 4.0]),
       st.lists(st.tuples(st.sampled_from([0.0, 1.0, math.pi / 2, math.pi, 3.0, 5.5]),
                          st.sampled_from([0.0, 0.3, 1.0, 2.0, 4.0])), max_size=8),
       st.lists(st.tuples(st.floats(0.0, 6.28), st.floats(0.0, 5.0)), max_size=8))
def test_halfplane_candidates_match_loop(W, lattice, spread):
    # 0 to 15 distinct lines: the same vertices, bit for bit and in the same order
    rows = sorted(set(lattice + spread))[:15]
    angs = np.array([a for a, _ in rows], dtype=float)
    offs = np.array([u for _, u in rows], dtype=float)
    dirs = np.column_stack([np.cos(angs), np.sin(angs)])
    got = HalfPlaneGen(window_radius=W)._feasible_vertices(dirs, offs)
    want = _feasible_vertices_loop(W, dirs, offs)
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


# -- disk-anchored hull -------------------------------------------------------


def _hull_area(gen, mu):
    return gen.hull_area([p.coords for p in gen.boundary(mu).support()])


def test_diskhull_area_no_points():
    gen = DiskHullGen(anchor_radius=0.3)
    assert _hull_area(gen, PointPattern.empty()) == pytest.approx(math.pi * 0.09)


def test_diskhull_area_single_point():
    r0, px = 1.0, 2.0
    gen = DiskHullGen(anchor_radius=r0)
    mu = PointPattern.from_points([euclid(px, 0.0)])
    # kite formed by the two tangent segments plus the major arc
    half = math.acos(r0 / px)
    kite = r0 * px * math.sin(half)
    arc = 0.5 * r0 * r0 * (2 * math.pi - 2 * half)
    assert _hull_area(gen, mu) == pytest.approx(kite + arc, rel=1e-12)


def test_diskhull_area_square_corners():
    gen = DiskHullGen(anchor_radius=0.3)
    mu = PointPattern.from_points(
        [euclid(1, 1), euclid(-1, 1), euclid(-1, -1), euclid(1, -1)]
    )
    assert _hull_area(gen, mu) == pytest.approx(4.0, rel=1e-12)


def test_diskhull_area_matches_grid():
    gen = DiskHullGen(anchor_radius=0.3)
    rng = random.Random(12)
    xs = np.linspace(-1, 1, 401)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cell = (xs[1] - xs[0]) ** 2
    for _ in range(10):
        pts = []
        while len(pts) < rng.randint(1, 6):
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if 0.3 < math.hypot(x, y) < 1.0:
                pts.append(euclid(x, y))
        mu = PointPattern.from_points(pts)
        exact = _hull_area(gen, mu)
        mask = gx * gx + gy * gy <= 0.09
        support = [p.coords for p in mu.support()]
        probe_pts = np.column_stack([gx[~mask], gy[~mask]])
        inside = np.zeros(len(probe_pts), dtype=bool)
        for i, q in enumerate(probe_pts):
            inside[i] = not gen._separable((q[0], q[1]), support)
        approx = (mask.sum() + inside.sum()) * cell
        assert exact == pytest.approx(approx, abs=0.01)


def test_diskhull_skips_a_query_equal_to_an_atom_up_to_a_zero_sign():
    # (0.0, 1.0) and (1.0, -0.0) are the atoms (-0.0, 1.0) and (1.0, 0.0): _separable skips
    # them as rows of zero distance, as the others-list rule left them out
    gen = DiskHullGen(anchor_radius=0.3)
    mu = PointPattern.from_points([euclid(-0.0, 1.0), euclid(1.0, 0.0), euclid(0.2, 0.2),
                                   euclid(0.5, 0.5), euclid(-1.0, -1.0)])
    queries = np.array([[0.0, 1.0], [1.0, -0.0], [0.2, 0.2], [0.5, 0.5], [-1.0, -1.0],
                        [0.0, 0.0], [2.0, -0.0]])
    mask = gen.boundary_mask(mu)
    assert mask == disk_boundary_by_others(gen, mu) == (True, True, False, False, True)
    inside = gen.contains_mask(mu, queries)
    assert inside[:5] == [not mask[i] for i in (1, 4, 2, 3, 0)]  # rows in sorted order
    assert inside == disk_contains_by_others(gen, mu, queries)


def test_diskhull_mass_requires_matching_annulus():
    gen = DiskHullGen(anchor_radius=0.3)
    mu = PointPattern.from_points([euclid(0.5, 0.0)])
    with pytest.raises(ConfigurationError):
        hull_mass(gen, mu, UniformAnnulus(0.4, 1.0, rate=1.0))


# -- full axiom batteries (small corpora; the acceptance gate runs 1000) -------


@pytest.mark.parametrize(
    "name,gen,fixture",
    [
        ("convex2", ConvexHullGen(2), "planar_corpus"),
        ("convex3", ConvexHullGen(3), "spatial_corpus"),
        ("coordmin", CoordMinGen(), "planar_corpus"),
        ("pareto", ParetoGen(2), "planar_corpus"),
        ("envelope", EnvelopeGen(dim=1, env_const=1.0, beta=1.0), "band_corpus"),
        ("halfplane", HalfPlaneGen(window_radius=2.0), "lines_corpus"),
        ("diskhull", DiskHullGen(anchor_radius=0.3), "planar_corpus"),
    ],
)
def test_axiom_battery(name, gen, fixture, request):
    patterns, probes = request.getfixturevalue(fixture)
    report = check_axioms(gen, patterns[:60], probes, seed=17)
    assert report.all_passed, (name, report.failures(), report.counterexamples[:2])
