"""Leave-one-out survival masks against the definitional loop they replace.

``survival_mask(mu)`` must equal H_z(mu - d_z) computed by removing one copy
of each atom and asking ``h_indicator``, bit for bit, on the axiom corpora,
on lattices full of collinear points and duplicates, and on hand-built
degenerate cases.  The planar convex, Pareto, coordmin, half-plane and disk
hull kernels must also run without the boundary map, which the error
representation cross-checks them against.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullforge import PointPattern, SpaceMismatchError, corpora, euclid, line, param
from hullforge import generators
from hullforge.core import HullGenerator, h_indicator
from hullforge.corpora import GENERATOR_SUITE
from hullforge.generators import ConvexHullGen, CoordMinGen, DiskHullGen, HalfPlaneGen, ParetoGen


def oracle(gen, mu):
    return tuple(h_indicator(gen, mu.remove(p), p) == 1 for p, _ in mu.entries)


@pytest.mark.parametrize("name", sorted(GENERATOR_SUITE))
def test_survival_mask_matches_loop_on_suite_corpus(name):
    gen, make_corpus = GENERATOR_SUITE[name]
    patterns, _ = make_corpus(60, 10, 17)
    assert any(m > 1 for mu in patterns for _, m in mu.entries)  # duplicates present
    for mu in patterns:
        assert gen.survival_mask(mu) == oracle(gen, mu), mu.entries


def _sample_point(space_tag):
    if space_tag[0] == "euclid":
        return euclid(*[0.25 + 0.1 * i for i in range(space_tag[1])])
    if space_tag[0] == "param":
        return param(tuple(0.5 for _ in range(space_tag[1])), 0.3)
    return line(1.0, 0.5)


@pytest.mark.parametrize("name", sorted(GENERATOR_SUITE))
def test_survival_mask_empty_and_single_triple_atom(name):
    gen, _ = GENERATOR_SUITE[name]
    assert gen.survival_mask(PointPattern.empty()) == ()
    triple = PointPattern.empty().add(_sample_point(gen.space_tag), 3)
    assert gen.survival_mask(triple) == oracle(gen, triple)


def _generator_classes():
    """Every concrete generator class of ``generators`` and ``corpora``, found by introspection."""
    found = {c for mod in (generators, corpora) for c in vars(mod).values()
             if isinstance(c, type) and issubclass(c, HullGenerator) and c is not HullGenerator}
    return sorted(found, key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", _generator_classes(), ids=lambda c: c.__name__)
def test_survival_mask_checks_the_space_and_answers_the_empty_pattern(cls):
    gen = cls()
    foreign = euclid(0.25, 0.35) if gen.space_tag[0] == "line" else line(1.0, 0.5)
    with pytest.raises(SpaceMismatchError):
        gen.survival_mask(PointPattern.from_points([foreign, foreign]))
    assert gen.survival_mask(PointPattern.empty()) == ()


PLANAR_CASES = {
    "midpoint_on_segment": [euclid(0, 0), euclid(2, 2), euclid(1, 1)],
    "collinear_four": [euclid(0, 0), euclid(1, 0), euclid(2, 0), euclid(3, 0)],
    "collinear_vertical_doubled": [euclid(1, 0), euclid(1, 1), euclid(1, 1), euclid(1, 3)],
    "edge_midpoint_in_square": [euclid(0, 0), euclid(2, 0), euclid(2, 2), euclid(0, 2),
                                euclid(1, 0), euclid(1, 1)],
    "lattice_repeats": [euclid(x, y) for x in range(3) for y in range(3)]
    + [euclid(0, 0), euclid(1, 1), euclid(2, 1)],
    "two_points_doubled": [euclid(0, 0), euclid(0, 0), euclid(1, 1)],
}


@pytest.mark.parametrize("case", sorted(PLANAR_CASES))
@pytest.mark.parametrize("name", ["convex2", "coordmin", "pareto", "diskhull"])
def test_survival_mask_planar_degenerate_cases(name, case):
    gen, _ = GENERATOR_SUITE[name]
    mu = PointPattern.from_points(PLANAR_CASES[case])
    assert gen.survival_mask(mu) == oracle(gen, mu)


def test_convex_mask_degenerate_values():
    gen = ConvexHullGen(2)
    mid = PointPattern.from_points(PLANAR_CASES["midpoint_on_segment"])
    # entries sort lexicographically: (0,0), (1,1), (2,2); the midpoint survives nowhere
    assert gen.survival_mask(mid) == (True, False, True)
    line4 = PointPattern.from_points(PLANAR_CASES["collinear_four"])
    assert gen.survival_mask(line4) == (True, False, False, True)
    doubled = PointPattern.from_points(PLANAR_CASES["two_points_doubled"])
    assert gen.survival_mask(doubled) == (True, True)


def test_convex3_degenerate_cases():
    gen = ConvexHullGen(3)
    cases = [
        [euclid(0, 0, 0), euclid(1, 1, 1), euclid(2, 2, 2)],
        [euclid(x, y, 0) for x in range(3) for y in range(2)] + [euclid(1, 1, 0)],
        [euclid(0, 0, 0), euclid(1, 0, 0), euclid(0, 1, 0), euclid(0, 0, 1),
         euclid(0.2, 0.2, 0.2), euclid(0.2, 0.2, 0.2)],
    ]
    for pts in cases:
        mu = PointPattern.from_points(pts)
        assert gen.survival_mask(mu) == oracle(gen, mu)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pareto_mask_ties(dim):
    gen = ParetoGen(dim)
    low = [0.0] * dim
    tie = [0.0] * (dim - 1) + [1.0]  # ties the low point on all but one axis
    pts = [euclid(*low), euclid(*low), euclid(*tie), euclid(*tie), euclid(*[1.0] * dim)]
    if dim > 1:
        pts += [euclid(*([1.0] + [0.0] * (dim - 1)))]
    mu = PointPattern.from_points(pts)
    mask = gen.survival_mask(mu)
    assert mask == oracle(gen, mu)
    # only the doubled coordinatewise-smallest point survives its own removal
    assert mask == tuple(p.coords == tuple(low) for p, _ in mu.entries)
    incomparable = PointPattern.from_points(
        [euclid(*([0.0] * (dim - 1) + [1.0])), euclid(*([1.0] + [0.0] * (dim - 1)))] * 2
    )
    assert gen.survival_mask(incomparable) == oracle(gen, incomparable)


lattice_2d = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=12
)


@settings(max_examples=300, deadline=None)
@given(lattice_2d)
def test_convex2_mask_matches_loop_on_lattices(coords):
    gen = ConvexHullGen(2)
    mu = PointPattern.from_points([euclid(x, y) for x, y in coords])
    assert gen.survival_mask(mu) == oracle(gen, mu)


@settings(max_examples=300, deadline=None)
@given(lattice_2d)
def test_coordmin_mask_matches_loop_on_lattices(coords):
    # a 4 x 4 lattice ties on both coordinates, where the lexicographic order decides
    gen = CoordMinGen()
    mu = PointPattern.from_points([euclid(x, y) for x, y in coords])
    assert gen.survival_mask(mu) == oracle(gen, mu)


# Coordinates k/64 in [-4, 4]: collinearity is exact or the triangle area is at
# least 2**-13, far outside the 1e-9 tolerance shell.  Inside that shell the
# loop widens by length near segment ends and the gap kernel by area, so they
# may differ there (the loop on the test below, for instance).
dyadic = st.integers(-256, 256).map(lambda k: k / 64.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(dyadic, dyadic), max_size=10),
    st.lists(st.integers(0, 9), max_size=4),
)
def test_convex2_mask_matches_loop_on_dyadic_grid(coords, repeats):
    gen = ConvexHullGen(2)
    pts = [euclid(x, y) for x, y in coords]
    pts += [pts[i] for i in repeats if i < len(pts)]
    mu = PointPattern.from_points(pts)
    assert gen.survival_mask(mu) == oracle(gen, mu)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                                   max_size=10))
def test_pareto_mask_matches_loop_on_lattices(dim, coords):
    gen = ParetoGen(dim)
    mu = PointPattern.from_points([euclid(*c[:dim]) for c in coords])
    assert gen.survival_mask(mu) == oracle(gen, mu)


def _refuse(*args, **kwargs):
    raise AssertionError("survival kernel reached the boundary map")


def test_convex2_and_pareto_masks_do_not_use_the_boundary_map(monkeypatch):
    # the coordmin, half-plane and disk hull masks are held to the same rule:
    # no mask reaches boundary_mask, its one-pass kernels or evaluate
    convex, pareto, coordmin = ConvexHullGen(2), ParetoGen(2), CoordMinGen()
    halfplane, diskhull = HalfPlaneGen(window_radius=2.0), DiskHullGen(anchor_radius=0.3)
    mu = PointPattern.from_points([euclid(0, 0), euclid(1, 0), euclid(0, 1), euclid(1, 1),
                                   euclid(0.5, 0.5), euclid(0.5, 0.5), euclid(0.5, 0.0)])
    lines = PointPattern.from_points([line(0.0, 0.5), line(1.6, 0.7), line(1.6, 0.7),
                                      line(3.1, 0.4), line(4.0, 1.9), line(4.7, 0.6)])
    cases = ((convex, mu), (pareto, mu), (coordmin, mu), (halfplane, lines), (diskhull, mu))
    want = tuple(oracle(gen, nu) for gen, nu in cases)
    monkeypatch.setattr(generators, "_extreme_2d", _refuse)
    monkeypatch.setattr(ParetoGen, "_frontier", _refuse)
    monkeypatch.setattr(CoordMinGen, "_argmins", _refuse)
    monkeypatch.setattr(ConvexHullGen, "_extreme", _refuse)
    monkeypatch.setattr(HalfPlaneGen, "_edge_mask", _refuse)
    monkeypatch.setattr(DiskHullGen, "_separable", _refuse)
    monkeypatch.setattr(generators, "evaluate", _refuse)
    classes = (ConvexHullGen, ParetoGen, CoordMinGen, HalfPlaneGen, DiskHullGen)
    for cls in classes:
        monkeypatch.setattr(cls, "boundary", _refuse)
        monkeypatch.setattr(cls, "boundary_mask", _refuse)
    assert tuple(gen.survival_mask(nu) for gen, nu in cases) == want
    for gen, nu in cases:
        for patched in (gen.boundary, gen.boundary_mask):
            with pytest.raises(AssertionError):
                patched(nu)


# Angles are multiples of pi/4 (parallel lines, coincident ones at offset 0
# with opposed normals, three lines through one point) or generic; offsets sit
# inside, at and beyond the window radius.  The spread lines lie on a k/64
# grid, so distinct parallel lines are at least 1/64 apart and no two angles
# are within 1e-13 of parallel.  Inside those shells a repeated line is ruled
# by the candidates' 1e-12 slack in the kernel and by the exact chord clip of
# the boundary mask in the loop, so they may differ there (x <= 0 and
# x <= 5e-324, both doubled, for instance).
_LATTICE_ANGLES = [k * math.pi / 4 for k in range(8)] + [1.0, 3.0, 5.5]
_sixty_fourths = st.integers(0, 401).map(lambda k: k / 64.0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.5, 2.0, 4.0]),
       st.lists(st.tuples(st.sampled_from(_LATTICE_ANGLES),
                          st.sampled_from([0.0, 0.3, 1.0, 2.0, 4.0, 6.0])), max_size=9),
       st.lists(st.tuples(_sixty_fourths, _sixty_fourths), max_size=4),
       st.lists(st.integers(0, 12), max_size=4))
def test_halfplane_mask_matches_loop_on_lattices(W, lattice, spread, repeats):
    gen = HalfPlaneGen(window_radius=W)
    pts = [line(a, u) for a, u in lattice + spread]
    pts += [pts[i] for i in repeats if i < len(pts)]  # doubled lines
    mu = PointPattern.from_points(pts)
    assert gen.survival_mask(mu) == oracle(gen, mu)


def test_halfplane_mask_on_a_body_without_area():
    # x <= 0 and x >= 0 leave a chord of the window; a doubled line that cuts
    # the chord keeps no edge on it, while a single one still cuts the body
    gen = HalfPlaneGen(window_radius=2.0)
    chord = [line(0.0, 0.0), line(math.pi, 0.0), line(1.0, 0.5)]
    single = PointPattern.from_points(chord)
    doubled = PointPattern.from_points(chord + [chord[2]])
    assert gen.survival_mask(single) == oracle(gen, single) == (True, True, True)
    assert gen.survival_mask(doubled) == oracle(gen, doubled) == (True, False, True)


_R0 = 0.3
_disk_atoms = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda p: (p[0] / 4, p[1] / 4)),
    st.integers(0, 15).map(lambda k: (_R0 * math.cos(k * math.pi / 8),
                                      _R0 * math.sin(k * math.pi / 8))),  # on the circle
    st.tuples(st.integers(0, 7), st.sampled_from([0.1, 0.3, 0.6, 1.0, 1.5])).map(
        lambda p: (p[1] * math.cos(p[0] * math.pi / 4), p[1] * math.sin(p[0] * math.pi / 4))),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_disk_atoms, max_size=8), st.lists(st.integers(0, 7), max_size=3))
def test_diskhull_mask_matches_loop(coords, repeats):
    # atoms inside the anchor disk, on its circle, on rays from the origin
    # (collinear with it and with each other) and doubled
    gen = DiskHullGen(anchor_radius=_R0)
    pts = [euclid(x, y) for x, y in coords]
    pts += [pts[i] for i in repeats if i < len(pts)]
    mu = PointPattern.from_points(pts)
    assert gen.survival_mask(mu) == oracle(gen, mu)


def test_convex_tolerance_shell_counts_as_inside():
    # a point 1e-12 off a hull edge is inside for the chain and the gap kernel alike
    gen = ConvexHullGen(2)
    mu = PointPattern.from_points([euclid(0, 0), euclid(2, 0), euclid(1, 2), euclid(1, -1e-12)])
    assert gen.survival_mask(mu) == oracle(gen, mu)
    assert dict(zip(mu.support(), gen.survival_mask(mu)))[euclid(1, -1e-12)] is False


def test_convex_mask_follows_boundary_just_past_a_segment_end():
    # (0, 7e-41) lies past the end (0, 0) of the segment to (0, -1), within the
    # loop's length tolerance: the loop calls it inside, but the boundary map
    # keeps it as a vertex, and so does the gap kernel
    gen = ConvexHullGen(2)
    mu = PointPattern.from_points(
        [euclid(0.0, 0.0), euclid(0.0, 7.444296993591002e-41), euclid(0.0, -1.0)]
    )
    bd = gen.boundary(mu)
    assert gen.survival_mask(mu) == tuple(p in bd for p, _ in mu.entries) == (True, False, True)
    assert oracle(gen, mu) == (True, False, False)
