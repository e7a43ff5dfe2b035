import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hullforge import (
    ConvexHullGen,
    CoordMinGen,
    DomainError,
    ParetoGen,
    PointPattern,
    SpaceMismatchError,
    euclid,
    h_indicator,
    line,
    param,
)
from hullforge.core import AxiomReport, check_axioms, checked_array, point_from_row
from hullforge.corpora import LexDropGen
from hullforge.generators import EnvelopeGen, HalfPlaneGen
from hullforge.montecarlo import _hoelder_band
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
)
from oracles import (
    add_by_dict,
    boundary_by_dict,
    first_difference_h,
    higher_difference_closed_form,
    higher_difference_h,
    minus_by_dict,
    plus_by_dict,
    prime_factorization_holds,
    remove_by_dict,
    with_mults_by_dict,
)


# -- pattern algebra ---------------------------------------------------------


def test_pattern_multiset_semantics():
    a = PointPattern.from_points([euclid(0, 0), euclid(1, 1), euclid(0, 0)])
    b = PointPattern.from_points([euclid(1, 1), euclid(0, 0), euclid(0, 0)])
    assert a == b
    assert a.total_mass == 3
    assert a.multiplicity(euclid(0, 0)) == 2
    assert a.remove(euclid(0, 0)).multiplicity(euclid(0, 0)) == 1
    assert PointPattern.empty() <= a
    assert a - a == PointPattern.empty()


def test_pattern_rejects_mixed_spaces_and_bad_values():
    with pytest.raises(SpaceMismatchError):
        PointPattern.from_points([euclid(0, 0), param(0.5, 1.0)])
    with pytest.raises(DomainError):
        euclid(float("nan"), 0.0)
    with pytest.raises(DomainError):
        PointPattern.from_points([euclid(0, 0)]).remove(euclid(0, 0), 2)
    # a count below 1 is refused, not read as a removal (or an addition) of copies
    one = PointPattern.from_points([euclid(0, 0)])
    for count in (0, -1):
        for op in (one.add, one.remove):
            with pytest.raises(DomainError, match="count must be >= 1"):
                op(euclid(0, 0), count)
    # an operand of another ground space is a space mismatch in every operation, whatever the count
    mu, other = PointPattern.from_points([euclid(0, 0)]), PointPattern.from_points([param(0.5, 1.0)])
    for op in (lambda: mu + other, lambda: mu - other,
               lambda: mu.add(param(0.5, 1.0)), lambda: mu.remove(param(0.5, 1.0)),
               lambda: mu.add(param(0.5, 1.0), 0), lambda: mu.remove(param(0.5, 1.0), -1)):
        with pytest.raises(SpaceMismatchError):
            op()


def test_space_mismatch_raises_in_ops():
    gen = ConvexHullGen(2)
    mu = PointPattern.from_points([euclid(0, 0)])
    with pytest.raises(SpaceMismatchError):
        h_indicator(gen, mu, param(0.1, 0.2))


# -- the row store ------------------------------------------------------------

# small value pools, so lists repeat atoms; both zeros merge into one atom
_VALUES = st.sampled_from([0.0, -0.0, 0.25, 1.0, -1.5, 3.0])
_SPACES = {
    **{("euclid", d): st.lists(_VALUES, min_size=d, max_size=d).map(lambda c: euclid(*c))
       for d in (1, 2, 3)},
    **{("param", d): st.builds(param, st.lists(_VALUES, min_size=d, max_size=d), _VALUES)
       for d in (1, 2)},
    ("line",): st.builds(line, st.sampled_from([0.0, -0.0, 1.0, 6.0]),
                         st.sampled_from([0.0, -0.0, 0.5, 2.0])),
}


def _point_key(p):
    """The canonical atom order: lexicographic in the point's coordinates."""
    if hasattr(p, "coords"):
        return p.coords
    if hasattr(p, "site"):
        return (p.site, p.level)
    return (p.angle, p.offset)


def _oracle(points) -> list:
    """(point, count) pairs in canonical order; equal points merge into the first one."""
    return sorted(Counter(points).items(), key=lambda e: _point_key(e[0]))


def _as_counter(mu) -> Counter:
    assert all(m > 0 for m in mu.mults) and list(mu.rows) == sorted(set(mu.rows))
    return Counter(dict(mu.entries))


@st.composite
def _space_lists(draw, n=2):
    space = draw(st.sampled_from(sorted(_SPACES)))
    return [draw(st.lists(_SPACES[space], max_size=6)) for _ in range(n)] + [draw(_SPACES[space])]


@settings(max_examples=150, deadline=None)
@given(_space_lists())
def test_row_store_matches_point_order_and_counts(lists):
    pts, _, x = lists
    mu = PointPattern.from_points(pts)
    assert repr(mu.entries) == repr(tuple(_oracle(pts)))
    assert mu.support() == tuple(p for p, _ in _oracle(pts))
    assert PointPattern.from_array(x.space_tag, [p.row for p in pts]) == mu
    assert mu.coords.shape == (len(mu.rows), len(x.row) if pts else 0)


@settings(max_examples=200, deadline=None)
@given(_space_lists(), st.integers(1, 3))
def test_row_store_algebra_matches_counter(lists, k):
    pa, pb, x = lists
    a, b = PointPattern.from_points(pa), PointPattern.from_points(pb)
    ca, cb = Counter(pa), Counter(pb)
    assert a.multiplicity(x) == ca[x] and (x in a) == (ca[x] > 0)
    assert _as_counter(a.add(x, k)) == ca + Counter({x: k})
    if ca[x] >= k:
        assert _as_counter(a.remove(x, k)) == ca - Counter({x: k})
    else:
        with pytest.raises(DomainError):
            a.remove(x, k)
    assert _as_counter(a + b) == ca + cb
    assert (b <= a) == all(ca[p] >= m for p, m in cb.items())
    if b <= a:
        assert _as_counter(a - b) == ca - cb
    else:
        with pytest.raises(DomainError):
            a - b


#: a generator of each ground space, for ``boundary``
_SPACE_GENS = {("euclid", 1): ParetoGen(1), ("euclid", 2): ConvexHullGen(2),
               ("euclid", 3): ParetoGen(3), ("param", 1): EnvelopeGen(dim=1),
               ("param", 2): EnvelopeGen(dim=2), ("line",): HalfPlaneGen()}


@st.composite
def _algebra_operands(draw):
    """(a, b, x, count, mults, array_first): b and x mostly in a's space, else in another."""
    tag = draw(st.sampled_from(sorted(_SPACES)))
    same_or_other = st.one_of(st.just(tag), st.sampled_from(sorted(_SPACES)))
    b_tag, x_tag = draw(same_or_other), draw(same_or_other)
    a = draw(st.lists(_SPACES[tag], max_size=6))
    mults = draw(st.lists(st.integers(-1, 3), max_size=len(set(a)) + 1))
    return (a, draw(st.lists(_SPACES[b_tag], max_size=6)), draw(_SPACES[x_tag]),
            draw(st.integers(0, 3)), mults, draw(st.booleans()))


def _outcome(op):
    """What ``op()`` gives: its pattern's entries (zeros' signs shown), mults and space, or its error."""
    try:
        mu = op()
    except (DomainError, SpaceMismatchError) as e:
        return type(e), str(e)
    assert type(mu) is PointPattern and list(mu.rows) == sorted(set(mu.rows))
    return repr(mu.entries), mu.mults, mu.space_tag


_ZERO_TIE = [euclid(0.0, 1.0), euclid(1.0, 3.0)], [euclid(-0.0, 1.0)], euclid(-0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(_algebra_operands())
@example((*_ZERO_TIE, 1, [2], False))
@example((_ZERO_TIE[1], _ZERO_TIE[0], euclid(0.0, 1.0), 2, [1], True))
@example(([euclid(-0.0, 1.0)], [euclid(0.0, 1.0), euclid(-0.0, 1.0)], euclid(0.0, 1.0), 1, [], False))
def test_order_keeping_algebra_matches_the_dict_oracle(operands):
    # every operation gives the dict-and-sort reference's rows, signs of zero included (the
    # left operand's row wins a tie), and its error type and message; a short mults truncates
    pa, pb, x, k, mults, array_first = operands
    a = PointPattern.from_array(pa[0].space_tag, [p.row for p in pa]) if array_first and pa \
        else PointPattern.from_points(pa)
    b = PointPattern.from_points(pb)
    cases = [
        (lambda: a.add(x, k), lambda: add_by_dict(a, x, k)),
        (lambda: a.remove(x, k), lambda: remove_by_dict(a, x, k)),
        (lambda: a.with_mults(mults), lambda: with_mults_by_dict(a, mults)),
        (lambda: a.with_mults(iter(mults)), lambda: with_mults_by_dict(a, mults)),
    ]
    pairs = [(a, b), (b, a)]
    if x.space_tag == a.space_tag and k >= 1:
        pairs.append((a.add(x, k), b))
    for left, right in pairs:
        cases += [(lambda u=left, v=right: u + v, lambda u=left, v=right: plus_by_dict(u, v)),
                  (lambda u=left, v=right: u - v, lambda u=left, v=right: minus_by_dict(u, v))]
    if b.space_tag == a.space_tag:  # some differences that succeed
        cases += [(lambda: (a + b) - b, lambda: minus_by_dict(plus_by_dict(a, b), b)),
                  (lambda: a - a.with_mults(mults), lambda: minus_by_dict(a, a.with_mults(mults)))]
    if a.space_tag is not None:
        gen = _SPACE_GENS[a.space_tag]
        cases.append((lambda: gen.boundary(a), lambda: boundary_by_dict(gen, a)))
    for fast, oracle in cases:
        assert _outcome(fast) == _outcome(oracle)


def _first_occurrence_oracle(tag, rows) -> tuple:
    """The entries of ``rows`` as a ``Counter`` keys them: sorted, equal rows merged into the first."""
    return tuple((point_from_row(tag, r), m) for r, m in sorted(Counter(map(tuple, rows)).items()))


def _assert_array_first(mu, tag, rows):
    """``mu`` holds the oracle's entries, signs of zero included, and a read-only ``coords``."""
    assert repr(mu.entries) == repr(_first_occurrence_oracle(tag, rows))
    assert not mu.coords.flags.writeable
    want = np.array(mu.rows, dtype=float).reshape(len(mu.rows), -1 if mu.rows else 0)
    assert mu.coords.shape == want.shape and mu.coords.tobytes() == want.tobytes()


def _from_array_by_fancy_index(tag, coords) -> tuple:
    """(coords, mults) as ``from_array`` built them with two fancy indexes before its ``take``."""
    arr = checked_array(tag, coords)
    if len(arr) == 0:
        return arr, ()
    order = np.argsort(arr[:, 0], kind="stable")
    lead = arr[order, 0]
    if np.count_nonzero(lead[1:] == lead[:-1]) == 0:
        return arr[order], (1,) * len(arr)
    arr = arr.take(np.lexsort(arr.T[::-1]), axis=0)
    new = (arr[1:] != arr[:-1]).any(axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new)))
    return arr[starts], tuple(np.diff(starts, append=len(arr)).tolist())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_SPACES)).flatmap(
    lambda tag: st.tuples(st.just(tag), st.lists(_SPACES[tag], max_size=12))))
@example((("euclid", 2), [euclid(-0.0, 1.0)]))
@example((("euclid", 2), [euclid(0.0, 3.0), euclid(-0.0, 1.0), euclid(0.0, 1.0), euclid(0.0, 3.0)]))
def test_from_array_keeps_the_first_of_equal_rows(space_points):
    # small pools with both zeros: most lists repeat rows, many only up to the sign of a zero
    tag, pts = space_points
    rows = [p.row for p in pts]
    width = 2 if tag == ("line",) else tag[1] + (tag[0] == "param")
    arr = np.array(rows, dtype=float).reshape(len(rows), width)
    given_bytes = arr.tobytes()
    mu = PointPattern.from_array(tag, arr)
    _assert_array_first(mu, tag, rows)
    want, mults = _from_array_by_fancy_index(tag, arr)
    assert mu.coords.tobytes() == want.tobytes() and mu.mults == mults
    assert arr.flags.writeable and arr.tobytes() == given_bytes  # the caller's array is untouched


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_SPACES)).flatmap(
    lambda tag: st.tuples(st.just(tag), st.lists(_SPACES[tag], min_size=1, max_size=12))))
def test_from_array_pattern_behaves_as_the_from_points_pattern(space_points):
    # the array store builds its row tuples on first read, the row store its array; both
    # give the same equality, hash, repr, pickle, multiplicities and algebra, zeros' signs included
    tag, pts = space_points
    mu = PointPattern.from_array(tag, [p.row for p in pts])
    want = PointPattern.from_points(pts)
    assert mu.total_mass == want.total_mass and not mu.is_empty and len(mu.coords) == len(mu.mults)
    assert "rows" not in vars(mu) and "coords" not in vars(want)
    loaded = pickle.loads(pickle.dumps(mu))
    assert "rows" not in vars(loaded)
    for a in (mu, loaded, pickle.loads(pickle.dumps(want))):
        assert a == want and hash(a) == hash(want) and repr(a) == repr(want)
        assert [a.multiplicity(p) for p in pts] == [want.multiplicity(p) for p in pts]
        assert a.add(pts[0]) == want.add(pts[0]) and a - want == PointPattern.empty()
    with pytest.raises(AttributeError):
        mu.rows = ()


_SAMPLERS = [
    UniformBox((0.0,), (2.0,), rate=20.0),
    UniformBox((0.0, -1.0), (1.0, 1.0), rate=12.0),
    UniformBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), rate=15.0),
    UniformDisk((0.5, -0.25), 1.5, rate=6.0),
    UniformPolygon(((0.0, 0.0), (2.0, 0.0), (1.5, 1.0), (0.0, 1.5)), rate=15.0),
    UniformAnnulus(0.3, 1.0, rate=14.0),
    _hoelder_band(48.0),
    HoelderBand(lo=(0.0, 0.0), hi=(1.0, 1.0),
                phi=lambda s: 1.0 - 0.5 * np.abs(s[:, 0] - 0.5) - 0.25 * s[:, 1], phi_sup=1.0,
                phi_integral=0.75, holder_const=0.5, holder_exp=1.0, rate=48.0),
    LinesBand(1.0, 2.0, rate=6.0),
    HalfLine(start=1.0, rate=8.0, horizon=5.0),
]


@pytest.mark.parametrize("model", _SAMPLERS, ids=lambda m: type(m).__name__)
def test_sampled_patterns_are_array_first(model, spy):
    calls = spy(PointPattern, "from_array")
    for i in range(5):
        mu = sample_poisson(model, RngStream(17, i).generator())
        (tag, drawn), = calls[-1:]
        _assert_array_first(mu, tag, drawn.tolist())
    assert len(calls) == 5


@pytest.mark.parametrize("tag, rows", [
    (("euclid", 2), [[0.0, 1.0], [float("nan"), 0.0]]),
    (("euclid", 1), [[float("inf")]]),
    (("param", 1), [[0.5, -float("inf")]]),
    (("euclid", 2), [[0.0, 1.0, 2.0]]),
    (("param", 2), [[0.0, 1.0]]),
    (("euclid", 4), [[0.0, 1.0, 2.0, 3.0]]),
    (("line",), [[1.0, 0.5], [2.0 * math.pi, 0.5]]),
    (("line",), [[-0.1, 0.5]]),
    (("line",), [[1.0, -1e-300]]),
])
def test_from_array_rejects_bad_rows(tag, rows):
    with pytest.raises(DomainError):
        PointPattern.from_array(tag, rows)


def test_from_array_messages_match_the_point_constructors():
    for build, tag, row in [(lambda: euclid(0.0, float("nan")), ("euclid", 2), [0.0, float("nan")]),
                            (lambda: line(7.0, 1.0), ("line",), [7.0, 1.0]),
                            (lambda: line(1.0, -2.0), ("line",), [1.0, -2.0])]:
        with pytest.raises(DomainError) as point_error:
            build()
        with pytest.raises(DomainError) as array_error:
            PointPattern.from_array(tag, [row])
        assert str(point_error.value) == str(array_error.value)


# -- the indicator and its difference calculus --------------------------------


def test_indicator_worked_examples():
    gen = ConvexHullGen(2)
    tri = PointPattern.from_points([euclid(0, 0), euclid(2, 0), euclid(0, 2)])
    assert h_indicator(gen, tri, euclid(0.5, 0.5)) == 0
    assert h_indicator(gen, PointPattern.empty(), euclid(3, 3)) == 1
    cm = CoordMinGen()
    assert h_indicator(cm, PointPattern.from_points([euclid(0.3, 0.3)]), euclid(0.5, 0.5)) == 0


def test_first_difference_examples():
    gen = ConvexHullGen(2)
    assert first_difference_h(gen, PointPattern.empty(), euclid(1, 1), euclid(1, 1)) == 0
    seg = PointPattern.from_points([euclid(0, 0), euclid(2, 0)])
    assert first_difference_h(gen, seg, euclid(1, 1), euclid(1, 0)) == 0
    one = PointPattern.from_points([euclid(0, 0)])
    assert first_difference_h(gen, one, euclid(4, 0), euclid(2, 0)) == -1


def test_higher_difference_examples():
    gen = ConvexHullGen(2)
    empty = PointPattern.empty()
    assert higher_difference_h(gen, empty, [euclid(0, 0), euclid(2, 0)], euclid(1, 0)) == -1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_difference_recursion_matches_closed_form(seed, m):
    rng = random.Random(seed)
    gen = ConvexHullGen(2)
    mu = PointPattern.from_points(
        [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(0, 5))]
    )
    xs = [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(m)]
    z = euclid(rng.uniform(0, 1), rng.uniform(0, 1))
    assert higher_difference_h(gen, mu, xs, z) == higher_difference_closed_form(gen, mu, xs, z)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_first_difference_range_and_absorption(seed):
    rng = random.Random(seed)
    gen = ParetoGen(2)
    mu = PointPattern.from_points(
        [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(0, 6))]
    )
    x = euclid(rng.uniform(0, 1), rng.uniform(0, 1))
    z = euclid(rng.uniform(0, 1), rng.uniform(0, 1))
    d = first_difference_h(gen, mu, x, z)
    assert d in (-1, 0)
    if h_indicator(gen, mu, z) == 0:
        assert d == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_cyclic_products_vanish(seed):
    rng = random.Random(seed)
    gen = ConvexHullGen(2)
    mu = PointPattern.from_points(
        [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(0, 5))]
    )
    pts = [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
    z1, z2, z3 = pts
    assert first_difference_h(gen, mu, z1, z2) * first_difference_h(gen, mu, z2, z1) == 0
    prod = (
        first_difference_h(gen, mu, z1, z2)
        * first_difference_h(gen, mu, z2, z3)
        * first_difference_h(gen, mu, z3, z1)
    )
    assert prod == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_minus_point_identity(seed):
    rng = random.Random(seed)
    gen = CoordMinGen()
    pts = [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.4:
        pts.append(pts[0])
    mu = PointPattern.from_points(pts)
    for p, _ in mu.entries:
        assert h_indicator(gen, mu.remove(p), p) == h_indicator(gen, mu, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_hull_monotone_in_pattern(seed):
    rng = random.Random(seed)
    gen = ConvexHullGen(2)
    pts = [euclid(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(0, 6))]
    mu = PointPattern.from_points(pts)
    bigger = mu.add(euclid(rng.uniform(0, 1), rng.uniform(0, 1)))
    x = euclid(rng.uniform(0, 1), rng.uniform(0, 1))
    if gen.hull_contains(mu, x) and x not in bigger:
        assert gen.hull_contains(bigger, x)


# -- axiom machinery ----------------------------------------------------------


def test_check_axioms_passes_on_valid_generator(planar_corpus):
    patterns, probes = planar_corpus
    report = check_axioms(ConvexHullGen(2), patterns[:40], probes, seed=1)
    assert report.all_passed, report.failures()
    assert sum(c.passed for c in report.checks.values()) > 0


def test_check_axioms_flags_broken_generator(planar_corpus):
    patterns, probes = planar_corpus
    report = check_axioms(LexDropGen(), patterns[:20], probes, seed=1)
    assert not report.all_passed
    assert report.checks["H3a"].failed > 0 or report.checks["H3"].failed > 0
    assert len(report.counterexamples) == 20
    assert [(name, detail) for name, _, detail in report.counterexamples[:7]] == [
        ("H3a", ""), ("H3", "psi mass 0"), ("H4", ""), ("H4", ""),
        ("minus_point", "x=EuclidPoint(coords=(0.048520987208713895, 0.5035203562268835))"),
        ("H3a", ""), ("H3", "psi mass 0"),
    ]


def test_axiom_report_formats_only_kept_details():
    formatted = []

    class Probe:
        def __format__(self, spec):
            formatted.append(spec)
            return "probe"

    report, mu = AxiomReport(), PointPattern.from_points([euclid(0, 0)])
    report.record("pass", True, mu, "x={} y={}", Probe(), Probe())
    assert formatted == [] and report.counterexamples == []
    report.record("fail", False, mu, "x={} y={}", Probe(), 2)
    assert report.counterexamples == [("fail", mu, "x=probe y=2")] and formatted == [""]
    for _ in range(30):
        report.record("fail", False, mu, "x={}", Probe())
    assert len(report.counterexamples) == 20 and len(formatted) == 20
    assert report.checks["fail"].failed == 31 and report.checks["pass"].passed == 1


def test_prime_factorization_probe():
    gen = EnvelopeGen(dim=1, env_const=2.0, beta=1.0)
    mu = PointPattern.from_points([param(0.0, 1.0), param(0.6, 0.8)])
    for z in [param(0.1, 0.5), param(0.5, 0.9), param(0.3, -0.2)]:
        assert prime_factorization_holds(gen, mu, z)


def test_convex_hull_is_not_prime():
    # three spread points absorb an interior probe jointly but not singly
    gen = ConvexHullGen(2)
    mu = PointPattern.from_points([euclid(0, 0), euclid(2, 0), euclid(1, 2)])
    z = euclid(1.0, 0.5)
    assert not prime_factorization_holds(gen, mu, z)
