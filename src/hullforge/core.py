"""Counting measures, the hull-generator contract, the H indicator and the axiom battery.

A pattern holds one coordinate row per distinct atom, in lexicographic
order, with its multiplicity; kernels read the rows or their array, and
point objects are views built on demand by ``point_from_row``.  Its store
is either the array ``coords`` or the tuples ``rows``, and the other is
built on first use.  Sampled patterns are built array-first by
``PointPattern.from_array``: the rows are sorted and merged as an array,
which is the store, and the estimate path reads only that array.
``from_points`` sorts and merges point rows through ``_canonical``.  The
measure algebra keeps the canonical order of its operands' row tuples, so
nothing is re-sorted: ``with_mults`` filters them, ``add`` and ``remove``
bisect one row in or out, and ``+`` and ``-`` merge two patterns' rows
(``_merged``).  Every pattern they build stores ``rows``.

Queries have one form inside the library too: an (m, k) array of checked
rows.  Point objects belong to the public edge: the point adapters
``hull_contains`` and ``hull_contains_many``, the measure algebra,
``h_indicator`` and ``check_axioms`` take them, and turn them into rows
before any kernel runs.

A generator is a thinning map ``mu -> boundary(mu)`` on finite counting
measures satisfying four axioms:

  (H1) thinning:     boundary(mu) <= mu
  (H2) additivity:   x in boundary(mu)  =>  boundary(mu + d_x) = boundary(mu) + d_x
  (H3) idempotency:  psi <= mu - boundary(mu)  =>  boundary(boundary(mu) + psi) = boundary(mu)
  (H4) consistency:  mu' <= mu, boundary(mu') = boundary(mu)
                     =>  boundary(mu + psi) = boundary(mu' + psi) for all psi

The induced hull of ``mu`` is the set of points whose addition leaves the
boundary unchanged; ``h_indicator`` is 1 exactly off the hull.  All objects
here are immutable value types, so every operation returns fresh instances
and everything is safe to share across threads.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

# Relative tolerance for geometric predicates (point-on-segment, point-in-hull,
# collinearity).  Point *equality* is always exact; the tolerance only widens
# region predicates so that near-boundary probes behave deterministically.
EPS_GEOM = 1e-9

#: entries of a generator kernel's largest array (floats or bools), or steps of its
#: longest Python loop, at a pattern of ``HullGenerator.point_limit`` expected points
KERNEL_BUDGET = 2**24


class SpaceMismatchError(ValueError):
    """Operands live in different ground spaces."""


class DomainError(ValueError):
    """Arguments violate an operation's precondition."""


class ConfigurationError(ValueError):
    """Unsupported pairing or unresolvable experiment configuration."""


def _row_width(space_tag: tuple) -> int:
    """The row width of a ground space, after checking its dimension is 1..3."""
    kind = space_tag[0]
    if kind == "line":
        return 2
    if not 1 <= space_tag[1] <= 3:
        name = "euclidean points" if kind == "euclid" else "param sites"
        raise DomainError(f"{name} support dimension 1..3, got {space_tag[1]}")
    return space_tag[1] + (kind == "param")


def checked_array(space_tag: tuple, coords) -> np.ndarray:
    """An (n, k) coordinate array as float, after the validity check of the ground spaces.

    The rules: dimension 1..3, a row width that fits the space, finite
    values, and for lines an angle in [0, 2*pi) and an offset >= 0.
    ``checked_row`` applies the same rules, with the same messages, to one row.
    """
    width = _row_width(space_tag)
    arr = np.asarray(coords, dtype=float)
    if arr.shape == (0,):  # an empty list of rows
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise DomainError(f"rows of space {space_tag} have width {width}, got shape {arr.shape}")
    checks = [(arr, np.isfinite(arr), "coordinates must be finite")]
    if space_tag[0] == "line":
        ang, off = arr[:, 0], arr[:, 1]
        checks += [(ang, (0.0 <= ang) & (ang < 2.0 * math.pi), "angle must lie in [0, 2*pi)"),
                   (off, off >= 0.0, "offset must be >= 0")]
    for values, ok, message in checks:
        if np.count_nonzero(ok) < ok.size:
            raise DomainError(f"{message}, got {values[~ok][0].item()!r}")
    return arr


def checked_row(space_tag: tuple, row) -> tuple[float, ...]:
    """One row as a tuple of floats, under the rules and messages of ``checked_array``.

    The point constructors' check: scalar arithmetic, no array round trip.
    The row width follows from ``space_tag``, which the points derive from
    the row itself.
    """
    _row_width(space_tag)
    row = tuple(map(float, row))
    for v in row:
        if not math.isfinite(v):
            raise DomainError(f"coordinates must be finite, got {v!r}")
    if space_tag[0] == "line":
        angle, offset = row
        if not 0.0 <= angle < 2.0 * math.pi:
            raise DomainError(f"angle must lie in [0, 2*pi), got {angle!r}")
        if not offset >= 0.0:
            raise DomainError(f"offset must be >= 0, got {offset!r}")
    return row


@dataclass(frozen=True)
class EuclidPoint:
    """Point of R^d, d <= 3; its row is its coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", checked_row(self.space_tag, self.coords))

    @property
    def space_tag(self) -> tuple:
        return ("euclid", len(self.coords))

    @property
    def row(self) -> tuple[float, ...]:
        return self.coords


@dataclass(frozen=True)
class ParamPoint:
    """Atom (s, u) of a parametric function family: site s in R^d, level u.

    Its row is the site followed by the level.
    """

    site: tuple[float, ...]
    level: float

    def __post_init__(self) -> None:
        *site, level = checked_row(self.space_tag, (*self.site, self.level))
        object.__setattr__(self, "site", tuple(site))
        object.__setattr__(self, "level", level)

    @property
    def space_tag(self) -> tuple:
        return ("param", len(self.site))

    @property
    def row(self) -> tuple[float, ...]:
        return self.site + (self.level,)


@dataclass(frozen=True)
class LinePoint:
    """Planar line with unit normal angle theta in [0, 2*pi) and offset >= 0.

    Its row is (angle, offset).  The line {x: <x, (cos, sin)> = offset}
    bounds the half-plane {x: <x, (cos, sin)> <= offset}.
    """

    angle: float
    offset: float

    def __post_init__(self) -> None:
        angle, offset = checked_row(self.space_tag, (self.angle, self.offset))
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "offset", offset)

    @property
    def space_tag(self) -> tuple:
        return ("line",)

    @property
    def row(self) -> tuple[float, float]:
        return (self.angle, self.offset)


SpacePoint = Union[EuclidPoint, ParamPoint, LinePoint]


def euclid(*coords: float) -> EuclidPoint:
    return EuclidPoint(tuple(coords))


def param(site, level: float) -> ParamPoint:
    if isinstance(site, (int, float)):
        site = (site,)
    return ParamPoint(tuple(site), level)


def line(angle: float, offset: float) -> LinePoint:
    return LinePoint(angle, offset)


#: space kind -> (point type, its fields from a row)
_VIEWS = {
    "euclid": (EuclidPoint, lambda r: {"coords": r}),
    "param": (ParamPoint, lambda r: {"site": r[:-1], "level": r[-1]}),
    "line": (LinePoint, lambda r: {"angle": r[0], "offset": r[1]}),
}


def point_from_row(space_tag: tuple, row: tuple[float, ...]) -> SpacePoint:
    """The point object of a checked row: equal to the constructed point, without the check."""
    cls, fields = _VIEWS[space_tag[0]]
    p = object.__new__(cls)
    p.__dict__.update(fields(row))
    return p


class PointPattern:
    """Finite counting measure stored as coordinate rows with multiplicities.

    ``rows`` holds one tuple of floats per distinct atom in lexicographic
    order and ``mults`` one positive int per row, so two patterns are equal
    iff they define the same multiset.  ``coords`` is the rows as a read-only
    (n, k) array for the kernels.  A pattern stores one of the two, ``coords``
    if ``from_array`` built it and ``rows`` otherwise, and builds the other on
    first use.  ``space_tag`` is None only for the empty pattern.  Point
    objects are views: ``support()`` and ``entries`` build them lazily, once
    per pattern.  Patterns are immutable.  The measure algebra reads and
    builds ``rows`` in their canonical order; where two operands hold rows
    equal up to the sign of a zero, the result keeps the left operand's row.
    """

    mults: tuple[int, ...]
    space_tag: tuple | None

    def __init__(self, rows: tuple, mults: tuple[int, ...], space_tag: tuple | None) -> None:
        vars(self).update(rows=rows, mults=mults, space_tag=space_tag)

    def __setattr__(self, name, value):
        raise AttributeError(f"PointPattern is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not PointPattern:
            return NotImplemented
        return (self.rows, self.mults, self.space_tag) == (other.rows, other.mults, other.space_tag)

    def __hash__(self):
        return hash((self.rows, self.mults, self.space_tag))

    def __repr__(self):
        return f"PointPattern(rows={self.rows!r}, mults={self.mults!r}, space_tag={self.space_tag!r})"

    @staticmethod
    def empty() -> "PointPattern":
        return _EMPTY

    @staticmethod
    def from_points(points: Iterable[SpacePoint]) -> "PointPattern":
        points = list(points)
        tag = points[0].space_tag if points else None
        for p in points:
            if p.space_tag != tag:
                raise SpaceMismatchError(f"mixed ground spaces {tag} vs {p.space_tag}")
        return _canonical(tag, Counter(p.row for p in points))

    @staticmethod
    def from_array(space_tag: tuple, coords) -> "PointPattern":
        """The pattern of the rows of an (n, k) array; see ``checked_array``.

        The rows are ordered by one stable ``lexsort`` and equal neighbours
        merge.  Both compare 0.0 and -0.0 as equal and keep the first
        occurrence, as ``_canonical``'s row keys do, so the result equals
        ``from_points`` of the same rows, signs of zero included.  Where the
        first coordinates are distinct, a stable sort of them gives the same
        order and no rows merge.  The sorted array is the pattern's store.
        """
        arr = checked_array(space_tag, coords)
        n = len(arr)
        if n == 0:
            return _EMPTY
        srt = arr.take(np.argsort(arr[:, 0], kind="stable"), axis=0)
        lead = srt[:, 0]
        if np.count_nonzero(lead[1:] == lead[:-1]) == 0:
            # distinct first coordinates, as sampled rows have: they alone give lexsort's order
            arr, mults = srt, (1,) * n
        else:
            arr = arr.take(np.lexsort(arr.T[::-1]), axis=0)
            new = (arr[1:] != arr[:-1]).any(axis=1)  # row i + 1 differs from row i
            starts = np.flatnonzero(np.concatenate(([True], new)))
            mults = tuple(np.diff(starts, append=n).tolist())
            arr = arr[starts]
        arr.flags.writeable = False
        mu = object.__new__(PointPattern)
        vars(mu).update(coords=arr, mults=mults, space_tag=space_tag)
        return mu

    # -- views --------------------------------------------------------------

    @cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.coords.tolist()))

    @cached_property
    def coords(self) -> np.ndarray:
        width = len(self.rows[0]) if self.rows else 0
        arr = np.array(self.rows, dtype=float).reshape(len(self.rows), width)
        arr.flags.writeable = False
        return arr

    @cached_property
    def entries(self) -> tuple[tuple[SpacePoint, int], ...]:
        tag = self.space_tag
        return tuple((point_from_row(tag, r), m) for r, m in zip(self.rows, self.mults))

    def support(self) -> tuple[SpacePoint, ...]:
        return tuple(p for p, _ in self.entries)

    # -- basic queries ------------------------------------------------------

    @property
    def total_mass(self) -> int:
        return sum(self.mults)

    @property
    def is_empty(self) -> bool:
        return not self.mults

    def multiplicity(self, point: SpacePoint) -> int:
        if point.space_tag != self.space_tag:
            return 0
        row = point.row
        i = bisect_left(self.rows, row)
        return self.mults[i] if i < len(self.rows) and self.rows[i] == row else 0

    def __contains__(self, point: SpacePoint) -> bool:
        return self.multiplicity(point) > 0

    def check_space(self, point: SpacePoint) -> None:
        if self.space_tag is not None and point.space_tag != self.space_tag:
            raise SpaceMismatchError(
                f"point space {point.space_tag} does not match pattern space {self.space_tag}"
            )

    # -- measure algebra ----------------------------------------------------

    def with_mults(self, mults: Iterable[int]) -> "PointPattern":
        """The same atoms with new multiplicities, one per row; atoms given 0 drop out.

        The kept rows stay in order.  Rows past the end of a short ``mults``
        drop out too, as ``zip`` leaves them.
        """
        kept = [(r, m) for r, m in zip(self.rows, mults) if m > 0]
        return PointPattern(*zip(*kept), self.space_tag) if kept else _EMPTY

    def _bumped(self, point: SpacePoint, delta: int) -> "PointPattern":
        """This pattern with ``delta`` added to the count of ``point``'s row.

        The row is bisected in, or out where its count ends at 0 or below.  A
        stored row equal to it up to the sign of a zero keeps its form.
        """
        rows, mults, row = self.rows, self.mults, point.row
        i = j = bisect_left(rows, row)
        if i < len(rows) and rows[i] == row:
            row, delta, j = rows[i], mults[i] + delta, i + 1
        keep = delta > 0
        return _pattern(point.space_tag, rows[:i] + (row,) * keep + rows[j:],
                        mults[:i] + (delta,) * keep + mults[j:])

    def add(self, point: SpacePoint, count: int = 1) -> "PointPattern":
        self.check_space(point)
        _check_count(count)
        return self._bumped(point, count)

    def remove(self, point: SpacePoint, count: int = 1) -> "PointPattern":
        self.check_space(point)
        _check_count(count)
        if self.multiplicity(point) < count:
            raise DomainError("cannot remove more mass than present")
        return self._bumped(point, -count)

    def _check_other(self, other: "PointPattern") -> None:
        if other.space_tag != self.space_tag:
            raise SpaceMismatchError(f"mixed ground spaces {self.space_tag} vs {other.space_tag}")

    def __add__(self, other: "PointPattern") -> "PointPattern":
        if self.is_empty or other.is_empty:
            return other if self.is_empty else self
        self._check_other(other)
        rows, mults, _ = _merged(self.rows, self.mults, other.rows, other.mults)
        return _pattern(self.space_tag, rows, mults)

    def __sub__(self, other: "PointPattern") -> "PointPattern":
        if other.is_empty:
            return self
        if not self.is_empty:
            self._check_other(other)
        rows, mults, signed = _merged(self.rows, self.mults, other.rows, [-m for m in other.mults])
        if signed:
            raise DomainError("subtraction would give a signed measure")
        return _pattern(self.space_tag, rows, mults)

    def __le__(self, other: "PointPattern") -> bool:
        if self.is_empty or other.space_tag != self.space_tag:
            return self.is_empty
        have = dict(zip(other.rows, other.mults))
        return all(have.get(r, 0) >= m for r, m in zip(self.rows, self.mults))


_EMPTY = PointPattern((), (), None)


def _canonical(space_tag: tuple | None, counts: dict) -> PointPattern:
    """The pattern of a row -> count map: rows sorted, non-positive counts dropped.

    ``from_points`` ends here.  Rows that compare equal (0.0 and -0.0) are
    one key of ``counts``, so they merge into the first one.
    """
    rows = sorted(r for r, m in counts.items() if m > 0)
    if not rows:
        return _EMPTY
    return PointPattern(tuple(rows), tuple(counts[r] for r in rows), space_tag)


def _merged(rows: tuple, mults: tuple, more: tuple, deltas: Sequence[int]):
    """(rows, counts, signed): ``rows`` with ``deltas[j]`` added to the count of ``more[j]``.

    ``rows`` and ``more`` are sorted and distinct, so one merge pass of both
    gives the result in order, without a sort.  A row of ``more`` equal to
    one of ``rows`` up to the sign of a zero adds to it, and the row of
    ``rows`` is kept, as ``_canonical``'s first key is.  Rows whose count
    ends at 0 or below drop out; ``signed`` says whether one ended below 0.
    """
    out, counts, signed, i, n = [], [], False, 0, len(rows)
    for r, d in zip(more, deltas):
        while i < n and rows[i] < r:
            out.append(rows[i])
            counts.append(mults[i])
            i += 1
        if i < n and rows[i] == r:
            r, d = rows[i], mults[i] + d
            i += 1
        if d > 0:
            out.append(r)
            counts.append(d)
        signed = signed or d < 0
    out += rows[i:]
    counts += mults[i:]
    return out, counts, signed


def _pattern(space_tag: tuple | None, rows, mults) -> PointPattern:
    """The pattern of sorted, distinct rows and their positive counts."""
    return PointPattern(tuple(rows), tuple(mults), space_tag) if rows else _EMPTY


def _check_count(count: int) -> None:
    """Refuse a count of copies below 1, which would turn ``add`` into a removal."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")


class HullGenerator(ABC):
    """Contract every concrete hull implementation fulfils.

    Two primitives, each one geometry pass per call: ``boundary_mask``, a
    bool per support atom saying whether it is a boundary atom, and
    ``contains_mask``, a bool per row of an (m, k) query array saying whether
    it lies in the hull.  Both read coordinate arrays or rows, never point
    objects.  ``boundary`` is derived from the first and must be a valid
    generator (H1)-(H4); ``hull_contains`` and ``hull_contains_many`` are the
    point adapters of the public edge: they check their arguments, stack the
    points' rows into one array and read the second, which must agree with
    the definitional form ``boundary(mu + d_x) == boundary(mu)``.  The
    per-pattern call of the estimators is ``generators.evaluate``, which reads
    the mask and the hull mass from one geometry pass and returns that pass's
    ``integrate``; ``estimators`` turns an integrand into its hull term.

    Leave-one-out contract: ``survival_mask`` gives the indicators
    H_z(mu - d_z) that the error representation sums.  Both per-atom
    primitives, ``boundary_mask`` and ``leave_one_out_mask``, take only a
    non-empty pattern already checked against the generator's space;
    ``boundary`` and ``survival_mask`` check it and answer the empty one.
    ``leave_one_out_mask`` defaults to the definitional loop over
    ``hull_contains``, and an override must equal it.  Planar convex hulls,
    coordmin, Pareto (a domination matrix), half-planes and the disk hull
    override it with kernels that never call ``boundary_mask``, so their
    error identity compares two independent computations; ``EnvelopeGen``
    returns its boundary mask, so its identity compares that mask with
    itself; 3-D convex hulls and ``corpora.LexDropGen`` keep the loop.

    ``point_limit`` is the most expected points per pattern a class takes:
    where its largest kernel array, or Python loop, reaches ``KERNEL_BUDGET``
    entries or steps.  Implementations are stateless and safe to share.
    """

    #: ground-space tag all arguments must carry
    space_tag: tuple
    #: the definitional leave-one-out loop rebuilds an n-row pattern per atom
    point_limit = math.isqrt(KERNEL_BUDGET)

    def check_pattern(self, mu: PointPattern) -> None:
        if mu.space_tag is not None and mu.space_tag != self.space_tag:
            raise SpaceMismatchError(
                f"pattern space {mu.space_tag} does not match generator space {self.space_tag}"
            )

    def check_point(self, x: SpacePoint) -> None:
        if x.space_tag != self.space_tag:
            raise SpaceMismatchError(
                f"point space {x.space_tag} does not match generator space {self.space_tag}"
            )

    @abstractmethod
    def boundary_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Per support atom, in ``mu.rows`` order: is it a boundary atom?

        ``mu`` is non-empty and checked (see the class docstring).
        """

    def boundary(self, mu: PointPattern) -> PointPattern:
        """The generator: the masked entries, full multiplicity and canonical order kept."""
        self.check_pattern(mu)
        if mu.is_empty:
            return mu
        return mu.with_mults(m if keep else 0 for m, keep in zip(mu.mults, self.boundary_mask(mu)))

    @abstractmethod
    def contains_mask(self, mu: PointPattern, queries: np.ndarray) -> list[bool]:
        """Per query row, in order: does adding it leave the boundary of ``mu`` unchanged?

        ``mu`` (possibly empty) is checked against this generator's space, and
        ``queries`` is an (m, k) float array of rows checked as
        ``checked_array`` does, in the same space.  An answer depends on
        ``mu`` and its own query alone, never on the rest of the batch.
        """

    def hull_contains(self, mu: PointPattern, x: SpacePoint) -> bool:
        """True iff adding x leaves the boundary unchanged."""
        self.check_pattern(mu)
        self.check_point(x)
        return self.contains_mask(mu, np.array((x.row,)))[0]

    def hull_contains_many(self, mu: PointPattern, points: Sequence[SpacePoint]) -> list[bool]:
        """``hull_contains`` of each query, from one geometry pass over ``mu``."""
        self.check_pattern(mu)
        for x in points:
            self.check_point(x)
        if not points:
            return []
        return self.contains_mask(mu, np.array([x.row for x in points]))

    def hull_contains_definitional(self, mu: PointPattern, x: SpacePoint) -> bool:
        """Membership computed straight from the definition (slow, for checks)."""
        return self.boundary(mu.add(x)) == self.boundary(mu)

    def survival_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """H_z(mu - d_z) == 1 per support atom z, in ``mu.rows`` order.

        One copy of z is removed, so an atom of multiplicity m >= 2 is tested
        against a pattern that still holds m - 1 copies of it.
        """
        self.check_pattern(mu)
        if mu.is_empty:
            return ()
        return self.leave_one_out_mask(mu)

    def leave_one_out_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """``survival_mask`` of a non-empty checked pattern: a rebuild and a query per atom."""
        return tuple(not self.hull_contains(mu.remove(p), p) for p in mu.support())


def h_indicator(gen: HullGenerator, mu: PointPattern, x: SpacePoint) -> int:
    """1 if adding x changes the boundary of mu, else 0."""
    return 0 if gen.hull_contains(mu, x) else 1


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class CheckCounter:
    passed: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1


@dataclass
class AxiomReport:
    """Pass/fail counters per axiom plus a bounded list of counterexamples."""

    checks: dict[str, CheckCounter] = field(default_factory=dict)
    counterexamples: list[tuple[str, PointPattern, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, mu: PointPattern, detail: str = "", *args) -> None:
        """Count one check; keep a failed one as a counterexample while there is room.

        ``detail`` is a ``str.format`` template of ``args``.  It is formatted
        only when the check is kept, so a check that passes, or one failing
        after ``MAX_COUNTEREXAMPLES`` are kept, formats nothing.
        """
        self.checks.setdefault(name, CheckCounter()).record(ok)
        if not ok and len(self.counterexamples) < MAX_COUNTEREXAMPLES:
            self.counterexamples.append((name, mu, detail.format(*args)))

    @property
    def all_passed(self) -> bool:
        return all(c.failed == 0 for c in self.checks.values())

    def merge(self, other: "AxiomReport") -> "AxiomReport":
        for name, counter in other.checks.items():
            mine = self.checks.setdefault(name, CheckCounter())
            mine.passed += counter.passed
            mine.failed += counter.failed
        room = MAX_COUNTEREXAMPLES - len(self.counterexamples)
        if room > 0:
            self.counterexamples.extend(other.counterexamples[:room])
        return self

    def failures(self) -> dict[str, int]:
        return {k: c.failed for k, c in self.checks.items() if c.failed}

    def summary_rows(self) -> list[tuple[str, int, int]]:
        return [(k, c.passed, c.failed) for k, c in sorted(self.checks.items())]


# Exhaustive sub-pattern enumeration is exponential in the total mass, so the
# checker enumerates only up to this mass and samples above it.
EXHAUSTIVE_MASS_CAP = 6
#: the most counterexamples an ``AxiomReport`` keeps
MAX_COUNTEREXAMPLES = 20
SAMPLED_SUBSETS = 64


def _sub_patterns_exhaustive(mu: PointPattern) -> list[PointPattern]:
    subs = [PointPattern.empty()]
    for p, m in mu.entries:
        subs = [s.add(p, k) if k else s for s in subs for k in range(m + 1)]
    return subs


def _sub_pattern_random(mu: PointPattern, rng: random.Random) -> PointPattern:
    return mu.with_mults([rng.randint(0, m) for m in mu.mults])


def _random_psi(probes: Sequence[SpacePoint], rng: random.Random) -> PointPattern:
    if not probes:
        return PointPattern.empty()
    size = rng.randint(0, 3)
    pts = [probes[rng.randrange(len(probes))] for _ in range(size)]
    if pts and rng.random() < 0.25:
        pts.append(pts[0])  # exercise multiplicities
    return PointPattern.from_points(pts)


def check_axioms(
    gen: HullGenerator,
    patterns: Sequence[PointPattern],
    probes: Sequence[SpacePoint],
    seed: int = 0,
) -> AxiomReport:
    """Run the full axiom battery over a corpus of patterns and probe points.

    Checks (H1), (H2), (H3)/(H3a)/(H3b), (H4), the remove-one-point identity,
    the symmetric two-point identity, the cyclic identity for 2- and 3-tuples,
    and the structural facts tying boundary and hull together
    (``hull(mu) == hull(boundary(mu))``, ``boundary == mu off the hull``, and
    the definitional membership criterion).  Failures are recorded, never
    raised.
    """
    rng = random.Random(seed)
    report = AxiomReport()
    probes = list(probes)

    for mu in patterns:
        gen.check_pattern(mu)
        bd = gen.boundary(mu)

        # (H1) thinning, with multiplicities preserved on retained points
        ok = bd <= mu and all(mu.multiplicity(p) == m for p, m in bd.entries)
        report.record("H1", ok, mu)

        # (H2) additivity on boundary points
        for p, _ in bd.entries:
            ok = gen.boundary(mu.add(p)) == bd.add(p)
            report.record("H2", ok, mu, "x={}", p)

        # (H3a) idempotency of the boundary
        report.record("H3a", gen.boundary(bd) == bd, mu)

        # (H3) boundary(boundary(mu) + psi) == boundary(mu) for psi <= mu - bd
        rest = mu - bd
        if rest.total_mass <= EXHAUSTIVE_MASS_CAP:
            subs = _sub_patterns_exhaustive(rest)
        else:
            subs = [_sub_pattern_random(rest, rng) for _ in range(SAMPLED_SUBSETS)]
        for psi in subs:
            report.record("H3", gen.boundary(bd + psi) == bd, mu, "psi mass {.total_mass}", psi)

        # candidates mu' <= mu with boundary(mu') == boundary(mu)
        candidates = [bd, mu]
        for _ in range(4):
            cand = bd + _sub_pattern_random(rest, rng)
            if gen.boundary(cand) == bd:
                candidates.append(cand)

        # (H3b) boundary(mu' + mu'') == boundary(mu) for mu'' <= mu - mu'
        for cand in candidates[:3]:
            extra = mu - cand
            psi2 = _sub_pattern_random(extra, rng)
            report.record("H3b", gen.boundary(cand + psi2) == bd, mu)

        # (H4) consistency under common additions
        for _ in range(min(SAMPLED_SUBSETS, 8)):
            cand = candidates[rng.randrange(len(candidates))]
            psi = _random_psi(probes, rng)
            report.record("H4", gen.boundary(mu + psi) == gen.boundary(cand + psi), mu)

        # one batch: h(mu, q) for a few probes, then h(mu, x) for each atom x
        probe_slice = [probes[rng.randrange(len(probes))] for _ in range(min(4, len(probes)))]
        in_mu = gen.hull_contains_many(mu, probe_slice + list(mu.support()))
        at_atoms = in_mu[len(probe_slice):]

        # remove-one-point identity: H_x(mu - d_x) == H_x(mu) for x in mu
        for (p, _), inside in zip(mu.entries, at_atoms):
            ok = gen.hull_contains(mu.remove(p), p) == inside
            report.record("minus_point", ok, mu, "x={}", p)

        # structural facts: hull(mu) == hull(boundary(mu)); boundary is the
        # restriction of mu to the hull complement; definitional membership
        in_bd = gen.hull_contains_many(bd, probe_slice)
        for q, inside, inside_bd in zip(probe_slice, in_mu, in_bd):
            report.record("hull_of_boundary", inside == inside_bd, mu, "q={}", q)
            ok = inside == (gen.boundary(mu.add(q)) == bd)
            report.record("membership_definition", ok, mu, "q={}", q)
        for (p, m), inside in zip(mu.entries, at_atoms):
            expect = 0 if inside else m
            report.record("boundary_restriction", bd.multiplicity(p) == expect, mu, "x={}", p)

        # two-point identity and cyclic products over probe tuples
        for _ in range(4):
            if len(probes) < 2:
                break
            x, y = rng.sample(probes, 2)
            # the four indicators, each asked once; D_x H_y = h(mu + x, y) - h(mu, y)
            hx, hy = h_indicator(gen, mu, x), h_indicator(gen, mu, y)
            hxy, hyx = h_indicator(gen, mu.add(x), y), h_indicator(gen, mu.add(y), x)
            ok = (1 - hxy) * (1 - hyx) == (1 - hx) * (1 - hy)
            report.record("two_point_identity", ok, mu, "x={} y={}", x, y)
            report.record("cyclic_2", (hxy - hy) * (hyx - hx) == 0, mu)
        # cyclic identity for 3-tuples, with h(mu, z) of every probe asked in one batch
        triples = [rng.sample(probes, 3) for _ in range(4)] if len(probes) >= 3 else []
        h_mu = gen.hull_contains_many(mu, [z for zs in triples for z in zs])
        for k, zs in enumerate(triples):
            inside = h_mu[3 * k:3 * k + 3]
            prod = 1
            for i in range(3):  # D_{z_i} H_{z_j} = h(mu + z_i, z_j) - h(mu, z_j), j = i + 1 mod 3
                j = (i + 1) % 3
                prod *= h_indicator(gen, mu.add(zs[i]), zs[j]) - (not inside[j])
            report.record("cyclic_3", prod == 0, mu)

    return report

