"""Counting measures, the hull-generator contract, and difference-operator calculus.

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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

# Relative tolerance for geometric predicates (point-on-segment, point-in-hull,
# collinearity).  Point *equality* is always exact; the tolerance only widens
# region predicates so that near-boundary probes behave deterministically.
EPS_GEOM = 1e-9


class SpaceMismatchError(ValueError):
    """Operands live in different ground spaces."""


class DomainError(ValueError):
    """Arguments violate an operation's precondition."""


class ConfigurationError(ValueError):
    """Unsupported pairing or unresolvable experiment configuration."""


def _check_finite(values: Iterable[float]) -> None:
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"coordinates must be finite, got {v!r}")


@dataclass(frozen=True)
class EuclidPoint:
    """Point of R^d, d <= 3."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        if not 1 <= len(coords) <= 3:
            raise DomainError(f"euclidean points support dimension 1..3, got {len(coords)}")
        _check_finite(coords)
        object.__setattr__(self, "coords", coords)

    @property
    def space_tag(self) -> tuple:
        return ("euclid", len(self.coords))

    def _sort_key(self) -> tuple:
        return (0, self.coords)


@dataclass(frozen=True)
class ParamPoint:
    """Atom (s, u) of a parametric function family: site s in R^d, level u."""

    site: tuple[float, ...]
    level: float

    def __post_init__(self) -> None:
        site = tuple(float(c) for c in self.site)
        if not 1 <= len(site) <= 3:
            raise DomainError(f"param sites support dimension 1..3, got {len(site)}")
        _check_finite(site)
        _check_finite((self.level,))
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "level", float(self.level))

    @property
    def space_tag(self) -> tuple:
        return ("param", len(self.site))

    def _sort_key(self) -> tuple:
        return (1, self.site, self.level)


@dataclass(frozen=True)
class LinePoint:
    """Planar line with unit normal angle theta in [0, 2*pi) and offset >= 0.

    Also reused as the (direction, radius) parameterisation of planar points
    that anchor a disk-supported hull.
    """

    angle: float
    offset: float

    def __post_init__(self) -> None:
        _check_finite((self.angle, self.offset))
        if not 0.0 <= self.angle < 2.0 * math.pi:
            raise DomainError(f"angle must lie in [0, 2*pi), got {self.angle!r}")
        if self.offset < 0.0:
            raise DomainError(f"offset must be >= 0, got {self.offset!r}")
        object.__setattr__(self, "angle", float(self.angle))
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def space_tag(self) -> tuple:
        return ("line",)

    def _sort_key(self) -> tuple:
        return (2, self.angle, self.offset)


SpacePoint = Union[EuclidPoint, ParamPoint, LinePoint]


def euclid(*coords: float) -> EuclidPoint:
    return EuclidPoint(tuple(coords))


def param(site, level: float) -> ParamPoint:
    if isinstance(site, (int, float)):
        site = (site,)
    return ParamPoint(tuple(site), level)


def line(angle: float, offset: float) -> LinePoint:
    return LinePoint(angle, offset)


@dataclass(frozen=True)
class PointPattern:
    """Finite counting measure: distinct points with positive multiplicities.

    Entries are kept sorted by a canonical key, so two patterns are equal iff
    they define the same multiset.  ``space_tag`` is None only for the empty
    pattern.
    """

    entries: tuple[tuple[SpacePoint, int], ...]
    space_tag: tuple | None

    @staticmethod
    def empty() -> "PointPattern":
        return PointPattern((), None)

    @staticmethod
    def from_points(points: Iterable[SpacePoint]) -> "PointPattern":
        counts: dict[SpacePoint, int] = {}
        for p in points:
            counts[p] = counts.get(p, 0) + 1
        return PointPattern.from_counts(counts)

    @staticmethod
    def from_counts(counts: dict[SpacePoint, int]) -> "PointPattern":
        entries = tuple(
            (p, int(m))
            for p, m in sorted(counts.items(), key=lambda e: e[0]._sort_key())
            if m > 0
        )
        if not entries:
            return PointPattern.empty()
        tag = entries[0][0].space_tag
        for p, m in entries:
            if p.space_tag != tag:
                raise SpaceMismatchError(f"mixed ground spaces {tag} vs {p.space_tag}")
            if m <= 0:
                raise DomainError("multiplicities must be positive")
        return PointPattern(entries, tag)

    # -- basic queries ------------------------------------------------------

    @property
    def total_mass(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def support(self) -> tuple[SpacePoint, ...]:
        return tuple(p for p, _ in self.entries)

    def multiplicity(self, point: SpacePoint) -> int:
        for p, m in self.entries:
            if p == point:
                return m
        return 0

    def __contains__(self, point: SpacePoint) -> bool:
        return self.multiplicity(point) > 0

    def __iter__(self):
        return iter(self.entries)

    def check_space(self, point: SpacePoint) -> None:
        if self.space_tag is not None and point.space_tag != self.space_tag:
            raise SpaceMismatchError(
                f"point space {point.space_tag} does not match pattern space {self.space_tag}"
            )

    # -- measure algebra ----------------------------------------------------

    def add(self, point: SpacePoint, count: int = 1) -> "PointPattern":
        self.check_space(point)
        counts = dict(self.entries)
        counts[point] = counts.get(point, 0) + count
        return PointPattern.from_counts(counts)

    def remove(self, point: SpacePoint, count: int = 1) -> "PointPattern":
        have = self.multiplicity(point)
        if have < count:
            raise DomainError("cannot remove more mass than present")
        counts = dict(self.entries)
        counts[point] = have - count
        return PointPattern.from_counts(counts)

    def remove_all(self, point: SpacePoint) -> "PointPattern":
        counts = {p: m for p, m in self.entries if p != point}
        return PointPattern.from_counts(counts)

    def __add__(self, other: "PointPattern") -> "PointPattern":
        counts = dict(self.entries)
        for p, m in other.entries:
            counts[p] = counts.get(p, 0) + m
        return PointPattern.from_counts(counts)

    def __sub__(self, other: "PointPattern") -> "PointPattern":
        counts = dict(self.entries)
        for p, m in other.entries:
            have = counts.get(p, 0)
            if have < m:
                raise DomainError("subtraction would give a signed measure")
            counts[p] = have - m
        return PointPattern.from_counts(counts)

    def __le__(self, other: "PointPattern") -> bool:
        return all(other.multiplicity(p) >= m for p, m in self.entries)

    def restrict(self, keep: Callable[[SpacePoint], bool]) -> "PointPattern":
        return PointPattern.from_counts({p: m for p, m in self.entries if keep(p)})


class HullGenerator(ABC):
    """Contract every concrete hull implementation fulfils.

    ``boundary`` must be a valid generator (H1)-(H4); ``hull_contains`` must
    agree with the definitional form ``boundary(mu + d_x) == boundary(mu)``.
    ``survival_mask`` gives the leave-one-out indicators H_z(mu - d_z) that
    the error representation sums; its default is the definitional loop over
    ``hull_contains``.  An override must equal that loop and must not call
    ``boundary`` or its kernels, so that the representation still
    cross-checks two independent computations (``EnvelopeGen``, which
    reuses its contribution mask, is the one exception).  Implementations
    are stateless and safe to share.
    """

    #: ground-space tag all arguments must carry
    space_tag: tuple

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
    def boundary(self, mu: PointPattern) -> PointPattern:
        """The generator: retained points keep their full multiplicity."""

    @abstractmethod
    def hull_contains(self, mu: PointPattern, x: SpacePoint) -> bool:
        """True iff adding x leaves the boundary unchanged."""

    def hull_contains_definitional(self, mu: PointPattern, x: SpacePoint) -> bool:
        """Membership computed straight from the definition (slow, for checks)."""
        return self.boundary(mu.add(x)) == self.boundary(mu)

    def hull_contains_many(self, mu: PointPattern, points: Sequence[SpacePoint]) -> list[bool]:
        """Batch membership; concrete generators override with vectorized kernels."""
        return [self.hull_contains(mu, p) for p in points]

    def survival_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """H_z(mu - d_z) == 1 per support atom z, in ``mu.entries`` order.

        One copy of z is removed, so an atom of multiplicity m >= 2 is tested
        against a pattern that still holds m - 1 copies of it.  The default is
        the definitional loop (a pattern rebuild and a membership query per
        atom); concrete generators override it with vectorized kernels.
        """
        return tuple(not self.hull_contains(mu.remove(p), p) for p, _ in mu.entries)


def h_indicator(gen: HullGenerator, mu: PointPattern, x: SpacePoint) -> int:
    """1 if adding x changes the boundary of mu, else 0."""
    gen.check_pattern(mu)
    gen.check_point(x)
    return 0 if gen.hull_contains(mu, x) else 1


def first_difference_h(
    gen: HullGenerator, mu: PointPattern, x: SpacePoint, z: SpacePoint
) -> int:
    """Change of the indicator at z under addition of x; always in {-1, 0}."""
    return h_indicator(gen, mu.add(x), z) - h_indicator(gen, mu, z)


def higher_difference_h(
    gen: HullGenerator, mu: PointPattern, xs: Sequence[SpacePoint], z: SpacePoint
) -> int:
    """Iterated add-one-point difference of the indicator at z.

    Evaluated by the recursive definition
    ``D^{m}_{x_1..x_m} G(mu) = D^{m-1} G(mu + d_{x_m}) - D^{m-1} G(mu)``.
    """
    if not xs:
        raise DomainError("higher_difference_h needs at least one added point")
    if len(xs) == 1:
        return first_difference_h(gen, mu, xs[0], z)
    head = list(xs[:-1])
    return higher_difference_h(gen, mu.add(xs[-1]), head, z) - higher_difference_h(
        gen, mu, head, z
    )


def higher_difference_closed_form(
    gen: HullGenerator, mu: PointPattern, xs: Sequence[SpacePoint], z: SpacePoint
) -> int:
    """Inclusion-exclusion form of the iterated difference (oracle for tests)."""
    if not xs:
        raise DomainError("closed form needs at least one added point")
    m = len(xs)
    h0 = h_indicator(gen, mu, z)
    if h0 == 0:
        return 0
    total = 0
    for mask in range(1, 1 << m):
        added = mu
        bits = 0
        for j in range(m):
            if mask >> j & 1:
                added = added.add(xs[j])
                bits += 1
        hbar = 1 - h_indicator(gen, added, z)
        total += (-1) ** (bits - 1) * hbar
    return (-1) ** m * h0 * total


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
    max_counterexamples: int = 20

    def record(self, name: str, ok: bool, mu: PointPattern, detail: str = "") -> None:
        self.checks.setdefault(name, CheckCounter()).record(ok)
        if not ok and len(self.counterexamples) < self.max_counterexamples:
            self.counterexamples.append((name, mu, detail))

    @property
    def all_passed(self) -> bool:
        return all(c.failed == 0 for c in self.checks.values())

    def merge(self, other: "AxiomReport") -> "AxiomReport":
        for name, counter in other.checks.items():
            mine = self.checks.setdefault(name, CheckCounter())
            mine.passed += counter.passed
            mine.failed += counter.failed
        room = self.max_counterexamples - len(self.counterexamples)
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
SAMPLED_SUBSETS = 64


def _sub_patterns_exhaustive(mu: PointPattern) -> list[PointPattern]:
    subs = [PointPattern.empty()]
    for p, m in mu.entries:
        subs = [s.add(p, k) if k else s for s in subs for k in range(m + 1)]
    return subs


def _sub_pattern_random(mu: PointPattern, rng: random.Random) -> PointPattern:
    counts = {p: rng.randint(0, m) for p, m in mu.entries}
    return PointPattern.from_counts(counts)


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
            report.record("H2", ok, mu, f"x={p}")

        # (H3a) idempotency of the boundary
        report.record("H3a", gen.boundary(bd) == bd, mu)

        # (H3) boundary(boundary(mu) + psi) == boundary(mu) for psi <= mu - bd
        rest = mu - bd
        if rest.total_mass <= EXHAUSTIVE_MASS_CAP:
            subs = _sub_patterns_exhaustive(rest)
        else:
            subs = [_sub_pattern_random(rest, rng) for _ in range(SAMPLED_SUBSETS)]
        for psi in subs:
            report.record("H3", gen.boundary(bd + psi) == bd, mu, f"psi mass {psi.total_mass}")

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

        # remove-one-point identity: H_x(mu - d_x) == H_x(mu) for x in mu
        for p, _ in mu.entries:
            ok = h_indicator(gen, mu.remove(p), p) == h_indicator(gen, mu, p)
            report.record("minus_point", ok, mu, f"x={p}")

        # structural facts: hull(mu) == hull(boundary(mu)); boundary is the
        # restriction of mu to the hull complement; definitional membership
        probe_slice = [probes[rng.randrange(len(probes))] for _ in range(min(4, len(probes)))]
        for q in probe_slice:
            ok = gen.hull_contains(mu, q) == gen.hull_contains(bd, q)
            report.record("hull_of_boundary", ok, mu, f"q={q}")
            ok = gen.hull_contains(mu, q) == gen.hull_contains_definitional(mu, q)
            report.record("membership_definition", ok, mu, f"q={q}")
        for p, m in mu.entries:
            in_bd = bd.multiplicity(p)
            expect = 0 if gen.hull_contains(mu, p) else m
            report.record("boundary_restriction", in_bd == expect, mu, f"x={p}")

        # two-point identity and cyclic products over probe tuples
        for _ in range(4):
            if len(probes) < 2:
                break
            x, y = rng.sample(probes, 2)
            lhs = (1 - h_indicator(gen, mu.add(x), y)) * (1 - h_indicator(gen, mu.add(y), x))
            rhs = (1 - h_indicator(gen, mu, x)) * (1 - h_indicator(gen, mu, y))
            report.record("two_point_identity", lhs == rhs, mu, f"x={x} y={y}")
            prod = first_difference_h(gen, mu, x, y) * first_difference_h(gen, mu, y, x)
            report.record("cyclic_2", prod == 0, mu)
        for _ in range(4):
            if len(probes) < 3:
                break
            z1, z2, z3 = rng.sample(probes, 3)
            prod = (
                first_difference_h(gen, mu, z1, z2)
                * first_difference_h(gen, mu, z2, z3)
                * first_difference_h(gen, mu, z3, z1)
            )
            report.record("cyclic_3", prod == 0, mu)

    return report


def prime_factorization_holds(
    gen: HullGenerator, mu: PointPattern, z: SpacePoint
) -> bool:
    """Whether H_z(mu) equals the product of H_z over the single-atom patterns."""
    product = 1
    for p, _ in mu.entries:
        product *= h_indicator(gen, PointPattern.from_points([p]), z)
        if product == 0:
            break
    return h_indicator(gen, mu, z) == product
