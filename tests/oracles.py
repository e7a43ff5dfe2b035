"""Definitional oracles for the H indicator's difference calculus.

Slow, direct forms of paper properties that the tests check generators
against: iterated add-one-point differences of the indicator, their
inclusion-exclusion closed form, the prime factorisation of H, and the
pairwise Pareto minimality and membership rules.  Also the reference
measure algebra: each operation rebuilt through a row -> count dict and a
sort, as ``core._canonical`` builds ``from_points``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from hullforge.core import (
    DomainError,
    HullGenerator,
    PointPattern,
    SpaceMismatchError,
    SpacePoint,
    _canonical,
    h_indicator,
)


def first_difference_h(
    gen: HullGenerator, mu: PointPattern, x: SpacePoint, z: SpacePoint
) -> int:
    """Change of the indicator at z under addition of x; always in {-1, 0}."""
    return h_indicator(gen, mu.add(x), z) - h_indicator(gen, mu, z)


def higher_difference_h(
    gen: HullGenerator, mu: PointPattern, xs: Sequence[SpacePoint], z: SpacePoint
) -> int:
    """Iterated add-one-point difference of the indicator at z, for one or more xs.

    Evaluated by the recursive definition
    ``D^{m}_{x_1..x_m} G(mu) = D^{m-1} G(mu + d_{x_m}) - D^{m-1} G(mu)``.
    """
    if len(xs) == 1:
        return first_difference_h(gen, mu, xs[0], z)
    head = list(xs[:-1])
    return higher_difference_h(gen, mu.add(xs[-1]), head, z) - higher_difference_h(
        gen, mu, head, z
    )


def higher_difference_closed_form(
    gen: HullGenerator, mu: PointPattern, xs: Sequence[SpacePoint], z: SpacePoint
) -> int:
    """Inclusion-exclusion form of the iterated difference."""
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


def pareto_minimal(mu: PointPattern) -> tuple[bool, ...]:
    """Per row of ``mu``: is no other row coordinatewise <= it?  O(n^2) pairs."""
    rows = mu.rows
    return tuple(
        not any(q != r and all(a <= b for a, b in zip(q, r)) for q in rows) for r in rows
    )


def pareto_contains(mu: PointPattern, queries) -> list[bool]:
    """Per query row: is some row of ``mu`` other than the query coordinatewise <= it?"""
    return [any(r != q and all(a <= b for a, b in zip(r, q)) for r in mu.rows)
            for q in map(tuple, queries)]


def _counts_plus(mu: PointPattern, rows, deltas) -> dict:
    """Row -> count map of ``mu`` with ``deltas`` added at ``rows``; equal rows keep ``mu``'s form."""
    counts = dict(zip(mu.rows, mu.mults))
    for r, d in zip(rows, deltas):
        counts[r] = counts.get(r, 0) + d
    return counts


def _check_point(mu: PointPattern, point: SpacePoint) -> None:
    if mu.space_tag is not None and point.space_tag != mu.space_tag:
        raise SpaceMismatchError(
            f"point space {point.space_tag} does not match pattern space {mu.space_tag}"
        )


def _check_other(a: PointPattern, b: PointPattern) -> None:
    if b.space_tag != a.space_tag:
        raise SpaceMismatchError(f"mixed ground spaces {a.space_tag} vs {b.space_tag}")


def with_mults_by_dict(mu: PointPattern, mults: Iterable[int]) -> PointPattern:
    return _canonical(mu.space_tag, dict(zip(mu.rows, mults)))


def boundary_by_dict(gen: HullGenerator, mu: PointPattern) -> PointPattern:
    gen.check_pattern(mu)
    if mu.is_empty:
        return mu
    mask = gen.boundary_mask(mu)
    return with_mults_by_dict(mu, (m if keep else 0 for m, keep in zip(mu.mults, mask)))


def add_by_dict(mu: PointPattern, point: SpacePoint, count: int = 1) -> PointPattern:
    _check_point(mu, point)
    return _canonical(point.space_tag, _counts_plus(mu, [point.row], [count]))


def remove_by_dict(mu: PointPattern, point: SpacePoint, count: int = 1) -> PointPattern:
    _check_point(mu, point)
    if mu.multiplicity(point) < count:
        raise DomainError("cannot remove more mass than present")
    return _canonical(point.space_tag, _counts_plus(mu, [point.row], [-count]))


def plus_by_dict(a: PointPattern, b: PointPattern) -> PointPattern:
    if a.is_empty or b.is_empty:
        return b if a.is_empty else a
    _check_other(a, b)
    return _canonical(a.space_tag, _counts_plus(a, b.rows, b.mults))


def minus_by_dict(a: PointPattern, b: PointPattern) -> PointPattern:
    if b.is_empty:
        return a
    if not a.is_empty:
        _check_other(a, b)
    counts = _counts_plus(a, b.rows, (-m for m in b.mults))
    if min(counts.values()) < 0:
        raise DomainError("subtraction would give a signed measure")
    return _canonical(a.space_tag, counts)
