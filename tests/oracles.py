"""Definitional oracles for the H indicator's difference calculus.

Slow, direct forms of paper properties that the tests check generators
against: iterated add-one-point differences of the indicator, their
inclusion-exclusion closed form, the prime factorisation of H, and the
pairwise Pareto minimality and membership rules.
"""

from __future__ import annotations

from typing import Sequence

from hullforge.core import HullGenerator, PointPattern, SpacePoint, h_indicator


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
