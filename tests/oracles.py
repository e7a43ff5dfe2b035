"""Definitional oracles for the H indicator's difference calculus.

Slow, direct forms of paper properties that the tests check generators
against: iterated add-one-point differences of the indicator, their
inclusion-exclusion closed form, the prime factorisation of H, and the
pairwise Pareto minimality and membership rules.  Also the reference
measure algebra: each operation rebuilt through a row -> count dict and a
sort, as ``core._canonical`` builds ``from_points``; the two closed forms
of the higher-order estimator that ``hull_estimate_k``'s tuple sums replace;
and the retired second copies of library rules: the scalar row check of the
point constructors, the per-angle (cos, sin) loop and numpy's rows, the
disk hull's test against a list of the other atoms, and the normality
distances through ``scipy.stats.norm``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy.stats import norm

from hullforge.core import (
    EPS_GEOM,
    DomainError,
    HullGenerator,
    PointPattern,
    SpaceMismatchError,
    SpacePoint,
    _canonical,
    _row_width,
    h_indicator,
)
from hullforge.estimators import Constant, Integrand, hull_estimate


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


def hull_estimate_k_falling(gen: HullGenerator, model, k: int, mu: PointPattern) -> float:
    """The g == 1 estimator: sum_i C(k, i) hull_mass^i (n)_(k-i), n the boundary count."""
    est = hull_estimate(gen, model, Constant(1.0), mu)
    total = 0.0
    for i in range(k + 1):
        falling = 1.0
        for j in range(k - i):
            falling *= est.boundary_count - j
            if falling == 0.0:
                break
        total += math.comb(k, i) * est.hull_mass**i * falling
    return total


def hull_estimate_2_product(gen: HullGenerator, model, mu: PointPattern, g: Integrand) -> float:
    """The k = 2 estimator for g(x) g(y): the expanded square minus the boundary diagonal."""
    est = hull_estimate(gen, model, g, mu)
    a, b = est.hull_term, est.boundary_term
    return a * a + 2.0 * a * b + (b * b - est.variance_estimate)


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


def _check_count(count: int) -> None:
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")


def add_by_dict(mu: PointPattern, point: SpacePoint, count: int = 1) -> PointPattern:
    _check_point(mu, point)
    _check_count(count)
    return _canonical(point.space_tag, _counts_plus(mu, [point.row], [count]))


def remove_by_dict(mu: PointPattern, point: SpacePoint, count: int = 1) -> PointPattern:
    _check_point(mu, point)
    _check_count(count)
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


def le_by_dict(a: PointPattern, b: PointPattern) -> bool:
    """Multiset inclusion a <= b, read through a row -> count dict of b."""
    if a.is_empty or b.space_tag != a.space_tag:
        return a.is_empty
    have = dict(zip(b.rows, b.mults))
    return all(have.get(r, 0) >= m for r, m in zip(a.rows, a.mults))


def checked_row(space_tag: tuple, row) -> tuple[float, ...]:
    """One row as a tuple of floats, checked by scalar arithmetic, no array round trip.

    The rules and messages of ``core.checked_array``: dimension first, then
    ``float`` of each value, then finite values and, for lines, an angle in
    [0, 2*pi) and an offset >= 0.
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


def unit_circle_by_loop(angles: np.ndarray) -> np.ndarray:
    """Rows (math.cos(a), math.sin(a)), one angle at a time."""
    return np.array([(math.cos(a), math.sin(a)) for a in angles.tolist()]).reshape(len(angles), 2)


def unit_by_numpy(angles: np.ndarray) -> np.ndarray:
    """Rows (cos, sin) from numpy's ufuncs, which may round differently from libm."""
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _disk_separable(r0: float, q, others) -> bool:
    """Is q strictly separable from conv(disk of radius r0 U others) by a line?"""
    nq = math.hypot(*q)
    if nq <= r0:
        return False
    alpha = math.atan2(q[1], q[0])
    half = math.acos(max(-1.0, min(1.0, r0 / nq)))
    lo, hi = -half, half  # feasible normal directions relative to alpha
    for p in others:
        dx, dy = q[0] - p[0], q[1] - p[1]
        if dx == 0.0 and dy == 0.0:
            return False
        gamma = math.atan2(dy, dx)
        delta = (gamma - alpha + math.pi) % (2.0 * math.pi) - math.pi
        lo = max(lo, delta - 0.5 * math.pi)
        hi = min(hi, delta + 0.5 * math.pi)
        if hi - lo <= EPS_GEOM:
            return False
    return hi - lo > EPS_GEOM


def disk_boundary_by_others(gen, mu: PointPattern) -> tuple[bool, ...]:
    """``DiskHullGen.boundary_mask``: each atom against the list of the rows != it."""
    return tuple(_disk_separable(gen.anchor_radius, q, [r for r in mu.rows if r != q])
                 for q in mu.rows)


def disk_contains_by_others(gen, mu: PointPattern, queries) -> list[bool]:
    """``DiskHullGen.contains_mask``: each query against the list of the rows != it."""
    return [not _disk_separable(gen.anchor_radius, q, [r for r in mu.rows if r != q])
            for q in map(tuple, queries.tolist())]


def normality_diagnostics_by_norm(samples) -> tuple[float, float]:
    """``montecarlo.normality_diagnostics`` through ``norm.ppf`` and ``norm.cdf``.

    The samples are taken as valid: at least 100 of them, with positive variance.
    """
    x = np.asarray(samples, dtype=float)
    z = np.sort((x - x.mean()) / x.std(ddof=1))
    n = len(z)
    quantiles = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    w1 = float(np.mean(np.abs(z - quantiles)))
    cdf = norm.cdf(z)
    upper = np.abs(np.arange(1, n + 1) / n - cdf)
    lower = np.abs(np.arange(0, n) / n - cdf)
    ks = float(np.max(np.maximum(upper, lower)))
    return w1, ks
