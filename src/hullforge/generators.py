"""Concrete hull generators, their geometry kernels and the exact hull integrals.

Each generator implements two primitives, each from one geometry pass per
call: ``boundary_mask`` (one bool per support atom) and ``contains_mask``
(one bool per row of an (m, k) query array: is it in the hull?).  Kernels
read a pattern's coordinate rows (``mu.rows``) or its ``mu.coords`` array,
and the queries as an array or, in the scalar kernels, as its ``tolist()``
rows; no kernel builds a point object.  The thinning map ``boundary`` and
the point adapters ``hull_contains`` and ``hull_contains_many`` are derived
in ``core``.  The two primitives are kept
mutually consistent so that the definitional identity ``hull_contains(mu, x)
== (boundary(mu + d_x) == boundary(mu))`` holds everywhere outside degenerate
tolerance shells.  ``evaluate`` is the per-pattern call: one geometry pass of
a (generator, model) pairing gives the mask, the hull mass and the pass's
``integrate``, which integrates a non-constant integrand over the hull from
that same geometry.  No rule takes an integrand; ``estimators`` decides how
one becomes a hull term.

Geometric predicates use the relative tolerance ``EPS_GEOM``: a point within
tolerance of the hull boundary, but not coinciding with a vertex, counts as
inside.  Point coincidence is always exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import ConvexHull as _SciPyHull
from scipy.spatial import QhullError

from .core import (
    ConfigurationError,
    EPS_GEOM,
    KERNEL_BUDGET,
    HullGenerator,
    PointPattern,
)
from . import sampling


# ---------------------------------------------------------------------------
# planar convex-hull kernel


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _coord_scale(pts) -> float:
    """The largest absolute coordinate of the points, and at least 1."""
    return max([1.0, *map(abs, chain.from_iterable(pts))])


def _extreme_2d(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Extreme points of distinct planar points, as a CCW polygon.

    Collinear mid-edge points are dropped (within the area tolerance), so the
    result is the minimal vertex set.
    """
    pts = sorted(pts)
    if len(pts) <= 2:
        return pts
    tol = EPS_GEOM * _coord_scale(pts) ** 2

    def half(seq):
        h: list[tuple[float, float]] = []
        for p in seq:
            while len(h) >= 2 and _cross(h[-2], h[-1], p) <= tol:
                h.pop()
            h.append(p)
        return h

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _point_in_polygon(poly: list[tuple[float, float]], poly_scale: float,
                      q: tuple[float, float]) -> bool:
    """Inside-or-on test against a CCW convex polygon, EPS_GEOM widened.

    The tolerance's scale is the larger of ``poly_scale`` (the polygon's
    ``_coord_scale``) and q's largest absolute coordinate.
    """
    scale = max(poly_scale, abs(q[0]), abs(q[1]))
    tol = EPS_GEOM * (scale * scale)
    n = len(poly)
    if n == 1:
        return False
    if n == 2:
        return _on_segment(poly[0], poly[1], q, EPS_GEOM * scale)
    for i in range(n):
        if _cross(poly[i - 1], poly[i], q) < -tol:
            return False
    return True


#: the fewest queries ``ConvexHullGen.contains_mask`` answers with ``_polygon_mask``: its
#: numpy calls cost about as much as the scalar rule on 16 queries of a 9-vertex polygon
_ARRAY_QUERIES = 16


def _polygon_mask(poly: list[tuple[float, float]], queries: np.ndarray) -> np.ndarray:
    """Per query row: in the CCW polygon (3 or more vertices) and not one of its vertices.

    ``_point_in_polygon`` for every query in one array pass: the same edge
    cross products, each against the same per-query tolerance, so every
    decision is the scalar one bit for bit.
    """
    a = np.array(poly)
    o = np.array(poly[-1:] + poly[:-1])  # edge i runs from poly[i - 1] to poly[i]
    d = a - o
    cross = d[:, :1] * (queries[:, 1] - o[:, 1:]) - d[:, 1:] * (queries[:, 0] - o[:, :1])
    scale = np.maximum(_coord_scale(poly), np.abs(queries).max(axis=1))
    tol = EPS_GEOM * (scale * scale)
    vertex = (queries[:, None, :] == a).all(axis=2).any(axis=1)
    return ~vertex & ~(cross < -tol).any(axis=0)


def _on_segment(a, b, q, tol_len: float) -> bool:
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(q[0] - ax, q[1] - ay) <= tol_len
    t = ((q[0] - ax) * dx + (q[1] - ay) * dy) / L2
    if t < 0.0 or t > 1.0:
        return False
    nx, ny = ax + t * dx, ay + t * dy
    return math.hypot(q[0] - nx, q[1] - ny) <= tol_len


def _outside_others_2d(pts: np.ndarray) -> np.ndarray:
    """Per distinct planar point: is it off the convex hull of the others?

    Angular-gap test, independent of the monotone chain: z is off
    conv(others) iff the directions from z to the others leave a gap wider
    than pi.  The gap is judged on the two directions bounding it, with the
    chain's area tolerance, so a point within tolerance of a hull edge counts
    as inside; a gap wider than 3 pi / 2 (all others within a quarter turn,
    e.g. on one ray) is outside outright.  n x n work, vectorized.
    """
    n = len(pts)
    if n <= 1:
        return np.ones(n, dtype=bool)
    d = pts[None, :, :] - pts[:, None, :]  # d[i, j]: direction from point i to point j
    ang = np.arctan2(d[..., 1], d[..., 0])
    np.fill_diagonal(ang, np.inf)  # each point itself sorts last and is dropped
    order = np.argsort(ang, axis=1)[:, :-1]
    a = np.take_along_axis(ang, order, axis=1)
    gaps = np.diff(a, axis=1, append=a[:, :1] + 2.0 * math.pi)  # last gap wraps around
    k = np.argmax(gaps, axis=1)
    rows = np.arange(n)
    u = d[rows, order[rows, k]]
    v = d[rows, order[rows, (k + 1) % (n - 1)]]
    cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    dot = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]
    tol = EPS_GEOM * max(1.0, float(np.abs(pts).max())) ** 2
    return (gaps[rows, k] > math.pi) & ((cross < -tol) | (dot > 0.0))


def _affine_rank(coords: np.ndarray, tol: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(rank, centroid, orthonormal basis rows) of the affine span."""
    c = coords.mean(axis=0)
    centered = coords - c
    if len(coords) == 1:
        return 0, c, np.zeros((0, coords.shape[1]))
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > tol))
    return rank, c, vt[:rank]


class _Solid:
    """The convex hull of distinct points of R^3, from one affine-rank pass.

    At full rank qhull runs once, and the extreme points, the facet
    equations and the volume all come from that one build; a flat set is
    handled in its affine span.  The rank tolerance is relative to the
    points' own scale.
    """

    def __init__(self, distinct: list[tuple]):
        self.scale = _coord_scale(distinct)
        coords = np.asarray(distinct, dtype=float)
        self.rank, self.c, self.basis = _affine_rank(coords, EPS_GEOM * self.scale)
        self.qhull, self.volume = None, 0.0
        if self.rank == 3:
            try:
                self.qhull = _SciPyHull(coords)
            except QhullError:
                self.rank, self.basis = 2, self.basis[:2]  # numerically flat; use the planar path
            else:
                self.volume = float(self.qhull.volume)
        self.proj = (coords - self.c) @ self.basis.T
        if self.rank == 2:
            self.flat = _extreme_2d([tuple(p) for p in self.proj])
        if len(distinct) <= 2:
            self.ext = list(distinct)
        elif self.rank == 0:
            self.ext = [distinct[0]]
        elif self.qhull is not None:
            self.ext = [distinct[i] for i in self.qhull.vertices]
        elif self.rank == 1:
            t = self.proj[:, 0]
            self.ext = [distinct[int(np.argmin(t))], distinct[int(np.argmax(t))]]
        else:
            back = {tuple(p): distinct[i] for i, p in enumerate(self.proj)}
            self.ext = [back[p] for p in self.flat]

    def contains(self, q: tuple) -> bool:
        """Is q in the hull, widened by EPS_GEOM at the scale of the points and q?"""
        tol = EPS_GEOM * max(self.scale, _coord_scale([q]))
        qv = np.asarray(q, dtype=float)
        if self.qhull is not None:
            eq = self.qhull.equations
            return bool(np.all(eq[:, :3] @ qv + eq[:, 3] <= tol))
        if self.rank == 0:
            return False
        resid = qv - self.c
        off = resid - self.basis.T @ (self.basis @ resid)
        if np.linalg.norm(off) > tol:
            return False
        qp = self.basis @ resid
        if self.rank == 1:
            t = self.proj[:, 0]
            return float(t.min()) - tol <= qp[0] <= float(t.max()) + tol
        return _point_in_polygon(self.flat, _coord_scale(self.flat), tuple(qp))


@dataclass(frozen=True)
class ConvexHullGen(HullGenerator):
    """Boundary = pattern restricted to the vertices of the convex hull.

    Points lying on a face but not at a vertex belong to the hull region.
    """

    dim: int = 2
    point_limit = math.isqrt(KERNEL_BUDGET // 2)  # the gap kernel's n x n x 2 directions

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ConfigurationError("convex hull generator supports d in {2, 3}")
        object.__setattr__(self, "space_tag", ("euclid", self.dim))

    def _extreme(self, mu: PointPattern) -> tuple[tuple[bool, ...], list[tuple], _Solid | None]:
        """(vertex mask in support order, extreme points, the 3-D hull or None).

        In the plane the extreme points are a CCW polygon.
        """
        rows = list(mu.rows)
        solid = _Solid(rows) if self.dim == 3 else None
        ext = solid.ext if solid else _extreme_2d(rows)
        keep = set(ext)
        return tuple(r in keep for r in rows), ext, solid

    def boundary_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        return self._extreme(mu)[0]

    def contains_mask(self, mu: PointPattern, queries: np.ndarray) -> list[bool]:
        """In the closed hull, widened at the scale of the pattern and the query; no vertex."""
        if mu.is_empty:
            return [False] * len(queries)
        _, ext, solid = self._extreme(mu)
        if solid is None and len(ext) >= 3 and len(queries) >= _ARRAY_QUERIES:
            return _polygon_mask(ext, queries).tolist()
        inside = solid.contains if solid else partial(_point_in_polygon, ext, _coord_scale(ext))
        vertices = set(ext)
        return [q not in vertices and inside(q) for q in map(tuple, queries.tolist())]

    def leave_one_out_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Leave-one-out indicators; planar patterns use the angular-gap kernel.

        Copies of z never change conv(others), so H_z(mu - d_z) is 1 iff z is
        off the hull of the other distinct support points, whatever its
        multiplicity.  d = 3 keeps the definitional loop.
        """
        if self.dim != 2:
            return super().leave_one_out_mask(mu)
        return tuple(_outside_others_2d(mu.coords).tolist())


# ---------------------------------------------------------------------------
# coordinatewise-minimum generator (planar)


@dataclass(frozen=True)
class CoordMinGen(HullGenerator):
    """Boundary = the smallest-x point and the smallest-y point of the support.

    Ties on a coordinate are broken lexicographically by the other coordinate,
    which keeps the map a valid generator on degenerate inputs.
    """

    point_limit = KERNEL_BUDGET  # every kernel is linear in the pattern

    def __post_init__(self) -> None:
        object.__setattr__(self, "space_tag", ("euclid", 2))

    def _argmins(self, mu: PointPattern) -> tuple[tuple, tuple]:
        """The rows of the (x, y)- and the (y, x)-lexicographic minimum.

        Rows are in (x, y) order, so the first row is the former.
        """
        return mu.rows[0], min(mu.rows, key=lambda r: (r[1], r[0]))

    def boundary_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        keep = set(self._argmins(mu))
        return tuple(r in keep for r in mu.rows)

    def contains_mask(self, mu: PointPattern, queries: np.ndarray) -> list[bool]:
        """Lexicographically above both minima: adding the query moves neither."""
        if mu.is_empty:
            return [False] * len(queries)
        (ax, ay), (bx, by) = self._argmins(mu)
        return [(qx, qy) > (ax, ay) and (qy, qx) > (by, bx) for qx, qy in queries.tolist()]

    def leave_one_out_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Leave-one-out indicators: the (x, y)- and (y, x)-lexicographic minima.

        H_z(mu - d_z) is 1 iff z is one of the two minima of mu, whatever its
        multiplicity.  The minima come from ``np.lexsort``, not ``_argmins``.
        """
        x = mu.coords
        alone = np.zeros(len(x), dtype=bool)
        alone[np.lexsort((x[:, 1], x[:, 0]))[0]] = True  # primary key x, then y
        alone[np.lexsort((x[:, 0], x[:, 1]))[0]] = True  # primary key y, then x
        return tuple(alone.tolist())


# ---------------------------------------------------------------------------
# Pareto (coordinatewise-minimal) generator


@dataclass(frozen=True)
class ParetoGen(HullGenerator):
    """Boundary = support points that do not dominate any other support point.

    A point dominates another when it is coordinatewise >= and distinct.  The
    hull is the region dominating at least one point, minus the minimal points
    themselves; H factorizes over atoms (prime property).

    Sorted-prefix rule: row i of ``mu.coords`` is minimal iff no earlier row
    is <= it in the coordinates after the first.  Sorted, distinct rows make
    this sufficient: a row <= row i and distinct from it sorts before it, and
    every earlier row is <= row i in the first coordinate.  A query is in the
    hull iff some minimal row other than itself is coordinatewise <= it.
    """

    dim: int = 2
    point_limit = math.isqrt(KERNEL_BUDGET // 3)  # the n x n x d domination matrix, d <= 3

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= 3:
            raise ConfigurationError("pareto generator supports d in 1..3")
        object.__setattr__(self, "space_tag", ("euclid", self.dim))

    def _frontier(self, mu: PointPattern) -> tuple[np.ndarray, np.ndarray]:
        """(mask, minimal rows) of ``mu.coords`` by the sorted-prefix rule."""
        x = mu.coords.reshape(-1, self.dim)  # the empty pattern's (0, 0) coords as (0, dim)
        if self.dim < 3:
            # y strictly below every earlier y (Kung, Luccio and Preparata, 1975); in 1-D
            # y is x, strictly increasing, so the first row alone is minimal
            y = x[:, -1]
            mask = y < np.minimum.accumulate(np.concatenate(([math.inf], y[:-1])))
        else:
            tail = x[:, 1:]
            below = np.all(tail[None, :, :] <= tail[:, None, :], axis=2)  # tail_j <= tail_i
            mask = ~np.tril(below, -1).any(axis=1)
        return mask, x[mask]

    def boundary_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        return tuple(self._frontier(mu)[0].tolist())

    def contains_mask(self, mu: PointPattern, queries: np.ndarray) -> list[bool]:
        """Some minimal row other than the query itself is coordinatewise <= it."""
        low, q = self._frontier(mu)[1], queries[:, None, :]
        return (np.all(low <= q, axis=2) & np.any(low != q, axis=2)).any(axis=1).tolist()

    def leave_one_out_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Leave-one-out indicators from a domination matrix.

        H_z(mu - d_z) is 1 iff no other support point is coordinatewise <= z
        (copies of z do not count).  In 1-D that is the minimum atom alone.
        """
        x = mu.coords
        if self.dim == 1:
            alone = x[:, 0] == x[:, 0].min()
        else:
            below = np.all(x[None, :, :] <= x[:, None, :], axis=2)  # below[i, j]: x_j <= x_i
            np.fill_diagonal(below, False)
            alone = ~below.any(axis=1)
        return tuple(alone.tolist())


# ---------------------------------------------------------------------------
# Hoelder envelope generator


@dataclass(frozen=True)
class EnvelopeGen(HullGenerator):
    """Pointwise-supremum generator for the kernel family u - R * ||s - r||^beta.

    An atom belongs to the boundary iff its removal (all copies) changes the
    envelope, equivalently iff it is not dominated at its own site.  H
    factorizes over atoms (prime property).
    """

    dim: int = 1
    env_const: float = 1.0
    beta: float = 1.0
    point_limit = math.isqrt(KERNEL_BUDGET // 2)  # kernel_values' n x n x d differences, d <= 2

    def __post_init__(self) -> None:
        if self.env_const <= 0 or not 0 < self.beta <= 1:
            raise ConfigurationError("need env_const > 0 and beta in (0, 1]")
        if not 1 <= self.dim <= 2:
            raise ConfigurationError("envelope generator supports base d in {1, 2}")
        object.__setattr__(self, "space_tag", ("param", self.dim))

    def kernel_values(
        self, sites: np.ndarray, levels: np.ndarray, query: np.ndarray
    ) -> np.ndarray:
        """Matrix of atom-function values at the query sites (rows)."""
        if sites.shape[1] == 1:
            dist = np.abs(query[:, 0][:, None] - sites[:, 0][None, :])
        else:
            diff = query[:, None, :] - sites[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=2))
        if self.beta != 1.0:
            dist = dist**self.beta
        return levels[None, :] - self.env_const * dist

    def envelope_at(self, mu: PointPattern, query: np.ndarray) -> np.ndarray:
        """Envelope values on query sites; -inf where the pattern is empty."""
        if mu.is_empty:
            return np.full(len(query), -np.inf)
        sites, levels = mu.coords[:, :-1], mu.coords[:, -1]
        if self.dim == 1 and self.beta == 1.0:
            q = query[:, 0]
            if np.count_nonzero(q[1:] < q[:-1]) == 0:  # ascending, as the band grid is
                return self._envelope_line(sites[:, 0], levels, q)
            order = np.argsort(q, kind="stable")
            env = np.empty(len(q))
            env[order] = self._envelope_line(sites[:, 0], levels, q[order])
            return env
        return self.kernel_values(sites, levels, query).max(axis=1)

    def _sweeps(self, s: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d=1, beta=1: ``rise[k]``, the maximum of u + R s over the first k sites, and
        ``fall[k]``, the maximum of u - R s over the sites from k on; k = 0..n.

        A site left of a query q gives the cone value (u + R s) - R q, one
        right of it (u - R s) + R q; the maximum over no site is -inf.  The
        sites are sorted, as rows are.
        """
        n = len(s)
        rise, fall = np.empty(n + 1), np.empty(n + 1)
        rise[0] = fall[n] = -np.inf
        np.maximum.accumulate(u + self.env_const * s, out=rise[1:])
        np.maximum.accumulate((u - self.env_const * s)[::-1], out=fall[-2::-1])
        return rise, fall

    def _envelope_line(self, s: np.ndarray, u: np.ndarray, q: np.ndarray) -> np.ndarray:
        """d=1, beta=1 kernel on ascending queries: the two sweeps instead of the full matrix.

        The n sorted sites cut the queries into n + 1 runs: the queries of run
        k have exactly k sites on or left of them, so their left maximum is
        ``rise[k]``, and ``repeat`` spreads it over the run.  Runs by the
        number of sites strictly left give the right maxima from ``fall`` the
        same way.  Only the n sites are searched, in the queries.
        """
        rise, fall = self._sweeps(s, u)
        ends = np.empty(len(s) + 2, dtype=np.intp)  # run k is queries ends[k]:ends[k + 1]
        ends[0], ends[-1] = 0, len(q)
        ends[1:-1] = np.searchsorted(q, s, side="left")
        left = rise.repeat(ends[1:] - ends[:-1]) - self.env_const * q
        ends[1:-1] = np.searchsorted(q, s, side="right")
        right = fall.repeat(ends[1:] - ends[:-1]) + self.env_const * q
        return np.maximum(left, right)

    def boundary_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Per support atom: does removing all its copies change the envelope?"""
        sites, levels = mu.coords[:, :-1], mu.coords[:, -1]
        if self.dim == 1 and self.beta == 1.0:
            # the sweeps of _envelope_line, each atom left out: the maxima before and after it
            ss = sites[:, 0]
            rise, fall = self._sweeps(ss, levels)
            dominated = levels <= np.maximum(rise[:-1] - self.env_const * ss,
                                             fall[1:] + self.env_const * ss)
        else:
            vals = self.kernel_values(sites, levels, sites)
            np.fill_diagonal(vals, -np.inf)
            dominated = levels <= vals.max(axis=1)
        return tuple((~dominated).tolist())

    def leave_one_out_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Removing one copy leaves H at the atom equal to the all-copies test.

        The boundary mask compares each atom with the envelope of the others,
        which is what H_z(mu - d_z) asks, so it serves directly.
        """
        return self.boundary_mask(mu)

    def contains_mask(self, mu: PointPattern, queries: np.ndarray) -> list[bool]:
        """An atom: is it dominated?  Any other query: is it on or below the envelope?"""

        def below(q: np.ndarray) -> np.ndarray:
            return q[:, -1] <= self.envelope_at(mu, q[:, :-1])

        return _split_atoms(self, mu, queries, below)


# ---------------------------------------------------------------------------
# half-plane (Poisson polytope) generator


@dataclass(frozen=True)
class HalfPlaneGen(HullGenerator):
    """Lines supporting a facet of the polytope clipped to a window disk.

    ``P(mu)`` is the intersection of the half-planes with the disk of
    ``window_radius``; the boundary keeps the lines contributing a positive
    length edge.  Scenarios must keep the band inside the window, then the
    clip is immaterial.  Lines with offset >= window_radius never contribute
    and are absorbed by the hull.
    """

    window_radius: float = 4.0
    point_limit = int((2 * KERNEL_BUDGET) ** (1 / 3))  # _corners: n^2 / 2 candidates x n lines

    def __post_init__(self) -> None:
        if self.window_radius <= 0:
            raise ConfigurationError("window radius must be positive")
        object.__setattr__(self, "space_tag", ("line",))

    def _edge_mask(self, dirs: np.ndarray, offs: np.ndarray) -> np.ndarray:
        """Which support lines keep a positive-length edge on the clipped body.

        Line i meets the window in the chord t in [-half_i, half_i] along its
        direction (-sin, cos); each other line j cuts it to a_ij t <= b_ij, and
        a line parallel to it (|a_ij| tiny) with b_ij < 0 empties it.
        """
        W = self.window_radius
        d2 = W * W - offs * offs
        half = np.sqrt(np.maximum(d2, 0.0))
        a = dirs[None, :, 0] * -dirs[:, None, 1] + dirs[None, :, 1] * dirs[:, None, 0]
        b = offs[None, :] - offs[:, None] * (
            dirs[None, :, 0] * dirs[:, None, 0] + dirs[None, :, 1] * dirs[:, None, 1])
        other = ~np.eye(len(offs), dtype=bool)
        par = np.abs(a) < 1e-14 * max(1.0, W)
        with np.errstate(all="ignore"):  # parallel pairs divide by ~0; they are masked out
            cut = b / a
        up = np.where(other & ~par & (a > 0.0), cut, np.inf).min(axis=1, initial=np.inf)
        down = np.where(other & ~par & (a < 0.0), cut, -np.inf).max(axis=1, initial=-np.inf)
        blocked = (other & par & (b < 0.0)).any(axis=1)
        length = np.minimum(half, up) - np.maximum(-half, down)
        return (d2 > 0.0) & ~blocked & (length > EPS_GEOM * max(1.0, W))

    def boundary_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        return tuple(self._edge_mask(_unit(mu.coords[:, 0]), mu.coords[:, 1]).tolist())

    def _corners(self, dirs: np.ndarray, offs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Corner candidates of the clipped body, each with the lines defining it.

        The candidates are the origin, the two window-circle points of each
        line that crosses the window, and the meeting point of each
        non-parallel pair, ordered by line i (its circle points, then the pairs
        (i, j > i)).  Returns (C, a, b, P, inside): the (m, 2) points, their
        two defining lines (-1 for none), P = C @ dirs.T and whether each point
        lies in the window.  Feasibility is left to the caller.
        """
        W = self.window_radius
        n = len(offs)
        c, s = dirs[:, 0], dirs[:, 1]
        d2 = W * W - offs * offs
        cut = np.flatnonzero(d2 > 0.0)
        t = np.sqrt(d2[cut])
        ox, oy, tx, ty = offs[cut] * c[cut], offs[cut] * s[cut], t * -s[cut], t * c[cut]
        lines = np.arange(n)
        i, j = np.nonzero(lines[:, None] < lines)
        det = c[i] * s[j] - s[i] * c[j]
        meet = np.abs(det) >= 1e-14
        i, j, det = i[meet], j[meet], det[meet]
        # sort key (line i, then 0 and 1 for its circle points, 1 + j for the pair (i, j)):
        # hull_support's matrix product rounds by row position, so the order is kept
        k = n + 1
        order = np.argsort(np.concatenate(([-1], cut * k, cut * k + 1, i * k + 1 + j)))
        px = (offs[i] * s[j] - offs[j] * s[i]) / det
        py = (c[i] * offs[j] - c[j] * offs[i]) / det
        C = np.empty((len(order), 2))
        C[:, 0] = np.concatenate(([0.0], ox + tx, ox - tx, px))[order]
        C[:, 1] = np.concatenate(([0.0], oy + ty, oy - ty, py))[order]
        none = np.full(len(cut), -1)
        a = np.concatenate(([-1], cut, cut, i))[order]
        b = np.concatenate(([-1], none, none, j))[order]
        inside = np.sqrt(C[:, 0] * C[:, 0] + C[:, 1] * C[:, 1]) <= W + 1e-12 * max(1.0, W)
        return C, a, b, C @ dirs.T, inside

    def _feasible_vertices(self, dirs: np.ndarray, offs: np.ndarray) -> np.ndarray:
        """Corner candidates of the clipped body (always includes the origin)."""
        C, _, _, P, inside = self._corners(dirs, offs)
        return C[inside & np.all(P <= offs + 1e-12 * max(1.0, self.window_radius), axis=1)]

    def hull_support(self, mu: PointPattern, angles: np.ndarray) -> np.ndarray:
        """Support function of the clipped body at the query angles."""
        W = self.window_radius
        S = _THETA_UNIT if angles is _THETA_GRID else _unit(angles)
        if mu.is_empty:
            return np.full(len(angles), W)
        dirs, offs = _unit(mu.coords[:, 0]), mu.coords[:, 1]
        verts = self._feasible_vertices(dirs, offs)
        h = (verts @ S.T).max(axis=0)
        arc_ok = np.all((S @ dirs.T) * W <= offs[None, :] + 1e-12 * max(1.0, W), axis=1)
        return np.where(arc_ok, W, h)

    def leave_one_out_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Leave-one-out indicators from the corner candidates of all lines at once.

        A single line z counts iff it cuts the body of the other lines,
        u_z < h_{-z}(theta_z): h_{-z} is the largest <c, s_z> over the
        candidates not defined by z that violate no line but z (the vertices
        ``hull_support`` would find without z), or W where the window arc at
        theta_z lies inside every other line.  A copy of z stays
        behind, so a line of multiplicity >= 2 counts iff it keeps a
        positive-length edge on the whole body: its feasible candidates
        spread along it by more than the edge tolerance.  The two rules agree
        unless the body has no area (lines through the origin with opposed
        normals) or within the tolerances.  The boundary mask and its kernel
        are not used.
        """
        W = self.window_radius
        dirs, offs = _unit(mu.coords[:, 0]), mu.coords[:, 1]
        bound = offs + 1e-12 * max(1.0, W)
        C, a, b, P, inside = self._corners(dirs, offs)
        viol = P > bound  # viol[c, z]: candidate c lies outside line z
        lines = np.arange(len(offs))
        on = (a[:, None] == lines) | (b[:, None] == lines)  # on[c, z]: line z defines candidate c
        free = (viol.sum(axis=1)[:, None] == viol) & inside[:, None] & ~on
        # each h_z from the matrix-vector product hull_support makes without z: BLAS
        # rounds the last bit by the product's shape, and a tie u_z = h_z hangs on it
        h = np.array([(C[free[:, z]] @ dirs[z:z + 1].T).max() for z in lines])
        arc = (dirs @ dirs.T) * W <= bound  # arc[z, j]: the window point at theta_z is in line j
        np.fill_diagonal(arc, True)
        alone = offs < np.where(arc.all(axis=1), W, h)
        if max(mu.mults) > 1:
            edge = on & (inside & ~viol.any(axis=1))[:, None]
            along = C @ np.column_stack([-dirs[:, 1], dirs[:, 0]]).T  # position along each line
            spread = (np.where(edge, along, -np.inf).max(axis=0)
                      - np.where(edge, along, np.inf).min(axis=0))
            alone = np.where(np.array(mu.mults) > 1, spread > EPS_GEOM * max(1.0, W), alone)
        return tuple(alone.tolist())

    def contains_mask(self, mu: PointPattern, queries: np.ndarray) -> list[bool]:
        """An atom: is it off the boundary?  Any other line: does its half-plane hold the body?"""

        def holds_body(q: np.ndarray) -> np.ndarray:
            return q[:, 1] >= self.hull_support(mu, q[:, 0])

        return _split_atoms(self, mu, queries, holds_body)


def _unit(angles: np.ndarray) -> np.ndarray:
    """Unit vectors (cos, sin) of the angles, one row each."""
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _split_atoms(gen: HullGenerator, mu: PointPattern, queries: np.ndarray,
                 off_atoms: Callable[[np.ndarray], np.ndarray]) -> list[bool]:
    """Membership with the queries that are atoms of ``mu`` read from its boundary mask.

    A query is an atom where it equals a row of ``mu.coords``, compared one
    column at a time (so 0.0 equals -0.0, as in the pattern's rows): the
    largest array is m x n bools, within ``KERNEL_BUDGET`` at every
    ``point_limit``.  The other queries go to ``off_atoms`` as the rows of
    one array, in one call; the mask is computed only when some query is an
    atom.
    """
    if mu.is_empty:
        return off_atoms(queries).tolist()
    coords = mu.coords
    same = queries[:, None, 0] == coords[:, 0]  # same[j, i]: query j equals row i
    for c in range(1, coords.shape[1]):
        same &= queries[:, None, c] == coords[:, c]
    if not same.any():
        return off_atoms(queries).tolist()
    mask, atom = gen.boundary_mask(mu), same.any(axis=1)
    row = same.argmax(axis=1).tolist()  # the rows are distinct: an atom query equals one
    off = iter(() if atom.all() else off_atoms(queries[~atom]).tolist())
    return [not mask[i] if a else next(off) for a, i in zip(atom.tolist(), row)]


# ---------------------------------------------------------------------------
# disk-anchored planar hull generator


@dataclass(frozen=True)
class DiskHullGen(HullGenerator):
    """Hull of a fixed disk together with the pattern's planar points.

    Boundary = atoms that are extreme points of conv(disk U support); points
    inside the disk never contribute.  Used by the planar radial-power sanity
    scenario.
    """

    anchor_radius: float = 0.3
    point_limit = math.isqrt(KERNEL_BUDGET)  # each atom's Python loop over the others

    def __post_init__(self) -> None:
        if self.anchor_radius <= 0:
            raise ConfigurationError("anchor radius must be positive")
        object.__setattr__(self, "space_tag", ("euclid", 2))

    def _separable(self, q: tuple[float, float], others) -> bool:
        """Is q strictly separable from conv(disk U others) by a line?"""
        r0 = self.anchor_radius
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

    def boundary_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        rows = mu.rows
        return tuple(self._separable(q, [r for r in rows if r != q]) for q in rows)

    def contains_mask(self, mu: PointPattern, queries: np.ndarray) -> list[bool]:
        return [not self._separable(q, [r for r in mu.rows if r != q])
                for q in map(tuple, queries.tolist())]

    def leave_one_out_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Leave-one-out indicators from the dual angular test, not ``_separable``.

        An atom z with |z| > r0 is off conv(disk U others) iff the directions
        from z to the other atoms, measured from -z, together with the disk's
        cone [-a, a] seen from z (a = asin(r0/|z|) = pi/2 - acos(r0/|z|)),
        span less than pi - EPS_GEOM.  Copies of z do not count, so the rule
        holds at every multiplicity.  Scalar: patterns hold a few atoms.
        """
        r0, rows = self.anchor_radius, mu.rows
        alone = []
        for q in rows:
            nq = math.hypot(*q)
            if nq <= r0:
                alone.append(False)
                continue
            alpha = math.atan2(q[1], q[0])
            rel = [(math.atan2(q[1] - p[1], q[0] - p[0]) - alpha + math.pi) % (2.0 * math.pi)
                   - math.pi for p in rows if p != q]
            half = math.acos(max(-1.0, min(1.0, r0 / nq)))  # pi/2 minus the cone's half-width
            spare = (min(half, min(rel, default=math.inf) + 0.5 * math.pi)
                     - max(-half, max(rel, default=-math.inf) - 0.5 * math.pi))  # pi - span
            alone.append(spare > EPS_GEOM)
        return tuple(alone)

    def hull_area(self, ext: Sequence[tuple[float, float]]) -> float:
        """Area of conv(disk U ext) for the extreme points ext, by walking segments and arcs."""
        r0 = self.anchor_radius
        if not ext:
            return math.pi * r0 * r0
        ext = sorted(ext, key=lambda p: math.atan2(p[1], p[0]))
        area = 0.0
        n = len(ext)
        for i in range(n):
            a = ext[i]
            b = ext[(i + 1) % n]
            ab = math.hypot(b[0] - a[0], b[1] - a[1])
            cr = a[0] * b[1] - a[1] * b[0]
            if ab > 0.0 and cr / ab >= r0 * (1.0 - EPS_GEOM):
                area += 0.5 * cr  # straight edge keeps the disk to the left
                continue
            ta = self._tangent(a, +1)
            tb = self._tangent(b, -1)
            area += 0.5 * (a[0] * ta[1] - a[1] * ta[0])
            ang_a = math.atan2(ta[1], ta[0])
            ang_b = math.atan2(tb[1], tb[0])
            sweep = (ang_b - ang_a) % (2.0 * math.pi)
            area += 0.5 * r0 * r0 * sweep
            area += 0.5 * (tb[0] * b[1] - tb[1] * b[0])
        return area

    def _tangent(self, p: tuple[float, float], sign: int) -> tuple[float, float]:
        r0 = self.anchor_radius
        n2 = p[0] * p[0] + p[1] * p[1]
        base = r0 * r0 / n2
        spread = r0 * math.sqrt(max(n2 - r0 * r0, 0.0)) / n2
        return (
            base * p[0] - sign * spread * p[1],
            base * p[1] + sign * spread * p[0],
        )


# ---------------------------------------------------------------------------
# exact hull integrals per (generator, intensity) pairing
#
# Each rule returns (boundary mask, hull mass, integrate) of a non-empty mu,
# reading the mask and the mass from one geometry pass.  integrate(f) is
# int f d(lambda restricted to the hull) for a non-constant integrand f, read
# from the geometry that same pass built (the polygon, the band depth on the
# grid, the clipped support on _THETA_GRID, the half-line minimum) through the
# integrand's array primitives; it is None where the pairing integrates
# constants only.  Vertex-type exclusions from the hull carry zero mass under
# the diffuse models used here and are ignored.


# Gauss degree-5 rule on the reference triangle (weights sum to 1).
_TRI_W = np.array([0.225] + [0.13239415278850618] * 3 + [0.12593918054482715] * 3)
_A1, _B1 = 0.059715871789769820, 0.47014206410511508
_A2, _B2 = 0.79742698535308731, 0.10128650732345633
_TRI_P = np.array([[1 / 3, 1 / 3], [_A1, _B1], [_B1, _A1], [_B1, _B1],
                   [_A2, _B2], [_B2, _A2], [_B2, _B2]])


def _triangle_quad(values, a, b, c) -> float:
    """Integral over triangle abc, degree-5 rule on a mesh of 16 cells.

    ``values`` maps a cell's (7, 2) array of nodes to the integrand there.
    """
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    n = 4  # each edge cut into n parts
    total = 0.0
    for i in range(n):
        for j in range(n - i):
            corners = []
            p00 = a + (b - a) * (i / n) + (c - a) * (j / n)
            p10 = a + (b - a) * ((i + 1) / n) + (c - a) * (j / n)
            p01 = a + (b - a) * (i / n) + (c - a) * ((j + 1) / n)
            corners.append((p00, p10, p01))
            if j < n - i - 1:
                p11 = a + (b - a) * ((i + 1) / n) + (c - a) * ((j + 1) / n)
                corners.append((p10, p11, p01))
            for u, v, w in corners:
                area = 0.5 * abs(
                    (v[0] - u[0]) * (w[1] - u[1]) - (w[0] - u[0]) * (v[1] - u[1])
                )
                pts = u + _TRI_P[:, :1] * (v - u) + _TRI_P[:, 1:] * (w - u)
                total += area * float(_TRI_W @ values(pts))
    return total


def _convex_rule(gen: ConvexHullGen, model, mu: PointPattern):
    mask, poly, solid = gen._extreme(mu)
    # pattern is assumed to lie in the (convex) carrier, so hull subset carrier
    if solid:
        return mask, model.rate * solid.volume, None

    def integrate(f) -> float:
        values = lambda pts: f.values(pts, gen.space_tag)
        total = 0.0  # a left-to-right sum: sum() compensates on Python >= 3.12
        for i in range(1, len(poly) - 1):
            total += _triangle_quad(values, poly[0], poly[i], poly[i + 1])
        return model.rate * total

    return mask, model.rate * sampling.polygon_area(poly), integrate


def _coordmin_rule(gen: CoordMinGen, model, mu: PointPattern):
    mask = gen.boundary_mask(mu)
    minima = list(compress(mu.rows, mask))
    (lx, ly), (hx, hy) = model.lo, model.hi
    w = max(0.0, hx - max(lx, min(c[0] for c in minima)))
    h = max(0.0, hy - max(ly, min(c[1] for c in minima)))
    return mask, model.rate * w * h, None


def _pareto_box_rule(gen: ParetoGen, model, mu: PointPattern):
    if gen.dim > 2:
        raise ConfigurationError("pareto hull mass supports d <= 2 on boxes")
    mask, low = gen._frontier(mu)
    mass = model.rate * _staircase_area(low.tolist(), model.lo, model.hi)
    return tuple(mask.tolist()), mass, None


def _pareto_halfline_rule(gen: ParetoGen, model, mu: PointPattern):
    if gen.dim != 1:
        raise ConfigurationError("half-line hull integrals need a 1-D pareto generator")
    mask = gen.boundary_mask(mu)
    zeta = float(mu.coords[0, 0])  # in 1-D the one minimal atom is the first row
    return mask, math.nan, lambda f: model.rate * f.tail_integral(zeta)


def _band_rule(gen: EnvelopeGen, model, mu: PointPattern):
    sites, cell, phi = model.band_grid
    depth = np.clip(gen.envelope_at(mu, sites), 0.0, phi)
    mass = model.rate * float(depth.sum()) * cell
    return (gen.boundary_mask(mu), mass,
            lambda f: model.rate * float(f.depth_primitive(depth).sum()) * cell)


#: cell midpoints of the angular quadrature on line space, and their unit vectors
_THETA_GRID = (np.arange(4096) + 0.5) * (2.0 * math.pi / 4096)
_THETA_UNIT = _unit(_THETA_GRID)


def _lines_rule(gen: HalfPlaneGen, model, mu: PointPattern):
    h = gen.hull_support(mu, _THETA_GRID)
    lo = np.minimum(np.maximum(model.h_inner, h), model.h_outer)
    cell = 2.0 * math.pi / len(_THETA_GRID)
    mass = model.rate * float((model.h_outer - lo).sum()) * cell
    return (gen.boundary_mask(mu), mass,
            lambda f: model.rate * float(f.radial_primitive(lo, model.h_outer).sum()) * cell)


def _annulus_rule(gen: DiskHullGen, model, mu: PointPattern):
    if abs(model.r_inner - gen.anchor_radius) > EPS_GEOM:
        raise ConfigurationError("annulus inner radius must match the anchor disk")
    mask = gen.boundary_mask(mu)
    mass = model.rate * (gen.hull_area(list(compress(mu.rows, mask))) - math.pi * gen.anchor_radius**2)
    return mask, mass, None


#: (generator type, model type) -> rule(gen, model, mu) -> (mask, hull mass, integrate or None)
_PAIRINGS = {
    (ConvexHullGen, sampling.UniformBox): _convex_rule,
    (ConvexHullGen, sampling.UniformDisk): _convex_rule,
    (ConvexHullGen, sampling.UniformPolygon): _convex_rule,
    (CoordMinGen, sampling.UniformBox): _coordmin_rule,
    (ParetoGen, sampling.UniformBox): _pareto_box_rule,
    (ParetoGen, sampling.HalfLine): _pareto_halfline_rule,
    (EnvelopeGen, sampling.HoelderBand): _band_rule,
    (HalfPlaneGen, sampling.LinesBand): _lines_rule,
    (DiskHullGen, sampling.UniformAnnulus): _annulus_rule,
}


def evaluate(
    gen: HullGenerator, model, mu: PointPattern
) -> tuple[tuple[bool, ...], float, Callable[..., float] | None]:
    """(boundary mask, hull mass, integrate) of mu under its (generator, model) pairing.

    The per-pattern call: the pairing rule reads the mask and the mass from
    one geometry pass, exactly, and ``integrate(f)`` integrates a
    non-constant integrand over the hull from that pass's geometry; it is
    None where the pairing integrates constants only.  The mask is
    ``gen.boundary_mask(mu)``; the mass is nan on the half line, whose hull
    has no finite mass.  The empty pattern has an empty hull, whatever the
    pairing.
    """
    gen.check_pattern(mu)
    if mu.is_empty:
        return (), 0.0, lambda f: 0.0
    rule = _PAIRINGS.get((type(gen), type(model)))
    if rule is None:
        raise ConfigurationError(
            f"unsupported hull-integral pairing: {type(gen).__name__} with {type(model).__name__}"
        )
    return rule(gen, model, mu)


def finite_mass(mass: float) -> float:
    """A hull mass of ``evaluate``, refused where it is nan: the half line has none."""
    if math.isnan(mass):
        raise ConfigurationError("half-line hull mass is infinite; integrate a tail function instead")
    return mass


def hull_mass(gen: HullGenerator, mu: PointPattern, model) -> float:
    """Intensity mass of the hull region, as ``evaluate`` reads it; the half line has none."""
    return finite_mass(evaluate(gen, model, mu)[1])


def _staircase_area(minimal: list[list[float]], lo, hi) -> float:
    """Mass of the union of the minimal rows' upper orthants in a box, d <= 2.

    ``minimal`` comes in row order: x increasing and, in 2-D, y strictly
    falling.  Each row's slab runs from its x to the next row's, as high as
    the box above its y (height 1 in 1-D); the slabs are summed left to right.
    """
    area = 0.0
    frontier = [[max(c, l) for c, l in zip(row, lo)] for row in minimal]
    for i, (x, *ys) in enumerate(frontier):
        x_next = frontier[i + 1][0] if i + 1 < len(frontier) else hi[0]
        w = max(0.0, min(x_next, hi[0]) - min(x, hi[0]))
        area += w * math.prod(max(0.0, h - y) for y, h in zip(ys, hi[1:]))
    return area
