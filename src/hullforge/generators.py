"""Concrete hull generators and their geometry kernels.

Each generator implements the thinning map ``boundary`` and the membership
predicate ``hull_contains``; the two are kept mutually consistent so that the
definitional identity ``hull_contains(mu, x) == (boundary(mu + d_x) ==
boundary(mu))`` holds everywhere outside degenerate tolerance shells.

Geometric predicates use the relative tolerance ``EPS_GEOM``: a point within
tolerance of the hull boundary, but not coinciding with a vertex, counts as
inside.  Point coincidence is always exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.spatial import ConvexHull as _SciPyHull
from scipy.spatial import QhullError

from .core import (
    ConfigurationError,
    DomainError,
    EPS_GEOM,
    EuclidPoint,
    HullGenerator,
    PointPattern,
    SpacePoint,
)
from . import sampling


# ---------------------------------------------------------------------------
# planar convex-hull kernel


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _coord_scale(pts) -> float:
    m = 1.0
    for p in pts:
        for c in p:
            m = max(m, abs(c))
    return m


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


def _point_in_polygon(poly: list[tuple[float, float]], q: tuple[float, float]) -> bool:
    """Inside-or-on test against a CCW convex polygon, EPS_GEOM widened."""
    scale = max(_coord_scale(poly), _coord_scale([q]))
    tol = EPS_GEOM * scale**2
    n = len(poly)
    if n == 1:
        return False
    if n == 2:
        return _on_segment(poly[0], poly[1], q, EPS_GEOM * scale)
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        if _cross(a, b, q) < -tol:
            return False
    return True


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


def convex_hull_vertices(points: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the extreme points of a planar or 3D point set.

    Duplicates are reduced to their first occurrence; collinear or coplanar
    non-extreme points are excluded.  The output is ordered so the selected
    points are lexicographically sorted.
    """
    pts = [tuple(float(c) for c in p) for p in points]
    if not pts:
        return []
    dim = len(pts[0])
    if dim not in (2, 3):
        raise DomainError("convex hull kernel supports dimensions 2 and 3")
    first: dict[tuple, int] = {}
    for i, p in enumerate(pts):
        first.setdefault(p, i)
    distinct = list(first)
    ext = _extreme_points(distinct, dim)
    return sorted((first[p] for p in ext), key=lambda i: pts[i])


def _extreme_points(distinct: list[tuple], dim: int) -> list[tuple]:
    if len(distinct) <= 2:
        return list(distinct)
    if dim == 2:
        return _extreme_2d(distinct)
    coords = np.asarray(distinct, dtype=float)
    scale = _coord_scale(distinct)
    rank, c, basis = _affine_rank(coords, EPS_GEOM * scale)
    if rank == 3:
        try:
            hull = _SciPyHull(coords)
        except QhullError:
            rank, basis = 2, basis[:2]  # numerically flat; use the planar path
        else:
            return [distinct[i] for i in hull.vertices]
    if rank == 0:
        return [distinct[0]]
    proj = (coords - c) @ basis.T
    if rank == 1:
        t = proj[:, 0]
        return [distinct[int(np.argmin(t))], distinct[int(np.argmax(t))]]
    flat = _extreme_2d([tuple(p) for p in proj])
    back = {tuple(p): distinct[i] for i, p in enumerate(proj)}
    return [back[p] for p in flat]


@dataclass(frozen=True)
class ConvexHullGen(HullGenerator):
    """Boundary = pattern restricted to the vertices of the convex hull.

    Points lying on a face but not at a vertex belong to the hull region.
    """

    dim: int = 2

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ConfigurationError("convex hull generator supports d in {2, 3}")
        object.__setattr__(self, "space_tag", ("euclid", self.dim))

    def boundary(self, mu: PointPattern) -> PointPattern:
        self.check_pattern(mu)
        if mu.is_empty:
            return mu
        support = [p.coords for p in mu.support()]
        ext = set(_extreme_points(list(dict.fromkeys(support)), self.dim))
        return mu.restrict(lambda p: p.coords in ext)

    def hull_contains(self, mu: PointPattern, x: SpacePoint) -> bool:
        self.check_pattern(mu)
        self.check_point(x)
        if mu.is_empty:
            return False
        distinct = list(dict.fromkeys(p.coords for p in mu.support()))
        ext = _extreme_points(distinct, self.dim)
        if x.coords in set(ext):
            return False
        if self.dim == 2:
            return _point_in_polygon(ext, x.coords)
        return self._contains_3d(distinct, ext, x.coords)

    def _contains_3d(self, distinct, ext, q) -> bool:
        coords = np.asarray(distinct, dtype=float)
        scale = max(_coord_scale(distinct), _coord_scale([q]))
        tol = EPS_GEOM * scale
        rank, c, basis = _affine_rank(coords, EPS_GEOM * scale)
        qv = np.asarray(q, dtype=float)
        if rank == 3:
            try:
                hull = _SciPyHull(coords)
            except QhullError:
                rank, basis = 2, basis[:2]
            else:
                eq = hull.equations
                return bool(np.all(eq[:, :3] @ qv + eq[:, 3] <= tol))
        if rank == 0:
            return False
        resid = qv - c
        off = resid - basis.T @ (basis @ resid)
        if np.linalg.norm(off) > tol:
            return False
        proj = (coords - c) @ basis.T
        qp = basis @ resid
        if rank == 1:
            t = proj[:, 0]
            return float(t.min()) - tol <= qp[0] <= float(t.max()) + tol
        flat = _extreme_2d([tuple(p) for p in proj])
        return _point_in_polygon(flat, tuple(qp))

    def survival_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Leave-one-out indicators; planar patterns use the angular-gap kernel.

        Copies of z never change conv(others), so H_z(mu - d_z) is 1 iff z is
        off the hull of the other distinct support points, whatever its
        multiplicity.  d = 3 keeps the definitional loop.
        """
        if self.dim != 2:
            return super().survival_mask(mu)
        self.check_pattern(mu)
        pts = np.asarray([p.coords for p in mu.support()], dtype=float).reshape(-1, 2)
        return tuple(_outside_others_2d(pts).tolist())

    def hull_contains_many(self, mu: PointPattern, points) -> list[bool]:
        if mu.is_empty:
            return [False] * len(points)
        if self.dim != 2:
            return [self.hull_contains(mu, p) for p in points]
        distinct = list(dict.fromkeys(p.coords for p in mu.support()))
        ext = _extreme_points(distinct, self.dim)
        ext_set = set(ext)
        if len(ext) < 3:
            return [
                (p.coords not in ext_set) and _point_in_polygon(ext, p.coords)
                for p in points
            ]
        poly = np.asarray(ext)
        edges = np.roll(poly, -1, axis=0) - poly
        q = np.asarray([p.coords for p in points], dtype=float)
        scale = max(_coord_scale(ext), float(np.abs(q).max(initial=1.0)))
        tol = EPS_GEOM * scale**2
        rel = q[:, None, :] - poly[None, :, :]
        cross = edges[None, :, 0] * rel[:, :, 1] - edges[None, :, 1] * rel[:, :, 0]
        inside = np.all(cross >= -tol, axis=1)
        return [
            bool(ins) and (p.coords not in ext_set) for ins, p in zip(inside, points)
        ]

    def hull_volume(self, mu: PointPattern) -> float:
        """Lebesgue volume of the hull region (vertex exclusions are null)."""
        if mu.is_empty:
            return 0.0
        distinct = list(dict.fromkeys(p.coords for p in mu.support()))
        if self.dim == 2:
            poly = _extreme_2d(distinct)
            return _polygon_area(poly)
        coords = np.asarray(distinct, dtype=float)
        rank, _, _ = _affine_rank(coords, EPS_GEOM * _coord_scale(distinct))
        if rank < 3:
            return 0.0
        try:
            return float(_SciPyHull(coords).volume)
        except QhullError:
            return 0.0


def _polygon_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    s = 0.0
    for i in range(len(poly)):
        a = poly[i]
        b = poly[(i + 1) % len(poly)]
        s += a[0] * b[1] - b[0] * a[1]
    return 0.5 * s


# ---------------------------------------------------------------------------
# coordinatewise-minimum generator (planar)


def _lex_xy(p: EuclidPoint):
    return (p.coords[0], p.coords[1])


def _lex_yx(p: EuclidPoint):
    return (p.coords[1], p.coords[0])


@dataclass(frozen=True)
class CoordMinGen(HullGenerator):
    """Boundary = the smallest-x point and the smallest-y point of the support.

    Ties on a coordinate are broken lexicographically by the other coordinate,
    which keeps the map a valid generator on degenerate inputs.
    """

    def __post_init__(self) -> None:
        object.__setattr__(self, "space_tag", ("euclid", 2))

    def _argmins(self, mu: PointPattern):
        support = mu.support()
        return min(support, key=_lex_xy), min(support, key=_lex_yx)

    def boundary(self, mu: PointPattern) -> PointPattern:
        self.check_pattern(mu)
        if mu.is_empty:
            return mu
        p1, p2 = self._argmins(mu)
        keep = {p1, p2}
        return mu.restrict(lambda p: p in keep)

    def hull_contains(self, mu: PointPattern, x: SpacePoint) -> bool:
        self.check_pattern(mu)
        self.check_point(x)
        if mu.is_empty:
            return False
        p1, p2 = self._argmins(mu)
        return _lex_xy(x) > _lex_xy(p1) and _lex_yx(x) > _lex_yx(p2)


# ---------------------------------------------------------------------------
# Pareto (coordinatewise-minimal) generator


@dataclass(frozen=True)
class ParetoGen(HullGenerator):
    """Boundary = support points that do not dominate any other support point.

    A point dominates another when it is coordinatewise >= and distinct.  The
    hull is the region dominating at least one point, minus the minimal points
    themselves; H factorizes over atoms (prime property).
    """

    dim: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= 3:
            raise ConfigurationError("pareto generator supports d in 1..3")
        object.__setattr__(self, "space_tag", ("euclid", self.dim))

    @staticmethod
    def _leq(p: SpacePoint, q: SpacePoint) -> bool:
        return all(a <= b for a, b in zip(p.coords, q.coords))

    def _minimal(self, mu: PointPattern) -> set[SpacePoint]:
        support = mu.support()
        out = set()
        for p in support:
            if not any(q != p and self._leq(q, p) for q in support):
                out.add(p)
        return out

    def boundary(self, mu: PointPattern) -> PointPattern:
        self.check_pattern(mu)
        if mu.is_empty:
            return mu
        minimal = self._minimal(mu)
        return mu.restrict(lambda p: p in minimal)

    def hull_contains(self, mu: PointPattern, x: SpacePoint) -> bool:
        self.check_pattern(mu)
        self.check_point(x)
        if mu.is_empty:
            return False
        if x in self._minimal(mu):
            return False
        return any(self._leq(p, x) for p in mu.support())

    def survival_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Leave-one-out indicators from a domination matrix.

        H_z(mu - d_z) is 1 iff no other support point is coordinatewise <= z
        (copies of z do not count).  In 1-D that is the minimum atom alone.
        """
        self.check_pattern(mu)
        x = np.asarray([p.coords for p in mu.support()], dtype=float).reshape(-1, self.dim)
        if self.dim == 1:
            alone = x[:, 0] == x[:, 0].min(initial=math.inf)
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

    def __post_init__(self) -> None:
        if self.env_const <= 0 or not 0 < self.beta <= 1:
            raise ConfigurationError("need env_const > 0 and beta in (0, 1]")
        if not 1 <= self.dim <= 2:
            raise ConfigurationError("envelope generator supports base d in {1, 2}")
        object.__setattr__(self, "space_tag", ("param", self.dim))

    def _arrays(self, mu: PointPattern):
        sites = np.asarray([p.site for p in mu.support()], dtype=float)
        levels = np.asarray([p.level for p in mu.support()], dtype=float)
        return sites, levels

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
        sites, levels = self._arrays(mu)
        if self.dim == 1 and self.beta == 1.0:
            return self._envelope_line(sites[:, 0], levels, query[:, 0])
        return self.kernel_values(sites, levels, query).max(axis=1)

    def _envelope_line(self, s: np.ndarray, u: np.ndarray, q: np.ndarray) -> np.ndarray:
        """d=1, beta=1 kernel: two monotone sweeps instead of the full matrix.

        For sites left of a query the cone value is (u + R s) - R q, right of
        it (u - R s) + R q, so prefix/suffix maxima of the two transforms give
        the envelope exactly.
        """
        order = np.argsort(s, kind="stable")
        s = s[order]
        u = u[order]
        rise = np.maximum.accumulate(u + self.env_const * s)
        fall = np.maximum.accumulate((u - self.env_const * s)[::-1])[::-1]
        idx = np.searchsorted(s, q, side="right")
        left = np.where(idx > 0, rise[np.maximum(idx - 1, 0)] - self.env_const * q, -np.inf)
        jdx = np.searchsorted(s, q, side="left")
        right = np.where(
            jdx < len(s), fall[np.minimum(jdx, len(s) - 1)] + self.env_const * q, -np.inf
        )
        return np.maximum(left, right)

    def envelope_value(self, mu: PointPattern, site) -> float:
        q = np.asarray([site if hasattr(site, "__len__") else (site,)], dtype=float)
        return float(self.envelope_at(mu, q)[0])

    def contributing_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Per support atom: does removing all its copies change the envelope?"""
        return _envelope_mask(self, mu)

    def survival_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        """Removing one copy leaves H at the atom equal to the all-copies test.

        The contribution mask compares each atom with the envelope of the
        others, which is what H_z(mu - d_z) asks, so it serves directly.
        """
        self.check_pattern(mu)
        return self.contributing_mask(mu) if not mu.is_empty else ()

    def boundary(self, mu: PointPattern) -> PointPattern:
        self.check_pattern(mu)
        if mu.is_empty:
            return mu
        keep = {p for p, c in zip(mu.support(), self.contributing_mask(mu)) if c}
        return mu.restrict(lambda p: p in keep)

    def hull_contains(self, mu: PointPattern, x: SpacePoint) -> bool:
        self.check_pattern(mu)
        self.check_point(x)
        if mu.is_empty:
            return False
        if x in mu:
            return x not in self.boundary(mu)
        return x.level <= self.envelope_value(mu, x.site)

    def hull_contains_many(self, mu: PointPattern, points) -> list[bool]:
        if mu.is_empty:
            return [False] * len(points)
        bd_support = set(self.boundary(mu).support())
        in_mu = {p for p, _ in mu.entries}
        q = np.asarray([p.site for p in points], dtype=float)
        env = self.envelope_at(mu, q)
        out = []
        for p, e in zip(points, env):
            if p in in_mu:
                out.append(p not in bd_support)
            else:
                out.append(p.level <= e)
        return out


@lru_cache(maxsize=8)
def _envelope_mask(gen: EnvelopeGen, mu: PointPattern) -> tuple[bool, ...]:
    sites, levels = gen._arrays(mu)
    if gen.dim == 1 and gen.beta == 1.0:
        s = sites[:, 0]
        order = np.argsort(s, kind="stable")
        ss, uu = s[order], levels[order]
        n = len(ss)
        rise = uu + gen.env_const * ss
        fall = uu - gen.env_const * ss
        left = np.full(n, -np.inf)
        right = np.full(n, -np.inf)
        if n > 1:
            left[1:] = np.maximum.accumulate(rise[:-1])
            right[:-1] = np.maximum.accumulate(fall[::-1])[::-1][1:]
        others = np.maximum(left - gen.env_const * ss, right + gen.env_const * ss)
        dominated_sorted = uu <= others
        dominated = np.empty(n, dtype=bool)
        dominated[order] = dominated_sorted
    else:
        vals = gen.kernel_values(sites, levels, sites)
        np.fill_diagonal(vals, -np.inf)
        dominated = levels <= vals.max(axis=1)
    return tuple(bool(not d) for d in dominated)


def envelope_value(mu: PointPattern, site, env_const: float, beta: float) -> float:
    """Envelope of the pattern at one site; -inf on the empty pattern."""
    dim = 1 if not hasattr(site, "__len__") else len(site)
    gen = EnvelopeGen(dim=dim, env_const=env_const, beta=beta)
    return gen.envelope_value(mu, site)


def envelope_boundary(mu: PointPattern, env_const: float, beta: float) -> PointPattern:
    """Atoms whose removal changes the pointwise supremum."""
    if mu.is_empty:
        return mu
    dim = len(mu.support()[0].site)
    gen = EnvelopeGen(dim=dim, env_const=env_const, beta=beta)
    return gen.boundary(mu)


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

    def __post_init__(self) -> None:
        if self.window_radius <= 0:
            raise ConfigurationError("window radius must be positive")
        object.__setattr__(self, "space_tag", ("line",))

    def _arrays(self, mu: PointPattern):
        angs = np.asarray([p.angle for p in mu.support()], dtype=float)
        offs = np.asarray([p.offset for p in mu.support()], dtype=float)
        dirs = np.column_stack([np.cos(angs), np.sin(angs)])
        return dirs, offs

    def _edge_mask(self, dirs: np.ndarray, offs: np.ndarray) -> np.ndarray:
        """Which support lines keep a positive-length edge on the clipped body."""
        W = self.window_radius
        n = len(offs)
        tol_len = EPS_GEOM * max(1.0, W)
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

    def boundary(self, mu: PointPattern) -> PointPattern:
        self.check_pattern(mu)
        if mu.is_empty:
            return mu
        dirs, offs = self._arrays(mu)
        keep = self._edge_mask(dirs, offs)
        kept = {p for p, k in zip(mu.support(), keep) if k}
        return mu.restrict(lambda p: p in kept)

    def _feasible_vertices(self, dirs: np.ndarray, offs: np.ndarray) -> np.ndarray:
        """Corner candidates of the clipped body (always includes the origin)."""
        W = self.window_radius
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

    def hull_support(self, mu: PointPattern, angles: np.ndarray) -> np.ndarray:
        """Support function of the clipped body at the query angles."""
        W = self.window_radius
        S = np.column_stack([np.cos(angles), np.sin(angles)])
        if mu.is_empty:
            return np.full(len(angles), W)
        dirs, offs = self._arrays(mu)
        verts = self._feasible_vertices(dirs, offs)
        h = (verts @ S.T).max(axis=0)
        arc_ok = np.all((S @ dirs.T) * W <= offs[None, :] + 1e-12 * max(1.0, W), axis=1)
        return np.where(arc_ok, W, h)

    def hull_contains(self, mu: PointPattern, x: SpacePoint) -> bool:
        self.check_pattern(mu)
        self.check_point(x)
        if x in mu:
            return x not in self.boundary(mu)
        h = self.hull_support(mu, np.asarray([x.angle]))[0]
        return x.offset >= h

    def hull_contains_many(self, mu: PointPattern, points) -> list[bool]:
        bd = set(self.boundary(mu).support()) if not mu.is_empty else set()
        in_mu = {p for p, _ in mu.entries}
        h = self.hull_support(mu, np.asarray([p.angle for p in points]))
        out = []
        for p, hv in zip(points, h):
            if p in in_mu:
                out.append(p not in bd)
            else:
                out.append(p.offset >= hv)
        return out


def polytope_boundary(mu: PointPattern, window_radius: float) -> PointPattern:
    """Lines contributing a positive-length edge to the window-clipped polytope."""
    return HalfPlaneGen(window_radius=window_radius).boundary(mu)


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

    def boundary(self, mu: PointPattern) -> PointPattern:
        self.check_pattern(mu)
        if mu.is_empty:
            return mu
        support = [p.coords for p in mu.support()]
        keep = set()
        for p in mu.support():
            others = [c for c in support if c != p.coords]
            if self._separable(p.coords, others):
                keep.add(p)
        return mu.restrict(lambda p: p in keep)

    def hull_contains(self, mu: PointPattern, x: SpacePoint) -> bool:
        self.check_pattern(mu)
        self.check_point(x)
        support = [p.coords for p in mu.support()]
        others = [c for c in support if c != x.coords]
        return not self._separable(x.coords, others)

    def hull_area(self, mu: PointPattern) -> float:
        """Area of conv(disk U support), by walking segments and arcs."""
        r0 = self.anchor_radius
        ext = [p.coords for p in self.boundary(mu).support()]
        if not ext:
            return math.pi * r0 * r0
        ext.sort(key=lambda p: math.atan2(p[1], p[0]))
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
# exact hull mass per (generator, intensity) pairing


def hull_mass(gen: HullGenerator, mu: PointPattern, model) -> float:
    """Intensity mass of the hull region, computed exactly per pairing.

    Vertex-type exclusions from the hull carry zero mass under the diffuse
    models used here and are ignored.
    """
    gen.check_pattern(mu)
    if mu.is_empty:
        return 0.0

    if isinstance(gen, ConvexHullGen) and isinstance(
        model, (sampling.UniformBox, sampling.UniformDisk, sampling.UniformPolygon)
    ):
        # pattern is assumed to lie in the (convex) carrier, so hull subset carrier
        return model.rate * gen.hull_volume(mu)

    if isinstance(gen, CoordMinGen) and isinstance(model, sampling.UniformBox):
        p1, p2 = gen._argmins(mu)
        (lx, ly), (hx, hy) = model.lo, model.hi
        w = max(0.0, hx - max(lx, p1.coords[0]))
        h = max(0.0, hy - max(ly, p2.coords[1]))
        return model.rate * w * h

    if isinstance(gen, ParetoGen) and isinstance(model, sampling.UniformBox):
        if gen.dim == 1:
            zeta = min(p.coords[0] for p in mu.support())
            return model.rate * max(0.0, model.hi[0] - max(model.lo[0], zeta))
        if gen.dim == 2:
            return model.rate * _staircase_area(mu, model.lo, model.hi)
        raise ConfigurationError("pareto hull mass supports d <= 2 on boxes")

    if isinstance(gen, ParetoGen) and isinstance(model, sampling.HalfLine):
        raise ConfigurationError("half-line hull mass is infinite; integrate a tail function instead")

    if isinstance(gen, EnvelopeGen) and isinstance(model, sampling.HoelderBand):
        sites, cell = model.grid_sites()
        env = gen.envelope_at(mu, sites)
        phi = model.phi_at(sites)
        depth = np.clip(env, 0.0, phi)
        return model.rate * float(depth.sum()) * cell

    if isinstance(gen, HalfPlaneGen) and isinstance(model, sampling.LinesBand):
        angles = _theta_grid()
        h = gen.hull_support(mu, angles)
        gap = np.clip(model.h_outer - np.maximum(model.h_inner, h), 0.0, None)
        return model.rate * float(gap.sum()) * (2.0 * math.pi / len(angles))

    if isinstance(gen, DiskHullGen) and isinstance(model, sampling.UniformAnnulus):
        if abs(model.r_inner - gen.anchor_radius) > EPS_GEOM:
            raise ConfigurationError("annulus inner radius must match the anchor disk")
        return model.rate * (gen.hull_area(mu) - math.pi * gen.anchor_radius**2)

    raise ConfigurationError(
        f"unsupported hull-mass pairing: {type(gen).__name__} with {type(model).__name__}"
    )


THETA_GRID_SIZE = 4096


def _theta_grid(n: int = THETA_GRID_SIZE) -> np.ndarray:
    return (np.arange(n) + 0.5) * (2.0 * math.pi / n)


def _staircase_area(mu: PointPattern, lo, hi) -> float:
    """Area of the union of upper-right quadrants of the minimal points, in a box."""
    minimal = sorted(
        {p.coords for p in ParetoGen(dim=2)._minimal(mu)}, key=lambda c: (c[0], -c[1])
    )
    (lx, ly), (hx, hy) = lo, hi
    area = 0.0
    frontier: list[tuple[float, float]] = []
    best_y = math.inf
    for x, y in minimal:
        if y < best_y:
            frontier.append((max(x, lx), max(y, ly)))
            best_y = y
    for i, (x, y) in enumerate(frontier):
        x_next = frontier[i + 1][0] if i + 1 < len(frontier) else hx
        w = max(0.0, min(x_next, hx) - min(x, hx))
        h = max(0.0, hy - y)
        area += w * h
    return area
