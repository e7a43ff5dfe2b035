"""Poisson process simulation over structured intensity models.

Every sampler is a pure function of an :class:`RngStream` value, so a fixed
(model, base seed, stream index) triple reproduces the same pattern bit for
bit on any machine and under any degree of parallelism.  The harness assigns
one stream per replication.

The sampler primitive of each model is ``sample_coords``: n i.i.d. draws as an
(n, k) array of coordinate rows in its ``space_tag``.  The base class turns
those rows into a pattern (``sample_pattern``, through
``PointPattern.from_array``); callers that want the draws themselves, such
as the nested probes, read the array.  No sampler builds a point object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import ConfigurationError, DomainError, PointPattern

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit integers."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


@dataclass(frozen=True)
class RngStream:
    """A (base seed, stream index) pair naming one reproducible random stream."""

    base_seed: int
    stream_index: int = 0

    def seed(self) -> int:
        return mix64(self.base_seed ^ ((self.stream_index * _GOLDEN) & _MASK))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed()))

    def stream(self, index: int) -> "RngStream":
        """Sibling stream under the same base seed."""
        return RngStream(self.base_seed, index)

    def child(self, tag: int) -> "RngStream":
        """Independent sub-namespace rooted at this stream.

        The tag is folded into the derived base seed, so further ``stream``
        indexing cannot collide with a sibling namespace.
        """
        return RngStream(mix64(self.seed() ^ ((tag * _GOLDEN) & _MASK)), 0)


# ---------------------------------------------------------------------------
# intensity models


class IntensityModel:
    """Region + density + total mass; drives sampling and hull integrals."""

    rate: float
    #: ground space of the sampled rows
    space_tag: tuple

    @property
    def total_mass(self) -> float:
        raise NotImplementedError

    def sample_coords(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws from the normalized intensity, as (n, k) coordinate rows."""
        raise NotImplementedError

    def sample_pattern(self, rng: np.random.Generator) -> PointPattern:
        n = int(rng.poisson(self.total_mass))
        return PointPattern.from_array(self.space_tag, self.sample_coords(n, rng))


def _unit_circle(ang: np.ndarray) -> np.ndarray:
    """Rows (cos, sin) of the angles, from ``math``: libm values on every platform."""
    return np.array([(math.cos(a), math.sin(a)) for a in ang.tolist()]).reshape(len(ang), 2)


@dataclass(frozen=True)
class UniformBox(IntensityModel):
    """rate * Lebesgue on an axis-aligned box in R^d, d <= 3."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    rate: float = 1.0

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi) or not 1 <= len(self.lo) <= 3:
            raise ConfigurationError("box bounds must share a dimension in 1..3")
        if any(h <= l for l, h in zip(self.lo, self.hi)) or self.rate < 0:
            raise ConfigurationError("box must be nondegenerate and rate >= 0")
        vol = math.prod(h - l for l, h in zip(self.lo, self.hi))
        object.__setattr__(self, "_volume", vol)
        object.__setattr__(self, "_mass", self.rate * vol)
        object.__setattr__(self, "_lo", np.array(self.lo, dtype=float))
        object.__setattr__(self, "_span", np.array(self.hi, dtype=float) - self._lo)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def space_tag(self) -> tuple:
        return ("euclid", self.dim)

    @property
    def volume(self) -> float:
        return self._volume

    @property
    def total_mass(self) -> float:
        return self._mass

    def sample_coords(self, n, rng):
        return self._lo + self._span * rng.random((n, self.dim))  # the draws of rng.uniform(lo, hi)


@dataclass(frozen=True)
class UniformDisk(IntensityModel):
    """rate * Lebesgue on a planar disk."""

    center: tuple[float, float]
    radius: float
    rate: float = 1.0
    space_tag = ("euclid", 2)

    def __post_init__(self) -> None:
        if self.radius <= 0 or self.rate < 0:
            raise ConfigurationError("disk radius must be positive and rate >= 0")

    @property
    def total_mass(self) -> float:
        return self.rate * math.pi * self.radius**2

    def sample_coords(self, n, rng):
        r = self.radius * np.sqrt(rng.uniform(size=n))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return np.asarray(self.center, dtype=float) + r[:, None] * _unit_circle(ang)


def polygon_area(poly) -> float:
    """Signed shoelace area of a vertex list or tuple (positive if CCW), summed left to right."""
    if len(poly) < 3:
        return 0.0
    s = 0.0
    for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
        s += ax * by - bx * ay
    return 0.5 * s


@dataclass(frozen=True)
class UniformPolygon(IntensityModel):
    """rate * Lebesgue on a convex polygon (counterclockwise vertices)."""

    vertices: tuple[tuple[float, float], ...]
    rate: float = 1.0
    space_tag = ("euclid", 2)

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ConfigurationError("polygon needs at least 3 vertices")

    @property
    def area(self) -> float:
        return polygon_area(self.vertices)

    @property
    def total_mass(self) -> float:
        return self.rate * self.area

    def _inside(self, pts: np.ndarray) -> np.ndarray:
        """Per row: on the left of (or on) every edge?"""
        x, y = pts[:, 0], pts[:, 1]
        ok = np.ones(len(pts), dtype=bool)
        v = self.vertices
        for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]):
            ok &= (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0.0
        return ok

    def sample_coords(self, n, rng):
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        lo = (min(xs), min(ys))
        hi = (max(xs), max(ys))
        parts, have = [np.empty((0, 2))], 0
        while have < n:  # accepted rows of each batch, until n
            cand = rng.uniform(lo, hi, size=(max(n - have, 8), 2))
            parts.append(cand[self._inside(cand)][: n - have])
            have += len(parts[-1])
        return np.concatenate(parts)


@dataclass(frozen=True)
class UniformAnnulus(IntensityModel):
    """rate * Lebesgue on the annulus r_inner < ||x|| < r_outer (origin centred)."""

    r_inner: float
    r_outer: float
    rate: float = 1.0
    space_tag = ("euclid", 2)

    def __post_init__(self) -> None:
        if not 0 <= self.r_inner < self.r_outer:
            raise ConfigurationError("annulus needs 0 <= r_inner < r_outer")

    @property
    def total_mass(self) -> float:
        return self.rate * math.pi * (self.r_outer**2 - self.r_inner**2)

    def sample_coords(self, n, rng):
        u = rng.uniform(size=n)
        r = np.sqrt(self.r_inner**2 + u * (self.r_outer**2 - self.r_inner**2))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return r[:, None] * _unit_circle(ang)


@dataclass(frozen=True)
class HoelderBand(IntensityModel):
    """rate * Lebesgue on the band {(s, u): s in window, 0 <= u <= phi(s)}.

    ``phi`` must be (holder_const, holder_exp)-Hoelder with holder_const no
    larger than the envelope constant of the paired generator; then every
    sampled envelope stays below phi pointwise.  Only u >= 0 is sampled: lower
    atoms can neither raise the envelope above zero nor carry weight for the
    depth integrands used here, so the restriction is exact for this band.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    phi: Callable[[np.ndarray], np.ndarray]
    phi_sup: float
    phi_integral: float
    holder_const: float
    holder_exp: float
    rate: float = 1.0
    resolution: int = 2048

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi) or not 1 <= len(self.lo) <= 2:
            raise ConfigurationError("band window must be 1- or 2-dimensional")
        if any(not l < h for l, h in zip(self.lo, self.hi)):
            raise ConfigurationError(f"band window needs lo < hi, got {self.lo} and {self.hi}")
        if self.resolution < 1:
            raise ConfigurationError(f"band resolution must be >= 1, got {self.resolution}")
        if self.phi_sup <= 0 or self.phi_integral <= 0:
            raise ConfigurationError("phi must be positive on the window")
        if not 0 < self.holder_exp <= 1 or self.holder_const < 0:
            raise ConfigurationError("need holder_exp in (0,1] and holder_const >= 0")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def space_tag(self) -> tuple:
        return ("param", self.dim)

    @property
    def total_mass(self) -> float:
        return self.rate * self.phi_integral

    def phi_at(self, sites: np.ndarray) -> np.ndarray:
        return np.asarray(self.phi(sites), dtype=float)

    def grid_sites(self) -> tuple[np.ndarray, float]:
        """Midpoint grid over the window at the model's ``resolution``, and the cell volume."""
        n = self.resolution
        if self.dim == 1:
            edges = np.linspace(self.lo[0], self.hi[0], n + 1)
            mids = 0.5 * (edges[:-1] + edges[1:])
            return mids[:, None], (self.hi[0] - self.lo[0]) / n
        n1 = max(16, int(math.sqrt(n)))
        ex = np.linspace(self.lo[0], self.hi[0], n1 + 1)
        ey = np.linspace(self.lo[1], self.hi[1], n1 + 1)
        mx = 0.5 * (ex[:-1] + ex[1:])
        my = 0.5 * (ey[:-1] + ey[1:])
        gx, gy = np.meshgrid(mx, my, indexing="ij")
        cell = (ex[1] - ex[0]) * (ey[1] - ey[0])
        return np.column_stack([gx.ravel(), gy.ravel()]), cell

    @cached_property
    def band_grid(self) -> tuple[np.ndarray, float, np.ndarray]:
        """(sites, cell volume, phi at the sites) of ``grid_sites()``, read-only.

        The band quadrature of every pattern reads this one grid, built on
        first use; a model of another resolution is another instance with
        its own grid.
        """
        sites, cell = self.grid_sites()
        phi = self.phi_at(sites)
        sites.flags.writeable = False
        phi.flags.writeable = False
        return sites, cell, phi

    def sample_coords(self, n, rng):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        parts, have = [np.empty((0, self.dim + 1))], 0
        while have < n:  # accepted rows of each batch, until n
            batch = max(2 * (n - have), 16)
            s = rng.uniform(lo, hi, size=(batch, self.dim))
            p = self.phi_at(s)
            accept = rng.uniform(0.0, self.phi_sup, size=batch) < p
            u = rng.uniform(size=batch) * p
            parts.append(np.column_stack([s[accept], u[accept]])[: n - have])
            have += len(parts[-1])
        return np.concatenate(parts)


@dataclass(frozen=True)
class LinesBand(IntensityModel):
    """Poisson line process in the band h_inner(theta) <= u <= h_outer(theta).

    Lines are half-plane boundaries {x: <x, s_theta> <= u}; constant support
    functions describe concentric disks.  theta carries the measure
    rate * (h_outer - h_inner)(theta) dtheta.
    """

    h_inner: float
    h_outer: float
    rate: float = 1.0
    space_tag = ("line",)

    def __post_init__(self) -> None:
        if not 0 <= self.h_inner < self.h_outer:
            raise ConfigurationError("need 0 <= h_inner < h_outer")

    @property
    def gap(self) -> float:
        return self.h_outer - self.h_inner

    @property
    def total_mass(self) -> float:
        return self.rate * 2.0 * math.pi * self.gap

    def sample_coords(self, n, rng):
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
        u = rng.uniform(self.h_inner, self.h_outer, size=n)
        return np.column_stack([ang, u])


@dataclass(frozen=True)
class HalfLine(IntensityModel):
    """Unit-dimension process on [start, infinity) truncated at a horizon.

    Points beyond start + horizon are not drawn; the scenarios using this
    model only ever read the minimum point and closed-form tail integrals, so
    the truncation does not affect any estimator value.
    """

    start: float
    rate: float = 1.0
    horizon: float = 50.0
    space_tag = ("euclid", 1)

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.horizon <= 0:
            raise ConfigurationError("need positive rate and horizon")

    @property
    def total_mass(self) -> float:
        # mass of the simulated (truncated) window
        return self.rate * self.horizon

    def sample_coords(self, n, rng):
        return (self.start + rng.uniform(0.0, self.horizon, size=n))[:, None]


# ---------------------------------------------------------------------------
# sampling operations


def sample_poisson(model: IntensityModel, stream: RngStream) -> PointPattern:
    """One Poisson pattern: N ~ Poisson(total mass), then N i.i.d. points."""
    if model.total_mass < 0 or not math.isfinite(model.total_mass):
        raise DomainError("model must have finite nonnegative total mass")
    return model.sample_pattern(stream.generator())


def trimmed_resample(model, gen, observed: PointPattern, stream: RngStream) -> PointPattern:
    """Fresh Poisson sample restricted to the hull of ``observed``.

    Restriction of a Poisson process is Poisson, so thinning a fresh pattern
    through hull membership realises the hull-trimmed intensity exactly.
    """
    fresh = sample_poisson(model, stream)
    if fresh.is_empty:
        return fresh
    gen.check_pattern(observed)
    gen.check_pattern(fresh)
    mask = gen.contains_mask(observed, fresh.coords)
    return fresh.with_mults(m if keep else 0 for m, keep in zip(fresh.mults, mask))
