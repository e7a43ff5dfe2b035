"""Poisson process simulation over structured intensity models.

Every pattern is drawn from its own random stream.  An :class:`RngStream`
names the stream by a (base seed, stream index) pair, and its Generator is
``np.random.Generator(np.random.PCG64(stream.seed()))`` bit for bit, so a
fixed (model, base seed, stream index) triple reproduces the same pattern on
any machine and under any degree of parallelism.  The harness assigns one
stream per replication.

Seeding is the costly part of a small pattern: PCG64 hashes its int seed
through ``SeedSequence`` first.  ``seed_words`` computes that hash for many
seeds at once with uint32 array arithmetic, and ``stream_generators`` turns
a run of streams into Generators, hashing the seeds in blocks and building
each Generator only when it is asked for.  ``RngStream.generator`` is the
one-stream case of it, so every stream is seeded the same way.

The sampler primitive of each model is ``sample_coords``: n i.i.d. draws as an
(n, k) array of coordinate rows in its ``space_tag``.  ``sample_poisson``
turns those rows into a pattern through ``PointPattern.from_array``; callers
that want the draws themselves, such as the nested probes, read the array.
No sampler builds a point object.

Each batch of a sampler takes its doubles from one ``rng.random`` call and
maps a double u to ``low + (high - low) * u``, the arithmetic of
``Generator.uniform``.  The doubles are drawn in the order the equivalent
``uniform`` calls would draw them, so every pattern, and the Generator's
state after it, is what those calls give, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator

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


# SeedSequence's hash of an int seed (numpy/random/bit_generator.pyx, after
# O'Neill's seed_seq_fe): its multipliers advance the same way for every seed
_M32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The hash multipliers init * mult**i mod 2**32, i = 0..n, as a uint32 column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


_POOL_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 16)  # mixing the 4-word pool
_STATE_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # generating 8 state words
#: per source word of the pool: the other words it mixes into, in order, and its multipliers
_MIX_STEPS = tuple((src, [d for d in range(4) if d != src],
                    _POOL_CONSTS[4 + 3 * src:7 + 3 * src], _POOL_CONSTS[5 + 3 * src:8 + 3 * src])
                   for src in range(4))


def _hashmix(v: np.ndarray, c_in: np.ndarray, c_out: np.ndarray) -> np.ndarray:
    v = (v ^ c_in) * c_out  # uint32 arithmetic wraps, as in the C original
    return v ^ (v >> 16)


def seed_words(seeds: Iterable[int]) -> np.ndarray:
    """Per seed in [0, 2**64), the row ``SeedSequence(s).generate_state(4, np.uint64)``.

    One array pass for all the seeds.  A seed enters as its low and high
    32-bit words followed by zeros, which is how ``SeedSequence`` pads an
    entropy shorter than its 4-word pool, so seeds below 2**32 need no
    special case.  Returns a C-ordered (n, 4) uint64 array.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(s)), dtype=np.uint32)
    pool[0] = s & _M32
    pool[1] = s >> 32
    pool = _hashmix(pool, _POOL_CONSTS[:4], _POOL_CONSTS[1:5])
    for src, dst, c_in, c_out in _MIX_STEPS:
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], c_in, c_out) * _MIX_R
        pool[dst] = mixed ^ (mixed >> 16)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS[:8], _STATE_CONSTS[1:])
    state = state.astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)  # little-endian pairs


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state words are already hashed: one row of ``seed_words``.

    ``PCG64`` asks it for 4 uint64 words once, at construction.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


#: seeds hashed per ``seed_words`` call by ``stream_generators``
_SEED_BLOCK = 256


@dataclass(frozen=True)
class RngStream:
    """A (base seed, stream index) pair naming one reproducible random stream.

    Its Generator is ``Generator(PCG64(self.seed()))``, bit for bit.  A loop
    over many streams takes their Generators from ``stream_generators``.
    """

    base_seed: int
    stream_index: int = 0

    def seed(self) -> int:
        return mix64(self.base_seed ^ ((self.stream_index * _GOLDEN) & _MASK))

    def generator(self) -> np.random.Generator:
        return next(stream_generators([self]))

    def stream(self, index: int) -> "RngStream":
        """Sibling stream under the same base seed."""
        return RngStream(self.base_seed, index)

    def child(self, tag: int) -> "RngStream":
        """Independent sub-namespace rooted at this stream.

        The tag is folded into the derived base seed, so further ``stream``
        indexing cannot collide with a sibling namespace.
        """
        return RngStream(mix64(self.seed() ^ ((tag * _GOLDEN) & _MASK)), 0)


def stream_generators(streams: Iterable[RngStream]) -> Iterator[np.random.Generator]:
    """One Generator per stream, in order, each equal to ``Generator(PCG64(stream.seed()))``.

    The seeds are hashed ``_SEED_BLOCK`` at a time by ``seed_words``; each
    Generator is built when the caller asks for it, so a loop that draws one
    pattern per Generator holds one at a time.
    """
    it = iter(streams)
    while block := [s.seed() for s in islice(it, _SEED_BLOCK)]:
        for words in seed_words(block):
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


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


def _check_rate(rate: float) -> None:
    if not 0 <= rate < math.inf:
        raise ConfigurationError(f"rate must be finite and >= 0, got {rate!r}")


def _check_finite(model: IntensityModel, *names: str) -> None:
    """Refuse a NaN or infinite parameter when the model is built.

    Such a parameter would fail only at the first draw, or make a rejection
    sampler accept no row and loop forever.
    """
    for name in names:
        value = getattr(model, name)
        if not all(map(math.isfinite, value if isinstance(value, (tuple, list)) else (value,))):
            raise ConfigurationError(f"{type(model).__name__} {name} must be finite, "
                                     f"got {value!r}")


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
        _check_finite(self, "lo", "hi")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ConfigurationError("box must be nondegenerate")
        _check_rate(self.rate)
        vol = math.prod(h - l for l, h in zip(self.lo, self.hi))
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
    def total_mass(self) -> float:
        return self._mass

    def sample_coords(self, n, rng):
        return self._lo + self._span * rng.random((n, self.dim))


@dataclass(frozen=True)
class UniformDisk(IntensityModel):
    """rate * Lebesgue on a planar disk."""

    center: tuple[float, float]
    radius: float
    rate: float = 1.0
    space_tag = ("euclid", 2)

    def __post_init__(self) -> None:
        _check_finite(self, "center", "radius")
        if self.radius <= 0:
            raise ConfigurationError("disk radius must be positive")
        _check_rate(self.rate)

    @property
    def total_mass(self) -> float:
        return self.rate * math.pi * self.radius**2

    def sample_coords(self, n, rng):
        u = rng.random(2 * n)
        r = self.radius * np.sqrt(u[:n])
        ang = 2.0 * math.pi * u[n:]
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
    """rate * Lebesgue on a convex polygon (counterclockwise vertices; others are refused)."""

    vertices: tuple[tuple[float, float], ...]
    rate: float = 1.0
    space_tag = ("euclid", 2)

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) < 3:
            raise ConfigurationError("polygon needs at least 3 vertices")
        # the sampler keeps the points on the left of every edge, which is the
        # polygon only when it is convex, counterclockwise and winds once; an
        # edge of length 0 has no direction, so the turn is read across it
        w = [p for p, q in zip(v, v[1:] + v[:1]) if tuple(p) != tuple(q)]
        turn = 0.0
        for (ax, ay), (bx, by), (cx, cy) in zip(w[-1:] + w[:-1], w, w[1:] + w[:1]):
            ux, uy, wx, wy = bx - ax, by - ay, cx - bx, cy - by
            cross = ux * wy - uy * wx
            if cross < 0:
                raise ConfigurationError(f"polygon turns clockwise at vertex {(bx, by)}: "
                                         "it must be convex with counterclockwise vertices")
            # abs: a reversal turns by +pi, also when its cross is -0.0
            turn += math.atan2(abs(cross), ux * wx + uy * wy)
        if not (0 < polygon_area(v) < math.inf and turn < 3 * math.pi):
            raise ConfigurationError("polygon must wind once around a positive finite area")
        _check_rate(self.rate)
        xs, ys = zip(*v)
        object.__setattr__(self, "_lo", np.array((min(xs), min(ys)), dtype=float))
        object.__setattr__(self, "_span", np.array((max(xs), max(ys)), dtype=float) - self._lo)

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
        out, have = np.empty((n, 2)), 0
        while have < n:  # the first accepted rows of each bounding-box batch, until n
            cand = self._lo + self._span * rng.random((max(n - have, 8), 2))
            keep = cand[self._inside(cand)][: n - have]
            out[have:have + len(keep)] = keep
            have += len(keep)
        return out


@dataclass(frozen=True)
class UniformAnnulus(IntensityModel):
    """rate * Lebesgue on the annulus r_inner < ||x|| < r_outer (origin centred)."""

    r_inner: float
    r_outer: float
    rate: float = 1.0
    space_tag = ("euclid", 2)

    def __post_init__(self) -> None:
        _check_finite(self, "r_inner", "r_outer")
        if not 0 <= self.r_inner < self.r_outer:
            raise ConfigurationError("annulus needs 0 <= r_inner < r_outer")
        _check_rate(self.rate)

    @property
    def total_mass(self) -> float:
        return self.rate * math.pi * (self.r_outer**2 - self.r_inner**2)

    def sample_coords(self, n, rng):
        u = rng.random(2 * n)
        r = np.sqrt(self.r_inner**2 + u[:n] * (self.r_outer**2 - self.r_inner**2))
        return r[:, None] * _unit_circle(2.0 * math.pi * u[n:])


@dataclass(frozen=True)
class HoelderBand(IntensityModel):
    """rate * Lebesgue on the band {(s, u): s in window, 0 <= u <= phi(s)}.

    ``phi`` must be (holder_const, holder_exp)-Hoelder with holder_const no
    larger than the envelope constant of the paired generator; then every
    sampled envelope stays below phi pointwise.  On ``band_grid`` phi must be
    finite, within [0, phi_sup] and somewhere positive.  Only u >= 0 is
    sampled: lower atoms can neither raise the envelope above zero nor carry
    weight for the depth integrands used here, so the restriction is exact for
    this band.
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
        _check_finite(self, "lo", "hi", "phi_sup", "phi_integral", "holder_const", "holder_exp")
        if any(not l < h for l, h in zip(self.lo, self.hi)):
            raise ConfigurationError(f"band window needs lo < hi, got {self.lo} and {self.hi}")
        if self.resolution < 1:
            raise ConfigurationError(f"band resolution must be >= 1, got {self.resolution}")
        if self.phi_sup <= 0 or self.phi_integral <= 0:
            raise ConfigurationError("phi_sup and phi_integral must be positive")
        if not 0 < self.holder_exp <= 1 or self.holder_const < 0:
            raise ConfigurationError("need holder_exp in (0,1] and holder_const >= 0")
        _check_rate(self.rate)
        object.__setattr__(self, "_lo", np.array(self.lo, dtype=float))
        object.__setattr__(self, "_span", np.array(self.hi, dtype=float) - self._lo)
        # the sampler accepts no row where phi is nowhere positive, caps acceptance at
        # phi_sup, and the band rule clips depths into [0, phi]: each needs phi checked
        phi = self.band_grid[2]
        if not np.isfinite(phi).all():
            raise ConfigurationError("phi must be finite on the band grid")
        if (phi < 0.0).any() or (phi > self.phi_sup).any():
            raise ConfigurationError(f"phi must lie in [0, phi_sup] = [0, {self.phi_sup}] "
                                     "on the band grid")
        if not (phi > 0.0).any():
            raise ConfigurationError("phi must be positive somewhere on the band grid")

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

        The band quadrature of every pattern reads this one grid, built when
        the model is constructed, which checks phi on it; a model of another
        resolution is another instance with its own grid.
        """
        sites, cell = self.grid_sites()
        phi = self.phi_at(sites)
        sites.flags.writeable = False
        phi.flags.writeable = False
        return sites, cell, phi

    def sample_coords(self, n, rng):
        d = self.dim
        out, have = np.empty((n, d + 1)), 0
        while have < n:  # the first accepted rows of each batch, until n
            need = n - have
            batch = max(2 * need, 16)
            u = rng.random(batch * (d + 2))  # sites, then acceptance draws, then level draws
            s = self._lo + self._span * u[:batch * d].reshape(batch, d)
            p = self.phi_at(s)
            keep = np.flatnonzero(self.phi_sup * u[batch * d:batch * (d + 1)] < p)[:need]
            out[have:have + len(keep), :d] = s[keep]
            out[have:have + len(keep), d] = u[batch * (d + 1):][keep] * p[keep]
            have += len(keep)
        return out


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
        _check_finite(self, "h_inner", "h_outer")
        if not 0 <= self.h_inner < self.h_outer:
            raise ConfigurationError("need 0 <= h_inner < h_outer")
        _check_rate(self.rate)

    @property
    def gap(self) -> float:
        return self.h_outer - self.h_inner

    @property
    def total_mass(self) -> float:
        return self.rate * 2.0 * math.pi * self.gap

    def sample_coords(self, n, rng):
        u = rng.random(2 * n)
        return np.column_stack([2.0 * math.pi * u[:n], self.h_inner + self.gap * u[n:]])


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
        _check_finite(self, "start")
        if not (0 < self.rate < math.inf and 0 < self.horizon < math.inf):
            raise ConfigurationError("need a positive finite rate and horizon")

    @property
    def total_mass(self) -> float:
        # mass of the simulated (truncated) window
        return self.rate * self.horizon

    def sample_coords(self, n, rng):
        return (self.start + self.horizon * rng.random(n))[:, None]


# ---------------------------------------------------------------------------
# sampling operations


def sample_poisson(model: IntensityModel, rng: np.random.Generator) -> PointPattern:
    """One Poisson pattern: N ~ Poisson(total mass), then N i.i.d. points, all from ``rng``.

    ``rng`` is the Generator of the pattern's own stream (``RngStream.generator``
    or one of ``stream_generators``), so the pattern is a pure function of the
    model and the stream.
    """
    if model.total_mass < 0 or not math.isfinite(model.total_mass):
        raise DomainError("model must have finite nonnegative total mass")
    n = int(rng.poisson(model.total_mass))
    return PointPattern.from_array(model.space_tag, model.sample_coords(n, rng))


def trimmed_resample(model, gen, observed: PointPattern, rng: np.random.Generator) -> PointPattern:
    """Fresh Poisson sample from ``rng``, restricted to the hull of ``observed``.

    Restriction of a Poisson process is Poisson, so thinning a fresh pattern
    through hull membership realises the hull-trimmed intensity exactly.
    """
    fresh = sample_poisson(model, rng)
    if fresh.is_empty:
        return fresh
    gen.check_pattern(observed)
    gen.check_pattern(fresh)
    mask = gen.contains_mask(observed, fresh.coords)
    return fresh.with_mults(m if keep else 0 for m, keep in zip(fresh.mults, mask))
