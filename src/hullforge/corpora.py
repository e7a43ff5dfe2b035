"""Randomized pattern corpora for the axiom battery, plus negative controls."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import core, generators, montecarlo, sampling
from .core import (AxiomReport, ConfigurationError, HullGenerator, PointPattern, SpacePoint,
                   euclid, line, param)


def _with_duplicates(pts: list[SpacePoint], rng: random.Random) -> list[SpacePoint]:
    if pts and rng.random() < 0.2:
        pts = pts + [pts[rng.randrange(len(pts))]]
    return pts


def _corpus(count: int, max_points: int, seed: int, draw, draw_probe):
    """``count`` patterns of up to ``max_points`` draws (some with a duplicate), and 32 probes."""
    rng = random.Random(seed)
    pats = []
    for _ in range(count):
        pts = [draw(rng) for _ in range(rng.randint(0, max_points))]
        pats.append(PointPattern.from_points(_with_duplicates(pts, rng)))
    return pats, [draw_probe(rng) for _ in range(32)]


def euclid_corpus(
    dim: int,
    count: int,
    max_points: int,
    seed: int,
    lo: float = 0.0,
    hi: float = 1.0,
) -> tuple[list[PointPattern], list[SpacePoint]]:
    def box(a, b):
        return lambda rng: euclid(*[rng.uniform(a, b) for _ in range(dim)])

    pad = 0.2 * (hi - lo)
    return _corpus(count, max_points, seed, box(lo, hi), box(lo - pad, hi + pad))


def param_corpus(
    dim: int, count: int, max_points: int, seed: int
) -> tuple[list[PointPattern], list[SpacePoint]]:
    def box(a, b, u_lo):
        return lambda rng: param(tuple(rng.uniform(a, b) for _ in range(dim)),
                                 rng.uniform(u_lo, b))

    return _corpus(count, max_points, seed, box(0, 1, 0), box(-0.2, 1.2, -0.5))


def line_corpus(
    count: int, max_points: int, seed: int, window: float
) -> tuple[list[PointPattern], list[SpacePoint]]:
    def band(reach):
        return lambda rng: line(rng.uniform(0, 2 * math.pi), rng.uniform(0, reach * window))

    return _corpus(count, max_points, seed, band(1.2), band(1.3))


@dataclass(frozen=True)
class LexDropGen(HullGenerator):
    """Deliberately invalid generator: drops the lexicographically first point.

    Negative-control fixture; repeated thinning keeps dropping points, so the
    idempotency axiom fails on any pattern with two or more support points.
    """

    def __post_init__(self):
        object.__setattr__(self, "space_tag", ("euclid", 2))

    def boundary_mask(self, mu: PointPattern) -> tuple[bool, ...]:
        # rows are in lexicographic order, so the first one is dropped
        return (False,) + (True,) * (len(mu.rows) - 1)

    def contains_mask(self, mu: PointPattern, queries: np.ndarray) -> list[bool]:
        # the definitional form adds each query to mu as a point
        return [self.hull_contains_definitional(mu, core.point_from_row(self.space_tag, q))
                for q in map(tuple, queries.tolist())]


def _battery_chunk(args, lo: int, hi: int) -> list[AxiomReport]:
    """The battery over patterns [lo, hi) of the corpus, as a one-report list."""
    gen, patterns, probes, seed = args
    return [core.check_axioms(gen, patterns[lo:hi], probes, seed=seed + lo)]


#: the most draws (patterns x max_points) of one corpus, which is built before the first check
MAX_CORPUS_DRAWS = 10**6


def check_battery(names: Sequence[str], count: int, max_points: int) -> None:
    """Refuse a corpus too large to build, or patterns too large for a generator's kernels."""
    draws = count * max(max_points, 1)
    if draws > MAX_CORPUS_DRAWS:
        raise ConfigurationError(f"{count} patterns of up to {max_points} points are {draws} "
                                 f"draws, above the cap of {MAX_CORPUS_DRAWS:.0e}")
    for name in names:
        limit = GENERATOR_SUITE[name][0].point_limit
        if max_points > limit:
            raise ConfigurationError(f"max_points = {max_points} is above the limit of "
                                     f"{limit} of {name}")


def run_axiom_battery(name: str, count: int, max_points: int, seed: int,
                      threads: int = 1) -> AxiomReport:
    """Axiom battery over a generator's random corpus, in chunks.

    The corpus is built once, after ``check_battery``; each chunk checks a
    disjoint slice with its own RNG.  The chunk layout depends on ``count``
    alone, so merged counters do not depend on the worker count.
    """
    sampling.check_seed(seed)
    check_battery((name,), count, max_points)
    report = AxiomReport()
    gen, make_corpus = GENERATOR_SUITE[name]
    patterns, probes = make_corpus(count, max_points, seed)
    args = (gen, patterns, probes, seed)
    for part in montecarlo.replicate(_battery_chunk, args, count, threads):
        report.merge(part)
    return report


#: name -> (generator, corpus factory(count, seed))
GENERATOR_SUITE = {
    "convex2": (
        generators.ConvexHullGen(dim=2),
        lambda count, max_points, seed: euclid_corpus(2, count, max_points, seed),
    ),
    "convex3": (
        generators.ConvexHullGen(dim=3),
        lambda count, max_points, seed: euclid_corpus(3, count, max_points, seed),
    ),
    "coordmin": (
        generators.CoordMinGen(),
        lambda count, max_points, seed: euclid_corpus(2, count, max_points, seed),
    ),
    "pareto": (
        generators.ParetoGen(dim=2),
        lambda count, max_points, seed: euclid_corpus(2, count, max_points, seed),
    ),
    "envelope": (
        generators.EnvelopeGen(dim=1, env_const=1.0, beta=1.0),
        lambda count, max_points, seed: param_corpus(1, count, max_points, seed),
    ),
    "halfplane": (
        generators.HalfPlaneGen(window_radius=2.0),
        lambda count, max_points, seed: line_corpus(count, max_points, seed, 2.0),
    ),
    "diskhull": (
        generators.DiskHullGen(anchor_radius=0.3),
        lambda count, max_points, seed: euclid_corpus(2, count, max_points, seed, -1.0, 1.0),
    ),
    "broken_lexdrop": (
        LexDropGen(),
        lambda count, max_points, seed: euclid_corpus(2, count, max_points, seed),
    ),
}
