import contextlib
import dataclasses
import math
import signal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from hullforge import (
    ConvexHullGen,
    PointPattern,
    RngStream,
    euclid,
    sample_poisson,
    trimmed_resample,
)
from hullforge.core import ConfigurationError
from hullforge.generators import EnvelopeGen
from hullforge.montecarlo import _hoelder_band
from hullforge.sampling import (
    HalfLine,
    HoelderBand,
    LinesBand,
    UniformAnnulus,
    UniformBox,
    UniformDisk,
    UniformPolygon,
    _SEED_BLOCK,
    _unit_circle,
    mix64,
    seed_words,
    stream_generators,
)


def test_stream_determinism_and_independence():
    model = UniformBox((0, 0), (1, 1), rate=4.0)
    s = RngStream(123, 5)
    a = sample_poisson(model, s.generator())
    b = sample_poisson(model, s.generator())
    assert a == b
    c = sample_poisson(model, RngStream(123, 6).generator())
    assert a != c
    assert mix64(1) != mix64(2)
    assert RngStream(123, 5).seed() != RngStream(123, 6).seed()
    assert RngStream(123, 5).child(0).seed() != RngStream(123, 5).seed()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
@example([0, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_words_and_generators_match_numpy_seeding(seeds):
    # the array hash is SeedSequence's, word for word, and PCG64 seeded from its
    # words is PCG64 seeded from the int, in one word of entropy or two
    words = seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    streams = [SimpleNamespace(seed=lambda s=s: s) for s in seeds]  # stream_generators reads .seed()
    for s, row, rng in zip(seeds, words, stream_generators(streams), strict=True):
        assert row.tolist() == np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()
        assert rng.bit_generator.state == np.random.PCG64(s).state


def test_stream_generators_across_seed_blocks():
    # more streams than one block: each Generator draws what one-stream seeding draws
    streams = [RngStream(9, i) for i in range(2 * _SEED_BLOCK + 3)]
    got = [rng.random() for rng in stream_generators(streams)]
    assert got == [np.random.Generator(np.random.PCG64(s.seed())).random() for s in streams]
    assert RngStream(9, 4).generator().random() == got[4]
    assert list(stream_generators([])) == []


def test_zero_rate_gives_empty_pattern():
    model = UniformBox((0, 0), (1, 1), rate=0.0)
    assert sample_poisson(model, RngStream(1).generator()).is_empty


MODELS = {
    "box": UniformBox((0.0, 0.0), (1.0, 1.0), rate=4.0),
    "disk": UniformDisk((0.0, 0.0), 1.0, rate=1.5),
    "polygon": UniformPolygon(((0, 0), (1, 0), (1, 1), (0, 1)), rate=3.0),
    "annulus": UniformAnnulus(0.3, 1.0, rate=1.2),
    "lines": LinesBand(1.0, 2.0, rate=0.5),
    "halfline": HalfLine(start=1.0, rate=1.0, horizon=6.0),
    "band": _hoelder_band(4.0),
}


def _uniform_draws(model, n, rng):
    """``model.sample_coords(n, rng)`` as the samplers drew it with ``Generator.uniform``."""
    if isinstance(model, UniformBox):
        return rng.uniform(model.lo, model.hi, size=(n, model.dim))
    if isinstance(model, UniformDisk):
        r = model.radius * np.sqrt(rng.uniform(size=n))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return np.asarray(model.center, dtype=float) + r[:, None] * _unit_circle(ang)
    if isinstance(model, UniformAnnulus):
        u = rng.uniform(size=n)
        r = np.sqrt(model.r_inner**2 + u * (model.r_outer**2 - model.r_inner**2))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return r[:, None] * _unit_circle(ang)
    if isinstance(model, LinesBand):
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return np.column_stack([ang, rng.uniform(model.h_inner, model.h_outer, size=n)])
    if isinstance(model, HalfLine):
        return (model.start + rng.uniform(0.0, model.horizon, size=n))[:, None]
    if isinstance(model, UniformPolygon):
        xs, ys = zip(*model.vertices)
        lo, hi = (min(xs), min(ys)), (max(xs), max(ys))
        parts, have = [np.empty((0, 2))], 0
        while have < n:
            cand = rng.uniform(lo, hi, size=(max(n - have, 8), 2))
            parts.append(cand[model._inside(cand)][: n - have])
            have += len(parts[-1])
        return np.concatenate(parts)
    assert isinstance(model, HoelderBand)
    parts, have = [np.empty((0, model.dim + 1))], 0
    while have < n:
        batch = max(2 * (n - have), 16)
        s = rng.uniform(np.asarray(model.lo), np.asarray(model.hi), size=(batch, model.dim))
        p = model.phi_at(s)
        accept = rng.uniform(0.0, model.phi_sup, size=batch) < p
        u = rng.uniform(size=batch) * p
        parts.append(np.column_stack([s[accept], u[accept]])[: n - have])
        have += len(parts[-1])
    return np.concatenate(parts)


_bound = st.floats(-1e3, 1e3, allow_nan=False)
_boxes = st.lists(st.tuples(_bound, st.floats(1e-6, 1e3)), min_size=1, max_size=3).map(
    lambda box: UniformBox(tuple(l for l, _ in box), tuple(l + w for l, w in box)))
#: besides MODELS, other shapes and dimensions; the triangle and the low band
#: need a second rejection batch for most n
ORACLE_MODELS = {
    **MODELS,
    "triangle": UniformPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
    "polygon-collinear": UniformPolygon(((0, 0), (1, 0), (2, 0), (2, 1), (2, 1), (0, 1))),
    "disk-offset": UniformDisk((2.0, -1.0), 0.5),
    "band-low": HoelderBand(lo=(-1.0,), hi=(3.0,), phi=lambda s: 0.05 + 0.01 * s[:, 0],
                            phi_sup=1.0, phi_integral=0.24, holder_const=0.01, holder_exp=1.0),
    "band-2d": HoelderBand(lo=(0.0, -1.0), hi=(1.0, 1.0),
                           phi=lambda s: 0.2 + 0.1 * np.abs(s[:, 0] - s[:, 1]),
                           phi_sup=2.0, phi_integral=0.6, holder_const=0.1, holder_exp=1.0),
}


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(sorted(ORACLE_MODELS)).map(ORACLE_MODELS.get), _boxes),
       st.integers(0, 2000), st.integers(0, 2**64 - 1))
@example(ORACLE_MODELS["triangle"], 500, 3)
@example(ORACLE_MODELS["band-low"], 2000, 5)
@example(UniformBox((0.0,), (1.0,)), 0, 7)
def test_sample_coords_equals_uniform_draws(model, n, seed):
    # one rng.random call per batch gives the Generator.uniform draws byte for
    # byte and leaves the Generator in the same state
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = model.sample_coords(n, rng)
    want = _uniform_draws(model, n, ref)
    assert got.shape == want.shape == (n, want.shape[1])
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf, 0.0])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_models_check_the_rate_at_construction(name, rate):
    # refused when built, not at the first draw; the half line needs rate > 0
    if rate == 0.0 and name != "halfline":
        assert dataclasses.replace(MODELS[name], rate=rate).total_mass == 0.0
        return
    with pytest.raises(ConfigurationError, match="rate"):
        dataclasses.replace(MODELS[name], rate=rate)


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("vertices", [
    ((0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)),
    ((0, 0), (0, 1), (1, 1), (1, 0)),
    ((0, 0), (2, 0), (2, 1), (1, 0.5), (0, 1)),
    ((0, 0), (2, 0), (2, 1), (1, 0.5), (1, 0.5), (0, 1)),
    tuple((math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)) for k in range(5)),
    ((0, 0), (1, 0), (1, 1), (0, 1)) * 2,
    ((0, 0), (1, 0), (2, 0)),
    ((0, 0), (1, 0), (math.nan, 1)),
], ids=["u-shape", "clockwise", "dent", "dent-repeated-vertex", "pentagram", "twice-around", "flat", "nan"])
def test_polygon_refuses_what_its_sampler_cannot_fill(vertices):
    # the sampler keeps the points left of every edge: on the U shape that set is
    # empty, so it would draw forever, and on the dent it is part of the polygon;
    # the alarm turns a hang into a failure
    with _time_limit(10), pytest.raises(ConfigurationError, match="polygon"):
        UniformPolygon(vertices).sample_coords(3, np.random.default_rng(0))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_count_distribution_chi2(name):
    # 1e5 draws against the Poisson pmf at the model's total mass, alpha 1e-3
    model = MODELS[name]
    stream = RngStream(2024)
    rng = stream.generator()
    counts = np.array([sample_poisson(model, rng).total_mass for _ in range(100_000)])
    lam = model.total_mass
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    probs = np.array(
        [math.exp(-lam) * lam**k / math.factorial(k) for k in range(kmax + 1)]
    )
    probs = np.append(probs, 1.0 - probs.sum())
    observed = np.append(observed, 0.0)
    expected = probs * len(counts)
    # merge tail cells until every expected count is at least 5
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    obs_m[-1] += acc_o
    exp_m[-1] += acc_e
    stat = sum((o - e) ** 2 / e for o, e in zip(obs_m, exp_m))
    pvalue = chi2.sf(stat, df=len(obs_m) - 1)
    assert pvalue > 1e-3, (name, stat, pvalue)


def test_band_levels_marginally_uniform_for_flat_boundary():
    # phi == 1 on [0,1]: sampled levels must be uniform on [0,1]
    model = HoelderBand(
        lo=(0.0,),
        hi=(1.0,),
        phi=lambda s: np.ones(len(s)),
        phi_sup=1.0,
        phi_integral=1.0,
        holder_const=0.0,
        holder_exp=1.0,
        rate=10.0,
    )
    rng = RngStream(7).generator()
    levels = []
    while len(levels) < 100_000:
        levels.extend(model.sample_coords(1000, rng)[:, -1].tolist())
    levels = np.array(levels[:100_000])
    assert abs(levels.mean() - 0.5) < 0.005
    hist, _ = np.histogram(levels, bins=20, range=(0, 1))
    expected = len(levels) / 20
    stat = float(((hist - expected) ** 2 / expected).sum())
    assert chi2.sf(stat, df=19) > 1e-3


@pytest.mark.parametrize("window", [
    {"lo": (1.0,), "hi": (0.0,)}, {"lo": (0.5,), "hi": (0.5,)},
    {"lo": (0.0, 1.0), "hi": (1.0, 1.0)}, {"lo": (0.0,), "hi": (math.nan,)},
    {"resolution": 0}, {"resolution": -3},
    {"hi": (math.inf,)}, {"lo": (-math.inf,)}, {"phi_sup": math.nan}, {"phi_sup": math.inf},
    {"phi": lambda s: np.zeros(len(s))}, {"phi": lambda s: np.full(len(s), math.nan)},
    {"phi": lambda s: np.full(len(s), 2.0)}, {"phi": lambda s: s[:, 0] - 0.5},
], ids=["reversed", "empty", "flat-2d", "nan", "resolution-0", "resolution-negative",
        "hi-inf", "lo-inf", "phi_sup-nan", "phi_sup-inf",
        "phi-zero", "phi-nan", "phi-above-sup", "phi-negative"])
def test_band_refuses_a_bad_window_or_resolution(window):
    # refused at construction: not later by numpy's uniform or by a division in
    # band_grid; an infinite window or phi_sup, or a phi nowhere positive or nan,
    # made the sampler accept no row, and the alarm turns that hang into a
    # failure; a phi above phi_sup or below 0 sampled another law without complaint
    args = dict(lo=(0.0,), hi=(1.0,), phi=lambda s: np.ones(len(s)), phi_sup=1.0,
                phi_integral=1.0, holder_const=0.0, holder_exp=1.0)
    with _time_limit(10), pytest.raises(ConfigurationError,
                                        match="lo < hi|resolution|finite|phi must"):
        sample_poisson(HoelderBand(**{**args, **window}), np.random.default_rng(0))
    HoelderBand(**args)


@pytest.mark.parametrize("build", [
    lambda: UniformDisk((0, 0), math.nan),
    lambda: UniformDisk((math.inf, 0), 1),
    lambda: UniformBox((math.nan,), (1,)),
    lambda: UniformBox((0,), (math.inf,)),
    lambda: UniformAnnulus(0, math.inf),
    lambda: LinesBand(0, math.inf),
    lambda: HalfLine(start=math.nan),
    lambda: HalfLine(start=math.inf),
    lambda: HoelderBand(lo=(0.0,), hi=(1.0,), phi=lambda s: np.ones(len(s)), phi_sup=1.0,
                        phi_integral=math.inf, holder_const=0.0, holder_exp=1.0),
], ids=["disk-radius-nan", "disk-center-inf", "box-lo-nan", "box-hi-inf", "annulus-outer-inf",
        "lines-outer-inf", "halfline-start-nan", "halfline-start-inf", "band-integral-inf"])
def test_models_refuse_a_non_finite_parameter(build):
    # refused at construction, not with a DomainError at the first draw
    with pytest.raises(ConfigurationError, match="must be finite"):
        build()


def test_band_envelopes_stay_below_boundary():
    model = _hoelder_band(30.0)
    gen = EnvelopeGen(dim=1, env_const=1.0, beta=1.0)
    grid, _ = dataclasses.replace(model, resolution=512).grid_sites()
    phi = model.phi_at(grid)
    for rng in stream_generators(RngStream(55, rep) for rep in range(100)):
        pattern = sample_poisson(model, rng)
        if pattern.is_empty:
            continue
        env = gen.envelope_at(pattern, grid)
        assert np.all(env <= phi + 1e-12)


def test_halfline_truncation_keeps_minimum():
    model = HalfLine(start=1.0, rate=1.0, horizon=50.0)
    pattern = sample_poisson(model, RngStream(9).generator())
    xs = [p.coords[0] for p in pattern.support()]
    assert min(xs) >= 1.0
    assert max(xs) <= 51.0


def test_trimmed_resample_examples():
    gen = ConvexHullGen(2)
    model = UniformBox((0, 0), (1, 1), rate=20.0)
    empty = PointPattern.empty()
    assert trimmed_resample(model, gen, empty, RngStream(3).generator()).is_empty

    square = PointPattern.from_points(
        [euclid(0, 0), euclid(1, 0), euclid(0, 1), euclid(1, 1)]
    )
    kept = trimmed_resample(model, gen, square, RngStream(4).generator())
    fresh = sample_poisson(model, RngStream(4).generator())
    assert kept.total_mass == fresh.total_mass  # hull is the whole carrier

    # retention count is Poisson with the hull mass as mean
    tri = PointPattern.from_points([euclid(0, 0), euclid(1, 0), euclid(0, 1)])
    counts = [
        trimmed_resample(model, gen, tri, rng).total_mass
        for rng in stream_generators(RngStream(100, i) for i in range(3000))
    ]
    mean = float(np.mean(counts))
    assert mean == pytest.approx(10.0, abs=4 * math.sqrt(10.0 / 3000) + 0.05)
