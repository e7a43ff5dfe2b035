import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    mix64,
)


_bound = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_bound, st.floats(1e-6, 1e3)), min_size=1, max_size=3),
       st.integers(0, 60), st.integers(0, 2**32))
def test_box_draw_equals_numpy_uniform(box, n, seed):
    # lo + span * random is what Generator.uniform computes; the draws agree bytewise
    lo = tuple(l for l, _ in box)
    hi = tuple(l + w for l, w in box)
    model = UniformBox(lo, hi)
    got = model.sample_coords(n, np.random.default_rng(seed))
    want = np.random.default_rng(seed).uniform(lo, hi, size=(n, len(lo)))
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_stream_determinism_and_independence():
    model = UniformBox((0, 0), (1, 1), rate=4.0)
    s = RngStream(123, 5)
    a = sample_poisson(model, s)
    b = sample_poisson(model, s)
    assert a == b
    c = sample_poisson(model, RngStream(123, 6))
    assert a != c
    assert mix64(1) != mix64(2)
    assert RngStream(123, 5).seed() != RngStream(123, 6).seed()
    assert RngStream(123, 5).child(0).seed() != RngStream(123, 5).seed()


def test_zero_rate_gives_empty_pattern():
    model = UniformBox((0, 0), (1, 1), rate=0.0)
    assert sample_poisson(model, RngStream(1)).is_empty


MODELS = {
    "box": UniformBox((0.0, 0.0), (1.0, 1.0), rate=4.0),
    "disk": UniformDisk((0.0, 0.0), 1.0, rate=1.5),
    "polygon": UniformPolygon(((0, 0), (1, 0), (1, 1), (0, 1)), rate=3.0),
    "annulus": UniformAnnulus(0.3, 1.0, rate=1.2),
    "lines": LinesBand(1.0, 2.0, rate=0.5),
    "halfline": HalfLine(start=1.0, rate=1.0, horizon=6.0),
    "band": _hoelder_band(4.0),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_count_distribution_chi2(name):
    # 1e5 draws against the Poisson pmf at the model's total mass, alpha 1e-3
    model = MODELS[name]
    stream = RngStream(2024)
    rng = stream.generator()
    counts = np.array([model.sample_pattern(rng).total_mass for _ in range(100_000)])
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
], ids=["reversed", "empty", "flat-2d", "nan", "resolution-0", "resolution-negative"])
def test_band_refuses_a_bad_window_or_resolution(window):
    # refused at construction: not later by numpy's uniform or by a division in band_grid
    args = dict(lo=(0.0,), hi=(1.0,), phi=lambda s: np.ones(len(s)), phi_sup=1.0,
                phi_integral=1.0, holder_const=0.0, holder_exp=1.0)
    with pytest.raises(ConfigurationError, match="lo < hi|resolution"):
        HoelderBand(**{**args, **window})
    HoelderBand(**args)


def test_band_envelopes_stay_below_boundary():
    model = _hoelder_band(30.0)
    gen = EnvelopeGen(dim=1, env_const=1.0, beta=1.0)
    grid, _ = dataclasses.replace(model, resolution=512).grid_sites()
    phi = model.phi_at(grid)
    for rep in range(100):
        pattern = sample_poisson(model, RngStream(55, rep))
        if pattern.is_empty:
            continue
        env = gen.envelope_at(pattern, grid)
        assert np.all(env <= phi + 1e-12)


def test_halfline_truncation_keeps_minimum():
    model = HalfLine(start=1.0, rate=1.0, horizon=50.0)
    pattern = sample_poisson(model, RngStream(9))
    xs = [p.coords[0] for p in pattern.support()]
    assert min(xs) >= 1.0
    assert max(xs) <= 51.0


def test_trimmed_resample_examples():
    gen = ConvexHullGen(2)
    model = UniformBox((0, 0), (1, 1), rate=20.0)
    empty = PointPattern.empty()
    assert trimmed_resample(model, gen, empty, RngStream(3)).is_empty

    square = PointPattern.from_points(
        [euclid(0, 0), euclid(1, 0), euclid(0, 1), euclid(1, 1)]
    )
    kept = trimmed_resample(model, gen, square, RngStream(4))
    fresh = sample_poisson(model, RngStream(4))
    assert kept.total_mass == fresh.total_mass  # hull is the whole carrier

    # retention count is Poisson with the hull mass as mean
    tri = PointPattern.from_points([euclid(0, 0), euclid(1, 0), euclid(0, 1)])
    counts = [
        trimmed_resample(model, gen, tri, RngStream(100, i)).total_mass
        for i in range(3000)
    ]
    mean = float(np.mean(counts))
    assert mean == pytest.approx(10.0, abs=4 * math.sqrt(10.0 / 3000) + 0.05)
