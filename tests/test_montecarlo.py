import math
import os
import random
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import hullforge.montecarlo as mc
from hullforge import core, estimators, sampling
from hullforge.core import ConfigurationError, DomainError
from hullforge.corpora import run_axiom_battery
from hullforge.generators import hull_mass
from oracles import normality_diagnostics_by_norm


def test_config_validation():
    with pytest.raises(ConfigurationError):
        mc.ExperimentConfig(scenario="convex_square", replications=1)
    with pytest.raises(ConfigurationError):
        mc.ExperimentConfig(scenario="nope", replications=10)
    with pytest.raises(ConfigurationError):
        mc.ExperimentConfig(scenario="convex_square", replications=10, t_grid=(2.0, 1.0))
    cfg = mc.ExperimentConfig(scenario="convex_square", replications=10)
    assert cfg.grid() == (50.0,)


def test_config_refuses_patterns_past_the_mass_cap():
    # halfline_min at t=1e300 asks for 5e301 points per pattern, far past what one can hold
    with pytest.raises(ConfigurationError, match="cap"):
        mc.ExperimentConfig(scenario="halfline_min", replications=10, t_grid=(1e300,))
    t = 1024.0  # the largest t the rate checks sample: 768 expected points
    assert mc.get_scenario("hoelder_d1").make_model(t).total_mass <= mc.MAX_PATTERN_MASS
    mc.ExperimentConfig(scenario="hoelder_d1", replications=10, t_grid=(t,))


@pytest.mark.parametrize("seed, alias", [(0, 2**64), (0, 2**80), (2**64 - 1, -1)])
def test_config_refuses_a_seed_that_aliases_one_in_range(seed, alias):
    # mix64 keeps a seed's low 64 bits, so alias would rerun every stream of seed
    for index in (0, 1, 7):
        assert sampling.RngStream(alias, index).seed() == sampling.RngStream(seed, index).seed()
    with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*64\)"):
        mc.ExperimentConfig(scenario="coordmin", replications=10, base_seed=alias)
    mc.ExperimentConfig(scenario="coordmin", replications=10, base_seed=seed)


def test_axiom_battery_refuses_a_seed_that_aliases_one_in_range():
    # random.Random takes a seed's absolute value: seed -1 would rebuild seed 1's corpus
    assert random.Random(-1).random() == random.Random(1).random()
    with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*64\)"):
        run_axiom_battery("coordmin", 3, 4, -1)
    assert run_axiom_battery("coordmin", 3, 4, 1).all_passed


@pytest.mark.parametrize("scenario", ["coordmin", "convex_square", "pareto_square"])
def test_config_refuses_a_t_whose_integrand_is_not_finite(scenario):
    # f = 1/t overflows to inf below t = 5.6e-309; refused before any pattern is drawn
    with pytest.raises(ConfigurationError, match="finite c"):
        mc.ExperimentConfig(scenario=scenario, replications=10, t_grid=(5e-324,))
    with pytest.raises(ConfigurationError, match="finite c"):
        mc.ExperimentConfig(scenario=scenario, replications=10, t_grid=(1e-309, 1.0))
    mc.ExperimentConfig(scenario=scenario, replications=10, t_grid=(1e-300,))


def test_nan_residual_after_the_first_replication_is_reported(nan_residual_at):
    nan_residual_at(7)
    cfg = mc.ExperimentConfig(scenario="hoelder_d1", replications=40, t_grid=(20.0,))
    summary = mc.run_replications(cfg)
    assert math.isnan(summary.rows[0].ks_resid_max)
    assert math.isnan(summary.ks_resid_max)


@pytest.mark.parametrize("targets", [(math.nan, math.nan), (15.0, math.nan)])
def test_paired_estimates_report_a_nan_residual(targets):
    cfg = mc.ExperimentConfig(scenario="hoelder_d1", replications=40, t_grid=(20.0,))
    assert math.isnan(mc.paired_estimates(cfg, targets=targets).ks_resid_max)


def test_residual_max():
    assert mc.residual_max([]) == 0.0
    assert type(mc.residual_max(iter([1e-16, 3e-16]))) is float
    assert mc.residual_max([1e-16, 3e-16, 2e-16]) == 3e-16
    assert math.isnan(mc.residual_max([1e-16, math.nan, 3e-16]))


@pytest.mark.parametrize("scenario, t", [("convex_square", 20.0), ("pareto_square", 20.0),
                                         ("hoelder_d1", 16.0), ("halfline_min", 1.0)])
def test_complement_is_total_minus_hull_mass(scenario, t):
    cfg = mc.ExperimentConfig(scenario=scenario, replications=40, base_seed=8, t_grid=(t,))
    got = mc.run_replications(cfg).samples[t]["complement_mass"]
    scen = mc.get_scenario(scenario)
    model = scen.make_model(t)
    if scenario == "halfline_min":  # the hull of a half-line pattern has no finite mass
        assert np.isnan(got).all()
        return
    streams = sampling.RngStream(8).child(0)
    patterns = [sampling.sample_poisson(model, rng)
                for rng in sampling.stream_generators(streams.stream(i) for i in range(40))]
    assert got.tolist() == [model.total_mass - hull_mass(scen.gen, mu, model) for mu in patterns]


def test_run_replications_deterministic():
    cfg = mc.ExperimentConfig(scenario="convex_square", replications=50, base_seed=9)
    a = mc.run_replications(cfg)
    b = mc.run_replications(cfg)
    assert a.rows[0].mean == b.rows[0].mean
    assert np.array_equal(a.samples[50.0]["values"], b.samples[50.0]["values"])


def _refuse_point_objects(monkeypatch):
    """Make every point view (``point_from_row``) and every point constructor raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a point object was built")

    for mod in (core, estimators):  # the modules that import it
        monkeypatch.setattr(mod, "point_from_row", refuse)
    for cls in (core.EuclidPoint, core.ParamPoint, core.LinePoint):
        monkeypatch.setattr(cls, "__post_init__", refuse)


@pytest.mark.parametrize("scenario", mc.scenario_names())
def test_replications_build_no_point_objects(monkeypatch, scenario):
    # sampling, the hull term, the boundary f-sum and the error representation read
    # coordinate arrays: no point view and no constructed point on the way
    _refuse_point_objects(monkeypatch)
    cfg = mc.ExperimentConfig(scenario=scenario, replications=20, base_seed=6)
    row, = mc.run_replications(cfg).rows
    assert row.mean_boundary_count > 0 and row.ks_resid_max <= 1e-10 * (1.0 + abs(row.target))


@pytest.mark.parametrize("scenario", ["convex_square", "pareto_square", "hoelder_d1"])
def test_markov_and_nested_paths_build_no_point_objects(monkeypatch, scenario):
    # both Markov arms, the negative control and the nested probes ask membership and
    # read integrands on coordinate arrays: no point view and no constructed point
    _refuse_point_objects(monkeypatch)
    for negative in (False, True):
        cfg = mc.ExperimentConfig(scenario=scenario, replications=30, base_seed=12,
                                  t_grid=(10.0,), negative_control=negative)
        report = mc.markov_two_sample(cfg)
        assert report.pairs == 30 and len(report.pvalues) == 3
    cfg = mc.ExperimentConfig(scenario=scenario, replications=10, base_seed=13, t_grid=(10.0,),
                              nested_probes=24, nested_replicas=5)
    scen = mc.get_scenario(scenario)
    f = scen.make_integrand(10.0)
    nested = mc.nested_h_integral(cfg, lambda q: f.values(q, scen.gen.space_tag) ** 2)
    assert nested.probes == 24 and nested.estimate > 0.0


def _run_replications(threads):
    cfg = mc.ExperimentConfig(scenario="coordmin", replications=300, base_seed=5,
                              t_grid=(2.0,), threads=threads)
    summary = mc.run_replications(cfg)
    return summary.rows, summary.samples[2.0]["values"].tobytes()


def _nested(threads):
    cfg = mc.ExperimentConfig(scenario="convex_square", replications=10, base_seed=4,
                              t_grid=(15.0,), nested_probes=70, nested_replicas=6,
                              threads=threads)
    nested = mc.nested_h_integral(cfg, lambda q: 1.0 + q[:, 0])
    return nested.estimate, nested.se


def _markov(threads):
    cfg = mc.ExperimentConfig(scenario="convex_square", replications=150, base_seed=3,
                              t_grid=(15.0,), threads=threads)
    report = mc.markov_two_sample(cfg)
    return report.statistics, report.pvalues


def _paired(threads):
    cfg = mc.ExperimentConfig(scenario="hoelder_d1", replications=130, base_seed=2,
                              t_grid=(10.0,), threads=threads)
    run = mc.paired_estimates(cfg, targets=(7.5, 70.0 / 12.0))
    return run.values_f.tobytes(), run.values_g.tobytes(), run.ks_resid_max


def _battery(threads):
    report = run_axiom_battery("broken_lexdrop", 300, 6, 0, threads)
    return report.summary_rows(), report.counterexamples


# every loop that goes through montecarlo.replicate; each size gives at least
# two chunks, so threads=3 runs them in a process pool on a multi-CPU machine
@pytest.mark.parametrize("loop", [_run_replications, _nested, _markov, _paired, _battery],
                         ids=lambda fn: fn.__name__.lstrip("_"))
def test_thread_invariance(loop):
    assert loop(1) == loop(3)


def test_chunk_bounds_depend_on_n_alone():
    assert mc.chunk_bounds(0) == []
    assert mc.chunk_bounds(10) == [(0, 10)]
    assert mc.chunk_bounds(70) == [(0, 32), (32, 64), (64, 70)]
    assert mc.chunk_bounds(300) == [(0, 75), (75, 150), (150, 225), (225, 300)]
    for n in range(1, 400):
        bounds = mc.chunk_bounds(n)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) <= 5


@pytest.mark.parametrize("threads, chunks, cpus, want", [
    (1, 4, 8, 1),
    (2, 4, 8, 2),
    (8, 3, 16, 3),
    (8, 5, 2, 2),
    (3, 0, 2, 1),
    (4, 4, None, 1),
])
def test_worker_count_clamps_to_chunks_and_cpus(threads, chunks, cpus, want):
    assert mc.worker_count(threads, chunks, cpus) == want


def _pid_chunk(args, lo, hi):
    return [os.getpid()]


def _exit_chunk(args, lo, hi):
    os._exit(3)


def _refusing_chunk(args, lo, hi):
    if lo > 0:
        raise ConfigurationError(f"chunk at {lo} refused")
    return [os.getpid()]


@pytest.fixture
def two_cpus(monkeypatch):
    """Let threads=2 runs use the worker pool on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_replicate_counts_usable_cpus_not_installed_ones(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert mc.usable_cpus() == 1
    assert mc.replicate(_pid_chunk, (), 200, threads=2) == [os.getpid()] * 4


def test_pool_is_reused_across_calls(two_cpus):
    first = mc.replicate(_pid_chunk, (), 200, threads=2)
    pool = mc._pool
    second = mc.replicate(_pid_chunk, (), 200, threads=2)
    assert mc._pool is pool
    assert os.getpid() not in first + second
    assert len(set(first + second)) <= 2
    assert all(_alive(pid) for pid in first)  # a per-call pool would have joined them


def test_broken_pool_raises_once_then_a_fresh_pool_serves(two_cpus):
    before = mc.replicate(_pid_chunk, (), 200, threads=2)
    with pytest.raises(BrokenProcessPool):
        mc.replicate(_exit_chunk, (), 200, threads=2)
    after = mc.replicate(_pid_chunk, (), 200, threads=2)
    assert os.getpid() not in after
    assert not set(before) & set(after)


def test_chunk_error_reaches_the_caller_and_the_pool_stays(two_cpus):
    before = mc.replicate(_pid_chunk, (), 200, threads=2)
    pool = mc._pool
    with pytest.raises(ConfigurationError, match="refused"):
        mc.replicate(_refusing_chunk, (), 200, threads=2)
    after = mc.replicate(_pid_chunk, (), 200, threads=2)
    assert mc._pool is pool
    assert len(set(before + after)) <= 2 and all(_alive(pid) for pid in before)


_EXITING_RUN = """
import os
import hullforge.montecarlo as mc
os.sched_getaffinity = lambda pid: {0, 1}
def pid_chunk(args, lo, hi):
    return [os.getpid()]
print(*mc.replicate(pid_chunk, (), 200, threads=2))
"""


def test_workers_end_with_their_process():
    src = str(Path(mc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _EXITING_RUN], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    pids = {int(p) for p in out.split()}
    assert pids and not any(_alive(pid) for pid in pids)


def test_normality_diagnostics_oracle_values():
    n = 10_000
    exact = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    w1, ks = mc.normality_diagnostics(exact)
    assert w1 < 1e-3
    shifted = 3.0 + 2.5 * exact
    w1s, kss = mc.normality_diagnostics(shifted)
    assert w1s == pytest.approx(w1, abs=1e-12)
    assert kss == pytest.approx(ks, abs=1e-12)

    # standardized exponential sample: population distance 0.1587, frozen band
    # computed from pre-build runs at n = 1e4
    rng = np.random.default_rng(7)
    x = rng.exponential(size=n)
    w1e, kse = mc.normality_diagnostics(x)
    assert 0.13 <= kse <= 0.19
    assert 0.25 <= w1e <= 0.40

    with pytest.raises(DomainError):
        mc.normality_diagnostics(np.ones(500))
    with pytest.raises(DomainError):
        mc.normality_diagnostics(exact[:50])


@st.composite
def _normality_samples(draw):
    """100 to 3000 draws of one law, shifted, scaled and rounded to make ties."""
    n = draw(st.integers(100, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    law = draw(st.sampled_from(["normal", "exponential", "uniform"]))
    x = getattr(rng, law)(size=n)
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    if decimals is not None:
        x = np.round(x, decimals)
    shift = draw(st.floats(-1e6, 1e6, allow_nan=False))
    scale = draw(st.floats(1e-3, 1e3, allow_nan=False))
    return shift + scale * x


@settings(max_examples=150, deadline=None)
@given(_normality_samples())
def test_normality_diagnostics_matches_the_norm_form(x):
    # scipy.special's ndtri and ndtr are the ufuncs behind norm.ppf and norm.cdf
    assume(x.std(ddof=1) > 0)
    assert repr(mc.normality_diagnostics(x)) == repr(normality_diagnostics_by_norm(x))


@pytest.mark.parametrize("n", [100, 101, 10_000])
def test_normality_diagnostics_matches_the_norm_form_on_exact_quantiles(n):
    exact = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    assert repr(mc.normality_diagnostics(exact)) == repr(normality_diagnostics_by_norm(exact))


def test_rate_fit_synthetic():
    ts = [2.0**k for k in range(4, 11)]
    slope, se = mc.rate_fit([(t, t * t) for t in ts])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-10)

    rng = np.random.default_rng(3)
    noisy = [(t, 3.0 * t**0.5 * (1.0 + 0.01 * rng.standard_normal())) for t in ts]
    slope, se = mc.rate_fit(noisy)
    assert slope == pytest.approx(0.5, abs=0.02)

    with pytest.raises(DomainError):
        mc.rate_fit([(1.0, 1.0)])
    with pytest.raises(DomainError):
        mc.rate_fit([(t, -1.0) for t in ts])


def test_markov_identical_streams_degenerate_smoke():
    # feeding both arms the same realisations must yield KS statistic 0
    import hullforge.sampling as sampling
    from hullforge import generators as gens

    scen = mc.get_scenario("convex_square")
    model = scen.make_model(10.0)
    f = scen.make_integrand(10.0)
    arm = []
    arm_a = sampling.RngStream(3).child(11)
    for rng in sampling.stream_generators(arm_a.stream(i) for i in range(200)):
        eta = sampling.sample_poisson(model, rng)
        arm.append(mc._interior_stats(scen.gen, model, f, eta))
    arm = np.asarray(arm)
    for j in range(3):
        assert mc.ks_2samp(arm[:, j], arm[:, j]).statistic == 0.0


def test_markov_smoke_and_negative_control():
    cfg = mc.ExperimentConfig(
        scenario="convex_square", replications=1500, base_seed=31, t_grid=(15.0,)
    )
    report = mc.markov_two_sample(cfg)
    assert report.all_pass, report.pvalues
    bad = mc.ExperimentConfig(
        scenario="convex_square",
        replications=1500,
        base_seed=31,
        t_grid=(15.0,),
        negative_control=True,
    )
    rep_bad = mc.markov_two_sample(bad)
    assert rep_bad.pvalues[0] < 1e-6


def test_nested_integral_matches_prime_closed_form():
    # For the band scenario the void probability has an exact exponential
    # form, so the nested estimate can be checked against direct quadrature
    # of t * E exp(-t * dominating mass), vectorized on midpoint grids.
    t = 6.0
    cfg = mc.ExperimentConfig(
        scenario="hoelder_d1",
        replications=10,
        base_seed=17,
        t_grid=(t,),
        nested_probes=192,
        nested_replicas=120,
    )
    nested = mc.nested_h_integral(cfg, lambda q: [1.0] * len(q))

    ns, nu, nq = 240, 120, 1200
    s = (np.arange(ns) + 0.5) / ns
    q = (np.arange(nq) + 0.5) / nq
    phi_s = 0.5 * (1.0 + s)
    phi_q = 0.5 * (1.0 + q)
    frac = (np.arange(nu) + 0.5) / nu
    total = 0.0
    for i in range(ns):
        u = frac * phi_s[i]  # midpoint rule on [0, phi(s)]
        cone = np.maximum(u[:, None] + np.abs(q[None, :] - s[i]), 0.0)
        mass = np.clip(phi_q[None, :] - cone, 0.0, None).sum(axis=1) / nq
        eh = np.exp(-t * mass)
        total += eh.sum() * (phi_s[i] / nu) / ns
    want = t * total
    assert abs(nested.estimate - want) <= 4.0 * nested.se + 0.02 * want


def test_interval_helpers():
    x = np.random.default_rng(0).normal(size=4000)
    lo, hi, v = mc.variance_ci99(x)
    assert lo < 1.0 < hi
    assert mc.intervals_overlap((0.0, 1.0), (0.5, 2.0))
    assert not mc.intervals_overlap((0.0, 1.0), (1.5, 2.0))
    y = 0.5 * x + np.random.default_rng(1).normal(size=4000)
    clo, chi, c = mc.covariance_ci99(x, y)
    assert clo < 0.5 < chi


def test_paired_estimates_requires_covariate():
    cfg = mc.ExperimentConfig(scenario="convex_square", replications=10, base_seed=0)
    with pytest.raises(ConfigurationError):
        mc.paired_estimates(cfg)


def test_monte_carlo_loops_never_seed_through_seed_sequence(monkeypatch):
    # every loop seeds its streams from seed_words: a SeedSequence built anywhere,
    # or PCG64 handed an int (whose hash is SeedSequence's, inside numpy), fails
    real_pcg64 = np.random.PCG64

    def refuse(*args, **kwargs):
        raise AssertionError("a stream was seeded through SeedSequence")

    def pcg64(seed):
        if not isinstance(seed, np.random.bit_generator.ISeedSequence):
            refuse()
        return real_pcg64(seed)

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "PCG64", pcg64)
    with pytest.raises(AssertionError):
        np.random.Generator(np.random.PCG64(5))
    config = mc.ExperimentConfig(scenario="convex_square", replications=40, t_grid=(10.0,),
                                 nested_probes=4, nested_replicas=3)
    assert mc.run_replications(config).rows[0].mean > 0
    assert len(mc.markov_two_sample(config).pvalues) == 3
    assert mc.nested_h_integral(config, lambda x: np.ones(len(x))).estimate > 0
