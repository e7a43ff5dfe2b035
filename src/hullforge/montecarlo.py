"""Replication engine, statistical tests, and rate regressions.

Each replication draws its pattern from a dedicated RNG stream (stream index
= replication index inside a per-scenario namespace), so summaries do not
depend on execution order or worker count; aggregation happens on arrays in
replication order.  A chunk takes its streams' Generators from
``sampling.stream_generators``, which seeds them in blocks.  Every Monte Carlo
loop runs through ``replicate``.

A run with two or more workers uses this process's one worker pool.  The
first such call forks it, and it lives as long as the process: later calls
reuse it, a call that asks for another worker count shuts it down (waiting
for its workers) and forks a new one, and ``concurrent.futures`` shuts it
down at interpreter exit.  Workers run the library as it was when they
forked, so a patch of a library function made after that is not seen by
them.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import analytics, estimators, generators, sampling
from .core import ConfigurationError, DomainError, HullGenerator, checked_array
from .kstwo import ks_2samp  # kept as montecarlo.ks_2samp: tracers wrap it by name
from .normal import ndtr, ndtri


# ---------------------------------------------------------------------------
# scenario registry


@dataclass(frozen=True)
class Scenario:
    """A named (generator, intensity family, integrand, target) bundle."""

    name: str
    gen: HullGenerator
    make_model: Callable[[float], sampling.IntensityModel]
    make_integrand: Callable[[float], estimators.Integrand]
    target: Callable[[float], float]
    default_t: float
    covariate: Callable[[float], estimators.Integrand] | None = None
    hoelder_params: Callable[[float], analytics.HoelderScenarioParams] | None = None


def _phi_ramp(sites: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + sites[:, 0])


def _ramp_superlevel(u: float) -> float:
    # Lebesgue measure of {s in [0,1]: phi(s) >= u} for phi(s) = (1+s)/2
    if u <= 0.5:
        return 1.0
    if u >= 1.0:
        return 0.0
    return 2.0 * (1.0 - u)


def _hoelder_band(t: float) -> sampling.HoelderBand:
    return sampling.HoelderBand(
        lo=(0.0,),
        hi=(1.0,),
        phi=_phi_ramp,
        phi_sup=1.0,
        phi_integral=0.75,
        holder_const=0.5,
        holder_exp=1.0,
        rate=t,
    )


def hoelder_scenario_params(t: float) -> analytics.HoelderScenarioParams:
    """The bound inputs of ``hoelder_d1`` at t, read from the generator and band it runs."""
    scen = get_scenario("hoelder_d1")
    gen, band = scen.gen, scen.make_model(t)
    return analytics.HoelderScenarioParams(
        dim=gen.dim, beta=gen.beta, env_const=gen.env_const, holder_const=band.holder_const,
        rate=band.rate, f_profiles=dict.fromkeys((1, 2, 3, 4), _ramp_superlevel))


_MEANWIDTH_K = 1.0
_MEANWIDTH_L = 2.0
_SANITY_INNER = 0.3
_SANITY_OUTER = 1.0


def _build_scenarios() -> dict[str, Scenario]:
    unit_square = lambda t: sampling.UniformBox((0.0, 0.0), (1.0, 1.0), rate=t)
    inv_const = lambda t: estimators.Constant(1.0 / t)
    return {
        "convex_square": Scenario(
            name="convex_square",
            gen=generators.ConvexHullGen(dim=2),
            make_model=unit_square,
            make_integrand=inv_const,
            target=lambda t: 1.0,
            default_t=50.0,
        ),
        "pareto_square": Scenario(
            name="pareto_square",
            gen=generators.ParetoGen(dim=2),
            make_model=unit_square,
            make_integrand=inv_const,
            target=lambda t: 1.0,
            default_t=20.0,
        ),
        "coordmin": Scenario(
            name="coordmin",
            gen=generators.CoordMinGen(),
            make_model=unit_square,
            make_integrand=inv_const,
            target=lambda t: 1.0,
            default_t=1.0,
        ),
        "hoelder_d1": Scenario(
            name="hoelder_d1",
            gen=generators.EnvelopeGen(dim=1, env_const=1.0, beta=1.0),
            make_model=_hoelder_band,
            make_integrand=lambda t: estimators.Indicator(),
            target=lambda t: 0.75 * t,
            default_t=1.0,
            covariate=lambda t: estimators.PowerDepth(2.0),
            hoelder_params=hoelder_scenario_params,
        ),
        "halfline_min": Scenario(
            name="halfline_min",
            gen=generators.ParetoGen(dim=1),
            make_model=lambda t: sampling.HalfLine(start=1.0, rate=t),
            make_integrand=lambda t: estimators.PowerTail(2.0),
            target=lambda t: t * 1.0,
            default_t=1.0,
        ),
        "meanwidth_disks": Scenario(
            name="meanwidth_disks",
            gen=generators.HalfPlaneGen(window_radius=_MEANWIDTH_L),
            make_model=lambda t: sampling.LinesBand(_MEANWIDTH_K, _MEANWIDTH_L, rate=t),
            make_integrand=lambda t: estimators.RadialPower(beta=1.0, weight=1.0),
            target=lambda t: t * analytics.meanwidth_target(_MEANWIDTH_K, _MEANWIDTH_L),
            default_t=1.0,
        ),
        "disk_support_sanity": Scenario(
            name="disk_support_sanity",
            gen=generators.DiskHullGen(anchor_radius=_SANITY_INNER),
            make_model=lambda t: sampling.UniformAnnulus(_SANITY_INNER, _SANITY_OUTER, rate=t),
            make_integrand=lambda t: estimators.Constant(1.0),
            target=lambda t: t * math.pi * (_SANITY_OUTER**2 - _SANITY_INNER**2),
            default_t=1.0,
        ),
    }


_SCENARIOS = _build_scenarios()


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError as exc:
        raise ConfigurationError(f"unknown scenario {name!r}") from exc


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


# ---------------------------------------------------------------------------
# configuration and summaries


#: the largest expected pattern size (a model's total mass) an experiment may ask
#: for, and the most nested probes, which are drawn as one array
MAX_PATTERN_MASS = 1e7
#: the most replications (or Markov pairs) of one run, where every record is kept until
#: it ends, and the most nested replicas per probe
MAX_REPLICATIONS = 10**6
#: the fewest samples the normality distances (W1, KS) are computed from
MIN_NORMALITY_SAMPLES = 100


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; everything downstream is a pure function of it."""

    scenario: str
    replications: int
    base_seed: int = 0
    t_grid: tuple[float, ...] = ()
    nested_probes: int = 512
    nested_replicas: int = 200
    threads: int = 1
    negative_control: bool = False

    def __post_init__(self):
        if self.replications < 2:
            raise ConfigurationError("need at least 2 replications (or pairs)")
        if self.replications > MAX_REPLICATIONS:
            raise ConfigurationError(f"{self.replications} replications (or pairs) are above "
                                     f"the cap of {MAX_REPLICATIONS:.0e}")
        if self.threads < 1:
            raise ConfigurationError(f"need at least 1 thread, got {self.threads}")
        sampling.check_seed(self.base_seed)
        if self.nested_probes < 2 or self.nested_replicas < 1:
            raise ConfigurationError(
                "need at least 2 nested probes and 1 nested replica, got "
                f"{self.nested_probes} and {self.nested_replicas}"
            )
        if self.nested_probes > MAX_PATTERN_MASS:
            raise ConfigurationError(f"{self.nested_probes} nested probes are above the cap "
                                     f"of {MAX_PATTERN_MASS:.0e}")
        if self.nested_replicas > MAX_REPLICATIONS:
            raise ConfigurationError(f"{self.nested_replicas} nested replicas are above the cap "
                                     f"of {MAX_REPLICATIONS:.0e}")
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigurationError("t grid must be strictly increasing")
        scen = get_scenario(self.scenario)
        cap = min(MAX_PATTERN_MASS, scen.gen.point_limit)  # what the generator's kernels take
        for t in self.grid():
            mass = scen.make_model(t).total_mass
            if not mass <= cap:  # also refuses an overflow to inf
                raise ConfigurationError(f"t = {t:g} asks for {mass:.3g} points per pattern, "
                                         f"above the cap of {cap:g} of {type(scen.gen).__name__}")
            try:  # Constant refuses a non-finite c, such as 1/t below t = 5.6e-309
                scen.make_integrand(t)
            except ConfigurationError as exc:
                raise ConfigurationError(f"t = {t:g}: {exc}") from exc

    def grid(self) -> tuple[float, ...]:
        return self.t_grid or (get_scenario(self.scenario).default_t,)


@dataclass
class TRow:
    t: float
    target: float
    mean: float
    variance: float
    se: float
    ci_lo: float
    ci_hi: float
    mean_varest: float
    mean_boundary_count: float
    mean_complement_mass: float
    w1: float
    ks: float
    ks_resid_max: float
    unbiased_pass: bool


@dataclass
class ReplicationSummary:
    """Per-t aggregates, normality diagnostics, and log-log slope fits.

    CI half-widths are 2.576 standard errors (99% normal).  Raw per-t arrays
    are retained on the object for downstream identity checks; CSV and JSON
    serialisations carry only the aggregates.
    """

    scenario: str
    replications: int
    base_seed: int
    rows: list[TRow] = field(default_factory=list)
    variance_slope: float | None = None
    variance_slope_se: float | None = None
    w1_slope: float | None = None
    w1_slope_se: float | None = None
    samples: dict[float, dict[str, np.ndarray]] = field(default_factory=dict)

    @property
    def ks_resid_max(self) -> float:
        return residual_max(r.ks_resid_max for r in self.rows)


def residual_max(resids: Iterable[float]) -> float:
    """The largest identity residual as a Python float: nan if any is nan, 0.0 if none."""
    return float(np.max(np.fromiter(resids, dtype=float), initial=0.0))


_Z99 = 2.5758293035489004  # 99% two-sided normal quantile


def chunk_bounds(n: int) -> list[tuple[int, int]]:
    """Split [0, n) into contiguous chunks whose layout depends on n alone."""
    size = max(32, n // 4)
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def worker_count(threads: int, chunks: int, cpus: int | None) -> int:
    """Worker processes for a run: no more than threads, chunks or CPUs."""
    return max(1, min(threads, chunks, cpus or 1))


def usable_cpus() -> int | None:
    """The CPUs this process may run on (its affinity set, where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


#: this process's worker pool, and the (pid, worker count) it was created with
_pool: ProcessPoolExecutor | None = None
_pool_key: tuple[int, int] | None = None


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The pool of ``workers`` processes, created on first use and kept for the process.

    A pool of another size is shut down, waiting for its workers, before the
    new one forks.  A pool inherited by a forked child belongs to its parent,
    so the child forgets it without touching it and starts its own.
    """
    global _pool, _pool_key
    key = (os.getpid(), workers)
    if _pool_key != key:
        if _pool_key is not None and _pool_key[0] == key[0]:
            _pool.shutdown(wait=True)
        _pool, _pool_key = ProcessPoolExecutor(max_workers=workers), key
    return _pool


def _drop_pool() -> None:
    global _pool, _pool_key
    _pool.shutdown(wait=True)
    _pool, _pool_key = None, None


def replicate(chunk_fn: Callable, args: tuple, n: int, threads: int) -> list:
    """Concatenate ``chunk_fn(args, lo, hi)`` over the chunks of [0, n), in index order.

    ``chunk_fn`` is a module-level function of its arguments alone and
    ``args`` is picklable, so chunks run in worker processes unchanged; with
    one worker (one chunk, ``threads`` = 1 or one usable CPU) they run
    in-process.  Otherwise they run on the process's worker pool of
    min(``threads``, usable CPUs) workers, forked by the first such call and
    reused by later ones with the same count.  The workers see the library as
    it was when they forked.  A worker that dies raises ``BrokenProcessPool``
    here and the pool is dropped, so the next call forks a fresh one.
    Outputs do not depend on ``threads``.
    """
    bounds = chunk_bounds(n)
    cpus = usable_cpus()
    if worker_count(threads, len(bounds), cpus) == 1:
        parts = [chunk_fn(args, lo, hi) for lo, hi in bounds]
    else:
        # sized by threads and CPUs alone, so that runs of every chunk count share it
        pool = _worker_pool(worker_count(threads, threads, cpus))
        los, his = zip(*bounds)
        try:
            parts = list(pool.map(chunk_fn, [args] * len(bounds), los, his))
        except BrokenProcessPool:
            _drop_pool()
            raise
    return [r for part in parts for r in part]


def _replicate_chunk(args, lo: int, hi: int) -> list[list[tuple]]:
    """Per replication, one record per integrand on the same pattern: (value, variance
    estimate, boundary count, complement mass, identity residual or None if no target)."""
    scenario_name, t, stream_tag, base_seed, integrands, targets = args
    scen = get_scenario(scenario_name)
    model = scen.make_model(t)
    streams = sampling.RngStream(base_seed).child(stream_tag)
    out = []
    for rng in sampling.stream_generators(streams.stream(rep) for rep in range(lo, hi)):
        pattern = sampling.sample_poisson(model, rng)
        record = []
        for f, target in zip(integrands, targets):
            est = estimators.hull_estimate(scen.gen, model, f, pattern)
            resid = None
            if target is not None:
                ks = estimators.ks_error(scen.gen, model, f, pattern, target,
                                         hull_term=est.hull_term)
                resid = abs(est.value - target - ks)
            complement = model.total_mass - est.hull_mass  # nan where the hull mass is
            record.append((est.value, est.variance_estimate, est.boundary_count, complement, resid))
        out.append(record)
    return out


def replication_rows(config: ExperimentConfig) -> Iterator[tuple[TRow, dict[str, np.ndarray]]]:
    """Per grid point, in grid order: its aggregate row and its per-replication arrays.

    Grid point i draws from stream tag i; a caller can write each row as it arrives.
    """
    scen = get_scenario(config.scenario)
    R = config.replications
    for t_index, t in enumerate(config.grid()):
        target = scen.target(t)
        args = (config.scenario, t, t_index, config.base_seed,
                (scen.make_integrand(t),), (target,))
        records = replicate(_replicate_chunk, args, R, config.threads)
        *columns, resids = zip(*(r[0] for r in records))
        values, varests, bcounts, complements = (np.array(c, dtype=float) for c in columns)
        resid = residual_max(resids)
        mean = float(values.mean())
        var = float(values.var(ddof=1))
        se = math.sqrt(var / R)
        if R >= MIN_NORMALITY_SAMPLES and var > 0:
            w1, ks = normality_diagnostics(values)
        else:
            w1, ks = math.nan, math.nan
        yield TRow(
            t=t,
            target=target,
            mean=mean,
            variance=var,
            se=se,
            ci_lo=mean - _Z99 * se,
            ci_hi=mean + _Z99 * se,
            mean_varest=float(varests.mean()),
            mean_boundary_count=float(bcounts.mean()),
            mean_complement_mass=float(complements.mean()),
            w1=w1,
            ks=ks,
            ks_resid_max=resid,
            unbiased_pass=abs(mean - target) <= 4.0 * se,
        ), {
            "values": values,
            "varest": varests,
            "boundary_count": bcounts,
            "complement_mass": complements,
        }


def run_replications(config: ExperimentConfig) -> ReplicationSummary:
    """Independent replications over the t grid, aggregated deterministically.

    The rows of ``replication_rows``, with log-log slope fits of the variance
    and of W1 when the grid has 4 points.
    """
    summary = ReplicationSummary(
        scenario=config.scenario,
        replications=config.replications,
        base_seed=config.base_seed,
    )
    for row, samples in replication_rows(config):
        summary.rows.append(row)
        summary.samples[row.t] = samples
    if len(summary.rows) >= 4:
        pairs = [(r.t, r.variance) for r in summary.rows if r.variance > 0]
        if len(pairs) >= 4:
            summary.variance_slope, summary.variance_slope_se = rate_fit(pairs)
        w1_pairs = [(r.t, r.w1) for r in summary.rows if math.isfinite(r.w1) and r.w1 > 0]
        if len(w1_pairs) >= 4:
            summary.w1_slope, summary.w1_slope_se = rate_fit(w1_pairs)
    return summary


# ---------------------------------------------------------------------------
# spatial Markov two-sample test


@dataclass
class MarkovReport:
    scenario: str
    pairs: int
    coordinates: tuple[str, ...]
    statistics: tuple[float, ...]
    pvalues: tuple[float, ...]
    negative_control: bool

    @property
    def all_pass(self) -> bool:
        return all(p > 1e-3 for p in self.pvalues)


def _interior_stats(gen, model, f, pattern) -> tuple[float, float, float]:
    """(interior count, interior f-sum, hull mass); the interior is the atoms off the mask."""
    mask, mass, _ = generators.evaluate(gen, model, pattern)
    fvs, mults = estimators.atom_values(f, pattern, [not keep for keep in mask])
    return float(sum(mults)), estimators.weighted_sum(fvs, mults), mass


def _markov_chunk(args, lo: int, hi: int) -> list[tuple[tuple, tuple]]:
    scenario_name, t, base_seed, negative_control = args
    scen = get_scenario(scenario_name)
    model = scen.make_model(t)
    f = scen.make_integrand(t)
    gen = scen.gen
    root = sampling.RngStream(base_seed)
    names = [root.child(tag) for tag in (11, 12, 13)]  # arm A, arm B's hull, arm B's fresh draw
    rngs = sampling.stream_generators(ns.stream(i) for i in range(lo, hi) for ns in names)
    out = []
    for rng_a, rng_b, rng_fresh in zip(rngs, rngs, rngs):  # the three streams of pair i
        eta = sampling.sample_poisson(model, rng_a)
        stats_a = _interior_stats(gen, model, f, eta)

        eta2 = sampling.sample_poisson(model, rng_b)
        if negative_control:
            fresh = sampling.sample_poisson(model, rng_fresh)
        else:
            fresh = sampling.trimmed_resample(model, gen, eta2, rng_fresh)
        fsum = estimators.weighted_sum(*estimators.atom_values(f, fresh, [True] * len(fresh.mults)))
        mass = generators.hull_mass(gen, eta2, model)
        out.append((stats_a, (float(fresh.total_mass), fsum, mass)))
    return out


def markov_two_sample(config: ExperimentConfig) -> MarkovReport:
    """Two-sample test of the hull-trimmed conditional law.

    Arm A evaluates the statistic vector (interior count, interior f-sum,
    hull mass) on single realisations; arm B evaluates it with the interior
    replaced by an independent fresh pattern thinned to the observed hull.
    Under the trimmed-resampling law both arms share a distribution; the
    negative control skips the thinning and must be detected.
    """
    n = config.replications
    args = (config.scenario, config.grid()[0], config.base_seed, config.negative_control)
    arm_a, arm_b = (np.array(arm, dtype=float)
                    for arm in zip(*replicate(_markov_chunk, args, n, config.threads)))

    names = ("interior_count", "interior_fsum", "hull_mass")
    stats, pvals = [], []
    for j in range(3):
        res = ks_2samp(arm_a[:, j], arm_b[:, j])
        stats.append(float(res.statistic))
        pvals.append(float(res.pvalue))
    return MarkovReport(
        scenario=config.scenario,
        pairs=n,
        coordinates=names,
        statistics=tuple(stats),
        pvalues=tuple(pvals),
        negative_control=config.negative_control,
    )


# ---------------------------------------------------------------------------
# diagnostics and fits


def normality_diagnostics(samples: Sequence[float]) -> tuple[float, float]:
    """(W1, KS) distances of the standardized sample to the standard normal."""
    x = np.asarray(samples, dtype=float)
    if len(x) < MIN_NORMALITY_SAMPLES:
        raise DomainError(f"need at least {MIN_NORMALITY_SAMPLES} samples")
    sd = x.std(ddof=1)
    if sd <= 0:
        raise DomainError("sample variance must be positive")
    z = np.sort((x - x.mean()) / sd)
    n = len(z)
    w1 = float(np.mean(np.abs(z - _normal_scores(n))))
    cdf = ndtr(z)
    upper = np.abs(np.arange(1, n + 1) / n - cdf)
    lower = np.abs(np.arange(0, n) / n - cdf)
    ks = float(np.max(np.maximum(upper, lower)))
    return w1, ks


@lru_cache(maxsize=8)
def _normal_scores(n: int) -> np.ndarray:
    """ndtri((i - 1/2) / n) for i = 1..n, read-only: the same for every t of a run."""
    scores = ndtri((np.arange(1, n + 1) - 0.5) / n)
    scores.flags.writeable = False
    return scores


def rate_fit(pairs: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log(metric) against log(t), with its standard error."""
    if len(pairs) < 4:
        raise DomainError("rate fits need at least 4 grid points")
    ts = np.array([p[0] for p in pairs], dtype=float)
    ms = np.array([p[1] for p in pairs], dtype=float)
    if np.any(ts <= 0) or np.any(ms <= 0):
        raise DomainError("rate fits need positive grid values and metrics")
    x = np.log(ts)
    y = np.log(ms)
    xc = x - x.mean()
    sxx = float((xc * xc).sum())
    slope = float((xc * (y - y.mean())).sum()) / sxx
    resid = y - y.mean() - slope * xc
    dof = len(pairs) - 2
    se = math.sqrt(float((resid * resid).sum()) / dof / sxx)
    return slope, se


# ---------------------------------------------------------------------------
# nested Monte Carlo for the variance and covariance identities


@dataclass
class NestedIntegral:
    """lambda-integral of weight(x) * P(adding x changes the boundary)."""

    estimate: float
    se: float
    probes: int
    replicas: int

    @property
    def ci99(self) -> tuple[float, float]:
        return self.estimate - _Z99 * self.se, self.estimate + _Z99 * self.se


def _nested_chunk(args, lo: int, hi: int) -> list[int]:
    """Per probe, how many of its fresh replicas leave the probe off the hull."""
    scenario_name, t, base_seed, replicas, probes = args
    scen = get_scenario(scenario_name)
    gen, model = scen.gen, scen.make_model(t)
    root = sampling.RngStream(base_seed).child(22)
    rngs = sampling.stream_generators(root.child(i).stream(r)
                                      for i in range(lo, hi) for r in range(replicas))
    out = []
    for i in range(lo, hi):
        probe = probes[i:i + 1]  # the probe as a one-row query array
        etas = (sampling.sample_poisson(model, rng) for rng in islice(rngs, replicas))
        out.append(sum(not gen.contains_mask(eta, probe)[0] for eta in etas))
    return out


def nested_h_integral(
    config: ExperimentConfig,
    weight: Callable[[np.ndarray], Sequence[float]],
) -> NestedIntegral:
    """Estimate int weight(x) E[H_x] dlambda at the first t of the grid, by fresh replicas.

    Probes are drawn lambda-proportionally, as one checked (n, k) array of
    rows in the space of the scenario's model, which is its generator's;
    ``weight`` maps that array to one float per probe.  Each probe gets
    its own bundle of fresh patterns, so the probe-level terms are
    independent and the reported standard error is honest.
    """
    t = config.grid()[0]
    model = get_scenario(config.scenario).make_model(t)
    root = sampling.RngStream(config.base_seed)
    probes = checked_array(model.space_tag,
                           model.sample_coords(config.nested_probes, root.child(21).generator()))
    args = (config.scenario, t, config.base_seed, config.nested_replicas, probes)
    hits = replicate(_nested_chunk, args, len(probes), config.threads)
    terms = np.array(
        [model.total_mass * w * h / config.nested_replicas for w, h in zip(weight(probes), hits)],
        dtype=float,
    )
    return NestedIntegral(
        estimate=float(terms.mean()),
        se=float(terms.std(ddof=1) / math.sqrt(len(terms))),
        probes=len(probes),
        replicas=config.nested_replicas,
    )


@dataclass
class PairedRun:
    values_f: np.ndarray
    values_g: np.ndarray
    ks_resid_max: float


def paired_estimates(
    config: ExperimentConfig,
    targets: tuple[float, float] | None = None,
) -> PairedRun:
    """Per-replication estimator values for the integrand and its covariate, at the first t.

    Both estimators are evaluated on the same pattern, which is what the
    covariance identity is about.  When targets are supplied, the
    error-representation identity is checked for both integrands on every
    pattern and the worst residual is reported.
    """
    scen = get_scenario(config.scenario)
    if scen.covariate is None:
        raise ConfigurationError(f"scenario {config.scenario} declares no covariate integrand")
    t = config.grid()[0]
    args = (config.scenario, t, 31, config.base_seed,
            (scen.make_integrand(t), scen.covariate(t)), targets or (None, None))
    records = replicate(_replicate_chunk, args, config.replications, config.threads)
    vf = np.array([r[0][0] for r in records], dtype=float)
    vg = np.array([r[1][0] for r in records], dtype=float)
    resid = residual_max(x[4] for r in records for x in r if x[4] is not None)
    return PairedRun(values_f=vf, values_g=vg, ks_resid_max=resid)


# ---------------------------------------------------------------------------
# interval helpers for the identity checks


def mean_ci99(values: np.ndarray) -> tuple[float, float, float]:
    m = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values)))
    return m - _Z99 * se, m + _Z99 * se, m


def variance_ci99(values: np.ndarray) -> tuple[float, float, float]:
    n = len(values)
    v = float(values.var(ddof=1))
    centered = values - values.mean()
    m4 = float(np.mean(centered**4))
    se = math.sqrt(max(m4 - v * v, 0.0) / n)
    return v - _Z99 * se, v + _Z99 * se, v


def covariance_ci99(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    n = len(x)
    xc = x - x.mean()
    yc = y - y.mean()
    c = float((xc * yc).sum() / (n - 1))
    m22 = float(np.mean(xc**2 * yc**2))
    se = math.sqrt(max(m22 - c * c, 0.0) / n)
    return c - _Z99 * se, c + _Z99 * se, c


def intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]
