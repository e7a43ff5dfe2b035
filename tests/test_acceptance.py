"""Acceptance gate: every quantitative claim the package makes, at full size.

Each criterion runs at its stated replication count and tolerance, prints one
pass/fail line (outside capture), and asserts its runtime cap where one is
stated.  Heavy runs are shared through module fixtures; identity residuals
from those runs feed the error-representation criterion at the end.
"""

import itertools
import json
import math
import os
import random
import time

import numpy as np
import pytest

import hullforge.analytics as analytics
import hullforge.montecarlo as mc
from hullforge import (
    ConvexHullGen,
    PointPattern,
    RngStream,
    euclid,
    hull_estimate,
    hull_estimate_k,
    ks_error,
    sample_poisson,
)
from hullforge.cli import main as cli_main
from hullforge.core import ordered_sum
from hullforge.corpora import run_axiom_battery
from hullforge.estimators import Constant
from hullforge.generators import hull_mass
from hullforge.sampling import UniformBox, stream_generators

pytestmark = pytest.mark.acceptance

THREADS = min(2, os.cpu_count() or 1)
Z99 = 2.5758293035489004

#: ks-identity residuals collected from every estimator-evaluating criterion
KS_RESIDUALS: dict[str, tuple[float, float]] = {}


def _record_residual(tag: str, resid: float, target: float) -> None:
    KS_RESIDUALS[tag] = (resid, target)


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def _run(scenario, reps, seed, ts, threads=THREADS):
    cfg = mc.ExperimentConfig(
        scenario=scenario,
        replications=reps,
        base_seed=seed,
        t_grid=tuple(ts),
        threads=threads,
    )
    return mc.run_replications(cfg)


# -- shared heavy runs ---------------------------------------------------------


@pytest.fixture(scope="module")
def convex20():
    summary = _run("convex_square", 10_000, 811, (20.0,))
    _record_residual("convex_square_t20", summary.ks_resid_max, 1.0)
    return summary


@pytest.fixture(scope="module")
def hoelder20():
    summary = _run("hoelder_d1", 10_000, 812, (20.0,))
    _record_residual("hoelder_d1_t20", summary.ks_resid_max, 15.0)
    return summary


@pytest.fixture(scope="module")
def rate_grid():
    grid = tuple(2.0**k for k in range(4, 11))
    summary = _run("hoelder_d1", 4_000, 813, grid)
    _record_residual("hoelder_rates", summary.ks_resid_max, 0.75 * grid[-1])
    return summary


@pytest.fixture(scope="module")
def clt_grid():
    grid = tuple(2.0**k for k in range(4, 11))
    summary = _run("hoelder_d1", 10_000, 814, grid)
    _record_residual("hoelder_clt", summary.ks_resid_max, 0.75 * grid[-1])
    return summary


# -- criterion 1: axioms -------------------------------------------------------


def test_c01_axiom_suite(capsys):
    started = time.time()
    failures = {}
    for name in ("convex2", "coordmin", "pareto", "envelope", "halfplane"):
        report = run_axiom_battery(name, 1000, 12, seed=271, threads=THREADS)
        if not report.all_passed:
            failures[name] = report.failures()
    # same battery for the remaining concrete generators, smaller corpora
    for name in ("convex3", "diskhull"):
        report = run_axiom_battery(name, 250, 12, seed=272, threads=THREADS)
        if not report.all_passed:
            failures[name] = report.failures()

    oracle_bad = _convex_membership_vs_oracle()
    elapsed = time.time() - started
    ok = not failures and not oracle_bad and elapsed < 120.0
    _report(
        capsys,
        f"[C1] axiom suite + membership oracle: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.1f}s < 120s, failures={failures or 'none'}, "
        f"oracle_mismatches={oracle_bad})",
    )
    assert not failures, failures
    assert not oracle_bad
    assert elapsed < 120.0


def _relint_member(subset, q, tol=1e-9):
    pts = np.asarray(subset, dtype=float)
    qv = np.asarray(q, dtype=float)
    k = len(pts)
    scale = max(1.0, float(np.abs(pts).max()), float(np.abs(qv).max()))
    if k == 1:
        return bool(np.all(pts[0] == qv))
    centered = pts[1:] - pts[0]
    if np.linalg.matrix_rank(centered, tol=tol * scale) < k - 1:
        return False  # degenerate simplex; a smaller subset covers it
    lam, *_ = np.linalg.lstsq(centered.T, qv - pts[0], rcond=None)
    if np.linalg.norm(pts[0] + centered.T @ lam - qv) > tol * scale:
        return False
    return bool(1.0 - lam.sum() > 1e-12 and np.all(lam > 1e-12))


def _convex_membership_vs_oracle() -> int:
    """Membership against brute-force relative-interior subsets (<= d+1 points).

    The subset criterion characterises closed-hull membership, so extreme
    support points (which the hull proper excludes) are asserted separately.
    """
    bad = 0
    for dim, n_patterns in ((2, 140), (3, 70)):
        gen = ConvexHullGen(dim)
        rng = random.Random(500 + dim)
        for _ in range(n_patterns):
            n = rng.randint(1, 8)
            pts = [tuple(rng.uniform(0, 1) for _ in range(dim)) for _ in range(n)]
            mu = PointPattern.from_points([euclid(*p) for p in pts])
            ext = {p.coords for p in gen.boundary(mu).support()}
            probes = [tuple(rng.uniform(-0.1, 1.1) for _ in range(dim)) for _ in range(6)]
            if n >= 2:
                a, b = rng.sample(pts, 2)
                probes.append(tuple((x + y) / 2 for x, y in zip(a, b)))
            if n >= 3:
                a, b, c = rng.sample(pts, 3)
                probes.append(tuple((x + y + z) / 3 for x, y, z in zip(a, b, c)))
            for q in probes:
                if q in ext:
                    continue
                want = any(
                    _relint_member(sub, q)
                    for k in range(1, dim + 2)
                    for sub in itertools.combinations(dict.fromkeys(pts), k)
                )
                if gen.hull_contains(mu, euclid(*q)) != want:
                    bad += 1
            bad += sum(gen.hull_contains(mu, euclid(*p)) for p in ext)
    return bad


# -- criterion 2: unbiasedness across scenarios --------------------------------


def test_c02_unbiasedness(capsys):
    started = time.time()
    cases = [
        ("convex_square", 50.0, 1.0),
        ("hoelder_d1", 1.0, 0.75),
        ("halfline_min", 1.0, 1.0),
        ("meanwidth_disks", 1.0, 2 * math.pi),
        ("disk_support_sanity", 1.0, 0.91 * math.pi),
    ]
    rows = []
    ok = True
    for i, (scenario, t, target) in enumerate(cases):
        summary = _run(scenario, 10_000, 820 + i, (t,))
        row = summary.rows[0]
        assert row.target == pytest.approx(target, rel=1e-12)
        _record_residual(f"{scenario}_unbiased", summary.ks_resid_max, target)
        z = (row.mean - row.target) / row.se
        passed = abs(row.mean - row.target) <= 4.0 * row.se
        ok = ok and passed
        rows.append(f"{scenario}: z={z:+.2f}")
        assert passed, (scenario, row.mean, row.target, row.se)
    elapsed = time.time() - started
    ok = ok and elapsed < 600.0
    _report(
        capsys,
        f"[C2] unbiasedness, 5 scenarios x 1e4 reps: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.1f}s < 600s; {'; '.join(rows)})",
    )
    assert elapsed < 600.0


# -- criterion 3: closed-form boundary cardinality ------------------------------


def test_c03_coordmin_closed_form(capsys):
    # The closed form here is the corrected one (collision series); the
    # often-quoted constant 0.864665 at t=1 drops the overlap of the two
    # coordinate strips, and the same runs must reject it decisively.
    started = time.time()
    assert analytics.coordmin_expected_card(1.0) == pytest.approx(0.779412011, abs=1e-8)
    details = []
    misprint_rejected = False
    for i, t in enumerate((0.5, 1.0, 2.0, 5.0)):
        summary = _run("coordmin", 100_000, 830 + i, (t,))
        _record_residual(f"coordmin_t{t}", summary.ks_resid_max, 1.0)
        counts = summary.samples[t]["boundary_count"]
        mean = counts.mean()
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        target = analytics.coordmin_expected_card(t)
        assert abs(mean - target) <= 4.0 * se, (t, mean, target, se)
        details.append(f"t={t}: z={(mean - target) / se:+.2f}")
        if t == 1.0:
            misprint_rejected = abs(mean - 0.864665) > 10.0 * se
    elapsed = time.time() - started
    assert misprint_rejected, "data should exclude the overlap-free constant"
    _report(
        capsys,
        f"[C3] boundary-size closed form: PASS ({elapsed:.1f}s < 60s; "
        f"{'; '.join(details)}; overlap-free constant rejected at >10 SE)",
    )
    assert elapsed < 60.0


# -- criterion 4: Efron-type identity -------------------------------------------


def test_c04_efron_identity(capsys, convex20):
    started = time.time()
    comp = convex20.samples[20.0]["complement_mass"]
    card = convex20.samples[20.0]["boundary_count"]
    ci_comp = mc.mean_ci99(comp)
    ci_card = mc.mean_ci99(card)
    overlap = mc.intervals_overlap(ci_comp[:2], ci_card[:2])
    elapsed = time.time() - started
    _report(
        capsys,
        f"[C4] complement-mass vs vertex-count identity: "
        f"{'PASS' if overlap else 'FAIL'} "
        f"(mass CI [{ci_comp[0]:.4f},{ci_comp[1]:.4f}] vs "
        f"count CI [{ci_card[0]:.4f},{ci_card[1]:.4f}])",
    )
    assert overlap
    assert elapsed < 120.0


# -- criterion 5: variance identity and variance-estimator unbiasedness ---------


def test_c05_variance_identity(capsys, convex20, hoelder20):
    started = time.time()
    details = []
    for scenario, summary, seed in (
        ("convex_square", convex20, 841),
        ("hoelder_d1", hoelder20, 842),
    ):
        cfg = mc.ExperimentConfig(
            scenario=scenario,
            replications=summary.replications,
            base_seed=seed,
            t_grid=(20.0,),
            nested_probes=512,
            nested_replicas=200,
            threads=THREADS,
        )
        scen = mc.get_scenario(scenario)
        f, tag = scen.make_integrand(20.0), scen.gen.space_tag
        nested = mc.nested_h_integral(cfg, lambda q: [v ** 2 for v in f.values(q, tag).tolist()])
        emp = mc.variance_ci99(summary.samples[20.0]["values"])
        hatv = mc.mean_ci99(summary.samples[20.0]["varest"])
        pairs = [
            mc.intervals_overlap(emp[:2], nested.ci99),
            mc.intervals_overlap(emp[:2], hatv[:2]),
            mc.intervals_overlap(hatv[:2], nested.ci99),
        ]
        details.append(
            f"{scenario}: var={emp[2]:.4g} nested={nested.estimate:.4g} "
            f"meanVhat={hatv[2]:.4g} overlaps={pairs}"
        )
        assert all(pairs), details[-1]
    elapsed = time.time() - started
    _report(
        capsys,
        f"[C5] variance identity + variance-estimator mean: PASS "
        f"({elapsed:.1f}s < 600s; {'; '.join(details)})",
    )
    assert elapsed < 600.0


# -- criterion 6: covariance identity -------------------------------------------


def test_c06_covariance_identity(capsys):
    t = 20.0
    f_target = 0.75 * t
    g_target = 7.0 * t / 12.0  # integral of the squared ramp boundary
    cfg = mc.ExperimentConfig(
        scenario="hoelder_d1",
        replications=10_000,
        base_seed=851,
        t_grid=(t,),
        nested_probes=512,
        nested_replicas=200,
        threads=THREADS,
    )
    paired = mc.paired_estimates(cfg, targets=(f_target, g_target))
    _record_residual("hoelder_covariance", paired.ks_resid_max, g_target)
    scen = mc.get_scenario("hoelder_d1")
    f = scen.make_integrand(t)
    g = scen.covariate(t)
    tag = scen.gen.space_tag
    nested = mc.nested_h_integral(cfg, lambda q: f.values(q, tag) * g.values(q, tag))
    cov = mc.covariance_ci99(paired.values_f, paired.values_g)
    overlap = mc.intervals_overlap(cov[:2], nested.ci99)
    _report(
        capsys,
        f"[C6] covariance identity: {'PASS' if overlap else 'FAIL'} "
        f"(cov CI [{cov[0]:.4f},{cov[1]:.4f}] vs nested "
        f"[{nested.ci99[0]:.4f},{nested.ci99[1]:.4f}])",
    )
    assert overlap


# -- criterion 7: hull-trimmed conditional law ----------------------------------


def test_c07_markov_two_sample(capsys):
    details = []
    for scenario, seed in (("convex_square", 861), ("pareto_square", 862)):
        cfg = mc.ExperimentConfig(
            scenario=scenario, replications=10_000, base_seed=seed, t_grid=(20.0,),
            threads=THREADS,
        )
        report = mc.markov_two_sample(cfg)
        assert report.all_pass, (scenario, report.pvalues)
        details.append(f"{scenario}: min p={min(report.pvalues):.4f}")
    neg = mc.markov_two_sample(
        mc.ExperimentConfig(
            scenario="convex_square",
            replications=10_000,
            base_seed=863,
            t_grid=(20.0,),
            negative_control=True,
            threads=THREADS,
        )
    )
    assert neg.pvalues[0] < 1e-6, neg.pvalues
    _report(
        capsys,
        f"[C7] trimmed-resampling two-sample test: PASS "
        f"({'; '.join(details)}; negative control p={neg.pvalues[0]:.2e})",
    )


# -- criterion 8: joint-moment identity -----------------------------------------


def test_c08_joint_moments(capsys):
    started = time.time()
    t = 20.0
    gen = ConvexHullGen(2)
    model = UniformBox((0.0, 0.0), (1.0, 1.0), rate=t)
    f1 = Constant(1.0)
    n = 10_000
    vals = {2: np.empty(n), 3: np.empty(n)}
    resid = 0.0
    root = RngStream(871).child(0)
    for rep, rng in enumerate(stream_generators(map(root.stream, range(n)))):
        pattern = sample_poisson(model, rng)
        for k in (2, 3):
            vals[k][rep] = hull_estimate_k(gen, model, k, pattern)
        est = hull_estimate(gen, model, f1, pattern)
        err = ks_error(gen, model, f1, pattern, t, hull_term=est.hull_term)
        resid = max(resid, abs(est.value - t - err))
    _record_residual("joint_moments", resid, t)
    details = []
    for k in (2, 3):
        target = t**k
        mean = vals[k].mean()
        se = vals[k].std(ddof=1) / math.sqrt(n)
        assert abs(mean - target) <= 4.0 * se, (k, mean, target, se)
        details.append(f"k={k}: z={(mean - target) / se:+.2f}")
    elapsed = time.time() - started
    _report(
        capsys,
        f"[C8] joint-moment identity: PASS ({elapsed:.1f}s < 180s; "
        f"{'; '.join(details)})",
    )
    assert elapsed < 180.0


# -- criterion 9: variance growth rate ------------------------------------------


def test_c09_variance_rate(capsys, rate_grid):
    started = time.time()
    slope, se = rate_grid.variance_slope, rate_grid.variance_slope_se
    slope_ok = abs(slope - 0.5) <= 0.10
    bracket_ok = True
    rows = []
    for r in rate_grid.rows:
        lo, hi = analytics.hoelder_variance_bounds(mc.hoelder_scenario_params(r.t))
        vlo, vhi, v = mc.variance_ci99(rate_grid.samples[r.t]["values"])
        ok = lo <= vhi and vlo <= hi
        bracket_ok = bracket_ok and ok
        rows.append(f"t={r.t:.0f}: var={v:.3g} in [{lo:.3g},{hi:.3g}]:{ok}")
    elapsed = time.time() - started
    ok = slope_ok and bracket_ok
    _report(
        capsys,
        f"[C9] variance growth rate: {'PASS' if ok else 'FAIL'} "
        f"(slope={slope:.4f}+-{se:.4f} vs 0.50+-0.10; bracketing "
        f"{'all pass' if bracket_ok else rows})",
    )
    assert slope_ok, (slope, se)
    assert bracket_ok, rows


# -- criterion 10: normal-approximation rate -------------------------------------


def test_c10_clt_rate(capsys, clt_grid):
    slope, se = clt_grid.w1_slope, clt_grid.w1_slope_se
    slope_ok = abs(slope - (-0.25)) <= 0.15
    t_max = clt_grid.rows[-1].t
    terms = analytics.clt_bound_terms(mc.hoelder_scenario_params(t_max))
    bound = ordered_sum(terms)  # summed as cmd_clt sums them
    w1 = clt_grid.rows[-1].w1
    bound_ok = w1 <= bound
    ok = slope_ok and bound_ok
    _report(
        capsys,
        f"[C10] normal-approximation rate: {'PASS' if ok else 'FAIL'} "
        f"(W1 slope={slope:.4f}+-{se:.4f} vs -0.25+-0.15; "
        f"W1(t={t_max:.0f})={w1:.4f} <= bound {bound:.4f})",
    )
    assert slope_ok, (slope, se)
    assert bound_ok, (w1, bound)


# -- criterion 11: error-representation identity ---------------------------------


def test_c11_ks_identity(capsys, convex20, hoelder20, rate_grid, clt_grid):
    # Residuals were collected from every estimator-evaluating run above
    # (criteria 2, 3, 4/5 fixtures, 6, 8, 9, 10).
    assert len(KS_RESIDUALS) >= 12, sorted(KS_RESIDUALS)
    worst_tag, rel = max(
        ((tag, r / (1.0 + abs(f))) for tag, (r, f) in KS_RESIDUALS.items()),
        key=lambda kv: kv[1],
    )
    ok = all(r <= 1e-10 * (1.0 + abs(f)) for r, f in KS_RESIDUALS.values())
    _report(
        capsys,
        f"[C11] error-representation identity on all sampled patterns: "
        f"{'PASS' if ok else 'FAIL'} (worst {worst_tag}: {rel:.2e} <= 1e-10)",
    )
    assert ok, KS_RESIDUALS


# -- criterion 12: determinism ----------------------------------------------------


def test_c12_determinism(capsys, tmp_path):
    # Byte-identity of command outputs is a mechanism property (per-index RNG
    # streams + ordered aggregation), so reduced replication counts exercise
    # the same contract the full-size runs rely on.
    specs = {
        "estimate": {
            "schema": 1, "name": "det-est", "scenario": "convex_square",
            "replications": 2000, "seed": 17, "t_grid": [20.0],
        },
        "rates": {
            "schema": 1, "name": "det-rates", "scenario": "hoelder_d1",
            "replications": 300, "seed": 18, "t_grid": [16.0, 32.0, 64.0, 128.0],
        },
        "markov": {
            "schema": 1, "name": "det-markov", "scenario": "pareto_square",
            "pairs": 1500, "seed": 19, "t": 20.0,
        },
        "axioms": {
            "schema": 1, "name": "det-axioms",
            "generators": ["coordmin", "pareto"], "patterns": 60,
            "max_points": 8, "seed": 20,
        },
    }
    identical = True
    for command, cfg in specs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        blobs = []
        for run, threads in (("r1", "1"), ("r2", "1"), ("r3", str(THREADS + 1))):
            out = tmp_path / command / run
            code = cli_main(
                ["estimate" if command == "estimate" else command,
                 "--config", str(cfg_path), "--out", str(out),
                 "--threads", threads]
            )
            assert code in (0, 1)
            name = cfg["name"]
            blobs.append(
                (out / f"{name}.csv").read_bytes()
                + (out / f"{name}.summary.json").read_bytes()
            )
        same = blobs[0] == blobs[1] == blobs[2]
        identical = identical and same
        assert same, f"{command} outputs differ across reruns/threads"
    _report(
        capsys,
        f"[C12] determinism (rerun + thread-count byte identity over "
        f"{len(specs)} commands): {'PASS' if identical else 'FAIL'}",
    )
    assert identical
