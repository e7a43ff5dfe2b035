"""Self-checks of the benchmark: determinism across threads, trace coverage, the tail rule.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import make_golden  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

GOLDEN = jobs.load_golden()
KINDS = {k.name: k for spec in jobs.WORKLOADS.values() for k in spec["kinds"]}


def _seed(kind_name):
    return min(int(s) for s in GOLDEN["pool"][kind_name])


def test_identity_job_digest_same_at_one_and_two_threads(tmp_path):
    # 200 replications exceed one 64-replication chunk, so threads=2 uses the pool
    kind = KINDS["variance/convex_square"]
    seed = _seed(kind.name)
    one = jobs.run_job(kind, seed, 1, tmp_path)
    two = jobs.run_job(kind, seed, 2, tmp_path)
    assert one.gate(True) and two.gate(True)
    assert one.digest == two.digest == GOLDEN["pool"][kind.name][str(seed)]


def _small(kind):
    """The kind at its warm-up size, so that ``work()`` counts the small job."""
    return jobs.JobKind(kind.name, kind.command, kind.sized(True), {}, kind.expect_pass)


@pytest.mark.parametrize("name", [
    "estimate/convex_square", "estimate/meanwidth_disks", "rates/hoelder_d1",
    "variance/convex_square", "variance-cov/hoelder_d1", "markov/pareto_square",
    "markov-negative/convex_square", "axioms/halfplane",
])
def test_traced_job_matches_untraced_and_covers_every_pattern(tmp_path, name):
    kind = _small(KINDS[name])
    seed = _seed(name)
    plain = jobs.run_job(kind, seed, 1, tmp_path)
    tracer = tracing.Tracer()
    tracer.job = 0
    with tracer.installed():
        traced = jobs.run_job(kind, seed, 1, tmp_path)
    assert not plain.error and not traced.error, traced.error
    assert traced.digest == plain.digest
    assert tracing.coverage_problems(tracer, 0, kind) == []
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_coverage_flags_patterns_the_spans_miss(tmp_path):
    kind = _small(KINDS["estimate/convex_square"])
    tracer = tracing.Tracer()
    tracer.job = 0
    with tracer.installed():
        jobs.run_job(kind, _seed(kind.name), 1, tmp_path)
    more = jobs.JobKind(kind.name, kind.command,
                        {**kind.config, "replications": kind.config["replications"] + 1}, {})
    assert tracing.coverage_problems(tracer, 0, more) == ["4 sample_poisson spans for 5 patterns"]


def test_golden_pool_within_exclusion_limit():
    assert make_golden.over_limit(GOLDEN) == []
    bad = {"candidates": 64, "excluded": {"k": {str(i): "x" for i in range(4)}}}
    assert make_golden.over_limit(bad) == [
        "k: 4 of 64 candidate seeds fail the gate (at most 3 allowed)"]


def test_tracing_restores_the_library():
    from hullforge import generators, sampling

    before = (sampling.sample_poisson, generators.ConvexHullGen.hull_contains)
    with tracing.Tracer().installed():
        assert sampling.sample_poisson is not before[0]
    assert (sampling.sample_poisson, generators.ConvexHullGen.hull_contains) == before


def test_tail_has_ten_jobs_beyond_it():
    value, pct, beyond = run.tail([float(i) for i in range(48)])
    assert (value, beyond) == (37.0, 10) and pct == pytest.approx(100 * 38 / 48)
    value, pct, beyond = run.tail([float(i) for i in range(8)])
    assert (value, beyond, pct) == (4.0, 3, 62.5)


def test_benchmark_file_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.UNITS.values())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
