"""Workloads of the hullforge benchmark: job kinds, job execution and the correctness gate.

A *job* is one verification the program performs for a user: a
``montecarlo.run_replications`` call (``estimate-mix``) or one CLI subcommand
run in-process through ``cli.main``.  Each job ends in a verdict.  The
benchmark issues jobs back to back from one caller (a closed loop), cycling
through the job kinds of its workload.

Job seeds come from ``golden.json``: per job kind, the config seeds whose
verdict at the baseline commit is the expected one, with the sha256 digest of
the job's outputs.  The statistical checks have a nominal false-alarm rate
(99% intervals, 4 standard errors, p > 1e-3), so a seed drawn at random fails
now and then on a correct program; the pool keeps the gate exact.  The seeds
left out, and the check each one failed, are listed in the same file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hullforge import cli, montecarlo

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: the error-representation residual bound of criterion C11, relative to 1 + |F|
RESID_REL = 1e-10

#: library calls whose results the gate inspects and whose durations the traced run uses
CAPTURED = ("run_replications", "nested_h_integral", "markov_two_sample", "paired_estimates")

#: library loops that run serially whatever --threads says
SERIAL_CALLS = ("nested_h_integral", "markov_two_sample", "paired_estimates")

RATE_GRID = [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]


@dataclass(frozen=True)
class JobKind:
    """One job configuration; the seed is supplied per job."""

    name: str
    command: str  # "estimate" calls run_replications directly; others are CLI subcommands
    config: dict
    warmup: dict  # size overrides for the untimed warm-up job
    expect_pass: bool = True

    def sized(self, warm: bool) -> dict:
        return {**self.config, **self.warmup} if warm else dict(self.config)

    def work(self) -> dict:
        """Exact work counts of one job, from its config."""
        c = self.config
        if self.command in ("estimate", "rates"):
            return {"patterns": c["replications"] * len(c["t_grid"])}
        if self.command == "variance":
            arms = 2 if c.get("covariance") else 1
            pairs = c["nested_probes"] * c["nested_replicas"]
            return {"patterns": arms * (c["replications"] + pairs), "probe_replicas": arms * pairs}
        if self.command == "markov":
            return {"patterns": 3 * c["pairs"]}
        return {"patterns": c["patterns"], "corpus_patterns": c["patterns"]}


def _estimate(name, scenario, t, reps):
    return JobKind(
        f"estimate/{name}", "estimate",
        {"scenario": scenario, "replications": reps, "t_grid": [t]},
        {"replications": 4},
    )


def _axioms(gen, patterns, expect_pass=True):
    return JobKind(
        f"axioms/{gen}", "axioms",
        {"generators": [gen], "patterns": patterns, "max_points": 12},
        {"patterns": 2}, expect_pass,
    )


_NESTED = {"nested_probes": 64, "nested_replicas": 16}
_NESTED_WARM = {"replications": 4, "nested_probes": 4, "nested_replicas": 2}

# Sizes are set so that the job kinds of a workload take about the same time,
# a few tenths of a second on one core: the median and tail job then sample a
# blend of all kinds, and do not jump between two kinds of different cost.
# rates needs 100 replications per grid point for its slope-band verdict to
# hold (at 64, 4 of 40 seeds failed the band), so its jobs are longer.
WORKLOADS: dict[str, dict] = {
    "estimate-mix": {
        "threads": 1,
        "kinds": [
            _estimate("convex_square", "convex_square", 50.0, 32),
            _estimate("pareto_square", "pareto_square", 20.0, 48),
            _estimate("halfline_min", "halfline_min", 1.0, 20),
            _estimate("meanwidth_disks", "meanwidth_disks", 1.0, 80),
            _estimate("disk_support_sanity", "disk_support_sanity", 1.0, 1200),
            _estimate("coordmin", "coordmin", 1.0, 2400),
        ],
    },
    "rates-grid": {
        "threads": 1,
        "kinds": [
            JobKind(
                "rates/hoelder_d1", "rates",
                {"scenario": "hoelder_d1", "replications": 100, "t_grid": RATE_GRID},
                {"replications": 4},
            ),
        ],
    },
    "identity-mix": {
        "threads": 2,
        "kinds": [
            JobKind(
                "variance/convex_square", "variance",
                {"scenario": "convex_square", "replications": 200, "t": 20.0, **_NESTED},
                _NESTED_WARM,
            ),
            JobKind(
                "variance-cov/hoelder_d1", "variance",
                {"scenario": "hoelder_d1", "replications": 170, "t": 20.0, "covariance": True,
                 **_NESTED},
                _NESTED_WARM,
            ),
            JobKind(
                "markov/convex_square", "markov",
                {"scenario": "convex_square", "pairs": 550, "t": 20.0}, {"pairs": 4},
            ),
            JobKind(
                "markov/pareto_square", "markov",
                {"scenario": "pareto_square", "pairs": 85, "t": 20.0}, {"pairs": 4},
            ),
            JobKind(
                "markov-negative/convex_square", "markov",
                {"scenario": "convex_square", "pairs": 700, "t": 20.0, "negative_control": True},
                {"pairs": 4}, expect_pass=False,
            ),
        ],
    },
    "axioms": {
        "threads": 1,
        "kinds": [
            _axioms("convex2", 36),
            _axioms("convex3", 8),
            _axioms("coordmin", 64),
            _axioms("pareto", 24),
            _axioms("envelope", 32),
            _axioms("halfplane", 12),
            _axioms("diskhull", 32),
            _axioms("broken_lexdrop", 32, expect_pass=False),
        ],
    },
}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def job_plan(workload: str, seed: int, golden: dict):
    """Endless cycles of (kind, job seed); each cycle runs every kind once.

    ``seed`` shuffles each kind's verified seed pool, so one benchmark seed
    always gives the same job sequence.
    """
    rng = random.Random(seed)
    kinds = WORKLOADS[workload]["kinds"]
    orders = []
    for kind in kinds:
        pool = sorted(int(s) for s in golden["pool"][kind.name])
        rng.shuffle(pool)
        orders.append(pool)
    cycle = 0
    while True:
        yield [(kind, order[cycle % len(order)]) for kind, order in zip(kinds, orders)]
        cycle += 1


# ---------------------------------------------------------------------------
# running one job


@dataclass
class Call:
    """One captured library call: its name, result and duration."""

    name: str
    result: object
    seconds: float


@dataclass
class JobResult:
    kind: str
    seed: int
    threads: int
    latency: float = 0.0
    verdict: bool | None = None
    resid_ok: bool = True
    digest: str = ""
    error: str = ""
    calls: list[Call] = field(default_factory=list)

    def gate(self, expect_pass: bool) -> bool:
        """True when the job passes the correctness gate."""
        return not self.error and self.resid_ok and self.verdict == expect_pass


@contextlib.contextmanager
def patched(obj, replacements: dict):
    """Set attributes on ``obj`` for the duration of the block."""
    saved = {name: getattr(obj, name) for name in replacements}
    for name, value in replacements.items():
        setattr(obj, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(obj, name, value)


def capturing(calls: list[Call]):
    """Record the result and duration of every CAPTURED montecarlo call."""

    def wrap(name):
        fn = getattr(montecarlo, name)

        def call(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            calls.append(Call(name, result, time.perf_counter() - start))
            return result

        return call

    return patched(montecarlo, {name: wrap(name) for name in CAPTURED})


def summary_digest(summary) -> str:
    h = hashlib.sha256()
    rows = [{k: repr(v) for k, v in vars(r).items()} for r in summary.rows]
    h.update(json.dumps(rows, sort_keys=True).encode())
    for t in sorted(summary.samples):
        for key in sorted(summary.samples[t]):
            h.update(key.encode())
            h.update(summary.samples[t][key].tobytes())
    return h.hexdigest()


def _files_digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in ("job.csv", "job.summary.json"):
        h.update(name.encode())
        h.update((out / name).read_bytes())
    return h.hexdigest()


def _resid_ok(calls: list[Call]) -> bool:
    return all(
        row.ks_resid_max <= RESID_REL * (1.0 + abs(row.target))
        for c in calls if c.name == "run_replications"
        for row in c.result.rows
    )


def run_job(kind: JobKind, seed: int, threads: int, workdir: Path,
            warm: bool = False) -> JobResult:
    """Run one job, time it to its verdict, and apply the correctness gate.

    A job that raises is recorded as failed, with its traceback, so the closed
    loop keeps running.
    """
    res = JobResult(kind.name, seed, threads)
    cfg = kind.sized(warm)
    try:
        with capturing(res.calls):
            if kind.command == "estimate":
                config = montecarlo.ExperimentConfig(
                    scenario=cfg["scenario"], replications=cfg["replications"],
                    base_seed=seed, t_grid=tuple(cfg["t_grid"]), threads=threads,
                )
                start = time.perf_counter()
                summary = montecarlo.run_replications(config)
                # the pass rule of the estimate subcommand
                res.verdict = all(r.unbiased_pass for r in summary.rows) and _resid_ok(res.calls)
                res.latency = time.perf_counter() - start
                res.digest = summary_digest(summary)
            else:
                slug = kind.name.replace("/", "_")
                cfg_path = workdir / f"{slug}.json"
                out = workdir / slug
                cfg_path.write_text(json.dumps({"schema": 1, "name": "job", **cfg, "seed": seed}))
                argv = [kind.command, "--config", str(cfg_path), "--out", str(out),
                        "--threads", str(threads)]
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    start = time.perf_counter()
                    code = cli.main(argv)
                    res.latency = time.perf_counter() - start
                if code not in (0, 1):
                    raise RuntimeError(f"exit code {code}: {sink.getvalue().strip()}")
                res.verdict = code == 0
                res.digest = _files_digest(out)
        res.resid_ok = _resid_ok(res.calls)
    except Exception:  # the loop must keep running; the failure is counted and reported
        res.error = traceback.format_exc(limit=8)
    return res
