"""hullforge benchmark: verification jobs in a closed loop, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

One caller issues verification jobs back to back (a closed loop, one client)
and cycles through the job kinds of the workload (see ``jobs.WORKLOADS``).
It runs whole cycles until ``--seconds`` have passed, checks every job
against the correctness gate, and prints a summary and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median set-up
  time of ``SETUP_REPEATS`` fresh processes: imports, registries, one warm-up
  job per job kind), ``patterns_per_s``,
  ``job_s_p50``, ``job_s_tail`` and ``peak_rss_mb``.
* ``--trace 1`` runs each job untraced, then traced (``tracing.py``), checks
  that the traced job gives the same outputs and that its spans cover every
  pattern of the job, and reports the per-layer metrics.
* ``--workload all`` runs every workload in its own process and prints a
  table of the end-to-end metrics.

Reported times are wall times scaled to nominal machine speed by a reference
task run between the jobs (``reference_seconds``); the raw wall times are kept
in the result file.

The program is imported from ``src/`` next to this directory; the run exits
with status 2 and prints no result when it is missing.  Detailed results
(per-job latency, verdict, output digest, work counts) and the spans of a
traced run are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("estimate-mix", "rates-grid", "identity-mix", "axioms")
SETUP_REPEATS = 5  # fresh processes whose set-up time is measured
REFERENCE_S = 0.010  # duration of reference_seconds() at nominal machine speed


def setup(workload: str, workdir: Path) -> None:
    """Import the program, load the registries and warm every job kind."""
    sys.path.insert(0, str(ROOT / "src"))
    import jobs
    from hullforge import corpora, montecarlo

    for name in montecarlo.scenario_names():
        montecarlo.get_scenario(name)
    len(corpora.GENERATOR_SUITE)
    golden = jobs.load_golden()
    spec = jobs.WORKLOADS[workload]
    for kind in spec["kinds"]:
        seed = min(int(s) for s in golden["pool"][kind.name])
        res = jobs.run_job(kind, seed, spec["threads"], workdir, warm=True)
        if res.error:
            raise RuntimeError(f"warm-up job {kind.name} raised:\n{res.error}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest latency with at least ten jobs beyond it.

    Under 21 jobs fewer jobs lie beyond it, so that it never falls below the
    median.  Returns (value, its percentile, jobs beyond it).
    """
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(10, (n - 1) // 2)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def reference_seconds() -> float:
    """Time a fixed task of interpreter and small-NumPy work that runs no hullforge code.

    The shared machine's speed drifts by tens of percent within a minute.  The
    task runs between the timed jobs and set-ups, and each wall time is scaled
    to nominal speed by the reference times around it (``scaled``).  That
    cancels most of the drift but no change in the program.
    """
    import numpy as np

    start = time.perf_counter()
    rng = random.Random(1)
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    for _ in range(60):
        pts = sorted({(rng.random(), rng.random()): 1 for _ in range(40)})
        acc += len([p for p in pts if p[0] * p[1] > 0.1])
    a = np.arange(2000.0)
    for _ in range(50):
        a = np.sqrt(a * a + 1.0)
    b = np.arange(64.0)
    for _ in range(300):
        b = np.sqrt(b * b + 1.0)
        acc += float(b.sum())
    c = np.arange(1 << 19, dtype=float)  # 4 MB, beyond the per-core caches
    for _ in range(2):
        c = c[::-1] + 1.0
    return time.perf_counter() - start


def scaled(walls: list[float], refs: list[float], per_gap: int, reach: int) -> list[float]:
    """Wall times at nominal machine speed.

    ``refs`` holds ``per_gap`` reference times before ``walls[0]``, between
    consecutive walls and after the last.  Wall ``i`` is scaled by the median
    reference time of the gaps within ``reach`` of it: one reference run alone
    is too noisy to scale by.
    """
    out = []
    for i, wall in enumerate(walls):
        window = refs[max(0, i + 1 - reach) * per_gap:(i + 1 + reach) * per_gap]
        out.append(wall * REFERENCE_S / statistics.median(window))
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def fresh_setup(workload: str) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    start = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


@contextlib.contextmanager
def one_cpu(active: bool = True):
    """Hold this process, and the processes it starts, on one CPU.

    The CPUs of a shared machine often run at different speeds.  Work scaled
    by reference runs timed on another CPU would take that CPU's speed.
    """
    allowed = os.sched_getaffinity(0)
    if active:
        os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def timed_setups(workload: str) -> tuple[list[float], list[float]]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh processes: (wall, scaled)."""
    with one_cpu():
        refs = [reference_seconds() for _ in range(3)]
        walls = []
        for _ in range(SETUP_REPEATS):
            walls.append(fresh_setup(workload))
            refs += [reference_seconds() for _ in range(3)]
    return walls, scaled(walls, refs, per_gap=3, reach=1)


def job_record(res, kind, golden) -> dict:
    return {
        "kind": res.kind, "seed": res.seed, "threads": res.threads,
        "latency_s": res.latency, "verdict": res.verdict, "passed_gate": res.gate(kind.expect_pass),
        "digest": res.digest, "golden": res.digest == golden["pool"][kind.name].get(str(res.seed)),
        "error": res.error, "work": kind.work(),
    }


def run_plain(workload: str, seed: int, seconds: float, workdir: Path):
    import jobs

    golden = jobs.load_golden()
    threads = jobs.WORKLOADS[workload]["threads"]
    records, patterns = [], 0
    with one_cpu(threads == 1):
        refs = [reference_seconds()]  # refs[i] and refs[i + 1] bracket job i
        start = time.perf_counter()
        for cycle in jobs.job_plan(workload, seed, golden):
            for kind, job_seed in cycle:
                res = jobs.run_job(kind, job_seed, threads, workdir)
                refs.append(reference_seconds())
                records.append(job_record(res, kind, golden))
                patterns += kind.work()["patterns"]
            if time.perf_counter() - start >= seconds:
                break
    rss = peak_rss_mb()
    latencies = scaled([r["latency_s"] for r in records], refs, per_gap=1, reach=5)
    for r, value in zip(records, latencies):
        r["scaled_latency_s"] = value
    setups_wall, setups = timed_setups(workload)
    value, pct, beyond = tail(latencies)
    failed = sum(not r["passed_gate"] for r in records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "patterns_per_s": (patterns / sum(latencies), "patterns/s"),
        "job_s_p50": (statistics.median(latencies), "s"),
        "job_s_tail": (value, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    first = len(jobs.WORKLOADS[workload]["kinds"])
    info = {
        "jobs": len(records), "cycles": len(records) // first,
        "tail_percentile": pct, "jobs_beyond_tail": beyond,
        "fail_frac": failed / len(records), "setup_wall_s": setups_wall, "reference_s": refs,
        "job_wall_s_p50": statistics.median(r["latency_s"] for r in records),
        "golden_digests": f"{sum(r['golden'] for r in records)}/{len(records)}",
        "work": {key: sum(r["work"].get(key, 0) for r in records)
                 for key in ("patterns", "probe_replicas", "corpus_patterns")},
        "first_cycle_digests": [r["digest"] for r in records[:first]],
    }
    return metrics, len(records), failed, True, info, records


def run_traced(workload: str, seed: int, seconds: float, workdir: Path):
    import jobs
    import tracing

    golden = jobs.load_golden()
    spec = jobs.WORKLOADS[workload]
    threads = spec["threads"]
    tracer = tracing.Tracer()
    per_job, records, stale = [], [], []
    start = time.perf_counter()
    for c, cycle in enumerate(jobs.job_plan(workload, seed, golden)):
        for kind, job_seed in cycle:
            ref = jobs.run_job(kind, job_seed, 1, workdir)
            wide = jobs.run_job(kind, job_seed, threads, workdir) if threads > 1 else ref
            tracer.job = len(per_job)
            with tracer.installed():
                got = jobs.run_job(kind, job_seed, 1, workdir)
            mismatch = tracing.coverage_problems(tracer, tracer.job, kind)
            if got.digest != ref.digest:
                mismatch.append("traced output digest differs from untraced")
            if wide.digest != ref.digest:
                mismatch.append(f"threads={threads} output digest differs from threads=1")
            if got.error:
                mismatch.append("traced job raised")
            stale += [f"{kind.name} seed {job_seed}: {m}" for m in mismatch]
            rec = job_record(ref, kind, golden)
            rec["passed_gate"] = rec["passed_gate"] and wide.gate(kind.expect_pass)
            records.append(rec)
            per_job.append({
                "kind": kind.name, "work": kind.work(), "first_cycle": c == 0,
                "wall_traced": got.latency, "wall_untraced": ref.latency,
                "wall_wide": wide.latency, "calls_untraced": ref.calls, "calls_wide": wide.calls,
            })
        if time.perf_counter() - start >= seconds:
            break
    layer = tracing.layer_metrics(tracer, per_job, threads)
    wall = sum(j["wall_traced"] for j in per_job)
    info = {
        "jobs": len(per_job), "stale": stale,
        "layer_shares": {k: round(v, 4) for k, v in tracing.layer_shares(tracer, wall).items()},
        "spans": len(tracer.spans),
    }
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.json",
                [{k: v for k, v in j.items() if not k.startswith("calls")} for j in per_job])
    metrics = {name: (value, tracing.UNITS[name]) for name, value in layer.items()}
    failed = sum(not r["passed_gate"] for r in records)
    return metrics, len(records), failed, not stale, info, records


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; prints a table of end-to-end metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'workload':<14}" + "".join(f"{n:<22}" for n in names) + "fail_frac")
    for wl, res in results.items():
        cells = "".join(
            f"{res['metrics'][n]['value']:<10.4g} {res['metrics'][n]['unit']:<11}" for n in names
        )
        print(f"{wl:<14}{cells}{res['failed'] / res['attempted']:.3g}")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hullforge" / "__init__.py").is_file():
        print(f"hullforge sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup(args.workload, workdir)
        if args.setup_probe:
            print(repr(time.time()))
            return 0
        if args.trace:
            metrics, attempted, failed, consistent, info, records = run_traced(
                args.workload, args.seed, args.seconds, workdir)
        else:
            metrics, attempted, failed, consistent, info, records = run_plain(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"info": info, "metrics": metrics, "jobs": records}, fh, indent=1)
    correct = failed == 0 and consistent
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} jobs, "
          f"{failed} failed" + "".join(f", {k}={v}" for k, v in info.items()
                                       if k not in ("first_cycle_digests", "layer_shares", "reference_s")))
    if args.trace:
        top = list(info["layer_shares"].items())[:6]
        print("layer shares of traced job time: " + ", ".join(f"{k} {v}" for k, v in top))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
