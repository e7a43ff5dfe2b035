"""Build ``golden.json``: the verified job-seed pool of every job kind.

Usage (from the repository root; about ten minutes on two cores):

    python3 perfbench/make_golden.py [--candidates 64] [--workers 2]

Every candidate seed 0..N-1 of every job kind is run once at threads=1.  A
seed joins the pool, with the sha256 digest of its outputs, when the job
passes the correctness gate: it does not raise, its error-representation
residual is within bound, and its verdict is the expected one.  Seeds that
fail are listed under ``excluded`` with the check that failed.  Rebuild the
pool only when the program's outputs change on purpose.

The pool must not hide a defect: when more than ``MAX_EXCLUDED_FRAC`` of a
kind's candidates fail the gate, the script reports them, writes nothing and
exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402

#: Largest share of a kind's candidate seeds that may fail the gate.  The
#: statistical checks have a nominal false-alarm rate well under 1% (2 of 1280
#: candidates failed when the pool was first built); 5% allows 3 of 64.
MAX_EXCLUDED_FRAC = 0.05


def _failed_checks(kind, res, workdir: Path) -> str:
    if res.error:
        return "raised: " + res.error.strip().splitlines()[-1]
    if not res.resid_ok:
        return "error-representation residual above bound"
    if kind.command == "estimate":
        bad = [r.t for c in res.calls for r in c.result.rows if not r.unbiased_pass]
        return f"unbiased_pass false at t={bad}"
    summary = json.loads((workdir / kind.name.replace("/", "_") / "job.summary.json").read_text())
    flags = {k: v for k, v in summary.items() if isinstance(v, bool) and k != "passed"}
    for key in ("overlaps", "coordinates"):
        if isinstance(summary.get(key), dict):
            flags[key] = summary[key]
    return f"verdict {'PASS' if res.verdict else 'FAIL'} (expected " \
           f"{'PASS' if kind.expect_pass else 'FAIL'}): {json.dumps(flags, sort_keys=True)}"


def _verify(task):
    workload, index, candidates = task
    kind = jobs.WORKLOADS[workload]["kinds"][index]
    pool, excluded = {}, {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for seed in range(candidates):
            res = jobs.run_job(kind, seed, 1, Path(tmp))
            if res.gate(kind.expect_pass):
                pool[str(seed)] = res.digest
            else:
                excluded[str(seed)] = _failed_checks(kind, res, Path(tmp))
    return kind.name, pool, excluded


def over_limit(golden: dict) -> list[str]:
    """Job kinds whose excluded seeds exceed ``MAX_EXCLUDED_FRAC`` of the candidates."""
    limit = int(MAX_EXCLUDED_FRAC * golden["candidates"])
    return [f"{name}: {len(excluded)} of {golden['candidates']} candidate seeds fail "
            f"the gate (at most {limit} allowed)"
            for name, excluded in sorted(golden["excluded"].items()) if len(excluded) > limit]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--candidates", type=int, default=64)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    tasks = [(w, i, args.candidates)
             for w, spec in jobs.WORKLOADS.items() for i in range(len(spec["kinds"]))]
    # slowest kinds first, so the two workers finish together
    tasks.sort(key=lambda t: -jobs.WORKLOADS[t[0]]["kinds"][t[1]].work()["patterns"])
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.workers) as pool:
        results = pool.map(_verify, tasks, chunksize=1)
    golden = {"candidates": args.candidates, "pool": {}, "excluded": {}}
    for name, kept, excluded in sorted(results):
        golden["pool"][name] = kept
        golden["excluded"][name] = excluded
        print(f"{name}: {len(kept)} kept, {len(excluded)} excluded", flush=True)
    problems = over_limit(golden)
    if problems:
        print("golden.json not written; the program fails too many seeds:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 1
    with open(jobs.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
