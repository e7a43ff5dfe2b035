"""Traced run: spans around the calls into each hullforge module, and the per-layer metrics.

Spans are recorded from the benchmark's own code.  ``Tracer.installed``
wraps the public functions of every module (and the ``boundary`` /
``hull_contains`` methods of every generator class) for the duration of a
block, so each call into a module opens a span: name, start, end, parent
span and job id.  Spans stay in memory and are written out when the run ends.

The library loops (``run_replications``, ``nested_h_integral``,
``markov_two_sample``, ``paired_estimates``) run unchanged: at threads=1 they
reach the per-pattern calls through module attributes and generator methods,
which the wrappers replace, so every pattern they evaluate shows as spans
under the loop's own span.  ``coverage_problems`` checks that the spans of a
traced job account for every pattern its config asks for.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

from hullforge import analytics, core, corpora, estimators, generators, montecarlo, sampling

from jobs import SERIAL_CALLS, JobKind, patched


def _points(args, result):
    return result.total_mass


def _queries(args, result):
    return len(args[2])


def _one(args, result):
    return 1


def _pattern_mass(args, result):
    return sum(mu.total_mass for mu in args[1])


AGGREGATION = ("normality_diagnostics", "rate_fit", "mean_ci99", "variance_ci99",
               "covariance_ci99", "intervals_overlap", "ks_2samp")
ANALYTICS = ("coordmin_expected_card", "hoelder_h_bounds", "hoelder_pair_bound",
             "hoelder_variance_bounds", "clt_bound_terms", "meanwidth_target")
CORPUS_BUILDERS = ("euclid_corpus", "param_corpus", "line_corpus")
#: montecarlo loops over patterns
LOOPS = ("run_replications", "nested_h_integral", "markov_two_sample", "paired_estimates")

#: module -> {public function: count function or None}
_WRAPPED = {
    sampling: {"sample_poisson": _points, "trimmed_resample": _points},
    estimators: {"hull_estimate": None, "hull_integral": None, "ks_error": None},
    generators: {"hull_mass": None},
    core: {"check_axioms": _pattern_mass},
    corpora: {**dict.fromkeys(CORPUS_BUILDERS), "run_axiom_battery": None},
    montecarlo: dict.fromkeys(AGGREGATION + LOOPS),
    analytics: dict.fromkeys(ANALYTICS),
}
_METHODS = {"boundary": _points, "hull_contains": _one, "hull_contains_many": _queries}


def _generator_classes():
    found = {core.HullGenerator}
    for mod in (generators, corpora):
        found.update(c for c in vars(mod).values()
                     if isinstance(c, type) and issubclass(c, core.HullGenerator))
    return sorted(found, key=lambda c: c.__name__)


class Tracer:
    """In-memory span recorder: each span is [name, start, end, parent, job, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` with a span around each call; ``count(args, result)`` fills its count."""
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.job, 0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for mod, names in _WRAPPED.items():
                short = mod.__name__.rsplit(".", 1)[-1]
                stack.enter_context(patched(mod, {
                    n: self.wrap(f"{short}.{n}", getattr(mod, n), cnt) for n, cnt in names.items()
                }))
            for cls in _generator_classes():
                own = {m: fn for m, fn in vars(cls).items()
                       if m in _METHODS and not getattr(fn, "__isabstractmethod__", False)}
                stack.enter_context(patched(cls, {
                    m: self.wrap(f"generators.{m}", fn, _METHODS[m]) for m, fn in own.items()
                }))
            yield

    def dump(self, path: Path, jobs: list[dict]) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "job", "count"],
                "names": names,
                "spans": [[index[s[0]], *s[1:]] for s in self.spans],
                "jobs": jobs,
            }, fh)


def coverage_problems(tracer: Tracer, job: int, kind: JobKind) -> list[str]:
    """Where the spans of traced job ``job`` miss work that its config asks for.

    Every pattern a sampling job evaluates is drawn by ``sample_poisson``
    (``trimmed_resample`` draws through it too), so the job must show exactly
    ``kind.work()["patterns"]`` such spans; an axioms job must show its
    ``check_axioms`` calls.  A miss means a call path the wrappers no longer
    reach, and the per-layer numbers would not describe the program.
    """
    names = [s[0] for s in tracer.spans if s[4] == job]
    if kind.command == "axioms":
        return [] if "core.check_axioms" in names else ["no core.check_axioms span"]
    want = kind.work()["patterns"]
    got = names.count("sampling.sample_poisson")
    return [] if got == want else [f"{got} sample_poisson spans for {want} patterns"]


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, jobs: list[dict], threads: int) -> dict:
    """Per-layer metrics from the spans and the untraced reference runs.

    ``jobs`` holds, per traced job: ``wall_traced``, ``wall_untraced``
    (threads=1), ``wall_wide`` and ``calls_wide`` (at the workload's thread
    count), ``calls_untraced``, ``first_cycle`` and the job's ``work`` counts.
    Times are averaged over all traced jobs; counts are totals over the first
    cycle, whose jobs are fixed by the seed, so they repeat exactly.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    first = {j for j, info in enumerate(jobs) if info["first_cycle"]}

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def select(names, outermost=False):
        names = set(names)
        for i, s in enumerate(spans):
            if s[0] in names and not (outermost and any(spans[p][0] in names
                                                        for p in ancestors(i))):
                yield i

    def total(names, outermost=True):
        return sum(dur[i] for i in select(names, outermost))

    def calls(names):
        return sum(1 for _ in select(names))

    def counted(names, only_first=True):
        return sum(spans[i][5] for i in select(names, True)
                   if not only_first or spans[i][4] in first)

    wall = sum(j["wall_traced"] for j in jobs)
    n_jobs = len(jobs)
    contains = ("generators.hull_contains", "generators.hull_contains_many")
    sampling_self = sum(dur[i] - child[i] for i in select(
        ("sampling.sample_poisson", "sampling.trimmed_resample")))
    loo = sum(1 for i in select(("generators.hull_contains",))
              if spans[i][3] >= 0 and spans[spans[i][3]][0] == "estimators.ks_error"
              and spans[i][4] in first)
    first_patterns = sum(1 for i in select(("sampling.sample_poisson",))
                         if spans[i][4] in first)
    top_level = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    nested = list(select(("montecarlo.nested_h_integral",)))
    probe_replicas = sum(j["work"].get("probe_replicas", 0) for j in jobs)
    markov = list(select(("montecarlo.markov_two_sample",)))
    pairs = sum(j["work"]["patterns"] // 3 for j in jobs if j["kind"].startswith("markov"))
    axiom_patterns = sum(j["work"].get("corpus_patterns", 0) for j in jobs)

    def call_seconds(key, names):
        return sum(c.seconds for j in jobs for c in j[key] if c.name in names)

    busy_1 = call_seconds("calls_untraced", ("run_replications",))
    wall_w = call_seconds("calls_wide", ("run_replications",))
    serial = call_seconds("calls_wide", SERIAL_CALLS)
    if threads == 1:
        efficiency = 1.0  # one worker is fully efficient by definition
    else:
        efficiency = _ratio(busy_1, threads * wall_w)

    return {
        "sampling.ms_per_pattern": 1e3 * _ratio(sampling_self, calls(("sampling.sample_poisson",))),
        "sampling.points_per_pattern": _ratio(counted(("sampling.sample_poisson",)),
                                              first_patterns),
        "estimators.ks_error_ms": 1e3 * _ratio(total(("estimators.ks_error",)),
                                               calls(("estimators.ks_error",))),
        "estimators.ks_error_share": _ratio(total(("estimators.ks_error",)), wall),
        "estimators.leave_one_out_atoms": loo,
        "estimators.hull_integral_ms": 1e3 * _ratio(total(("estimators.hull_integral",)),
                                                    calls(("estimators.hull_integral",))),
        "generators.boundary_ms": 1e3 * _ratio(total(("generators.boundary",), False),
                                               calls(("generators.boundary",))),
        "generators.boundary_atoms": counted(("generators.boundary",)),
        "generators.contains_us_per_query": 1e6 * _ratio(total(contains),
                                                         counted(contains, False)),
        "generators.hull_mass_ms": 1e3 * _ratio(total(("generators.hull_mass",)),
                                                calls(("generators.hull_mass",))),
        "montecarlo.nested_ms_per_probe_replica": 1e3 * _ratio(sum(dur[i] for i in nested),
                                                               probe_replicas),
        "montecarlo.markov_ms_per_pair": 1e3 * _ratio(sum(dur[i] for i in markov), pairs),
        "montecarlo.serial_share": _ratio(serial, sum(j["wall_wide"] for j in jobs)),
        "montecarlo.parallel_efficiency": efficiency,
        # montecarlo's own code: the loops' self time (streams, per-pattern
        # records, in-line aggregation) plus the aggregation helpers
        "montecarlo.aggregate_ms": 1e3 * _ratio(
            sum(dur[i] - child[i] for i in select(tuple(f"montecarlo.{n}" for n in LOOPS)))
            + total(tuple(f"montecarlo.{n}" for n in AGGREGATION)), n_jobs),
        "analytics.bounds_ms": 1e3 * _ratio(total(tuple(f"analytics.{n}" for n in ANALYTICS)),
                                            n_jobs),
        "core.check_axioms_ms_per_pattern": 1e3 * _ratio(total(("core.check_axioms",)),
                                                         axiom_patterns),
        "core.pattern_mass": counted(("core.check_axioms",)),
        "corpora.build_ms": 1e3 * _ratio(total(tuple(f"corpora.{n}" for n in CORPUS_BUILDERS)),
                                         calls(tuple(f"corpora.{n}" for n in CORPUS_BUILDERS))),
        "cli.overhead_ms": 1e3 * _ratio(wall - top_level, n_jobs),
        "trace.overhead_frac": _ratio(wall, sum(j["wall_untraced"] for j in jobs)) - 1.0,
    }


UNITS = {
    "sampling.ms_per_pattern": "ms",
    "sampling.points_per_pattern": "count",
    "estimators.ks_error_ms": "ms",
    "estimators.ks_error_share": "ratio",
    "estimators.leave_one_out_atoms": "count",
    "estimators.hull_integral_ms": "ms",
    "generators.boundary_ms": "ms",
    "generators.boundary_atoms": "count",
    "generators.contains_us_per_query": "us",
    "generators.hull_mass_ms": "ms",
    "montecarlo.nested_ms_per_probe_replica": "ms",
    "montecarlo.markov_ms_per_pair": "ms",
    "montecarlo.serial_share": "ratio",
    "montecarlo.parallel_efficiency": "ratio",
    "montecarlo.aggregate_ms": "ms",
    "analytics.bounds_ms": "ms",
    "core.check_axioms_ms_per_pattern": "ms",
    "core.pattern_mass": "count",
    "corpora.build_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}

#: spans that are loops over patterns or corpus chunks, not layers
_LOOPS = {f"montecarlo.{n}" for n in LOOPS} | {"corpora.run_axiom_battery"}


def layer_shares(tracer: Tracer, wall: float) -> dict[str, float]:
    """Share of traced job time inside each public call (outermost spans of that name)."""
    spans = tracer.spans
    out: dict[str, float] = {}
    for s in spans:
        if s[0] in _LOOPS:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1])
    return {k: v / wall for k, v in sorted(out.items(), key=lambda kv: -kv[1])}
