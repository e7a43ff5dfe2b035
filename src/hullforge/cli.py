"""Configuration-driven experiment runner.

Usage:
    hullforge <axioms|estimate|variance|markov|clt|rates> --config <path>
              [--seed N] [--threads N] [--out DIR]

Configs are UTF-8 JSON with a versioned ``schema`` field.  ``_KEYS`` gives each
subcommand's keys one reader each, which types a value or refuses it; every
key present is read before any work starts, and any other key is refused.
Experiment defaults live in ``montecarlo.ExperimentConfig``, others in their command.

Each run writes ``<out>/<name>.csv`` and ``<out>/<name>.summary.json`` plus
a ``manifest.json``; experiment outputs are byte-identical for identical
config and seed, independent of the thread count (the manifest carries
volatile wall-clock and is exempt).

Exit codes: 0 pass, 1 statistical or axiom failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable

from . import __version__, analytics, corpora, montecarlo, sampling
from .core import ConfigurationError, ordered_sum

SCHEMA_VERSION = 1


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    return str(x)


def _open_output(path: Path):
    """``path`` opened for writing; an output that cannot be created is a config error."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigurationError(f"cannot write output {path}: {exc.strerror}") from exc


def _check_output_names(out: Path, names: list[str]) -> None:
    """Refuse an output name longer than ``out`` allows, before the command's work starts."""
    limit = os.pathconf(out, "PC_NAME_MAX") if hasattr(os, "pathconf") else -1
    for name in names:
        size = len(os.fsencode(name))
        if 0 <= limit < size:
            raise ConfigurationError(f"output name of {size} bytes is longer than the "
                                     f"{limit} that {out} allows")


class _IncrementalCsv:
    """CSV writer that flushes after every row, so interrupts keep partial output."""

    def __init__(self, path: Path, header: list[str]):
        self._fh = _open_output(path)
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(header)
        self._fh.flush()

    def row(self, values: tuple) -> None:
        self._writer.writerow([_fmt(v) for v in values])
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    writer = _IncrementalCsv(path, header)
    for row in rows:
        writer.row(row)
    writer.close()


def _write_json(path: Path, obj) -> None:
    with _open_output(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# config keys: each reader turns one JSON value into its typed value or refuses it


def _reader(what: str, ok: Callable[[object], bool], typed: Callable = lambda v: v):
    """A reader: ``typed(value)`` if ``ok(value)``, else a ``ConfigurationError``."""
    def read(key: str, value):
        if not ok(value):
            raise ConfigurationError(f"{key!r} must be {what}, got {value!r}")
        return typed(value)
    return read


def _real(v) -> bool:
    """A JSON number; a bool or a string is refused, never parsed."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _t_value(v) -> bool:
    return _real(v) and 0 < v <= sys.float_info.max  # also refuses nan and ints past float


_schema = _reader(str(SCHEMA_VERSION), lambda v: type(v) is int and v == SCHEMA_VERSION)
_name = _reader("a non-empty file stem without '/', '\\' or '..'", lambda v: isinstance(v, str)
                and v != "" and not any(s in v for s in ("/", "\\", "..")))
_text = _reader("a string", lambda v: isinstance(v, str))
_integer = _reader("an integer", lambda v: type(v) is int)  # a float is refused, not truncated
_seed = _reader("an integer in [0, 2**64)", sampling.is_seed)  # others alias a seed in range
_count = _reader("an integer >= 0", lambda v: type(v) is int and v >= 0)
_flag = _reader("true or false", lambda v: type(v) is bool)
_t = _reader("a positive finite number", _t_value, lambda v: (float(v),))  # a one-point grid
_grid = _reader("a list of positive finite numbers",
                lambda v: isinstance(v, list) and all(map(_t_value, v)),
                lambda v: tuple(map(float, v)))
_generators = _reader(f"a list of names from {sorted(corpora.GENERATOR_SUITE)}",
                      lambda v: isinstance(v, list) and all(
                          isinstance(n, str) and n in corpora.GENERATOR_SUITE for n in v))

_EVERY = {"schema": _schema, "name": _name, "seed": _seed}
_SCENARIO = {**_EVERY, "scenario": _text}
_SLOPE = {**_SCENARIO, "replications": _integer, "t_grid": _grid}

#: command -> {config key: reader}; the only keys a command's config may hold
_KEYS = {
    "axioms": {**_EVERY, "generators": _generators, "patterns": _count, "max_points": _count},
    "estimate": {**_SCENARIO, "replications": _integer, "t_grid": _grid},
    "variance": {**_SCENARIO, "replications": _integer, "t": _t, "nested_probes": _integer,
                 "nested_replicas": _integer, "covariance": _flag},
    "markov": {**_SCENARIO, "pairs": _integer, "t": _t, "negative_control": _flag},
    "clt": _SLOPE,
    "rates": _SLOPE,
}


def _load_config(path: str, command: str) -> tuple[dict, dict]:
    """(raw config, typed values): every key present read by its reader, before any work."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    keys = _KEYS[command]
    unknown = set(cfg) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    for key in ("schema", "name"):
        if key not in cfg:
            raise ConfigurationError(f"config needs {key!r}")
    return cfg, {key: keys[key](key, value) for key, value in cfg.items()}


#: config keys that name an ``ExperimentConfig`` field differently
_FIELD = {"seed": "base_seed", "pairs": "replications", "t": "t_grid"}


def _experiment_config(cfg: dict, threads: int, **defaults) -> montecarlo.ExperimentConfig:
    """The experiment keys present in ``cfg`` as an ``ExperimentConfig``.

    An absent key takes the command default in ``defaults``, else the
    dataclass default; an absent ``t`` or ``t_grid`` means the scenario's t.
    """
    fields = {f.name: f for f in dataclasses.fields(montecarlo.ExperimentConfig)}
    given = {**defaults, **{_FIELD.get(k, k): v for k, v in cfg.items()
                            if _FIELD.get(k, k) in fields}}
    for name, f in fields.items():
        if f.default is dataclasses.MISSING and name not in given:
            raise ConfigurationError(f"config needs {name!r}")
    return montecarlo.ExperimentConfig(**given, threads=threads)


# ---------------------------------------------------------------------------
# subcommands


def cmd_axioms(cfg: dict, out: Path, threads: int) -> tuple[bool, dict]:
    names = cfg.get("generators", [n for n in corpora.GENERATOR_SUITE if n != "broken_lexdrop"])
    count = cfg.get("patterns", 1000)
    max_points = cfg.get("max_points", 12)
    corpora.check_battery(names, count, max_points)  # every battery's corpus, before the first
    if count == 0 or not names:
        print("warning: no generators or corpus size 0, axiom checks pass vacuously",
              file=sys.stderr)
    rows = []
    passed = True
    counterexamples = {}
    for name in names:
        report = corpora.run_axiom_battery(name, count, max_points, cfg.get("seed", 0), threads)
        for check, ok, fail in report.summary_rows():
            rows.append((name, check, ok, fail))
        if not report.all_passed:
            passed = False
            counterexamples[name] = [
                {"check": c, "pattern": repr(mu.entries), "detail": d}
                for c, mu, d in report.counterexamples
            ]
    _write_csv(out / f"{cfg['name']}.csv", ["generator", "check", "passed", "failed"], rows)
    return passed, {
        "generators": list(names),
        "patterns": count,
        "passed": passed,
        "counterexamples": counterexamples,
    }


def cmd_estimate(cfg: dict, out: Path, threads: int) -> tuple[bool, dict]:
    config = _experiment_config(cfg, threads)
    writer = _IncrementalCsv(out / f"{cfg['name']}.csv",
                             ["t", "mean", "se", "ci_lo", "ci_hi", "target", "pass"])
    rows = []
    try:
        for row, _ in montecarlo.replication_rows(config):  # each row flushed as it arrives
            writer.row((row.t, row.mean, row.se, row.ci_lo, row.ci_hi, row.target,
                        row.unbiased_pass))
            rows.append(row)
    finally:
        writer.close()
    ks_resid = montecarlo.residual_max(r.ks_resid_max for r in rows)
    ks_ok = all(r.ks_resid_max <= 1e-10 * (1.0 + abs(r.target)) for r in rows)
    passed = all(r.unbiased_pass for r in rows) and ks_ok
    return passed, {
        "scenario": config.scenario,
        "replications": config.replications,
        "rows": [
            {"t": r.t, "mean": r.mean, "se": r.se, "target": r.target,
             "pass": r.unbiased_pass}
            for r in rows
        ],
        "ks_identity_max_residual": ks_resid,
        "ks_identity_pass": ks_ok,
        "passed": passed,
    }


def cmd_variance(cfg: dict, out: Path, threads: int) -> tuple[bool, dict]:
    config = _experiment_config(cfg, threads)
    scen = montecarlo.get_scenario(config.scenario)
    if cfg.get("covariance", False) and scen.covariate is None:
        raise ConfigurationError(f"scenario {config.scenario} declares no covariate integrand")
    t = config.grid()[0]
    summary = montecarlo.run_replications(config)
    values = summary.samples[t]["values"]
    varests = summary.samples[t]["varest"]
    f, tag = scen.make_integrand(t), scen.gen.space_tag
    # f^2 by Python's ** on floats: numpy's power may round otherwise
    nested = montecarlo.nested_h_integral(
        config, lambda q: [v ** 2 for v in f.values(q, tag).tolist()])
    emp = montecarlo.variance_ci99(values)
    hatv = montecarlo.mean_ci99(varests)
    pairs = {
        "empirical_vs_nested": montecarlo.intervals_overlap(emp[:2], nested.ci99),
        "empirical_vs_varest": montecarlo.intervals_overlap(emp[:2], hatv[:2]),
        "varest_vs_nested": montecarlo.intervals_overlap(hatv[:2], nested.ci99),
    }
    rows = [
        ("empirical_variance", emp[0], emp[1], emp[2]),
        ("nested_h_integral", *nested.ci99, nested.estimate),
        ("mean_variance_estimate", hatv[0], hatv[1], hatv[2]),
    ]
    summary_obj = {
        "scenario": config.scenario,
        "t": t,
        "replications": config.replications,
        "intervals": {r[0]: {"lo": r[1], "hi": r[2], "point": r[3]} for r in rows},
        "overlaps": pairs,
    }
    passed = all(pairs.values())
    if cfg.get("covariance", False):
        paired = montecarlo.paired_estimates(config)
        g = scen.covariate(t)
        nested_fg = montecarlo.nested_h_integral(
            config, lambda q: f.values(q, tag) * g.values(q, tag))
        cov = montecarlo.covariance_ci99(paired.values_f, paired.values_g)
        cov_ok = montecarlo.intervals_overlap(cov[:2], nested_fg.ci99)
        rows.append(("empirical_covariance", cov[0], cov[1], cov[2]))
        rows.append(("nested_fg_integral", *nested_fg.ci99, nested_fg.estimate))
        summary_obj["covariance_overlap"] = cov_ok
        passed = passed and cov_ok
    summary_obj["passed"] = passed
    _write_csv(out / f"{cfg['name']}.csv", ["quantity", "ci_lo", "ci_hi", "point"], rows)
    return passed, summary_obj


def cmd_markov(cfg: dict, out: Path, threads: int) -> tuple[bool, dict]:
    config = _experiment_config(cfg, threads, replications=10000)
    report = montecarlo.markov_two_sample(config)
    rows = list(zip(report.coordinates, report.statistics, report.pvalues))
    _write_csv(out / f"{cfg['name']}.csv", ["coordinate", "ks_statistic", "p_value"], rows)
    passed = report.all_pass
    return passed, {
        "scenario": config.scenario,
        "pairs": report.pairs,
        "negative_control": report.negative_control,
        "coordinates": dict(
            zip(report.coordinates, [{"stat": s, "p": p} for s, p in
                                     zip(report.statistics, report.pvalues)])
        ),
        "passed": passed,
    }


def _slope_run(cfg: dict, threads: int, min_replications: int = 0):
    """(config, scenario, summary) of a run whose log-log slope is checked.

    The fit needs 4 grid points; the scenario must have analytic bounds; a
    run needs ``min_replications``.
    """
    config = _experiment_config(cfg, threads)
    if len(config.t_grid) < 4:
        raise ConfigurationError(f"a slope fit needs 4 't_grid' points, got {config.t_grid}")
    if config.replications < min_replications:
        raise ConfigurationError(f"the W1 distance needs at least {min_replications} "
                                 f"replications, got {config.replications}")
    scen = montecarlo.get_scenario(config.scenario)
    if scen.hoelder_params is None:
        raise ConfigurationError(f"scenario {scen.name} has no analytic bounds")
    return config, scen, montecarlo.run_replications(config)


def cmd_clt(cfg: dict, out: Path, threads: int) -> tuple[bool, dict]:
    config, scen, summary = _slope_run(cfg, threads, montecarlo.MIN_NORMALITY_SAMPLES)
    lo, hi = -0.40, -0.10  # the W1 slope band
    t_max = config.grid()[-1]
    terms = analytics.clt_bound_terms(scen.hoelder_params(t_max))
    bound = ordered_sum(terms)
    w1_last = summary.rows[-1].w1
    slope_ok = summary.w1_slope is not None and lo <= summary.w1_slope <= hi
    bound_ok = w1_last <= bound
    rows = [(r.t, r.mean, r.variance, r.w1, r.ks) for r in summary.rows]
    _write_csv(out / f"{cfg['name']}.csv", ["t", "mean", "variance", "w1", "ks"], rows)
    passed = slope_ok and bound_ok
    return passed, {
        "scenario": config.scenario,
        "w1_slope": summary.w1_slope,
        "w1_slope_se": summary.w1_slope_se,
        "slope_band": [lo, hi],
        "bound_terms": {"T1": terms[0], "T3": terms[1], "T4": terms[2], "T5": terms[3]},
        "bound_sum": bound,
        "w1_at_largest_t": w1_last,
        "slope_pass": slope_ok,
        "bound_pass": bound_ok,
        "passed": passed,
    }


def cmd_rates(cfg: dict, out: Path, threads: int) -> tuple[bool, dict]:
    config, scen, summary = _slope_run(cfg, threads)
    lo, hi = 0.40, 0.60  # the variance slope band
    slope_ok = summary.variance_slope is not None and lo <= summary.variance_slope <= hi
    rows = []
    bracket_ok = True
    for r in summary.rows:
        blo, bhi = analytics.hoelder_variance_bounds(scen.hoelder_params(r.t))
        vlo, vhi, _ = montecarlo.variance_ci99(summary.samples[r.t]["values"])
        ok = blo <= vhi and vlo <= bhi
        bracket_ok = bracket_ok and ok
        rows.append((r.t, r.variance, vlo, vhi, blo, bhi, ok))
    _write_csv(
        out / f"{cfg['name']}.csv",
        ["t", "variance", "var_ci_lo", "var_ci_hi", "bound_lo", "bound_hi", "bracketed"],
        rows,
    )
    passed = slope_ok and bracket_ok
    return passed, {
        "scenario": config.scenario,
        "variance_slope": summary.variance_slope,
        "variance_slope_se": summary.variance_slope_se,
        "w1_slope": summary.w1_slope,
        "w1_slope_se": summary.w1_slope_se,
        "slope_band": [lo, hi],
        "bracket_pass": bracket_ok,
        "slope_pass": slope_ok,
        "passed": passed,
    }


_COMMANDS = {
    "axioms": cmd_axioms,
    "estimate": cmd_estimate,
    "variance": cmd_variance,
    "markov": cmd_markov,
    "clt": cmd_clt,
    "rates": cmd_rates,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own errors are config errors: one line, exit 2."""

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="hullforge",
        description="Hull operators on Poisson processes: simulation checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=1, help="worker processes")
        p.add_argument("--out", default="out", help="output directory")

    started = time.time()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")
        raw, cfg = _load_config(args.config, args.command)
        if args.seed is not None:
            cfg["seed"] = _seed("--seed", args.seed)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create --out {out}: {exc.strerror}") from exc
        outputs = [f"{cfg['name']}.csv", f"{cfg['name']}.summary.json"]  # what the run writes
        _check_output_names(out, outputs)
        passed, summary = _COMMANDS[args.command](cfg, out, args.threads)
        summary_path = out / outputs[1]
        _write_json(summary_path, summary)
        _write_json(out / "manifest.json", {
            "command": args.command,
            "config": raw,
            "seed_override": args.seed,
            "version": __version__,
            "wall_clock_s": round(time.time() - started, 3),
            "outputs": outputs,
            "passed": passed,
        })
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: {'PASS' if passed else 'FAIL'} -> {summary_path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
