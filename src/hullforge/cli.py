"""Configuration-driven experiment runner.

Usage:
    hullforge <axioms|estimate|variance|markov|clt|rates> --config <path>
              [--seed N] [--threads N] [--out DIR]

Configs are UTF-8 JSON documents with a versioned ``schema`` field; unknown
keys are rejected.  Each run writes ``<out>/<name>.csv`` and
``<out>/<name>.summary.json`` plus a ``manifest.json``; experiment outputs
are byte-identical for identical config and seed, independent of the thread
count (the manifest carries volatile wall-clock and is exempt).

Exit codes: 0 pass, 1 statistical or axiom failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analytics, corpora, estimators, montecarlo, sampling
from .core import ConfigurationError, check_axioms

SCHEMA_VERSION = 1

_COMMON_KEYS = {"schema", "name"}
_ALLOWED_KEYS = {
    "axioms": _COMMON_KEYS | {"generators", "patterns", "max_points", "seed"},
    "estimate": _COMMON_KEYS | {"scenario", "replications", "seed", "t_grid"},
    "variance": _COMMON_KEYS
    | {
        "scenario",
        "replications",
        "seed",
        "t",
        "nested_probes",
        "nested_replicas",
        "covariance",
    },
    "markov": _COMMON_KEYS | {"scenario", "pairs", "seed", "t", "negative_control"},
    "clt": _COMMON_KEYS
    | {"scenario", "replications", "seed", "t_grid", "slope_band"},
    "rates": _COMMON_KEYS
    | {"scenario", "replications", "seed", "t_grid", "slope_band"},
}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


class _IncrementalCsv:
    """CSV writer that flushes after every row, so interrupts keep partial output."""

    def __init__(self, path: Path, header: list[str]):
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(header)
        self._fh.flush()

    def row(self, values: tuple) -> None:
        self._writer.writerow([_fmt(v) for v in values])
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(f"config schema must be {SCHEMA_VERSION}")
    unknown = set(cfg) - _ALLOWED_KEYS[command]
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    if "name" not in cfg:
        raise ConfigurationError("config needs a 'name'")
    name = cfg["name"]
    if not isinstance(name, str) or not name or any(s in name for s in ("/", "\\", "..")):
        raise ConfigurationError(
            f"config 'name' must be a non-empty file stem without '/', '\\' or '..', got {name!r}"
        )
    return cfg


def _positive_t(cfg: dict) -> float | None:
    """The config's ``t``, or None when the key is absent (scenario default)."""
    if "t" not in cfg:
        return None
    try:
        t = float(cfg["t"])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"'t' must be a number, got {cfg['t']!r}") from exc
    if not (math.isfinite(t) and t > 0.0):
        raise ConfigurationError(f"'t' must be positive and finite, got {cfg['t']!r}")
    return t


# ---------------------------------------------------------------------------
# subcommands


def cmd_axioms(cfg: dict, out: Path, seed: int | None, threads: int) -> tuple[bool, dict]:
    names = cfg.get("generators", [n for n in corpora.GENERATOR_SUITE if n != "broken_lexdrop"])
    count = int(cfg.get("patterns", 1000))
    max_points = int(cfg.get("max_points", 12))
    base_seed = int(seed if seed is not None else cfg.get("seed", 0))
    if count == 0:
        print("warning: corpus size 0, axiom checks pass vacuously", file=sys.stderr)
    rows = []
    passed = True
    counterexamples = {}
    for name in names:
        if name not in corpora.GENERATOR_SUITE:
            raise ConfigurationError(f"unknown generator {name!r}")
        report = corpora.run_axiom_battery(name, count, max_points, base_seed, threads)
        for check, ok, fail in report.summary_rows():
            rows.append((name, check, ok, fail))
        if not report.all_passed:
            passed = False
            counterexamples[name] = [
                {"check": c, "pattern": repr(mu.entries), "detail": d}
                for c, mu, d in report.counterexamples
            ]
    _write_csv(out / f"{cfg['name']}.csv", ["generator", "check", "passed", "failed"], rows)
    summary = {
        "generators": list(names),
        "patterns": count,
        "passed": passed,
        "counterexamples": counterexamples,
    }
    return passed, summary


def _grid_rows(cfg, seed, threads):
    """Run one t at a time so callers can flush partial output on interrupt."""
    base = montecarlo.ExperimentConfig(
        scenario=cfg["scenario"],
        replications=int(cfg["replications"]),
        base_seed=int(seed if seed is not None else cfg.get("seed", 0)),
        t_grid=tuple(float(t) for t in cfg.get("t_grid", [])),
        threads=threads,
    )
    for t_index, t in enumerate(base.grid()):
        single = montecarlo.ExperimentConfig(
            scenario=base.scenario,
            replications=base.replications,
            base_seed=base.base_seed,
            t_grid=(t,),
            threads=base.threads,
        )
        summary = montecarlo.run_replications(single, t_offset=t_index)
        yield summary.rows[0], summary.samples[t]


def cmd_estimate(cfg: dict, out: Path, seed: int | None, threads: int) -> tuple[bool, dict]:
    writer = _IncrementalCsv(
        out / f"{cfg['name']}.csv",
        ["t", "mean", "se", "ci_lo", "ci_hi", "target", "pass"],
    )
    rows = []
    try:
        for row, _ in _grid_rows(cfg, seed, threads):
            writer.row((row.t, row.mean, row.se, row.ci_lo, row.ci_hi, row.target,
                        row.unbiased_pass))
            rows.append(row)
    finally:
        writer.close()
    ks_resid = max(r.ks_resid_max for r in rows)
    ks_ok = all(r.ks_resid_max <= 1e-10 * (1.0 + abs(r.target)) for r in rows)
    passed = all(r.unbiased_pass for r in rows) and ks_ok
    return passed, {
        "scenario": cfg["scenario"],
        "replications": int(cfg["replications"]),
        "rows": [
            {"t": r.t, "mean": r.mean, "se": r.se, "target": r.target,
             "pass": r.unbiased_pass}
            for r in rows
        ],
        "ks_identity_max_residual": ks_resid,
        "ks_identity_pass": ks_ok,
        "passed": passed,
    }


def cmd_variance(cfg: dict, out: Path, seed: int | None, threads: int) -> tuple[bool, dict]:
    base_seed = int(seed if seed is not None else cfg.get("seed", 0))
    t = _positive_t(cfg)
    config = montecarlo.ExperimentConfig(
        scenario=cfg["scenario"],
        replications=int(cfg["replications"]),
        base_seed=base_seed,
        t_grid=(t,) if t is not None else (),
        nested_probes=int(cfg.get("nested_probes", 512)),
        nested_replicas=int(cfg.get("nested_replicas", 200)),
        threads=threads,
    )
    t = config.grid()[0]
    summary = montecarlo.run_replications(config)
    values = summary.samples[t]["values"]
    varests = summary.samples[t]["varest"]
    scen = montecarlo.get_scenario(config.scenario)
    f = scen.make_integrand(t)
    nested = montecarlo.nested_h_integral(config, lambda x: f.value(x) ** 2, t=t)
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
        paired = montecarlo.paired_estimates(config, t)
        g = scen.covariate(t)
        nested_fg = montecarlo.nested_h_integral(
            config, lambda x: f.value(x) * g.value(x), t=t
        )
        cov = montecarlo.covariance_ci99(paired.values_f, paired.values_g)
        cov_ok = montecarlo.intervals_overlap(cov[:2], nested_fg.ci99)
        rows.append(("empirical_covariance", cov[0], cov[1], cov[2]))
        rows.append(("nested_fg_integral", *nested_fg.ci99, nested_fg.estimate))
        summary_obj["covariance_overlap"] = cov_ok
        passed = passed and cov_ok
    summary_obj["passed"] = passed
    _write_csv(out / f"{cfg['name']}.csv", ["quantity", "ci_lo", "ci_hi", "point"], rows)
    return passed, summary_obj


def cmd_markov(cfg: dict, out: Path, seed: int | None, threads: int) -> tuple[bool, dict]:
    t = _positive_t(cfg)
    config = montecarlo.ExperimentConfig(
        scenario=cfg["scenario"],
        replications=int(cfg.get("pairs", 10000)),
        base_seed=int(seed if seed is not None else cfg.get("seed", 0)),
        t_grid=(t,) if t is not None else (),
        negative_control=bool(cfg.get("negative_control", False)),
    )
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


def cmd_clt(cfg: dict, out: Path, seed: int | None, threads: int) -> tuple[bool, dict]:
    config = montecarlo.ExperimentConfig(
        scenario=cfg["scenario"],
        replications=int(cfg["replications"]),
        base_seed=int(seed if seed is not None else cfg.get("seed", 0)),
        t_grid=tuple(float(t) for t in cfg["t_grid"]),
        threads=threads,
    )
    scen = montecarlo.get_scenario(config.scenario)
    if scen.hoelder_params is None:
        raise ConfigurationError(f"scenario {scen.name} has no analytic bound terms")
    summary = montecarlo.run_replications(config)
    t_max = config.grid()[-1]
    terms = analytics.clt_bound_terms(scen.hoelder_params(t_max))
    bound = sum(terms)
    w1_last = summary.rows[-1].w1
    lo, hi = cfg.get("slope_band", [-0.40, -0.10])
    slope_ok = (
        summary.w1_slope is not None and lo <= summary.w1_slope <= hi
    )
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


def cmd_rates(cfg: dict, out: Path, seed: int | None, threads: int) -> tuple[bool, dict]:
    config = montecarlo.ExperimentConfig(
        scenario=cfg["scenario"],
        replications=int(cfg["replications"]),
        base_seed=int(seed if seed is not None else cfg.get("seed", 0)),
        t_grid=tuple(float(t) for t in cfg["t_grid"]),
        threads=threads,
    )
    scen = montecarlo.get_scenario(config.scenario)
    if scen.hoelder_params is None:
        raise ConfigurationError(f"scenario {scen.name} has no analytic variance bounds")
    summary = montecarlo.run_replications(config)
    lo, hi = cfg.get("slope_band", [0.40, 0.60])
    slope_ok = (
        summary.variance_slope is not None and lo <= summary.variance_slope <= hi
    )
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
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
    args = parser.parse_args(argv)

    started = time.time()
    try:
        if args.threads < 1:
            raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")
        cfg = _load_config(args.config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        passed, summary = _COMMANDS[args.command](cfg, out, args.seed, args.threads)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    summary_path = out / f"{cfg['name']}.summary.json"
    _write_json(summary_path, summary)
    manifest = {
        "command": args.command,
        "config": cfg,
        "seed_override": args.seed,
        "version": __version__,
        "wall_clock_s": round(time.time() - started, 3),
        "outputs": sorted(
            p.name for p in out.iterdir() if p.stem.startswith(cfg["name"])
        ),
        "passed": passed,
    }
    _write_json(out / "manifest.json", manifest)
    print(f"{args.command}: {'PASS' if passed else 'FAIL'} -> {summary_path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
