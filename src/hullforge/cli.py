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
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from . import __version__, analytics, corpora, montecarlo
from .core import ConfigurationError

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


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    writer = _IncrementalCsv(path, header)
    for row in rows:
        writer.row(row)
    writer.close()


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


def _number(cfg: dict, key: str, default: int | None = None) -> int:
    """``cfg[key]`` as a JSON integer, or ``default`` when the key is absent and a default is given.

    A float, a bool or a string is refused, never truncated or parsed.
    """
    if key not in cfg and default is not None:
        return default
    if key not in cfg:
        raise ConfigurationError(f"config needs {key!r}")
    value = cfg[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{key!r} must be an integer, got {value!r}")
    return value


def _flag(cfg: dict, key: str) -> bool:
    """``cfg[key]`` as a JSON boolean, false when absent."""
    value = cfg.get(key, False)
    if not isinstance(value, bool):
        raise ConfigurationError(f"{key!r} must be true or false, got {value!r}")
    return value


def _positive(key: str, value) -> float:
    """``value`` as a positive finite JSON number; a bool or a string is refused, never parsed."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 < value <= sys.float_info.max):  # also refuses nan and ints past float
        raise ConfigurationError(f"{key!r} must be a positive finite number, got {value!r}")
    return float(value)


def _experiment_config(
    cfg: dict, command: str, seed: int | None, threads: int
) -> montecarlo.ExperimentConfig:
    """The one place that reads a command's experiment keys and checks their types.

    ``variance`` and ``markov`` may give one ``t``, the other commands a
    ``t_grid``; an absent one means the scenario default.  ``clt`` and
    ``rates`` fit a log-log slope, which needs 4 grid points.
    """
    scenario = cfg.get("scenario")
    if not isinstance(scenario, str):
        raise ConfigurationError(f"config needs a 'scenario' name, got {scenario!r}")
    key = "t" if "t" in cfg else "t_grid"
    raw = [cfg["t"]] if key == "t" else cfg.get("t_grid", [])
    if not isinstance(raw, list):
        raise ConfigurationError(f"'t_grid' must be a list of numbers, got {raw!r}")
    t_grid = tuple(_positive(key, t) for t in raw)
    if command in ("clt", "rates") and len(t_grid) < 4:
        raise ConfigurationError(f"{command} needs at least 4 't_grid' points, got {len(t_grid)}")
    return montecarlo.ExperimentConfig(
        scenario=scenario,
        replications=(_number(cfg, "pairs", 10000) if command == "markov"
                      else _number(cfg, "replications")),
        base_seed=seed if seed is not None else _number(cfg, "seed", 0),
        t_grid=t_grid,
        nested_probes=_number(cfg, "nested_probes", 512),
        nested_replicas=_number(cfg, "nested_replicas", 200),
        threads=threads,
        negative_control=_flag(cfg, "negative_control"),
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_axioms(cfg: dict, out: Path, seed: int | None, threads: int) -> tuple[bool, dict]:
    names = cfg.get("generators", [n for n in corpora.GENERATOR_SUITE if n != "broken_lexdrop"])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigurationError(f"'generators' must be a list of generator names, got {names!r}")
    count = _number(cfg, "patterns", 1000)
    max_points = _number(cfg, "max_points", 12)
    if min(count, max_points) < 0:
        raise ConfigurationError(f"'patterns' and 'max_points' must be >= 0, got {count}, {max_points}")
    base_seed = seed if seed is not None else _number(cfg, "seed", 0)
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


def _grid_rows(config: montecarlo.ExperimentConfig):
    """Run one t at a time so callers can flush partial output on interrupt."""
    for t_index, t in enumerate(config.grid()):
        single = dataclasses.replace(config, t_grid=(t,))
        yield montecarlo.run_replications(single, t_offset=t_index).rows[0]


def cmd_estimate(cfg: dict, out: Path, seed: int | None, threads: int) -> tuple[bool, dict]:
    config = _experiment_config(cfg, "estimate", seed, threads)
    writer = _IncrementalCsv(
        out / f"{cfg['name']}.csv",
        ["t", "mean", "se", "ci_lo", "ci_hi", "target", "pass"],
    )
    rows = []
    try:
        for row in _grid_rows(config):
            writer.row((row.t, row.mean, row.se, row.ci_lo, row.ci_hi, row.target,
                        row.unbiased_pass))
            rows.append(row)
    finally:
        writer.close()
    ks_resid = max(r.ks_resid_max for r in rows)
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


def cmd_variance(cfg: dict, out: Path, seed: int | None, threads: int) -> tuple[bool, dict]:
    config = _experiment_config(cfg, "variance", seed, threads)
    covariance = _flag(cfg, "covariance")
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
    if covariance:
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
    config = _experiment_config(cfg, "markov", seed, threads)
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


def _slope_run(cfg: dict, command: str, seed: int | None, threads: int, band: list):
    """(config, scenario, summary, slope band) of a run whose log-log slope is checked.

    The band is two numbers lo <= hi; the scenario must have analytic bounds.
    """
    config = _experiment_config(cfg, command, seed, threads)
    band = cfg.get("slope_band", band)
    if not (isinstance(band, list) and len(band) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in band)
            and band[0] <= band[1]):
        raise ConfigurationError(f"'slope_band' must be two numbers lo <= hi, got {band!r}")
    scen = montecarlo.get_scenario(config.scenario)
    if scen.hoelder_params is None:
        raise ConfigurationError(f"scenario {scen.name} has no analytic bounds")
    return config, scen, montecarlo.run_replications(config), band


def cmd_clt(cfg: dict, out: Path, seed: int | None, threads: int) -> tuple[bool, dict]:
    config, scen, summary, (lo, hi) = _slope_run(cfg, "clt", seed, threads, [-0.40, -0.10])
    t_max = config.grid()[-1]
    terms = analytics.clt_bound_terms(scen.hoelder_params(t_max))
    bound = sum(terms)
    w1_last = summary.rows[-1].w1
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
    config, scen, summary, (lo, hi) = _slope_run(cfg, "rates", seed, threads, [0.40, 0.60])
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
