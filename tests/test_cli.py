import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hullforge import cli, corpora, montecarlo, sampling
from hullforge.cli import main
from hullforge.core import ConfigurationError


def _write(tmp_path: Path, name: str, obj: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _estimate_cfg(name="est", scenario="convex_square", reps=300, t=50.0, seed=11):
    return {
        "schema": 1,
        "name": name,
        "scenario": scenario,
        "replications": reps,
        "seed": seed,
        "t_grid": [t],
    }


def test_estimate_pass_and_outputs(tmp_path):
    cfg = _write(tmp_path, "c.json", _estimate_cfg())
    out = tmp_path / "out"
    # an earlier run in the same directory whose name starts with this run's name
    assert main(["estimate", "--config", _write(tmp_path, "c2.json", _estimate_cfg("est2")),
                 "--out", str(out)]) == 0
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    csv_text = (out / "est.csv").read_text()
    lines = csv_text.split("\n")
    assert lines[0] == "t,mean,se,ci_lo,ci_hi,target,pass"
    assert "\r" not in csv_text
    summary = json.loads((out / "est.summary.json").read_text())
    assert summary["passed"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["outputs"] == ["est.csv", "est.summary.json"]


def _process_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's hullforge."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_module_runs_as_a_process(tmp_path):
    # ``python -m hullforge.cli``: its exit code and output streams, not main()'s return
    env = _process_env()

    def run(cfg):
        argv = ["estimate", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)]
        return subprocess.run([sys.executable, "-m", "hullforge.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    ok = run(_estimate_cfg())
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout == f"estimate: PASS -> {tmp_path / 'est.summary.json'}\n"
    bad = run({**_estimate_cfg(), "replicates": 10})
    assert bad.returncode == 2 and "Traceback" not in bad.stderr
    assert len(bad.stderr.splitlines()) == 1 and bad.stderr.startswith("config error:")


@pytest.mark.parametrize("argv", [
    ["estimate", "--config", "c.json", "--seed", "abc"],
    ["estimate", "--config", "c.json", "--threads", "1.5"],
    ["estimate", "--seed", "3"],
    ["estimat", "--config", "c.json"],
    [],
    ["estimate", "--config", "c.json", "--sed", "3"],
])
def test_argument_errors_are_one_line_config_errors(tmp_path, argv):
    # argparse's own refusals: exit 2 and one line, as every other bad input
    proc = subprocess.run([sys.executable, "-m", "hullforge.cli", *argv], env=_process_env(),
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("config error:")
    assert proc.stdout == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hullforge estimate")


_LAZY_SCIPY = """
import json, sys
from pathlib import Path
from hullforge import analytics, cli, generators, kstwo, montecarlo
from hullforge.core import EuclidPoint, PointPattern

# each imports the ones before it
LAZY = ("scipy.special", "scipy.spatial", "scipy.integrate", "scipy.stats")
est_cfg, out, rates_cfg, clt_cfg = sys.argv[1:]
solid = PointPattern.from_points(EuclidPoint(c) for c in
                                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


def run(command, cfg):
    code = cli.main([command, "--config", cfg, "--out", out])
    return code, Path(out, command + ".summary.json").read_text()


calls = {
    "estimate": lambda: cli.main(["estimate", "--config", est_cfg, "--out", out]),
    "markov": lambda: montecarlo.markov_two_sample(montecarlo.ExperimentConfig(
        scenario="convex_square", replications=50, base_seed=3, t_grid=(10.0,))),
    "bounds": lambda: analytics.hoelder_variance_bounds(montecarlo.hoelder_scenario_params(64.0)),
    "rates": lambda: run("rates", rates_cfg),
    "clt": lambda: run("clt", clt_cfg),
    "kstwo_sf": lambda: kstwo.kstwo_sf(0.6, 10.0),  # x >= 0.5: 2 smirnov(n, x)
    "scipy.spatial": lambda: [generators.ConvexHullGen(3).hull_contains(solid, EuclidPoint(q))
                              for q in [(0.2, 0.3, 0.4), (1.5, 0.5, 0.5)]],
}
report = {}
for name, call in calls.items():
    answer = repr(call())
    scipy = any(m.partition(".")[0] == "scipy" for m in sys.modules)
    report[name] = [answer, [m for m in LAZY if m in sys.modules], scipy]
print(json.dumps(report))
"""


def test_estimate_imports_no_lazy_scipy_module(tmp_path):
    # a fresh process: estimate (with its normality distances), markov, the analytic
    # bounds, rates and clt load no scipy module; each later call loads its own, and
    # answers as it does where all four were imported up front
    env = _process_env()
    cfgs = [_write(tmp_path, "c.json", _estimate_cfg(reps=100)), None,
            _write(tmp_path, "r.json", {"schema": 1, "name": "rates", **_VALID["rates"]}),
            _write(tmp_path, "t.json", {"schema": 1, "name": "clt", **_VALID["clt"]})]

    def run(preamble, out):
        cfgs[1] = str(tmp_path / out)
        proc = subprocess.run([sys.executable, "-c", preamble + _LAZY_SCIPY, *cfgs],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    cold = run("", "cold")
    for name in ("estimate", "markov", "bounds", "rates", "clt"):
        assert cold[name][1:] == [[], False], name
    assert cold["estimate"][0] == "0"
    assert cold["kstwo_sf"][1] == ["scipy.special"]
    assert cold["scipy.spatial"][1] == ["scipy.special", "scipy.spatial"]
    assert cold["scipy.spatial"][0] == "[True, False]"
    warm = run("import scipy.integrate, scipy.spatial, scipy.special, scipy.stats\n", "warm")
    assert [answer for answer, *_ in cold.values()] == [answer for answer, *_ in warm.values()]


def test_estimate_float_precision_17_digits(tmp_path):
    cfg = _write(tmp_path, "c.json", _estimate_cfg())
    out = tmp_path / "out"
    main(["estimate", "--config", cfg, "--out", str(out)])
    row = (out / "est.csv").read_text().split("\n")[1].split(",")
    mean = float(row[1])
    assert format(mean, ".17g") == row[1]


def test_byte_identical_reruns_and_threads(tmp_path):
    cfg = _write(tmp_path, "c.json", _estimate_cfg(reps=400))
    outs = []
    for sub, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / sub
        assert main(["estimate", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        outs.append(
            ((out / "est.csv").read_bytes(), (out / "est.summary.json").read_bytes())
        )
    assert outs[0] == outs[1] == outs[2]


def test_seed_override_changes_output(tmp_path):
    cfg = _write(tmp_path, "c.json", _estimate_cfg(reps=200))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["estimate", "--config", cfg, "--out", str(out1)])
    main(["estimate", "--config", cfg, "--out", str(out2), "--seed", "99"])
    assert (out1 / "est.csv").read_bytes() != (out2 / "est.csv").read_bytes()


def test_grid_rows_match_whole_grid_run():
    # The rows `estimate` writes as they arrive must equal one run over the
    # whole grid; grid point i draws from stream tag i.
    config = montecarlo.ExperimentConfig(
        scenario="pareto_square", replications=150, base_seed=5,
        t_grid=(10.0, 20.0, 40.0),
    )
    rows = [row for row, _ in montecarlo.replication_rows(config)]
    whole = montecarlo.run_replications(config)
    assert len(rows) == len(whole.rows) == 3
    for got, want in zip(rows, whole.rows):
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a == b or (a != a and b != b), (got.t, field.name, a, b)


def test_config_errors_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["estimate", "--config", missing, "--out", str(tmp_path / "o")]) == 2

    bad_schema = _write(tmp_path, "bad1.json", {"schema": 99, "name": "x"})
    assert main(["estimate", "--config", bad_schema, "--out", str(tmp_path / "o")]) == 2

    unknown_key = _write(tmp_path, "bad2.json", {**_estimate_cfg(), "bogus": 1})
    assert main(["estimate", "--config", unknown_key, "--out", str(tmp_path / "o")]) == 2

    bad_scenario = _write(tmp_path, "bad3.json", _estimate_cfg(scenario="missing"))
    assert main(["estimate", "--config", bad_scenario, "--out", str(tmp_path / "o")]) == 2

    notjson = tmp_path / "bad4.json"
    notjson.write_text("{", encoding="utf-8")
    assert main(["estimate", "--config", str(notjson), "--out", str(tmp_path / "o")]) == 2


_GRID4 = [16.0, 32.0, 64.0, 128.0]


@pytest.mark.parametrize("command, body", [
    pytest.param("estimate", {"replications": 10, "t_grid": [50.0]}, id="no-scenario"),
    pytest.param("estimate", {"scenario": ["convex_square"], "replications": 10},
                 id="scenario-list"),
    pytest.param("estimate", {"scenario": "convex_square", "replications": "abc"},
                 id="replications-abc"),
    pytest.param("estimate", {"scenario": "convex_square", "replications": 20.7},
                 id="replications-float"),
    pytest.param("estimate", {"scenario": "convex_square", "replications": 10, "seed": "3"},
                 id="seed-string"),
    pytest.param("estimate", {"scenario": "convex_square", "replications": 10, "seed": 3.0},
                 id="seed-float"),
    pytest.param("estimate", {"scenario": "convex_square", "replications": 10,
                              "t_grid": [1.0, "x"]}, id="t_grid-item-x"),
    pytest.param("estimate", {"scenario": "convex_square", "replications": 10, "t_grid": 50.0},
                 id="t_grid-number"),
    pytest.param("variance", {"scenario": "convex_square", "t": 15.0}, id="no-replications"),
    pytest.param("variance", {"scenario": "convex_square", "replications": 10,
                              "nested_probes": "x"}, id="nested_probes-x"),
    pytest.param("variance", {"scenario": "convex_square", "replications": 10,
                              "nested_probes": 0}, id="nested_probes-0"),
    pytest.param("variance", {"scenario": "convex_square", "replications": 10,
                              "nested_probes": 1}, id="nested_probes-1"),
    pytest.param("variance", {"scenario": "convex_square", "replications": 10,
                              "nested_replicas": 0}, id="nested_replicas-0"),
    pytest.param("variance", {"scenario": "convex_square", "replications": 10,
                              "nested_replicas": 10**12}, id="nested_replicas-huge"),
    pytest.param("variance", {"scenario": "hoelder_d1", "replications": 10,
                              "covariance": "no"}, id="covariance-string"),
    pytest.param("markov", {"scenario": "convex_square", "pairs": 10,
                            "negative_control": "false"}, id="negative_control-string"),
    pytest.param("markov", {"pairs": 10}, id="markov-no-scenario"),
    pytest.param("markov", {"scenario": "convex_square", "pairs": [10]}, id="pairs-list"),
    pytest.param("markov", {"scenario": "convex_square", "pairs": 20.7}, id="pairs-float"),
    pytest.param("markov", {"scenario": "convex_square", "pairs": "12"}, id="pairs-string"),
    pytest.param("clt", {"scenario": "hoelder_d1", "replications": 10, "t_grid": _GRID4[:3]},
                 id="clt-3-points"),
    pytest.param("rates", {"scenario": "hoelder_d1", "replications": 10, "t_grid": _GRID4[:3]},
                 id="rates-3-points"),
    pytest.param("rates", {"scenario": "hoelder_d1", "replications": 10}, id="rates-no-grid"),
    pytest.param("rates", {"scenario": "hoelder_d1", "replications": 10,
                           "t_grid": [0.0, *_GRID4]}, id="t_grid-zero"),
    pytest.param("estimate", {"scenario": "convex_square", "replications": 10,
                              "t_grid": [True]}, id="t_grid-bool"),
    pytest.param("estimate", {"scenario": "convex_square", "replications": 10,
                              "t_grid": ["20"]}, id="t_grid-string"),
    pytest.param("estimate", {"scenario": "convex_square", "replications": 10,
                              "t_grid": [10**400]}, id="t_grid-past-float"),
    pytest.param("estimate", {"scenario": "convex_square", "replications": 10,
                              "t_grid": [1e300]}, id="t_grid-huge"),
    pytest.param("variance", {"scenario": "convex_square", "replications": 10, "t": 1e300},
                 id="variance-t-huge"),
    pytest.param("markov", {"scenario": "convex_square", "pairs": 10, "t": 1e300},
                 id="markov-t-huge"),
    pytest.param("rates", {"scenario": "hoelder_d1", "replications": 10, "t_grid": _GRID4,
                           "seed": "s"}, id="seed-s"),
    *[pytest.param("estimate", {"scenario": "coordmin", "replications": 10, "seed": seed},
                   id=f"seed-{name}") for name, seed in (("2**64", 2**64), ("2**80", 2**80),
                                                        ("negative", -1))],
    pytest.param("axioms", {"generators": ["coordmin"], "seed": -1}, id="axioms-seed-negative"),
    pytest.param("estimate", {"scenario": "coordmin", "replications": 10, "t_grid": [5e-324]},
                 id="t_grid-tiny"),
    pytest.param("variance", {"scenario": "coordmin", "replications": 10, "t": 1e-309},
                 id="variance-t-tiny"),
    pytest.param("axioms", {"generators": ["coordmin"], "patterns": "many"},
                 id="patterns-many"),
    pytest.param("axioms", {"generators": 5}, id="generators-number"),
    pytest.param("axioms", {"generators": [["convex2"]]}, id="generators-nested-list"),
    pytest.param("axioms", {"generators": ["coordmin"], "max_points": -2},
                 id="max_points-negative"),
    pytest.param("axioms", {"generators": ["coordmin"], "patterns": -5}, id="patterns-negative"),
    pytest.param("axioms", {"generators": ["coordmin"], "patterns": True}, id="patterns-bool"),
    pytest.param("axioms", {"generators": ["coordmin"], "patterns": 4.5}, id="patterns-float"),
    pytest.param("axioms", {"generators": ["coordmin"], "max_points": 6.0},
                 id="max_points-float"),
    pytest.param("axioms", {"generators": ["coordmin"], "max_points": "6"},
                 id="max_points-string"),
    *[pytest.param(command, {"scenario": "hoelder_d1", "replications": 10, "t_grid": _GRID4,
                             "slope_band": band}, id=f"{command}-slope_band-{name}")
      for command in ("clt", "rates")
      for name, band in (("one", [0.1]), ("number", 5), ("strings", ["a", "b"]),
                         ("reversed", [0.6, 0.4]))],
])
def test_bad_experiment_keys_exit_2(tmp_path, capsys, command, body):
    cfg = _write(tmp_path, "c.json", {"schema": 1, "name": "x", **body})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not (out / "x.csv").exists()


# a config every command accepts, and per reader a value it must refuse
_VALID = {
    "axioms": {"generators": ["coordmin"], "patterns": 2},
    "estimate": {"scenario": "convex_square", "replications": 10, "t_grid": [5.0]},
    "variance": {"scenario": "convex_square", "replications": 10, "t": 5.0,
                 "nested_probes": 4, "nested_replicas": 2},
    "markov": {"scenario": "convex_square", "pairs": 10, "t": 5.0},
    "clt": {"scenario": "hoelder_d1", "replications": 100, "t_grid": _GRID4},
    "rates": {"scenario": "hoelder_d1", "replications": 10, "t_grid": _GRID4},
}
_REFUSED = {
    cli._schema: 2,
    cli._name: 7,
    cli._text: ["convex_square"],
    cli._integer: "1",
    cli._seed: -1,
    cli._count: "1",
    cli._flag: "true",
    cli._t: True,
    cli._grid: 5.0,
    cli._generators: ["convex9"],
}
_DECLARED = [(command, key) for command, keys in cli._KEYS.items() for key in keys]


@pytest.mark.parametrize("command, key", _DECLARED, ids=[f"{c}-{k}" for c, k in _DECLARED])
def test_every_declared_key_refuses_a_bad_value(tmp_path, capsys, command, key):
    reader = cli._KEYS[command][key]
    assert reader in _REFUSED, f"no refused value declared for the reader of {key!r}"
    body = {"schema": 1, "name": "x", **_VALID[command], key: _REFUSED[reader]}
    cfg = _write(tmp_path, "c.json", body)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not (out / "x.csv").exists()


@pytest.mark.parametrize("command", ["clt", "rates"])
def test_slope_band_is_an_unknown_key(tmp_path, capsys, command):
    # each command's slope band is a constant: a well-formed band is refused too
    cfg = _write(tmp_path, "c.json", {"schema": 1, "name": "x", **_VALID[command],
                                      "slope_band": [-1.0, 1.0]})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: unknown config keys: ['slope_band']\n"
    assert not (out / "x.csv").exists()


@pytest.mark.parametrize("command", ["estimate", "axioms"])
def test_bad_seed_refused_under_seed_override(tmp_path, capsys, command):
    # --seed replaces the config's seed, but the config's own value is still read
    cfg = _write(tmp_path, "c.json", {"schema": 1, "name": "x", **_VALID[command], "seed": "abc"})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--seed", "3"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "x.csv").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["estimate", "axioms"])
def test_seed_override_outside_64_bits_exits_2(tmp_path, capsys, command, seed):
    # estimate would rerun seed 2**64 - 1's streams at -1 and seed 0's at 2**64; axioms
    # would rebuild seed 1's corpus at -1
    cfg = _write(tmp_path, "c.json", {"schema": 1, "name": "x", **_VALID[command]})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--seed", seed]) == 2
    assert capsys.readouterr().err == (f"config error: '--seed' must be an integer in "
                                       f"[0, 2**64), got {seed}\n")
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["estimate", "axioms"])
def test_threads_below_one_exit_2(tmp_path, capsys, command, threads):
    # rejected before dispatch, so no command starts a worker or writes output
    body = (_estimate_cfg() if command == "estimate" else
            {"schema": 1, "name": "ax", "generators": ["coordmin"], "patterns": 4})
    cfg = _write(tmp_path, "c.json", body)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", [0, -1])
def test_experiment_config_rejects_threads_below_one(threads):
    with pytest.raises(ConfigurationError):
        montecarlo.ExperimentConfig(scenario="coordmin", replications=10, threads=threads)


def _refuse_draws(monkeypatch, refuse):
    """``refuse`` in place of ``sample_poisson`` and of every model's ``sample_coords``."""
    monkeypatch.setattr(sampling, "sample_poisson", refuse)
    models = sampling.IntensityModel.__subclasses__()
    assert len(models) == 7
    for cls in models:
        monkeypatch.setattr(cls, "sample_coords", refuse)


@pytest.mark.parametrize("covariance", [False, True])
def test_huge_nested_probes_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, covariance):
    # the probes are drawn as one array, so the count is refused before any work starts
    def refuse(*args):
        raise AssertionError("sampled before the config was checked")

    _refuse_draws(monkeypatch, refuse)
    cfg = _write(tmp_path, "c.json", {"schema": 1, "name": "x", "scenario": "hoelder_d1",
                                      "replications": 10, "nested_probes": 10**12,
                                      "covariance": covariance})
    out = tmp_path / "o"
    assert main(["variance", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "nested probes" in err
    assert len(err.splitlines()) == 1
    assert not (out / "x.csv").exists()


@pytest.mark.parametrize("command, body, loop, message", [
    ("variance", {"scenario": "convex_square", "replications": 10, "covariance": True},
     "run_replications", "scenario convex_square declares no covariate integrand"),
    ("markov", {"scenario": "convex_square", "pairs": 1},
     "markov_two_sample", "need at least 2 replications (or pairs)"),
    ("clt", {"scenario": "hoelder_d1", "replications": 99, "t_grid": _GRID4},
     "run_replications", "the W1 distance needs at least 100 replications, got 99"),
], ids=["covariance-without-covariate", "one-pair", "clt-below-100-replications"])
def test_refused_config_exits_2_before_the_run(tmp_path, capsys, monkeypatch,
                                               command, body, loop, message):
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the config was checked")

    monkeypatch.setattr(montecarlo, loop, refuse)
    cfg = _write(tmp_path, "c.json", {"schema": 1, "name": "x", **body})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "x.csv").exists()


def test_estimate_fails_on_a_nan_residual_after_the_first_replication(tmp_path,
                                                                      nan_residual_at):
    nan_residual_at(7)
    cfg = _write(tmp_path, "c.json", _estimate_cfg(scenario="hoelder_d1", reps=40, t=20.0))
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    summary = json.loads((tmp_path / "o" / "est.summary.json").read_text())
    assert summary["ks_identity_pass"] is False
    assert summary["passed"] is False


# Work a config asks for beyond what could be allocated or kept: a pattern too large
# for its generator's kernels (the gap kernel's directions of 10^5 convex points take
# 160 GB, the corner products of about 1,260 lines 8 GB), too many records, or a corpus
# too large.  Each is refused before anything is drawn or built.
_OVERSIZED = [
    pytest.param("estimate", {"scenario": "convex_square", "replications": 10,
                              "t_grid": [20.0, 1e5]}, id="convex-points"),
    pytest.param("estimate", {"scenario": "meanwidth_disks", "replications": 10,
                              "t_grid": [200.0]}, id="halfplane-lines"),
    pytest.param("estimate", {"scenario": "pareto_square", "replications": 10,
                              "t_grid": [1e5]}, id="pareto-points"),
    pytest.param("estimate", {"scenario": "halfline_min", "replications": 10,
                              "t_grid": [1e4]}, id="halfline-points"),
    pytest.param("estimate", {"scenario": "disk_support_sanity", "replications": 10,
                              "t_grid": [1e6]}, id="diskhull-points"),
    pytest.param("variance", {"scenario": "meanwidth_disks", "replications": 10, "t": 200.0},
                 id="variance-halfplane-lines"),
    pytest.param("markov", {"scenario": "convex_square", "pairs": 10, "t": 1e5},
                 id="markov-convex-points"),
    pytest.param("estimate", {"scenario": "coordmin", "replications": 10**9},
                 id="replications"),
    pytest.param("markov", {"scenario": "coordmin", "pairs": 10**9}, id="pairs"),
    pytest.param("axioms", {"generators": ["coordmin", "halfplane"], "patterns": 2,
                            "max_points": 10**5}, id="max_points-past-halfplane"),
    pytest.param("axioms", {"generators": ["coordmin"], "patterns": 10**9}, id="corpus"),
    pytest.param("axioms", {"generators": ["coordmin"], "patterns": 10**5,
                            "max_points": 10**4}, id="corpus-points"),
]


@pytest.mark.parametrize("command, body", _OVERSIZED)
def test_oversized_work_exit_2_before_anything_is_built(tmp_path, capsys, monkeypatch,
                                                        command, body):
    def refuse(*args, **kwargs):
        raise AssertionError("drew or built before the config was checked")

    _refuse_draws(monkeypatch, refuse)
    monkeypatch.setattr(corpora, "_corpus", refuse)
    cfg = _write(tmp_path, "c.json", {"schema": 1, "name": "x", **body})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert not (out / "x.csv").exists()


def test_experiment_config_caps_nested_probes():
    cap = int(montecarlo.MAX_PATTERN_MASS)
    assert montecarlo.ExperimentConfig(scenario="coordmin", replications=10,
                                       nested_probes=cap).nested_probes == cap
    for probes in (cap + 1, 10**12, 10**400):
        with pytest.raises(ConfigurationError, match="nested probes"):
            montecarlo.ExperimentConfig(scenario="coordmin", replications=10,
                                        nested_probes=probes)


def test_experiment_config_caps_nested_replicas():
    cap = montecarlo.MAX_REPLICATIONS
    assert montecarlo.ExperimentConfig(scenario="coordmin", replications=10,
                                       nested_replicas=cap).nested_replicas == cap
    for replicas in (cap + 1, 10**12):
        with pytest.raises(ConfigurationError, match="nested replicas"):
            montecarlo.ExperimentConfig(scenario="coordmin", replications=10,
                                        nested_replicas=replicas)


@pytest.mark.parametrize("t", [0, 0.0, -5.0, "abc", "20", True])
@pytest.mark.parametrize("command", ["variance", "markov"])
def test_explicit_t_not_positive_exit_2(tmp_path, command, t):
    size = {"replications": 10} if command == "variance" else {"pairs": 10}
    cfg = _write(tmp_path, "c.json", {"schema": 1, "name": "x", "scenario": "convex_square",
                                      "t": t, **size})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("name", ["", "../x", "a/b", "a\\b", "..", 7])
def test_unsafe_name_exit_2(tmp_path, name):
    cfg = _write(tmp_path, "c.json", {**_estimate_cfg(reps=10), "name": name})
    out = tmp_path / "deep" / "o"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("name, out_is_file", [
    pytest.param("n" * 300, False, id="name-too-long"),
    pytest.param("est", True, id="out-is-a-file"),
])
def test_unwritable_output_exit_2(tmp_path, capsys, name, out_is_file):
    cfg = _write(tmp_path, "c.json", _estimate_cfg(name=name, reps=10))
    out = tmp_path / "o"
    if out_is_file:
        out.write_text("")
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err


def test_output_name_too_long_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before its output names were checked")

    monkeypatch.setattr(montecarlo, "run_replications", refuse)
    cfg = _write(tmp_path, "c.json", {"schema": 1, "name": "n" * 300,
                                      "scenario": "convex_square", "replications": 10})
    out = tmp_path / "o"
    assert main(["variance", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err
    assert list(out.iterdir()) == []


def test_axioms_command_pass_fail_and_vacuous(tmp_path, capsys):
    ok = _write(
        tmp_path,
        "ax.json",
        {"schema": 1, "name": "ax", "generators": ["coordmin", "pareto"],
         "patterns": 25, "max_points": 7, "seed": 2},
    )
    assert main(["axioms", "--config", ok, "--out", str(tmp_path / "o1")]) == 0

    broken = _write(
        tmp_path,
        "axb.json",
        {"schema": 1, "name": "axb", "generators": ["broken_lexdrop"],
         "patterns": 15, "max_points": 6, "seed": 2},
    )
    assert main(["axioms", "--config", broken, "--out", str(tmp_path / "o2")]) == 1
    summary = json.loads((tmp_path / "o2" / "axb.summary.json").read_text())
    assert summary["counterexamples"]["broken_lexdrop"]

    vacuous = _write(
        tmp_path,
        "axv.json",
        {"schema": 1, "name": "axv", "generators": ["coordmin"], "patterns": 0, "seed": 2},
    )
    assert main(["axioms", "--config", vacuous, "--out", str(tmp_path / "o3")]) == 0
    assert "vacuous" in capsys.readouterr().err

    no_generators = _write(tmp_path, "axn.json", {"schema": 1, "name": "axn", "generators": []})
    assert main(["axioms", "--config", no_generators, "--out", str(tmp_path / "o4")]) == 0
    assert "vacuous" in capsys.readouterr().err


def test_markov_negative_control_exits_1(tmp_path):
    good = _write(
        tmp_path,
        "mk.json",
        {"schema": 1, "name": "mk", "scenario": "convex_square", "pairs": 1200,
         "t": 15.0, "seed": 8},
    )
    assert main(["markov", "--config", good, "--out", str(tmp_path / "m1")]) == 0
    bad = _write(
        tmp_path,
        "mkb.json",
        {"schema": 1, "name": "mkb", "scenario": "convex_square", "pairs": 1200,
         "t": 15.0, "seed": 8, "negative_control": True},
    )
    assert main(["markov", "--config", bad, "--out", str(tmp_path / "m2")]) == 1


def test_rates_summary_fields(tmp_path):
    cfg = _write(
        tmp_path,
        "rt.json",
        {"schema": 1, "name": "rt", "scenario": "hoelder_d1", "replications": 400,
         "seed": 4, "t_grid": [16.0, 32.0, 64.0, 128.0]},
    )
    code = main(["rates", "--config", cfg, "--out", str(tmp_path / "r")])
    summary = json.loads((tmp_path / "r" / "rt.summary.json").read_text())
    for key in ("variance_slope", "variance_slope_se", "w1_slope", "w1_slope_se"):
        assert key in summary
    assert code in (0, 1)  # statistical outcome; field contract is the point here


def test_clt_bound_sum_adds_its_terms_left_to_right(tmp_path):
    # the summary bytes do not depend on the Python version: sum() compensates on >= 3.12
    cfg = _write(tmp_path, "c.json", {"schema": 1, "name": "ct", **_VALID["clt"]})
    assert main(["clt", "--config", cfg, "--out", str(tmp_path / "c")]) in (0, 1)
    summary = json.loads((tmp_path / "c" / "ct.summary.json").read_text())
    terms = summary["bound_terms"]
    assert list(terms) == ["T1", "T3", "T4", "T5"]
    assert summary["bound_sum"] == terms["T1"] + terms["T3"] + terms["T4"] + terms["T5"]


def test_variance_command_runs(tmp_path):
    cfg = _write(
        tmp_path,
        "v.json",
        {"schema": 1, "name": "v", "scenario": "convex_square", "replications": 1500,
         "t": 15.0, "seed": 6, "nested_probes": 96, "nested_replicas": 60},
    )
    assert main(["variance", "--config", cfg, "--out", str(tmp_path / "vo")]) == 0
