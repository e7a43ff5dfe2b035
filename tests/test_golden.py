"""Golden outputs: small fixed CLI configs must keep their exact bytes.

Each case runs one subcommand on a small config at a fixed seed and hashes
the CSV and the summary JSON it writes.  The digests were recorded before
the hull integrals moved into one (generator, model) pairing table; the
three ``markov-*`` cases and ``axioms-rest`` were recorded before the boundary
became a per-atom mask read in one geometry pass.  A refactor that claims
"no behaviour change" is checked here byte for byte.
Regenerate a digest only with a change that means to alter that output.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hullforge.cli import main


def _estimate(scenario, t, reps):
    return ("estimate", {"scenario": scenario, "replications": reps, "seed": 3,
                         "t_grid": [t]})


CASES = {
    "estimate-convex_square": _estimate("convex_square", 50.0, 120),
    "estimate-pareto_square": _estimate("pareto_square", 20.0, 120),
    "estimate-coordmin": _estimate("coordmin", 2.0, 200),
    "estimate-hoelder_d1": _estimate("hoelder_d1", 16.0, 120),
    "estimate-halfline_min": _estimate("halfline_min", 4.0, 200),
    "estimate-meanwidth_disks": _estimate("meanwidth_disks", 3.0, 120),
    "estimate-disk_support_sanity": _estimate("disk_support_sanity", 8.0, 120),
    "variance-covariance": ("variance", {
        "scenario": "hoelder_d1", "replications": 120, "seed": 4, "t": 8.0,
        "nested_probes": 24, "nested_replicas": 12, "covariance": True}),
    "markov": ("markov", {"scenario": "hoelder_d1", "pairs": 150, "seed": 5, "t": 2.0}),
    "markov-convex_square": ("markov", {"scenario": "convex_square", "pairs": 150, "seed": 8,
                                        "t": 20.0}),
    "markov-pareto_square": ("markov", {"scenario": "pareto_square", "pairs": 150, "seed": 8,
                                        "t": 20.0}),
    "markov-disk_support_sanity": ("markov", {"scenario": "disk_support_sanity", "pairs": 150,
                                              "seed": 8, "t": 8.0}),
    "rates": ("rates", {"scenario": "hoelder_d1", "replications": 40, "seed": 6,
                        "t_grid": [4, 8, 16, 32]}),
    "axioms": ("axioms", {"generators": ["convex2", "pareto", "envelope", "halfplane"],
                          "patterns": 40, "max_points": 8, "seed": 7}),
    "axioms-rest": ("axioms", {
        "generators": ["convex3", "coordmin", "diskhull", "broken_lexdrop"],
        "patterns": 40, "max_points": 8, "seed": 9}),
}

GOLDEN = {
    "estimate-convex_square": "13dfdfd80fe5d4004144e41fe8e7d5c905293e4dcb1505b51031a53c11ca3595",
    "estimate-pareto_square": "5cd328e0a1c35b98d1d7dbb309464c6a5d2ae53016537bb4e1dd22d1fa13b9e5",
    "estimate-coordmin": "0248278c209750a62b865a0a83198cae2cc04df5d09f5fad14f24fc1414211a9",
    "estimate-hoelder_d1": "cd8049a4fc2c9287cdc6dd1d06143a92ff00b71e8a014e82a769878afe3f4d86",
    "estimate-halfline_min": "8b0660594221119be0058694dbcf1f4a877671fce52b5f2cd9d40038287ce5fe",
    "estimate-meanwidth_disks": "ec8ed46b5bf587f51f5139f0eb9cc9bcb987099034a4e9a406367e141ff0a983",
    "estimate-disk_support_sanity": "9d793ed7fcd696e465e62ef7115db212fc749f264f3bbfdfda07f95bac745894",
    "variance-covariance": "a8d067fbad65ba0358075298a50efe7f303ff0a4952f698447aaa9d76be4090f",
    "markov": "52ff42d263a3e27925ab7993797c62217d0248fc7ed5bad87ea89f0b4816d17c",
    "markov-convex_square": "4aabfd2985c2e69c9067e1c08c14a1db74c2a110657899f0f4a39b4388291d22",
    "markov-pareto_square": "449868fce218dbf173ce1e84ba8ac26cec5042749f7a8ed30108f388f82bb3c7",
    "markov-disk_support_sanity": "98bc7a1124fb5293f8bb62b9cfa4824f1766213572066947e644ea458a20a40f",
    "rates": "0c4f42048f46c4d47fd9f3eaecfdc7ed208688201205f82c91827477adc8252f",
    "axioms": "ce133b456c930157eb4f36d65bfcf68937e86ebe0afe9deeefa33bb66518514a",
    "axioms-rest": "d8dbfe110621c970584a566fa47cdc66048924e04876fa010e889f3ea57d23a2",
}


def run_case(tmp_path: Path, case: str) -> str:
    """sha256 over the exit code, the CSV and the summary JSON of one case."""
    command, keys = CASES[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema": 1, "name": "g", **keys}), encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    digest = hashlib.sha256(str(code).encode())
    digest.update((out / "g.csv").read_bytes())
    digest.update((out / "g.summary.json").read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(tmp_path, case):
    assert run_case(tmp_path, case) == GOLDEN[case]
