"""Golden outputs: small fixed CLI configs must keep their exact bytes.

Each case runs one subcommand on a small config at a fixed seed and hashes
the CSV and the summary JSON it writes.  The digests were recorded before
the hull integrals moved into one (generator, model) pairing table; the
three ``markov-*`` cases and ``axioms-rest`` were recorded before the boundary
became a per-atom mask read in one geometry pass; the two ``-t1`` cases, at
the t of the benchmark's estimate jobs, were recorded before the half-plane
and disk hull generators had leave-one-out kernels.  A refactor that claims
"no behaviour change" is checked here byte for byte.
The ``SAMPLER_GOLDEN`` digests hash the entries of three sampled patterns
per intensity model; they were recorded while every sampler still built its
point objects one by one, before patterns became coordinate-row stores.
The library-level ``PAIRING_GOLDEN`` digests (every pairing-table row
against six integrands, including which combinations raise) and
``PAIRED_GOLDEN`` digests (the paired estimator loop, with and without
targets) were recorded while the pairing rules still took the integrand and
the paired loop had its own chunk function.  The ``PAIRING_GOLDEN``
digests were re-recorded once since, when integrands declared their ground
space: an integrand on the wrong space now raises ``ConfigurationError`` on
every pattern, where it raised ``AttributeError`` or, on the empty pattern,
gave a value; no other entry of any record changed.
The five half-line digests (``estimate-halfline_min``, the three
``SAMPLER_GOLDEN["halfline"]`` patterns and ``PAIRING_GOLDEN["pareto1-halfline"]``)
were re-recorded when the half line stopped drawing its own renewal
sequence of exponential gaps and began sampling through ``sample_coords``
like every other model: a Poisson(rate * horizon) count of uniform points,
the same law from other draws.
Regenerate a digest only with a change that means to alter that output.
"""

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from hullforge.cli import main
from hullforge.core import PointPattern
from hullforge.estimators import (
    Constant,
    CustomIntegrand,
    Indicator,
    PowerDepth,
    PowerTail,
    RadialPower,
    hull_estimate,
    ks_error,
)
from hullforge.generators import (
    ConvexHullGen,
    CoordMinGen,
    DiskHullGen,
    EnvelopeGen,
    HalfPlaneGen,
    ParetoGen,
    hull_mass,
)
from hullforge.montecarlo import ExperimentConfig, _hoelder_band, paired_estimates
from hullforge.sampling import (
    HalfLine,
    HoelderBand,
    LinesBand,
    RngStream,
    UniformAnnulus,
    UniformBox,
    UniformDisk,
    UniformPolygon,
    sample_poisson,
)


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
    "estimate-meanwidth_disks-t1": _estimate("meanwidth_disks", 1.0, 120),
    "estimate-disk_support_sanity-t1": _estimate("disk_support_sanity", 1.0, 120),
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
    "estimate-halfline_min": "af67a1180ee51e99fc1ff75132155d457563d5f1c70c30abc049b03f43ccfc8d",
    "estimate-meanwidth_disks": "ec8ed46b5bf587f51f5139f0eb9cc9bcb987099034a4e9a406367e141ff0a983",
    "estimate-disk_support_sanity": "9d793ed7fcd696e465e62ef7115db212fc749f264f3bbfdfda07f95bac745894",
    "estimate-meanwidth_disks-t1": "087d2ed3e42be1acce1b3a0f0c352b2ad4d32d5ded49d5d144a75a622be0004c",
    "estimate-disk_support_sanity-t1": "6d7520b3e8bbe51f5f4491f305391131064c14edf6eb7b480bd349e7482efe25",
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


def _phi_tent(sites):
    return 1.0 - 0.5 * np.abs(sites[:, 0] - 0.5) - 0.25 * sites[:, 1]


SAMPLER_MODELS = {
    "box1": UniformBox((0.0,), (2.0,), rate=20.0),
    "box2": UniformBox((0.0, -1.0), (1.0, 1.0), rate=20.0),
    "box3": UniformBox((0.0, 0.0, 0.0), (1.0, 1.0, 2.0), rate=20.0),
    "disk": UniformDisk((0.5, -0.25), 1.5, rate=6.0),
    "polygon": UniformPolygon(((0.0, 0.0), (2.0, 0.0), (1.5, 1.0), (0.0, 1.5)), rate=15.0),
    "annulus": UniformAnnulus(0.3, 1.0, rate=14.0),
    "band1": _hoelder_band(48.0),
    "band2": HoelderBand(lo=(0.0, 0.0), hi=(1.0, 1.0), phi=_phi_tent, phi_sup=1.0,
                         phi_integral=0.75, holder_const=0.5, holder_exp=1.0, rate=48.0),
    "lines": LinesBand(1.0, 2.0, rate=6.0),
    "halfline": HalfLine(start=1.0, rate=8.0, horizon=5.0),
}

SAMPLER_GOLDEN = {
    "box1": [
        "02280114ba11992383a797cef80279e9c6c6b345c618f3e6eb96d679b73bf859",
        "e40f16a28b36cfa0ad528aaa69c4818938022b14828655c3b0a7c52f318c4e09",
        "0e38ce11ad732f5aace409e1895dec6aa35edd4c422313e3d63455d858b3430c",
    ],
    "box2": [
        "a658efdfb66fad8fd84e3c8f897575ad6de19fc3669a136c407ec98a47f5c389",
        "d54d0ae220e2ae4ee44ad64fb5f483617aac6038a427b8c41ceeda8ce80a850c",
        "f56c9cdcaab9522bbbfef44dd03e6d91e87139c9713e9c1c202d29b79ff2890e",
    ],
    "box3": [
        "6c843ce8b51642c6c4e7379e58e74eb15907d899f2b6ba6937cbd1c27c95c749",
        "612536be48d71a1422c204ae1dce47f5bb2524bbacb1b63ca9e35bb092a14a64",
        "7410c90bf93d98a70b149262ab0878dca5cdffbb6f8b474b9ed572ad2af23fde",
    ],
    "disk": [
        "6c182aafde637ee6a18acc48c029f5cee93f1198426c2e47dfa02d31107ccf02",
        "0f0f7dfe3acaacbf31c9cf5ecb4cfbfbf18c5ad977e842ac07d98a86ab97ca0b",
        "ba4191bdcb88b49e063d63935198e9d825c4d9202360a73989707a54f20cb505",
    ],
    "polygon": [
        "257511247181d9ce54a86ab08eb23abdbfa49b6c956e618cd9c348e0549ba292",
        "a463e44a33740a2ad4e4fb88e3d6d89251d6a1de16448aae9762d19573c2c7c2",
        "8a214c5aa664a86c7e45ca31949740a81c35fefa0246f3e28b643b8c58911934",
    ],
    "annulus": [
        "d7bfd992f20944eea67316222bc1760de670b9bffedd3841d3e8eb5db84ea1ce",
        "bb75e39b314b576051a14d177dce9967b557d7788c3cbde59d9862b3d463aea0",
        "1ed78f39f93352f502f7e3cf82e4718b30da6fc7cdd95e326186d04011499b26",
    ],
    "band1": [
        "88c87713fff70fc40e0d7b73002b35bb01a2cc57825a08ab227f6935c6b74749",
        "fad5134043bcd7d6d4792f5e9f801abcbe3db98a2a817ae81dc02e9827f1ff6a",
        "b69928a761dafe3e8e9f626bb0df09bf660b9cfd656e1c7c9c54ecff4049c336",
    ],
    "band2": [
        "6b6ee1b5e2ca4fe3435cbfa1d036e60e1fb937616237dacb6eea952db5893652",
        "bd7700956e6019ed91f1b5b9bdf01dcc70e834ca53cba1d97dd373537a9f49d0",
        "fb778db0fb7c1738447b33d262f25cefae6cceab0ce8e821c4bdf9d4fb424271",
    ],
    "lines": [
        "5ff3b5987fc541fc4a01bf11d7d5cf8070ed76b133b82993eaedda786d253a74",
        "e76e3931155d04c4915f98fcb52809c4e07827eae2a47cbe74678ca7d732279c",
        "35580ca44d1513ead1b2f19a5d1d4fdf13acbd7c060c1067e5aca7fa417dfb9e",
    ],
    "halfline": [
        "5a31e27e91c23b624822ced8a1e221bfbc172f7f567403e98851225e310b0b6c",
        "6fb458149dd9a7ec5f0d0f97aa715f23380cce99214e0b1bf6bbc8e6cd12df8a",
        "e76240e70d99f7c964d3f185900db95cb93f96b6af7b3075f9f95cfe6d12bb2c",
    ],
}


def sampler_digest(name: str, seed: int) -> str:
    """sha256 of the repr of the entries of one sampled pattern."""
    pattern = sample_poisson(SAMPLER_MODELS[name], RngStream(seed, 7 * seed).generator())
    return hashlib.sha256(repr(pattern.entries).encode()).hexdigest()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SAMPLER_MODELS))
def test_golden_sampler_stream(name, seed):
    assert sampler_digest(name, seed) == SAMPLER_GOLDEN[name][seed - 1]


#: every row of the pairing table, as (generator, sampler model); the convex
#: and Pareto box rows also at the dimensions where they refuse or integrate
#: constants only
PAIRING_CASES = {
    "convex2-box": (ConvexHullGen(2), "box2"),
    "convex3-box": (ConvexHullGen(3), "box3"),
    "convex2-disk": (ConvexHullGen(2), "disk"),
    "convex2-polygon": (ConvexHullGen(2), "polygon"),
    "coordmin-box": (CoordMinGen(), "box2"),
    "pareto1-box": (ParetoGen(1), "box1"),
    "pareto2-box": (ParetoGen(2), "box2"),
    "pareto3-box": (ParetoGen(3), "box3"),
    "pareto1-halfline": (ParetoGen(1), "halfline"),
    "envelope1-band": (EnvelopeGen(1), "band1"),
    "envelope2-band": (EnvelopeGen(2), "band2"),
    "halfplane-lines": (HalfPlaneGen(2.0), "lines"),
    "diskhull-annulus": (DiskHullGen(0.3), "annulus"),
}

INTEGRANDS = (
    Constant(0.37),
    Indicator(),
    PowerDepth(2.0),
    RadialPower(beta=2.0, weight=0.5),
    PowerTail(2.0),
    CustomIntegrand("row_sum", lambda p: 1.0 + 0.25 * sum(p.row)),
)

PAIRING_GOLDEN = {
    "convex2-box": "00eb1d5b092910bbd138e7d263407bbd2fa9a577fa7a137b8d09975580d91173",
    "convex2-disk": "21cc22568dc0183bb9dbcccacca45ff0708233d2847e8126d697d9c5d632f064",
    "convex2-polygon": "a295b86e18118cdd9eae151ea6ae047e03e033fed21f0f58c88e5b203637ac39",
    "convex3-box": "347c5eaa75c9a2f756467ca7e1aae212aa79148f153b89cc41a4fcd89ae06f2b",
    "coordmin-box": "5e3f3937bb7a58c38c43021c878557c3a0cd9d1ea0f6b5d0ecb295d60cd674a3",
    "diskhull-annulus": "9ce4442c90749e93395d472f810996c98ee92ecc4972d3bc45dff38152833fba",
    "envelope1-band": "1dabcf1eaf77e70259242695b65102800fa7d84dab14ce2977c77d754fa0ed90",
    "envelope2-band": "c101d512a0cc404a449dd37174330dd2c237f8723fa176761956ca1b06b4b159",
    "halfplane-lines": "18854645404f26204052f2693b7217c59fc06d0661b13e7eecc7ccc10ca358db",
    "pareto1-box": "892aa1438bb89c0d473e8ee3f6b0cfa0f38e507a6b70a9adf6862fed5b21735b",
    "pareto1-halfline": "e5f6360abf41a7ba11f5a84e93396f19571e1bb37a1080f3ad24c2f347744455",
    "pareto2-box": "56510fc5ff4807d8aefd32892736793a01226440fd15bb3fd2138a9c83d54ab7",
    "pareto3-box": "366aff330203719eeccc9a4b13ab53e6aab43e9107e2be4a9228d0a5686450d0",
}


def _outcome(fn):
    """``fn()``, or the name of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # which combinations raise, and what, is part of the digest
        return type(exc).__name__


def pairing_digest(case: str) -> str:
    """sha256 over the hull mass and, per integrand, the estimate and KS error of five patterns.

    The patterns are the empty one and four sampled ones.
    """
    gen, name = PAIRING_CASES[case]
    model = SAMPLER_MODELS[name]
    patterns = [PointPattern.empty()] + [sample_poisson(model, RngStream(41).stream(i).generator())
                                         for i in range(4)]
    record = []
    for mu in patterns:
        record.append(_outcome(lambda: hull_mass(gen, mu, model)))
        for f in INTEGRANDS:
            record.append(_outcome(lambda: astuple(hull_estimate(gen, model, f, mu))))
            record.append(_outcome(lambda: ks_error(gen, model, f, mu, 1.0)))
    return hashlib.sha256(repr(record).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(PAIRING_CASES))
def test_golden_pairing_integrands(case):
    assert pairing_digest(case) == PAIRING_GOLDEN[case]


PAIRED_GOLDEN = {
    "no-targets": "c4dab50f1702d1c1425f5efd7b9f76c5409e5740a8fe66e1b824c6bab6d7480c",
    "targets": "0dc1a616b3ee34eb0a2e04d7d7f374856e280148053f34ecd83e4bda5975abf8",
}


#: the (f, g) targets of each paired run; None checks no error identity
PAIRED_TARGETS = {"no-targets": None, "targets": (6.0, 1.0)}


@pytest.mark.parametrize("case", sorted(PAIRED_TARGETS))
def test_golden_paired_estimates(case):
    config = ExperimentConfig("hoelder_d1", replications=60, base_seed=4, t_grid=(8.0,))
    run = paired_estimates(config, targets=PAIRED_TARGETS[case])
    record = (run.values_f.tolist(), run.values_g.tolist(), run.ks_resid_max)
    assert hashlib.sha256(repr(record).encode()).hexdigest() == PAIRED_GOLDEN[case]
