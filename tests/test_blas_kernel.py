"""The outputs do not depend on the BLAS kernel that the CPU selects.

An OpenBLAS built with DYNAMIC_ARCH picks its kernel by the CPU unless
OPENBLAS_CORETYPE names one, and its dot products sum in the kernel's own
order, fused or not; Prescott is an SSE2 kernel that every x86-64 CPU runs.
Another BLAS ignores the variable, and each test checks its output once more.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hullforge import montecarlo as mc

REPO = Path(__file__).resolve().parents[1]

x86_64_only = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                                 reason="OPENBLAS_CORETYPE names x86-64 kernels")


def _run_under_sse2_kernel(argv):
    paths = [str(REPO / "src"), str(REPO / "tests"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, *argv], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout


def meanwidth_digest() -> str:
    """sha256 of every per-replication sample of a small line-space (half-plane) run."""
    cfg = mc.ExperimentConfig(scenario="meanwidth_disks", replications=20, base_seed=3,
                              t_grid=(3.0,))
    samples = mc.run_replications(cfg).samples[3.0]
    h = hashlib.sha256()
    for key in sorted(samples):
        h.update(np.asarray(samples[key], dtype=float).tobytes())
    return h.hexdigest()


@x86_64_only
def test_goldens_hold_under_the_sse2_blas_kernel():
    _run_under_sse2_kernel(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                            str(REPO / "tests" / "test_golden.py")])


@x86_64_only
def test_line_space_replications_hold_under_the_sse2_blas_kernel():
    # the half-plane support and leave-one-out kernels decide the hull from
    # <corner, direction> products: each replication's values, not only the goldens
    out = _run_under_sse2_kernel(
        ["-c", "import test_blas_kernel as t; print(t.meanwidth_digest())"])
    assert out.strip() == meanwidth_digest()
