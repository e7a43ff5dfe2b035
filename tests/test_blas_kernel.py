"""The golden outputs do not depend on the BLAS kernel that the CPU selects."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_goldens_hold_under_the_sse2_blas_kernel():
    # an OpenBLAS built with DYNAMIC_ARCH picks its kernel by the CPU unless
    # OPENBLAS_CORETYPE names one, and its dot products sum in the kernel's own
    # order; Prescott is an SSE2 kernel that every x86-64 CPU runs.  Another
    # BLAS ignores the variable, and the run checks the goldens once more.
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(REPO / "tests" / "test_golden.py")],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
