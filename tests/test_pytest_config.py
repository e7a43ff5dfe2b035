"""The repository's pytest settings, run on a throwaway test file in a subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_ONE_FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # after shrinking, hypothesis may import libcst to write a patch, and libcst's
    # import emits a DeprecationWarning that the 'error::' filters would turn into
    # an INTERNALERROR ending the session; the failure must be reported as one failure
    (tmp_path / "test_one_failing.py").write_text(_ONE_FAILING_GIVEN, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(tmp_path / "test_one_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
