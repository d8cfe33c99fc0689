"""The repo's pytest settings turn every warning into an error, yet a
failing hypothesis test must still be an ordinary failure.

Hypothesis writes a failing example's report with ``libcst``, when it is
installed, and importing that warns; as an error inside pytest's report
hook it aborted the whole session (exit 3) and hid every later test.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_fails_and_the_session_runs_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
