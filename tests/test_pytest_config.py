"""The test configuration in pyproject.toml, run on a throwaway test file."""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

THROWAWAY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # To report a falsifying example, hypothesis imports libcst, which warns
    # on import.  Warnings are errors here; that one must not stop the session
    # with an internal error before the next test runs.
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
