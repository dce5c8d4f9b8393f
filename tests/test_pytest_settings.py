"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after():
    pass
'''


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # every warning is an error, and Hypothesis's failure report imports
    # libcst, whose import warns: that warning must neither abort the run
    # nor keep the next test from running
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-v",
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    report = done.stdout + done.stderr
    assert done.returncode == 1, report
    assert "::test_runs_after PASSED" in report, report
    assert "1 failed, 1 passed" in report, report
