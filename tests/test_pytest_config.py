"""The test configuration itself: a failing property test is reported."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_is_reported(tmp_path):
    # hypothesis's failure report imports libcst, which warns on import; with
    # every warning an error, that warning once ended the whole session with
    # INTERNALERROR (exit 3) instead of reporting the failure
    path = tmp_path / "test_fails.py"
    path.write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", str(path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in run.stdout
