"""The repository's pytest settings report a failing property as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(n):
    assert n < 5
"""


def test_a_failing_property_exits_1(tmp_path):
    # With warnings as errors, a warning raised in hypothesis' report hook
    # would end the run as an internal error (exit 3), and a mutation caught
    # only by a property would read as broken rather than killed.
    (tmp_path / "test_property.py").write_text(PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout[-3000:] + result.stderr[-3000:]
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed" in result.stdout
