"""The repository's pytest settings report a failing property as a failure,
and the mutation register names code and tests that exist."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

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


def test_every_mutant_snippet_occurs_once():
    # A snippet that moved or changed would only show as stale when the
    # register itself runs; here it fails with the tier-1 tests.
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for name, module, snippet, _, node_ids in mutants.MUTANTS:
        text = (mutants.PACKAGE / module).read_text(encoding="utf-8")
        assert text.count(snippet) == 1, f"{name}: the snippet occurs {text.count(snippet)} times"
        for node_id in node_ids:
            assert (ROOT / node_id.split("::")[0]).is_file(), f"{name}: no file for {node_id}"
