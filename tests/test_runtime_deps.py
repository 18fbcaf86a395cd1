"""The runtime imports nothing beyond the standard library."""

import ast
import subprocess
import sys
from pathlib import Path

import cfspaces

SRC = Path(cfspaces.__file__).resolve().parent.parent

# Modules that site loads from .pth files at start-up are recorded first, so
# only what the package itself pulls in is judged; installed third-party
# packages stay importable, so an optional import would be caught too.
IMPORT_ALL = """
import sys
before = set(sys.modules)
sys.path.insert(0, {src!r})
import importlib, pkgutil
import cfspaces
for info in pkgutil.iter_modules(cfspaces.__path__):
    importlib.import_module("cfspaces." + info.name)
top = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print("\\n".join(sorted(top - set(sys.stdlib_module_names) - {{"cfspaces"}})))
"""


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; the grammar of any
    # newer release (such as except*) must not creep in.
    for path in sorted((SRC / "cfspaces").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_runtime_is_stdlib_only():
    # -I ignores PYTHONPATH, the user site and the working directory, so
    # the script puts the package's source directory on the path itself.
    result = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_ALL.format(src=str(SRC))],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
