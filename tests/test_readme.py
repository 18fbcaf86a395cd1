"""The README's examples run and print what the README says they print."""

import io
import re
from importlib import resources
from pathlib import Path

from cfspaces.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def block_after(marker: str) -> str:
    """The body of the first fenced code block after `marker`."""
    return re.search(r"```[a-z]*\n(.*?)```", README[README.index(marker):], re.S).group(1)


def test_library_example_prints_its_comment(capsys):
    code = block_after("```python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "4/17\n"
    assert code.rstrip().endswith("# 4/17")


def test_query_script_example_runs(tmp_path):
    script = tmp_path / "example.cfq"
    script.write_text(block_after("### Query scripts"))
    exam = str(resources.files("cfspaces").joinpath("fixtures", "exam.cfs"))
    out, err = io.StringIO(), io.StringIO()
    code = main(["run", exam, str(script)], out, err)
    assert (code, out.getvalue(), err.getvalue()) == (0, "PROB (CF.exam=P) = 4/17 ~ 0.235294\n", "")
