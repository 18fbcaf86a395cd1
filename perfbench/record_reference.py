"""Record the pinned digests in reference.json from the program in ./src.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  The digests cover the transcripts whose
inputs do not depend on the seed: the fixed fixture scripts and `repro`.
Every seeded output is checked against perfbench/oracle.py instead.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(Path.cwd() / "src")]

from workloads import FIXTURE_SCRIPTS, REPRO_ARGS, digest  # noqa: E402


def main() -> int:
    from cfspaces import parse_query, parse_space, run_script
    from cfspaces.cli import main as cli_main

    fixture_dir = Path.cwd() / "src" / "cfspaces" / "fixtures"
    ref = {}
    for k, (name, text) in enumerate(FIXTURE_SCRIPTS):
        space = parse_space((fixture_dir / f"{name}.cfs").read_text()).to_space()
        run = run_script(space, parse_query(text))
        assert run.exit_code == 0, (name, run.lines)
        ref[f"query:{k}"] = digest("\n".join(run.lines))
    for args in REPRO_ARGS:
        out, err = io.StringIO(), io.StringIO()
        assert cli_main(["repro", *args], out, err) == 0, err.getvalue()
        ref[f"repro:{args[0]}"] = digest(out.getvalue())
    (BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
