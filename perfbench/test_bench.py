"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_bench.py

Run from the root of a checkout.  It checks that the work counters of the
traced run repeat exactly for the same seed, that every output of a small
slice of each workload passes its check, and that the benchmark refuses to
run without the program.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from run import Runner, SpeedProbe  # noqa: E402
from tracing import WORK_COUNTERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def small_slice(name, ops):
    """A few quick ops of the first deck, so the test stays short."""
    if name == "family-verify":
        return [op for op in ops if op.kind == "verify-3"][:2]
    if name == "cli-files":
        return [op for op in ops if op.kind != "check"]
    return ops[:10]


def traced_counters(name, seed, tmp_path):
    wl = WORKLOADS[name](seed, ROOT, tmp_path / "work")
    ctx = wl.setup()
    ops = small_slice(name, wl.traced_ops(ctx))
    tracer = Tracer()
    with SpeedProbe() as probe:
        runner = Runner(wl, probe)
        tracer.install()
        try:
            _ms, results = runner.pass_over(ctx, ops, tracer)
        finally:
            tracer.uninstall()
    for op, out, error, ms, factor in results:
        runner.check(ctx, op, out, error, ms, factor)
    unexpected = [o for o in runner.outcomes if not o.ok and not o.known_defect]
    assert not unexpected, unexpected
    metrics = tracer.metrics(0.0, 1.0)
    return {k: metrics[k]["value"] for k in WORK_COUNTERS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counters_repeat(name, tmp_path):
    first = traced_counters(name, 7, tmp_path)
    second = traced_counters(name, 7, tmp_path)
    assert first == second
    assert first["trace.spans"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-files", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
