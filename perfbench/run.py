"""cfspaces benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload family-verify|query-session|cli-files \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  With
--trace 0 the run sets up several times, then runs whole decks of ops until
the CPU time inside ops reaches S seconds, checks every output and reports
the end-to-end metrics.  With --trace 1 it runs the workload's traced ops
(its first deck, or the start of it) untraced, traced and untraced again,
and reports the per-layer metrics and the tracing overhead.  The last line
of stdout is a JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from gen import KNOWN_DEFECTS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, digest  # noqa: E402

# Set up at least SETUP_REPS times and until set-up has used SETUP_MIN_S of
# CPU time, so that a quick set-up is timed often enough for a steady median.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
COLD_RUNS = 10
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Times are CPU time of the main thread (user plus system; the benchmark
# runs no other thread), rescaled to a reference host speed.  The machine is
# shared: its speed swings by tens of percent within seconds, in CPU time as
# in wall time (a fixed 3-variable op took from 181 to 301 ms of CPU time
# within 90 s).  So a probe times a short fixed loop that uses no part of
# the program every PROBE_PERIOD_S of CPU time, and each time is reported as
#     measured CPU time * REFERENCE_PROBE_NS / (median probe time),
# the median taken over the probes that ran inside the op, or over the last
# WINDOW probes when the op is too short to hold that many.  The probe's own
# time is taken out of every measurement, and the unscaled CPU times are
# printed beside the metrics.  The thread clock is used because the process
# clock only advances in scheduler ticks while a profiling timer is armed.
REFERENCE_PROBE_NS = 250_000
PROBE_PERIOD_S = 0.02
WINDOW = 25
cpu_ns = time.thread_time_ns


def probe_loop():
    """A fixed mix of rational arithmetic, tuples, dicts and frozensets,
    the operations the program spends its time on."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 40):
        acc += Fraction(i, 7 ** (i % 5 + 1)) ** 2
        key = (i % 7, i % 3)
        table[key] = table.get(key, 0) + 1
    return frozenset(table), acc


class SpeedProbe:
    """Times probe_loop from a SIGPROF handler every PROBE_PERIOD_S of CPU."""

    def __init__(self):
        self.samples: list[int] = []
        self.own_ns = 0  # CPU time spent in the handler, to take out

    def _handler(self, signum, frame):
        t0 = cpu_ns()
        # A collection of the program's heap must not land in a sample.
        collecting = gc.isenabled()
        gc.disable()
        try:
            probe_loop()
            self.samples.append(cpu_ns() - t0)
        except RecursionError:  # interrupted a deep stack; skip this sample
            pass
        finally:
            if collecting:
                gc.enable()
            self.own_ns += cpu_ns() - t0

    def __enter__(self):
        for _ in range(WINDOW):  # so that the first op already has a window
            t0 = cpu_ns()
            probe_loop()
            self.samples.append(cpu_ns() - t0)
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def timed(self, fn, *args):
        """Call fn; returns (result or exception, CPU ms without the probe,
        speed factor)."""
        n0, own0 = len(self.samples), self.own_ns
        t0 = cpu_ns()
        try:
            result = fn(*args)
        except Exception as exc:  # the caller decides what an error means
            result = exc
        t1 = cpu_ns()
        ms = (t1 - t0 - (self.own_ns - own0)) / 1e6
        n1 = len(self.samples)
        window = self.samples[n0:n1] if n1 - n0 >= WINDOW else self.samples[-WINDOW:]
        return result, ms, REFERENCE_PROBE_NS / statistics.median(window)


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Runner:
    def __init__(self, workload, probe: SpeedProbe):
        self.wl = workload
        self.probe = probe
        self.outcomes = []

    def run_op(self, ctx, op):
        """Run one op; returns (output, error, CPU ms, speed factor)."""
        out, ms, factor = self.probe.timed(self.wl.execute, ctx, op)
        if isinstance(out, Exception):  # the program raised: the op failed
            return None, f"{type(out).__name__}: {out}"[:300], ms, factor
        return out, None, ms, factor

    def check(self, ctx, op, out, error, ms, factor):
        if error is None:
            ok, detail = self.wl.verify(ctx, op, out)
        else:
            ok, detail = False, error
        known = op.kind == "malformed" and op.data[0] in KNOWN_DEFECTS
        outcome = Outcome(op.kind, ms, factor, ok, known and not ok, "" if ok else detail)
        self.outcomes.append(outcome)
        return outcome

    def timed_phase(self, ctx, seconds: float) -> list:
        """Run whole decks until the CPU time inside ops reaches `seconds`;
        returns the checked outcomes of each deck."""
        decks = []
        busy_ms = 0.0
        while busy_ms < seconds * 1000:
            deck = [self.check(ctx, op, *self.run_op(ctx, op))
                    for op in self.wl.cycle(ctx, len(decks))]
            decks.append(deck)
            busy_ms += sum(o.ms for o in deck)
        return decks

    def pass_over(self, ctx, ops, tracer=None):
        """Run ops back to back; returns (rescaled ms inside ops, results)."""
        results = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            results.append((op,) + self.run_op(ctx, op))
        return sum(r[3] * r[4] for r in results), results


def children_cpu_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


def cold_cli_ms(root: Path, reference: dict, factor: float) -> tuple:
    """Median CPU time of `python -m cfspaces.cli repro all` subprocesses,
    interpreter start and import included, rescaled by `factor`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times, bad = [], 0
    for _ in range(COLD_RUNS):
        t0 = children_cpu_ns()
        proc = subprocess.run([sys.executable, "-m", "cfspaces.cli", "repro", "all"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=120)
        times.append((children_cpu_ns() - t0) / 1e6)
        if proc.returncode != 0 or digest(proc.stdout) != reference["repro:all"]:
            bad += 1
    return factor * statistics.median(times), bad


def load_baseline(workload: str) -> dict:
    path = BENCH_DIR / "baseline.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get("workloads", {}).get(workload, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cfspaces" / "__init__.py").is_file():
        print(f"error: {root} has no src/cfspaces; run from the root of a cfspaces checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_root = root / ".perfbench-work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, root, workdir)
    lines = [f"cfspaces benchmark: workload {args.workload}, seed {args.seed}, "
             f"trace {args.trace}; closed loop, one client"]
    problems: list[str] = []
    try:
        with SpeedProbe() as probe:
            runner = Runner(wl, probe)
            if args.trace == 0:
                metrics = measure(runner, wl, args, lines)
            else:
                metrics = traced(runner, wl, args, work_root, lines)
        if args.trace == 0 and wl.name == "cli-files":
            cli_cold(root, runner, lines, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcomes = runner.outcomes
    failed = [o for o in outcomes if not o.ok]
    problems += [f"{o.kind}: {o.detail}" for o in failed if not o.known_defect]
    lines.append(f"  fail_frac = {len(failed)}/{len(outcomes)} = "
                 f"{len(failed) / len(outcomes):.4f} ratio "
                 f"({sum(o.known_defect for o in failed)} from known defects)")
    lines += [f"  UNEXPECTED FAILURE {p}" for p in problems[:10]]
    for line in lines:
        print(line)
    print(json.dumps({"correct": not problems, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def measure(runner, wl, args, lines):
    setup = []  # (CPU ms, speed factor) per set-up; only the last context is kept
    while len(setup) < SETUP_REPS or sum(ms for ms, _ in setup) < SETUP_MIN_S * 1000:
        ctx = None  # let the previous context go before the next set-up
        ctx, ms, factor = runner.probe.timed(wl.setup)
        if isinstance(ctx, Exception):
            raise ctx
        setup.append((ms, factor))
    decks = runner.timed_phase(ctx, args.seconds)
    # Each statistic is taken per deck and the median over decks reported,
    # so that a stretch of time in which the machine runs slow moves it less.
    scaled = [[o.ms * o.factor for o in d] for d in decks]
    raw = [[o.ms for o in d] for d in decks]

    def stats(lat):
        return {
            "ops_per_s": statistics.median(len(d) / (sum(d) / 1000) for d in lat),
            "op_p50_ms": statistics.median(nearest_rank(d, 0.5) for d in lat),
            "op_p90_ms": statistics.median(nearest_rank(d, 0.9) for d in lat),
        }

    values = {"setup_s": statistics.median(ms * f / 1000 for ms, f in setup),
              **stats(scaled),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    unscaled = {"setup_s": statistics.median(ms / 1000 for ms, _ in setup), **stats(raw)}
    n = sum(len(d) for d in decks)
    per_deck = f"median over {len(decks)} decks of {len(decks[0])} ops, n={n} ops"
    counts = {"setup_s": f"median of {len(setup)} set-ups", "ops_per_s": per_deck,
              "op_p50_ms": per_deck, "op_p90_ms": per_deck,
              "peak_rss_mb": "ru_maxrss of this process"}
    factors = [o.factor for o in runner.outcomes]
    lines.append(f"  host speed: median factor {statistics.median(factors):.4g}, "
                 f"range {min(factors):.3g} to {max(factors):.3g} over ops")
    baseline = load_baseline(wl.name)
    for name, unit in END_TO_END:
        text = f"  {name} = {values[name]:.6g} {unit} ({counts[name]}"
        if name in unscaled:
            text += f"; unscaled CPU {unscaled[name]:.6g}"
        text += ")"
        if name in baseline:
            b = baseline[name]
            text += f"; baseline median {b['median']:.6g} [q1 {b['q1']:.6g}, q3 {b['q3']:.6g}]"
        lines.append(text)
    if wl.name == "cli-files":
        for command in ("check", "run", "compile"):
            xs = [o.ms * o.factor for o in runner.outcomes if o.kind == command]
            lines.append(f"  {command}_p50_ms = {statistics.median(xs):.6g} ms (n={len(xs)} "
                         f"well-formed {command} commands)")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def cli_cold(root, runner, lines, problems):
    """Print cli_cold_ms, rescaled by the median speed factor of the run."""
    factor = statistics.median(o.factor for o in runner.outcomes)
    cold, bad = cold_cli_ms(root, runner.wl.reference, factor)
    lines.append(f"  cli_cold_ms = {cold:.6g} ms (median CPU time of {COLD_RUNS} "
                 f"subprocess 'repro all' runs, {bad} wrong)")
    if bad:
        problems.append(f"{bad} cold 'repro all' runs failed or printed the wrong report")


def traced(runner, wl, args, work_root: Path, lines):
    """Untraced, traced and untraced again over the traced ops, each pass
    after a fresh set-up; the overhead is the traced time minus the mean of
    the two untraced ones."""
    ops = None
    passes = []
    tracer = Tracer()
    for traced_pass in (False, True, False):
        ctx = wl.setup()
        if ops is None:
            ops = wl.traced_ops(ctx)
        if traced_pass:
            tracer.install()
        try:
            ms, results = runner.pass_over(ctx, ops, tracer if traced_pass else None)
        finally:
            tracer.uninstall()
        passes.append(ms)
        for op, out, error, raw_ms, factor in results:
            runner.check(ctx, op, out, error, raw_ms, factor)
        if traced_pass:
            traced_factor = statistics.median(r[4] for r in results)
    metrics = tracer.metrics(passes[1] - (passes[0] + passes[2]) / 2, traced_factor)
    work_root.mkdir(exist_ok=True)
    path = work_root / f"trace-{wl.name}-s{args.seed}.spans.gz"
    tracer.write(path)
    lines.append(f"  {len(ops)} ops: untraced {passes[0]:.1f} and {passes[2]:.1f} ms, "
                 f"traced {passes[1]:.1f} ms; {len(tracer.start)} spans written to "
                 f"{path.relative_to(Path.cwd())}")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
