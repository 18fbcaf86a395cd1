"""Measure the baseline: ten seeds per workload, median and quartiles.

    python3 perfbench/measure_baseline.py [--seeds 1-10] [--workloads a,b] [--write]

Run from the root of a checkout.  Each run is a separate process of
perfbench/run.py with --trace 0 and the run length from BENCHMARK.json,
whose report is printed.  Then, per workload and end-to-end metric, it
prints the median, the quartiles (statistics.quantiles with n=4) and the
spread (q3 - q1) / median against the metric's bound; --write stores the
result in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {}
    for name in names:
        values: dict = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            *lines, last = proc.stdout.strip().splitlines()
            report = json.loads(last)
            print("\n".join(lines), flush=True)
            if not report["correct"]:
                print(f"  {name} seed {seed}: an op failed unexpectedly", flush=True)
            for key, metric in report["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        result[name] = {}
        for key, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            result[name][key] = {"median": med, "q1": q1, "q3": q3, "runs": len(xs)}
            print(f"  {name} {key}: median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                  f"spread {(q3 - q1) / med:.3f} (bound {bounds[key]})", flush=True)
    if args.write:
        out = {
            "how": f"seeds {seeds[0]}-{seeds[-1]}, --seconds {bench['run_seconds']}, --trace 0; "
                   "times are thread CPU time rescaled by the speed probe of run.py",
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                       f"{platform.python_implementation()} {platform.python_version()}",
            "workloads": result,
        }
        (BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
