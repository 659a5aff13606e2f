#!/usr/bin/env python3
"""Run the benchmark over many seeds and report each metric's spread.

From the repository root::

    python3 perfbench/noise_study.py --workloads cold_plan warm_replan \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --out study.json

Each run is the end-to-end pass (``--trace 0``) for the ``run_seconds``
of ``BENCHMARK.json``.  For every end-to-end metric it prints the median
and the distance between the first and third quartile as a share of the
median (the spread), next to the bound in ``BENCHMARK.json``.  ``--out`` keeps every
run's metrics and its ``host.ref_loop_ms`` readings.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HOST = re.compile(r"host\.ref_loop_ms before ([0-9.]+) after ([0-9.]+)")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stdout}\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    host = HOST.search(completed.stdout)
    return {
        "workload": workload,
        "seed": seed,
        "run_wall_s": time.perf_counter() - started,
        "host_ref_loop_ms": [float(host.group(1)), float(host.group(2))],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            run = run_once(workload, seed, seconds)
            runs.append(run)
            shown = " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
            print(f"{workload} seed {seed}: {run['run_wall_s']:.1f}s host {run['host_ref_loop_ms']} {shown}",
                  flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps({"seconds": seconds, "runs": runs}, indent=1))
    for workload in args.workloads:
        mine = [run for run in runs if run["workload"] == workload]
        if len(mine) < 2:
            continue
        for name in mine[0]["metrics"]:
            values = [run["metrics"][name] for run in mine]
            print(f"{workload:12s} {name:26s} median {statistics.median(values):10.4g} "
                  f"spread {spread(values):.3f} bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
