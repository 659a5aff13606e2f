#!/usr/bin/env python3
"""The planning benchmark: one command, three closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same loop with every other plan traced and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("cold_plan", "warm_replan", "fleet_mixed")

END_TO_END_UNITS = {
    "setup_s": "s",
    "plans_per_s": "1/s",
    "plan_p50_ms": "ms",
    "plan_tail_ms": "ms",
    "cpu_ms_per_plan": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "generate.ms_per_plan": "ms",
    "generate.alternatives_per_plan": "count",
    "fingerprint.ms_per_plan": "ms",
    "fingerprint.calls_per_plan": "count",
    "cache.lookup_ms_per_plan": "ms",
    "cache.lookups_per_plan": "count",
    "cache.hit_ratio": "ratio",
    "simulate.ms_per_plan": "ms",
    "simulate.calls_per_plan": "count",
    "measures.ms_per_plan": "ms",
    "rank.ms_per_plan": "ms",
    "evaluator.self_ms_per_plan": "ms",
    "gc.pause_ms_per_plan": "ms",
    "gc.gen2_per_plan": "count",
    "client.submit_ms": "ms",
    "client.polls_per_plan": "count",
    "client.result_ms": "ms",
    "client.result_kb": "KiB",
    "queue.wait_ms": "ms",
    "worker.plan_ms": "ms",
    "shard.hit_ratio": "ratio",
    "wire.requests_per_plan": "count",
    "wire.kb_per_plan": "KiB",
    "host.ref_loop_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Layers that exist only on the fleet's request path.  The in-process
#: workloads have no client, queue, shard or wire: they report these as
#: 0 and say so on standard output.
FLEET_ONLY = (
    "client.submit_ms",
    "client.polls_per_plan",
    "client.result_ms",
    "client.result_kb",
    "queue.wait_ms",
    "worker.plan_ms",
    "shard.hit_ratio",
    "wire.requests_per_plan",
    "wire.kb_per_plan",
)


def _checkout_problem() -> str | None:
    for needed in ("src/repro/core/planner.py", "tools/serve.py"):
        if not (ROOT / needed).is_file():
            return f"{needed} not found under {ROOT}: run from the repository root"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _checkout_problem()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    # The planner's choice among tied application points depends on the
    # per-process string hash salt (README.md, "Program behaviour found
    # while building this benchmark").  Deriving the salt from the seed
    # makes one seed do the same work in every run; the servers and
    # set-ups this run starts inherit it.
    hash_seed = str(args.seed % 4294967295 + 1)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # On SIGTERM, unwind through the workloads' cleanup, which stops the
    # fleet server, instead of dying with it still running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The fleet server shuts down on SIGINT.  A job started in the
    # background inherits SIGINT ignored, and so would the server.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench import checks, measure

    host_before = measure.ref_loop_ms()
    if args.workload == "fleet_mixed":
        from perfbench.fleet import fleet_mixed as run_workload
    else:
        from perfbench import inproc

        run_workload = getattr(inproc, args.workload)
    out = run_workload(args.seed, args.seconds, bool(args.trace))
    host_after = measure.ref_loop_ms()
    loop = out["loop"]

    for line in out["lines"]:
        print(f"{args.workload}: {line}")
    for problem in loop.problems:
        print(f"{args.workload}: FAILED {problem}")
    print(f"{args.workload}: host.ref_loop_ms before {host_before:.2f} after {host_after:.2f}")
    if max(host_before, host_after) > 1.25 * min(host_before, host_after):
        print(f"{args.workload}: HOST DRIFT: the reference loop changed speed during this run")

    try:
        path = checks.compare_work_record(
            ROOT / ".perfbench_state", args.workload, args.seed, out["record"]
        )
    except checks.WorkRecordMismatch as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(f"{args.workload}: work record matches {path.relative_to(ROOT)}")

    if args.trace:
        values = dict(out["layers"])
        values["host.ref_loop_ms"] = (host_before + host_after) / 2.0
        if args.workload != "fleet_mixed":
            print(f"{args.workload}: not on this path, reported as 0: {', '.join(FLEET_ONLY)}")
            values.update(dict.fromkeys(FLEET_ONLY, 0.0))
        units = LAYER_UNITS
    else:
        values = out["end_to_end"]
        units = END_TO_END_UNITS
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        print(f"{args.workload}: {name} = {'missing' if value is None else f'{value:.6g}'} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
