"""Alternative generation rate on the TPC-H refresh workload.

Generation has one path: the caller's flow is deep-copied once and every
candidate forks copy-on-write from that snapshot, records a structured
delta, is validated only in the delta neighbourhood, is deduplicated via
incrementally maintained signatures, and extends the deepest cached
prefix of the previous combination instead of re-applying it.  This
benchmark times that path on an exhaustive ``pattern_budget=3``
enumeration and reports candidates/sec, the application/validation time
split and prefix-reuse counters from
:class:`~repro.core.alternatives.GenerationStats`, plus the cost of the
profile-cache key (``QualityEstimator.cache_key``, an incrementally kept
content digest) over every generated candidate.

The deep-copy, unprefixed enumeration it replaced lives on only as the
test suite's oracle (``tests/oracle.py``), which asserts the generated
stream is byte-identical to it.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_generation.py

or through pytest (``pytest benchmarks/bench_generation.py -s``).  The
test suite smoke-runs :func:`run_generation_bench` at tiny scale via
``benchmarks/run_all.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))

from repro.core.alternatives import AlternativeGenerator  # noqa: E402
from repro.core.configuration import ProcessingConfiguration  # noqa: E402
from repro.core.policies import HeuristicPolicy  # noqa: E402
from repro.patterns.registry import default_palette  # noqa: E402
from repro.quality.estimator import QualityEstimator  # noqa: E402
from repro.workloads import tpch_refresh_flow  # noqa: E402


def _run_once(flow, **knobs):
    """One generation run; returns (seconds, key seconds, alternatives, stats dict)."""
    configuration = ProcessingConfiguration(**knobs)
    generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), configuration)
    started = time.perf_counter()
    alternatives = generator.generate(flow)
    seconds = time.perf_counter() - started
    estimator = QualityEstimator()
    started = time.perf_counter()
    for alternative in alternatives:
        estimator.cache_key(alternative.flow)
    key_seconds = time.perf_counter() - started
    return seconds, key_seconds, alternatives, generator.last_stats.as_dict()


def run_generation_bench(
    flow=None,
    *,
    scale: float = 0.05,
    pattern_budget: int = 3,
    max_points_per_pattern: int = 3,
    max_alternatives: int = 1500,
    repeats: int = 3,
) -> dict:
    """Time generation and return a report.

    The run repeats ``repeats`` times; the reported wall-clock figures
    are medians, which keeps them robust against scheduler noise.
    """
    if flow is None:
        flow = tpch_refresh_flow(scale=scale)
    knobs = dict(
        pattern_budget=pattern_budget,
        max_points_per_pattern=max_points_per_pattern,
        max_alternatives=max_alternatives,
    )
    seconds: list[float] = []
    key_seconds: list[float] = []
    for _ in range(max(1, repeats)):
        elapsed, keyed, alternatives, stats = _run_once(flow, **knobs)
        seconds.append(elapsed)
        key_seconds.append(keyed)
    median_seconds = statistics.median(seconds)
    count = len(alternatives)
    return {
        "workload": flow.name,
        "flow_operations": flow.node_count,
        "flow_transitions": flow.edge_count,
        **knobs,
        "repeats": repeats,
        "seconds": median_seconds,
        "seconds_all": seconds,
        "alternatives": count,
        "candidates_per_second": count / median_seconds if median_seconds > 0 else 0.0,
        "key_microseconds_per_candidate": (
            1e6 * statistics.median(key_seconds) / count if count else 0.0
        ),
        "apply_seconds": stats["apply_seconds"],
        "validation_seconds": stats["validation_seconds"],
        "patterns_applied": stats["patterns_applied"],
        "prefix_hits": stats["prefix_hits"],
        "prefix_steps_reused": stats["prefix_steps_reused"],
        "stats": stats,
    }


def _render_report(report: dict) -> str:
    return "\n".join(
        [
            f"workload: {report['workload']}  ({report['flow_operations']} operations, "
            f"budget={report['pattern_budget']}, "
            f"max_points={report['max_points_per_pattern']})",
            f"generation: {report['seconds']:.3f} s for {report['alternatives']} "
            f"alternatives = {report['candidates_per_second']:.0f} cand/s "
            f"(apply {report['apply_seconds']:.2f} s, "
            f"validate {report['validation_seconds']:.2f} s)",
            f"prefix cache: {report['patterns_applied']} applications, "
            f"{report['prefix_steps_reused']} steps reused in "
            f"{report['prefix_hits']} combinations",
            f"cache key: {report['key_microseconds_per_candidate']:.1f} us per candidate",
        ]
    )


def test_generation_rate():
    """Report the generation rate on TPC-H (a measurement, not a gate)."""
    report = run_generation_bench()
    print()
    print("=" * 78)
    print("ARTIFACT: copy-on-write, prefix-reusing generation (TPC-H)")
    print("=" * 78)
    print(_render_report(report))
    assert report["alternatives"] > 0
    assert report["prefix_steps_reused"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--pattern-budget", type=int, default=3)
    parser.add_argument("--max-points", type=int, default=3)
    parser.add_argument("--max-alternatives", type=int, default=1500)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="emit the raw report as JSON")
    args = parser.parse_args(argv)
    report = run_generation_bench(
        scale=args.scale,
        pattern_budget=args.pattern_budget,
        max_points_per_pattern=args.max_points,
        max_alternatives=args.max_alternatives,
        repeats=args.repeats,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_render_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
