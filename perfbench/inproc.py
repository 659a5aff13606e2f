"""The in-process workloads: ``cold_plan`` and ``warm_replan``.

Both are closed loops with one caller, because a designer waits for
each skyline.  ``cold_plan`` builds a fresh :class:`Planner` for every
plan, so every profile misses its cache and the simulator and measures
do the work.  ``warm_replan`` keeps one planner whose memory tier a
warm-up pass filled during set-up, so no profile is simulated and
generation, fingerprinting and ranking do the work.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from perfbench import checks, measure, workload
from perfbench.tracer import Tracer, layer_metrics, planner_hooks, reconcile

#: Generated flows per run beside the three paper flows.  More flows
#: steady the median over seeds; a warm pass is kept short, so that a
#: run holds several whole passes.
COLD_GENERATED = 29
WARM_GENERATED = 9
#: Set-ups per run; ``setup_s`` is their median.
COLD_SETUPS = 5
WARM_SETUPS = 2

_COLD_SETUP = (
    "import sys; sys.path[:0] = ['src', '.']; "
    "from perfbench import workload; from repro.core import Planner; "
    "workload.flow_set({seed}, {generated}); Planner(configuration=workload.configuration({seed}))"
)


class Loop:
    """Latency, CPU and outcome of every plan of one closed loop."""

    def __init__(self, tail_pct: float) -> None:
        self.tail_pct = tail_pct
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.traced: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
        tail, _ = measure.tail(self.walls, self.tail_pct)
        return {
            "setup_s": setup_s,
            "plans_per_s": len(self.walls) / sum(self.walls),
            "plan_p50_ms": statistics.median(self.walls) * 1000.0,
            "plan_tail_ms": tail * 1000.0,
            "cpu_ms_per_plan": sum(self.cpus) / len(self.cpus) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }

    def describe(self) -> str:
        _, beyond = measure.tail(self.walls, self.tail_pct)
        return (
            f"{len(self.walls)} timed plans; plan_tail_ms is p{self.tail_pct:g} "
            f"with {beyond} samples beyond it"
        )


def _timed_plan(planner_factory, flow):
    wall = time.perf_counter()
    cpu = time.process_time()
    planner = planner_factory()
    result = planner.plan(flow)
    return result, planner, time.perf_counter() - wall, time.process_time() - cpu


def _entry(flow, result, planner, hits_before=0, misses_before=0, stored_before=0) -> dict:
    stats = planner.profile_cache.stats
    return {
        "flow": flow.name,
        "alternatives": len(result.alternatives) + result.discarded_by_constraints,
        "skyline": len(result.skyline_indices),
        "cache_hits": stats.hits - hits_before,
        "cache_misses": stats.misses - misses_before,
        "profiles_simulated": len(planner.profile_cache) - stored_before,
    }


def _check(loop: Loop, flow, result, expected_digest: str | None) -> str:
    found = checks.digest(result.fingerprint())
    problem = checks.skyline_problem(result)
    if problem is None and expected_digest is not None and found != expected_digest:
        problem = "result differs from the first plan of this flow"
    if problem is not None:
        loop.fail(f"{flow.name}: {problem}")
    return found


def _tracer() -> Tracer:
    return Tracer(planner_hooks("repro.cache.memory", "ProfileCache"))


def _traced_turn(trace: bool, index: int, size: int) -> bool:
    """Alternate traced and untraced plans so both see every flow."""
    return trace and (index + index // size) % 2 == 1


def _layer_output(loop: Loop, tracer: Tracer, expect_simulation: bool, lines: list[str]):
    snapshot = tracer.snapshot()
    metrics, missing = layer_metrics(snapshot, expect_simulation)
    traced = [wall for wall, on in zip(loop.walls, loop.traced) if on]
    untraced = [wall for wall, on in zip(loop.walls, loop.traced) if not on]
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(untraced) if traced and untraced else None
    )
    for layer in missing:
        lines.append(f"MISSING layer {layer}: its hook is gone or was never called")
    return metrics, snapshot


def _run_loop(loop, flows, seconds, trace, tracer, plan_one, index=0) -> int:
    """Plan ``flows`` round-robin in whole passes (at least one) until
    ``seconds`` are up.

    Flows differ in size, so a run that stopped inside a pass would time
    a mix of flows that depends on where it stopped, and its median
    would move with that mix.  ``index`` numbers the plans across calls;
    returns the next number.
    """
    deadline = time.perf_counter() + seconds
    first = index
    while index == first or (index - first) % len(flows) or time.perf_counter() < deadline:
        flow = flows[index % len(flows)]
        traced = _traced_turn(trace, index, len(flows))
        loop.attempted += 1
        if traced:
            tracer.install()
        try:
            wall, cpu = plan_one(index, flow)
        except Exception:  # a plan that raises is a failed plan, not a crash
            loop.fail(f"{flow.name}: {traceback.format_exc(limit=3)}")
        else:
            loop.walls.append(wall)
            loop.cpus.append(cpu)
            loop.traced.append(traced)
        finally:
            if traced:
                tracer.uninstall()
        index += 1
    return index


def _cold_setup(seed: int) -> float:
    """Seconds a fresh interpreter takes to import the planner, build the
    flow set and construct a first planner."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _COLD_SETUP.format(seed=seed, generated=COLD_GENERATED)],
        cwd=Path.cwd(),
    )
    # wait(timeout=...) polls in steps of up to 50 ms, which would
    # quantize the set-up time; a timer kills a stuck child instead.
    watchdog = threading.Timer(60.0, child.kill)
    watchdog.start()
    try:
        returncode = child.wait()
    finally:
        watchdog.cancel()
    if returncode != 0:
        raise RuntimeError(f"cold set-up exited with code {returncode}")
    return time.perf_counter() - start


def cold_plan(seed: int, seconds: float, trace: bool) -> dict:
    from repro.core import Planner

    flows = workload.flow_set(seed, COLD_GENERATED)
    config = workload.configuration(seed)
    # A cold caller starts from a fresh interpreter.  The set-ups are
    # spread over the first pass of plans, which every run completes, so
    # that setup_s samples the host across the run rather than its start.
    setup_at = {k * len(flows) // COLD_SETUPS for k in range(COLD_SETUPS)}
    setups = []

    loop = Loop(tail_pct=65)
    tracer = _tracer()
    first: dict[str, str] = {}
    record: list[dict] = []

    def plan_one(index: int, flow) -> tuple[float, float]:
        if index in setup_at:
            setups.append(_cold_setup(seed))
        result, planner, wall, cpu = _timed_plan(lambda: Planner(configuration=config), flow)
        found = _check(loop, flow, result, first.get(flow.name))
        first.setdefault(flow.name, found)
        if index < len(flows):
            record.append(_entry(flow, result, planner))
        return wall, cpu

    _run_loop(loop, flows, seconds, trace, tracer, plan_one)
    lines = [loop.describe()]
    out = {"loop": loop, "record": {"plans": record}, "lines": lines}
    if trace:
        metrics, snapshot = _layer_output(loop, tracer, True, lines)
        for problem in reconcile(snapshot):
            loop.fail(f"reconcile on cold plans: {problem}")
        out["layers"] = metrics
    else:
        out["end_to_end"] = loop.end_to_end(statistics.median(setups), measure.own_peak_rss_mb())
    return out


def warm_replan(seed: int, seconds: float, trace: bool) -> dict:
    from repro.core import Planner

    loop = Loop(tail_pct=85)
    tracer = _tracer()
    setups = []
    warmups: list[tuple[list[dict], dict[str, str]]] = []
    record: list[dict] = []
    index = 0
    for _ in range(WARM_SETUPS):
        start = time.perf_counter()
        flows = workload.flow_set(seed, WARM_GENERATED)
        planner = Planner(configuration=workload.configuration(seed))
        warm: list[dict] = []
        first: dict[str, str] = {}
        for flow in flows:
            stats = planner.profile_cache.stats
            hits, misses, stored = stats.hits, stats.misses, len(planner.profile_cache)
            result = planner.plan(flow)
            warm.append(_entry(flow, result, planner, hits, misses, stored))
            first[flow.name] = checks.digest(result.fingerprint())
            problem = checks.skyline_problem(result)
            if problem is not None:
                loop.fail(f"warm-up {flow.name}: {problem}")
        setups.append(time.perf_counter() - start)
        warmups.append((warm, first))

        def plan_one(index: int, flow, planner=planner, first=first) -> tuple[float, float]:
            stats = planner.profile_cache.stats
            hits, misses, stored = stats.hits, stats.misses, len(planner.profile_cache)
            result, _, wall, cpu = _timed_plan(lambda: planner, flow)
            _check(loop, flow, result, first[flow.name])
            if index < len(flows):
                record.append(_entry(flow, result, planner, hits, misses, stored))
            return wall, cpu

        # Each warmed planner gets its share of the run right after its
        # set-up, so the timed plans sample the host across the whole run
        # (set-ups included) rather than one stretch of it.
        index = _run_loop(loop, flows, seconds / WARM_SETUPS, trace, tracer, plan_one, index)
        # Free this planner before the next set-up builds another one.
        del planner, plan_one
    if any(warmup != warmups[0] for warmup in warmups):
        loop.fail("the repeated warm-up passes did different work")

    lines = [loop.describe()]
    out = {"loop": loop, "record": {"warm_up": warmups[0][0], "replans": record}, "lines": lines}
    if trace:
        out["layers"], _ = _layer_output(loop, tracer, False, lines)
    else:
        out["end_to_end"] = loop.end_to_end(statistics.median(setups), measure.own_peak_rss_mb())
    return out
