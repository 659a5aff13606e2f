"""Tests of the benchmark's own code (not of the program it measures)."""

from __future__ import annotations

import dataclasses
import re
import types
from pathlib import Path

import pytest

from perfbench import checks, measure, tracer, workload

HERE = Path(__file__).resolve().parent


def _defaults() -> dict:
    from repro.core import ProcessingConfiguration

    default = ProcessingConfiguration()
    return {f.name: getattr(default, f.name) for f in dataclasses.fields(default)}


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_configurations_set_only_problem_fields(seed):
    from repro.service.redesign_server import configuration_from_request

    assert set(workload.problem(seed)) == set(workload.PROBLEM_FIELDS)
    assert set(workload.fleet_problem(seed)) == set(workload.PROBLEM_FIELDS)
    defaults = _defaults()
    built = [
        workload.configuration(seed),
        configuration_from_request(workload.fleet_problem(seed)),
    ]
    for configuration in built:
        changed = {
            name
            for name, default in defaults.items()
            if getattr(configuration, name) != default
        }
        assert changed <= set(workload.PROBLEM_FIELDS), changed


def test_configurations_are_built_only_by_the_workload_module():
    pattern = re.compile(r"ProcessingConfiguration\(|configuration_from_request\(")
    for path in HERE.glob("*.py"):
        if path.name in ("workload.py", "test_perfbench.py"):
            continue
        assert not pattern.search(path.read_text()), path.name


def test_brute_force_skyline_keeps_ties_and_drops_dominated():
    points = [(1.0, 1.0), (2.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.0, 2.0), (2.0, 0.0)]
    assert checks.brute_force_skyline(points) == [0, 1, 2, 4, 5]
    assert checks.brute_force_skyline([]) == []


def test_skyline_check_does_not_use_the_program():
    source = (HERE / "checks.py").read_text()
    assert "from repro" not in source and "import repro" not in source


def test_tail_percentile_and_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    value, beyond = measure.tail(samples, 75)
    assert value == 30.0
    assert beyond == 10
    assert measure.percentile(samples, 50) == 20.0


def test_flow_set_is_seeded():
    first = [flow.name for flow in workload.flow_set(3, 4)]
    again = [flow.name for flow in workload.flow_set(3, 4)]
    other = [flow.name for flow in workload.flow_set(4, 4)]
    assert first == again
    assert first != other
    assert len(first) == 7
    assert workload.sizes(4) == [12, 18, 24, 30]


def test_loop_stops_on_a_pass_boundary(monkeypatch):
    from perfbench import inproc

    # Each plan takes one tick of a fake clock.
    clock = types.SimpleNamespace(now=0.0)
    monkeypatch.setattr(inproc, "time", types.SimpleNamespace(perf_counter=lambda: clock.now))

    def plan_one(index, flow):
        clock.now += 1.0
        return 1.0, 1.0

    flows = ["a", "b", "c"]
    assert inproc._run_loop(inproc.Loop(tail_pct=50), flows, 0.0, False, None, plan_one) == 3
    loop = inproc.Loop(tail_pct=50)
    # The time is up after 5 plans, inside the second pass; the pass ends.
    end = inproc._run_loop(loop, flows, 4.5, False, None, plan_one, index=3)
    assert end == 9 and len(loop.walls) == 6


def test_fleet_stream_mixes_two_repeats_per_fresh_flow():
    stream = workload.fleet_stream(5, 4)
    kinds = [next(stream)[0] for _ in range(12)]
    assert kinds == ["hit", "hit", "miss"] * 4


def test_missing_hook_is_reported_not_zero():
    hooks = [
        tracer.Hook("plan", "repro.core.planner", "Planner", "plan", tracer.ROOT),
        tracer.Hook("rank", "repro.core.planner", None, "no_such_function"),
    ]
    probe = tracer.Tracer(hooks)
    probe.install()
    probe.uninstall()
    metrics, missing = tracer.layer_metrics(probe.snapshot(), expect_simulation=False)
    assert "rank" in missing
    assert metrics["rank.ms_per_plan"] is None


def test_hooks_are_restored():
    from repro.core import planner

    original = planner.pareto_front_profiles
    probe = tracer.Tracer(tracer.planner_hooks("repro.cache.memory", "ProfileCache"))
    probe.install()
    assert planner.pareto_front_profiles is not original
    probe.uninstall()
    assert planner.pareto_front_profiles is original
    assert not probe.missing
