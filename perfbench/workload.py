"""Seeded benchmark inputs: flow sequences and planning requests.

Every input the benchmark feeds the program is made here from the
workload seed, so the same seed always plans the same flows in the same
order.  The load is configured only through problem-level fields -- the
flow and the four fields in :data:`PROBLEM_FIELDS` -- so implementation
knobs (copy mode, prefix cache, evaluation backend, cache tier, ...)
stay at the defaults a user gets.
"""

from __future__ import annotations

import random
from typing import Iterator

#: The only configuration fields the benchmark ever sets.
PROBLEM_FIELDS = ("pattern_budget", "max_points_per_pattern", "simulation_runs", "seed")

#: Problem size of every plan: two patterns deep, two placements per
#: pattern, three simulated executions per profile.
PATTERN_BUDGET = 2
MAX_POINTS_PER_PATTERN = 2
SIMULATION_RUNS = 3
#: The fleet workload's plans: one pattern, up to four placements.
FLEET_PATTERN_BUDGET = 1
FLEET_MAX_POINTS_PER_PATTERN = 4

#: Operation counts of the generated flows, spread evenly over 12-30.
MIN_OPERATIONS = 12
MAX_OPERATIONS = 30


def problem(seed: int) -> dict[str, int]:
    """The configuration document of every in-process plan of one run."""
    return {
        "pattern_budget": PATTERN_BUDGET,
        "max_points_per_pattern": MAX_POINTS_PER_PATTERN,
        "simulation_runs": SIMULATION_RUNS,
        "seed": seed,
    }


def fleet_problem(seed: int) -> dict[str, int]:
    """The request configuration of the fleet workload.

    One pattern per alternative keeps a result document near a megabyte,
    so the service, queue and wire layers carry a share of each plan.
    """
    return {
        "pattern_budget": FLEET_PATTERN_BUDGET,
        "max_points_per_pattern": FLEET_MAX_POINTS_PER_PATTERN,
        "simulation_runs": SIMULATION_RUNS,
        "seed": seed,
    }


def configuration(seed: int):
    """The in-process :class:`ProcessingConfiguration` of :func:`problem`."""
    from repro.core import ProcessingConfiguration

    return ProcessingConfiguration(**problem(seed))


def sizes(count: int) -> list[int]:
    """``count`` operation counts spread evenly over the 12-30 range."""
    if count == 1:
        return [MIN_OPERATIONS]
    span = MAX_OPERATIONS - MIN_OPERATIONS
    return [MIN_OPERATIONS + round(i * span / (count - 1)) for i in range(count)]


def paper_flows() -> list:
    """The paper's three flows: TPC-H refresh, TPC-DS sales, S_Purchases."""
    from repro.workloads import purchases_flow, tpcds_sales_flow, tpch_refresh_flow

    return [tpch_refresh_flow(), tpcds_sales_flow(), purchases_flow()]


def generated_flow(operations: int, flow_seed: int):
    from repro.workloads import RandomFlowConfig, random_flow

    return random_flow(RandomFlowConfig(operations=operations, seed=flow_seed))


def flow_set(seed: int, generated: int) -> list:
    """The three paper flows plus ``generated`` random flows, in seeded order.

    The random flows' sizes are fixed (:func:`sizes`); the seed picks
    their structure and the order of the whole set.
    """
    rng = random.Random(f"flow-set/{seed}")
    flows = paper_flows() + [
        generated_flow(n, rng.randrange(1, 2**31)) for n in sizes(generated)
    ]
    rng.shuffle(flows)
    return flows


def fresh_flows(seed: int) -> Iterator:
    """An endless seeded stream of never-seen random flows (sizes cycle)."""
    rng = random.Random(f"fresh/{seed}")
    cycle = sizes(7)
    index = 0
    while True:
        yield generated_flow(cycle[index % len(cycle)], rng.randrange(2**31, 2**32))
        index += 1


def fleet_popular(seed: int) -> list:
    """The popular set of the fleet workload: the paper flows plus one random flow."""
    rng = random.Random(f"popular/{seed}")
    return paper_flows() + [generated_flow(18, rng.randrange(1, 2**31))]


def fleet_stream(seed: int, popular: int) -> Iterator[tuple[str, int | None]]:
    """The fleet request stream as ``(kind, popular index)`` pairs.

    Two repeats of the popular set for every never-seen flow; the
    repeats walk the popular set in a seeded order.  The ratio is an
    assumption, not taken from a measured request stream; README.md
    gives its reason and the plan time each path takes.
    """
    rng = random.Random(f"stream/{seed}")
    order: list[int] = []
    while True:
        for kind in ("hit", "hit", "miss"):
            if kind == "miss":
                yield "miss", None
                continue
            if not order:
                order = list(range(popular))
                rng.shuffle(order)
            yield "hit", order.pop()
