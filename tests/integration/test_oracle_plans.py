"""Whole plans against the reference planner of ``tests/oracle.py``.

The planner generates copy-on-write with prefix reuse and keys its
profile cache on the incrementally kept content digest; the oracle
re-applies every combination on deep copies and keys on the full-walk
``flow_fingerprint``.  Plans -- alternatives, profiles, skyline -- and
the cache traffic must be identical, on a cold plan and on a warm
re-plan, for the three paper flows and seeded random flows.
"""

from __future__ import annotations

import pytest

from repro.core import Planner, ProcessingConfiguration
from repro.workloads import (
    RandomFlowConfig,
    purchases_flow,
    random_flow,
    tpcds_sales_flow,
    tpch_refresh_flow,
)
from tests.oracle import oracle_planner

_FLOWS = {
    "tpch": lambda: tpch_refresh_flow(scale=0.02),
    "tpcds": lambda: tpcds_sales_flow(),
    "purchases": lambda: purchases_flow(rows_per_source=2_000),
    "random-18": lambda: random_flow(RandomFlowConfig(operations=18, seed=918570938)),
    "random-25": lambda: random_flow(RandomFlowConfig(operations=25, seed=3)),
}


@pytest.mark.parametrize("name", sorted(_FLOWS))
def test_plans_match_the_deep_unprefixed_fingerprint_keyed_oracle(name):
    flow = _FLOWS[name]()
    configuration = ProcessingConfiguration(
        pattern_budget=2, max_points_per_pattern=2, simulation_runs=1, seed=101
    )
    planner = Planner(configuration=configuration)
    oracle = oracle_planner(configuration)
    for _ in range(2):  # a cold plan, then a warm re-plan
        result = planner.plan(flow)
        reference = oracle.plan(flow)
        assert result.fingerprint() == reference.fingerprint()
        assert [a.flow.name for a in result.alternatives] == [
            a.flow.name for a in reference.alternatives
        ]
        assert planner.profile_cache.stats.as_dict() == oracle.profile_cache.stats.as_dict()
