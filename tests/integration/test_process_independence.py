"""Properties that only show across fresh interpreters.

* Plans must not depend on ``PYTHONHASHSEED``: string hashing orders
  sets, and a float sum over a set, or a tie broken in set order,
  changes results in the last place, which can flip a fitness tie and
  with it the alternative space.
* The planner's import path must stay free of the network cache tier
  (``repro.cache.http`` pulls in ``repro.wire``, ``http.client`` and
  ``ssl``), which only the network tiers use.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"

_PLAN = """
import hashlib, json
from repro.core import Planner, ProcessingConfiguration
from repro.workloads import RandomFlowConfig, random_flow

flow = random_flow(RandomFlowConfig(operations=18, seed=918570938))
result = Planner(configuration=ProcessingConfiguration(
    pattern_budget=2, max_points_per_pattern=2, simulation_runs=3, seed=101,
)).plan(flow)
print(json.dumps({
    "alternatives": len(result.alternatives),
    "skyline": len(result.skyline_indices),
    "fingerprint": hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest(),
}))
"""

_IMPORTS = """
import json, sys
import repro.core
repro.core.Planner()
print(json.dumps(sorted(m for m in ("http.client", "ssl", "repro.wire") if m in sys.modules)))
"""


def _run(code: str, hash_seed: str = "0") -> object:
    env = dict(os.environ, PYTHONPATH=str(_SRC), PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_plans_are_independent_of_the_hash_seed():
    plans = {seed: _run(_PLAN, seed) for seed in ("0", "5")}
    assert plans["0"] == plans["5"], plans


def test_planner_import_path_skips_the_network_tier():
    assert _run(_IMPORTS) == []
