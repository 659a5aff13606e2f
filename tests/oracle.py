"""Reference implementations the planner's fast paths are checked against.

The planner generates alternatives copy-on-write, reuses the prefix of
consecutive pattern combinations, validates incrementally and keys its
profile cache on an incrementally kept SHA-256 content digest.  This
module keeps the straightforward versions of those paths, used only by
tests:

* :func:`flow_fingerprint` -- the full re-walk content fingerprint of a
  flow, a tuple over exactly the fields the content digest hashes;
* :class:`OracleGenerator` -- every combination re-applied from scratch
  on deep copies, validated with the full validator;
* :func:`oracle_planner` -- a planner running both of them, whose plans
  the real planner must reproduce byte for byte.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.core.alternatives import AlternativeFlow, AlternativeGenerator
from repro.core.configuration import ProcessingConfiguration
from repro.core.planner import Planner
from repro.etl.graph import ETLGraph
from repro.etl.validation import is_valid
from repro.patterns.base import PatternApplication
from repro.quality.estimator import QualityEstimator


def flow_fingerprint(flow: ETLGraph) -> tuple:
    """A hashable content fingerprint of everything that influences measures.

    Strictly finer than :meth:`ETLGraph.signature`: it also covers operation
    properties (costs, selectivities, rates), operation configs and
    schemas, and graph annotations.  The flow *name* and pattern lineage
    are excluded.  Two flows have equal fingerprints exactly when they
    have equal :meth:`ETLGraph.content_digest`.
    """
    ops = []
    for op in flow.operations():
        props = op.properties
        ops.append(
            (
                op.op_id,
                op.kind.value,
                op.parallelism,
                tuple((f.name, f.dtype.value, f.nullable, f.key) for f in op.output_schema.fields),
                tuple(sorted((str(k), repr(v)) for k, v in op.config.items())),
                props.cost_per_tuple,
                props.fixed_cost,
                props.selectivity,
                props.error_rate,
                props.null_rate,
                props.duplicate_rate,
                props.failure_rate,
                props.memory_per_tuple,
                props.freshness_lag,
                props.update_frequency,
                props.monetary_cost,
                tuple(sorted((str(k), repr(v)) for k, v in props.extra.items())),
            )
        )
    ops.sort()
    return (
        tuple(ops),
        tuple(sorted((e.source, e.target) for e in flow.edges())),
        tuple(sorted((str(k), repr(v)) for k, v in flow.annotations.items())),
    )


class OracleGenerator(AlternativeGenerator):
    """Deep copies, no prefix reuse, full validation of every candidate.

    Enumerates exactly like :class:`AlternativeGenerator` -- same
    deployments, same combination order, same pruning -- but applies each
    combination from scratch on deep copies of the caller's flow.
    ``patterns_applied`` counts the successful ``pattern.apply`` calls of
    the last run.
    """

    patterns_applied = 0

    def generate_iter(self, flow: ETLGraph) -> Iterator[AlternativeFlow]:
        config = self.configuration
        self.patterns_applied = 0
        # A deep copy defaults every later copy() to deep as well, even
        # when the caller hands in a copy-on-write flow.
        base = flow.copy(mode="deep")
        deployments = self.candidate_deployments(base)
        produced = 0
        seen_signatures = {base.signature()}
        for combo_size in range(1, config.pattern_budget + 1):
            for combo in itertools.combinations(deployments, combo_size):
                if produced >= config.max_alternatives:
                    return
                if not self._combination_is_reasonable(combo):
                    continue
                current = base
                applied: list[PatternApplication] = []
                for deployment in combo:
                    point = self._refresh_point(current, deployment)
                    if point is None:
                        continue
                    try:
                        current = deployment.pattern.apply(current, point)
                    except (KeyError, ValueError):
                        continue
                    self.patterns_applied += 1
                    applied.append(PatternApplication(deployment.pattern.name, point))
                if not applied or not is_valid(current):
                    continue
                current.name = f"{base.name}__{'+'.join(app.pattern for app in applied)}"
                signature = current.signature()
                if signature in seen_signatures:
                    continue
                seen_signatures.add(signature)
                produced += 1
                yield AlternativeFlow(
                    flow=current, applications=tuple(applied), label=f"ETL Flow {produced}"
                )


def fingerprint_cache_key(estimator: QualityEstimator, flow: ETLGraph) -> tuple:
    """The tuple cache key: full fingerprint, settings and registry."""
    registry = tuple(sorted((m.name, m.weight, m.requires_trace) for m in estimator.registry))
    return (flow_fingerprint(flow), estimator.settings.fingerprint(), registry)


def oracle_planner(configuration: ProcessingConfiguration | None = None, **kwargs) -> Planner:
    """A planner on the oracle generator with ``flow_fingerprint`` cache keys.

    Only meaningful with an in-memory cache (tuple keys are not digests).
    """
    planner = Planner(configuration=configuration, **kwargs)
    planner.generator = OracleGenerator(
        palette=planner.palette, policy=planner.policy, configuration=planner.configuration
    )
    for estimator in (planner.estimator, planner.screening_estimator):
        estimator.cache_key = lambda flow, estimator=estimator: fingerprint_cache_key(
            estimator, flow
        )
    return planner


def stream_outcome(alternatives) -> list[tuple]:
    """The observable identity of an alternative stream."""
    return [
        (
            alt.label,
            alt.pattern_names,
            alt.flow.name,
            alt.flow.signature(),
            flow_fingerprint(alt.flow),
        )
        for alt in alternatives
    ]
