"""Tests of copy-on-write alternative generation and the planner knobs.

Covers equivalence of the generated space with the deep-copy oracle
(:class:`tests.oracle.OracleGenerator`), the annotation-aware dedup
regression (graph-level patterns must survive), :class:`GenerationStats`,
the ``backend`` knob, and process workers receiving COW flows by pickle.
"""

from __future__ import annotations

import pytest

from repro.core.alternatives import AlternativeGenerator, GenerationStats
from repro.core.configuration import ProcessingConfiguration
from repro.core.evaluator import ParallelEvaluator
from repro.core.policies import ExhaustivePolicy, HeuristicPolicy
from repro.etl.validation import is_valid
from repro.patterns.registry import default_palette
from repro.quality.estimator import EstimationSettings, QualityEstimator
from tests.oracle import OracleGenerator, oracle_planner


def _generate(flow, mode, **overrides):
    """Generate with the planner's generator (``"cow"``) or the oracle (``"deep"``)."""
    defaults = dict(pattern_budget=2, max_points_per_pattern=2)
    defaults.update(overrides)
    config = ProcessingConfiguration(**defaults)
    generator_class = OracleGenerator if mode == "deep" else AlternativeGenerator
    generator = generator_class(default_palette(), HeuristicPolicy(), config)
    return generator.generate(flow), generator


class TestCowDeepEquivalence:
    def test_identical_alternative_streams(self, small_purchases):
        deep, _ = _generate(small_purchases, "deep")
        cow, _ = _generate(small_purchases, "cow")
        assert [a.label for a in deep] == [a.label for a in cow]
        assert [a.pattern_names for a in deep] == [a.pattern_names for a in cow]
        assert [a.flow.signature() for a in deep] == [a.flow.signature() for a in cow]

    def test_identical_with_budget_three(self, small_purchases):
        deep, _ = _generate(small_purchases, "deep", pattern_budget=3, max_alternatives=300)
        cow, _ = _generate(small_purchases, "cow", pattern_budget=3, max_alternatives=300)
        assert [a.flow.signature() for a in deep] == [a.flow.signature() for a in cow]

    def test_cow_alternatives_are_valid_and_self_contained(self, small_purchases):
        cow, _ = _generate(small_purchases, "cow")
        for alternative in cow:
            assert is_valid(alternative.flow)
        # mutating one alternative must not bleed into any other
        first = cow[0].flow
        target = first.operation_ids()[0]
        first.mutable_operation(target).config["marker"] = True
        assert "marker" not in small_purchases.operation(target).config
        for other in cow[1:]:
            if target in other.flow:
                assert "marker" not in other.flow.operation(target).config

    def test_initial_flow_untouched_by_cow_generation(self, small_purchases):
        before = small_purchases.signature()
        _generate(small_purchases, "cow")
        assert small_purchases.signature() == before

    def test_caller_flow_never_payload_aliased(self, small_purchases):
        # After COW generation, the seed idiom of mutating the caller's
        # deep flow directly must not bleed into any returned alternative.
        cow, _ = _generate(small_purchases, "cow")
        target = small_purchases.operation_ids()[0]
        assert all(
            alt.flow.operation(target) is not small_purchases.operation(target)
            for alt in cow
            if target in alt.flow
        )
        small_purchases.operation(target).config["marker"] = "caller-write"
        for alt in cow:
            if target in alt.flow:
                assert "marker" not in alt.flow.operation(target).config

    def test_interleaved_lazy_runs_keep_separate_state(self, small_purchases, tpch_flow):
        # Two partially consumed generate_iter runs on the same generator
        # must each validate against their own base flow.
        config = ProcessingConfiguration(pattern_budget=2, max_points_per_pattern=2)
        generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), config)
        first = generator.generate_iter(small_purchases)
        second = generator.generate_iter(tpch_flow)
        interleaved = []
        for _ in range(5):
            interleaved.append(next(first))
            interleaved.append(next(second))
        interleaved.extend(first)
        interleaved.extend(second)
        assert all(is_valid(alt.flow) for alt in interleaved)
        solo = [a.flow.signature() for a in _generate(small_purchases, "cow")[0]]
        a_sigs = [
            a.flow.signature()
            for a in interleaved
            if a.flow.name.startswith(small_purchases.name)
        ]
        assert a_sigs == solo

    def test_planner_plan_equivalent_across_modes(self, small_purchases, make_planner):
        cow = make_planner().plan(small_purchases)
        deep = oracle_planner(make_planner().configuration).plan(small_purchases)
        assert deep.fingerprint() == cow.fingerprint()
        assert [a.label for a in deep.alternatives] == [a.label for a in cow.alternatives]
        assert [a.flow.signature() for a in deep.alternatives] == [
            a.flow.signature() for a in cow.alternatives
        ]
        assert deep.skyline_indices == cow.skyline_indices
        for d, c in zip(deep.alternatives, cow.alternatives):
            assert d.profile.scores == c.profile.scores


class TestGraphLevelDedupRegression:
    """Annotation-only patterns must survive signature deduplication."""

    def test_graph_level_pattern_survives(self, small_purchases):
        config = ProcessingConfiguration(
            pattern_budget=1,
            max_points_per_pattern=2,
            pattern_names=("EncryptDataFlow",),
        )
        generator = AlternativeGenerator(default_palette(), ExhaustivePolicy(), config)
        alternatives = generator.generate(small_purchases)
        assert len(alternatives) == 1
        assert alternatives[0].pattern_names == ("EncryptDataFlow",)
        assert alternatives[0].flow.annotations.get("encryption") is True

    def test_structure_plus_annotation_combo_not_pruned(self, small_purchases):
        config = ProcessingConfiguration(
            pattern_budget=2,
            max_points_per_pattern=1,
            pattern_names=("AddCheckpoint", "EncryptDataFlow"),
        )
        generator = AlternativeGenerator(default_palette(), ExhaustivePolicy(), config)
        names = {alt.pattern_names for alt in generator.generate(small_purchases)}
        assert ("AddCheckpoint",) in names
        assert ("EncryptDataFlow",) in names
        assert ("AddCheckpoint", "EncryptDataFlow") in names

    def test_same_annotation_twice_is_still_pruned(self, small_purchases):
        # two alternatives with identical structure AND identical
        # annotations remain duplicates
        config = ProcessingConfiguration(
            pattern_budget=2,
            max_points_per_pattern=4,
            pattern_names=("EncryptDataFlow",),
        )
        generator = AlternativeGenerator(default_palette(), ExhaustivePolicy(), config)
        assert len(generator.generate(small_purchases)) == 1


class TestGenerationStats:
    def test_stats_filled_in(self, small_purchases):
        _, generator = _generate(small_purchases, "cow")
        stats = generator.last_stats
        assert isinstance(stats, GenerationStats)
        assert stats.yielded > 0
        assert stats.combinations_tried >= stats.yielded
        assert stats.wall_seconds > 0
        assert stats.candidates_per_second > 0
        payload = stats.as_dict()
        assert payload["yielded"] == stats.yielded

    def test_stats_track_duplicates(self, small_purchases):
        _, generator = _generate(
            small_purchases, "cow", pattern_budget=2, max_points_per_pattern=4
        )
        stats = generator.last_stats
        assert stats.duplicates_pruned >= 0
        assert stats.combinations_tried == (
            stats.yielded + stats.duplicates_pruned + stats.invalid_discarded
        )


class TestBackendKnob:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            ProcessingConfiguration(backend="greenlet")

    def test_invalid_copy_mode_rejected(self):
        # Copy-on-write is the only copy semantic: the knob is gone.
        with pytest.raises(TypeError):
            ProcessingConfiguration(copy_mode="shallow")

    def test_planner_wires_backend_through(self, make_planner):
        planner = make_planner(backend="process", parallel_workers=2)
        assert planner.evaluator.backend == "process"
        assert planner.screening_evaluator.backend == "process"

    def test_default_backend_is_thread(self, make_planner):
        planner = make_planner()
        assert planner.evaluator.backend == "thread"

    @pytest.mark.slow
    def test_process_backend_evaluates_cow_alternatives(self, small_purchases):
        # COW flows must pickle (materialize-on-pickle) into pool workers
        alternatives, _ = _generate(small_purchases, "cow", max_alternatives=4)
        estimator = QualityEstimator(settings=EstimationSettings(simulation_runs=1, seed=3))
        evaluator = ParallelEvaluator(estimator=estimator, workers=2, backend="process")
        evaluated = evaluator.evaluate(alternatives)
        assert all(alt.profile is not None for alt in evaluated)

    @pytest.mark.slow
    def test_planner_process_backend_end_to_end(self, small_purchases, make_planner):
        planner = make_planner(backend="process", parallel_workers=2, max_alternatives=6)
        result = planner.plan(small_purchases)
        assert result.alternatives
        assert all(alt.profile is not None for alt in result.alternatives)
