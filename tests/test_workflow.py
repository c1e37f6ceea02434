"""Unit tests for the blocking workflow filter and its baselines."""

import pytest

from repro.blocking.building import StandardBlocking
from repro.blocking.metablocking import MetaBlocking
from repro.blocking.workflow import (
    BlockingWorkflow,
    default_workflow,
    parameter_free_workflow,
)
from repro.core.metrics import pair_completeness


class TestBlockingWorkflow:
    def test_basic_run(self, left_collection, right_collection, groundtruth):
        workflow = BlockingWorkflow(StandardBlocking())
        candidates = workflow.candidates(left_collection, right_collection)
        assert pair_completeness(candidates, groundtruth) == 1.0

    def test_phase_timer_records_steps(self, left_collection, right_collection):
        workflow = BlockingWorkflow(
            StandardBlocking(), purging=True, filtering_ratio=0.5
        )
        workflow.candidates(left_collection, right_collection)
        phases = workflow.trace.as_dict()
        assert set(phases) == {"build", "purge", "filter", "clean"}
        assert all(v >= 0 for v in phases.values())

    def test_optional_steps_omitted_from_timer(
        self, left_collection, right_collection
    ):
        workflow = BlockingWorkflow(StandardBlocking())
        workflow.candidates(left_collection, right_collection)
        assert set(workflow.trace.as_dict()) == {"build", "clean"}

    def test_filtering_ratio_one_disables_step(self):
        workflow = BlockingWorkflow(StandardBlocking(), filtering_ratio=1.0)
        assert workflow.filtering is None

    def test_metablocking_cleaner(self, left_collection, right_collection):
        workflow = BlockingWorkflow(
            StandardBlocking(), cleaner=MetaBlocking("CBS", "WEP")
        )
        candidates = workflow.candidates(left_collection, right_collection)
        assert len(candidates) > 0

    def test_schema_based_setting(self, left_collection, right_collection):
        workflow = BlockingWorkflow(StandardBlocking())
        agnostic = workflow.candidates(left_collection, right_collection)
        based = workflow.candidates(left_collection, right_collection, "title")
        # Schema-based considers less text, so no more candidates.
        assert len(based) <= len(agnostic)

    def test_describe_lists_steps(self):
        workflow = BlockingWorkflow(
            StandardBlocking(), purging=True, filtering_ratio=0.5
        )
        description = workflow.describe()
        assert "standard" in description
        assert "block-purging" in description
        assert "block-filtering" in description

    def test_not_stochastic(self):
        assert not BlockingWorkflow(StandardBlocking()).is_stochastic


class TestBaselines:
    def test_pbw_components(self):
        workflow = parameter_free_workflow()
        assert isinstance(workflow.builder, StandardBlocking)
        assert workflow.purging is not None
        assert workflow.filtering is None

    def test_pbw_high_recall(self, small_generated):
        workflow = parameter_free_workflow()
        candidates = workflow.candidates(
            small_generated.left, small_generated.right
        )
        assert pair_completeness(candidates, small_generated.groundtruth) >= 0.9

    def test_dbw_components(self):
        workflow = default_workflow()
        assert workflow.builder.q == 6
        assert workflow.filtering is not None
        assert workflow.filtering.ratio == 0.5
        assert isinstance(workflow.cleaner, MetaBlocking)
        assert workflow.cleaner.scheme == "ECBS"
        assert workflow.cleaner.pruning == "WEP"

    def test_dbw_runs(self, small_generated):
        candidates = default_workflow().candidates(
            small_generated.left, small_generated.right
        )
        assert len(candidates) > 0

    def test_deterministic_across_runs(self, small_generated):
        workflow = parameter_free_workflow()
        first = workflow.candidates(small_generated.left, small_generated.right)
        second = workflow.candidates(small_generated.left, small_generated.right)
        assert first == second
