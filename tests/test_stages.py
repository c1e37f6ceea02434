"""Tests for the structured stage trace (repro.core.stages)."""

import time

import pytest

from repro.core.stages import (
    BLOCKING_STAGES,
    BUILD,
    CLEAN,
    FILTER,
    INDEX,
    NN_STAGES,
    PREPROCESS,
    PURGE,
    QUERY,
    Stage,
    StageTrace,
)


class TestSchemas:
    def test_blocking_schema(self):
        assert BLOCKING_STAGES == (BUILD, PURGE, FILTER, CLEAN)
        assert [s.name for s in BLOCKING_STAGES] == [
            "build", "purge", "filter", "clean"
        ]

    def test_nn_schema(self):
        assert NN_STAGES == (PREPROCESS, INDEX, QUERY)
        assert [s.name for s in NN_STAGES] == ["preprocess", "index", "query"]

    def test_stage_is_frozen(self):
        with pytest.raises(AttributeError):
            BUILD.name = "other"


class TestStageTrace:
    def test_records_seconds_and_entries(self):
        trace = StageTrace()
        with trace.stage(BUILD):
            time.sleep(0.002)
        record = trace.record(BUILD)
        assert record.entries == 1
        assert record.seconds > 0.0
        assert trace.as_dict() == {"build": record.seconds}

    def test_accepts_stage_or_string(self):
        trace = StageTrace()
        with trace.stage(BUILD):
            pass
        with trace.stage("build"):
            pass
        assert trace.record("build").entries == 2

    def test_reentry_accumulates(self):
        trace = StageTrace()
        for __ in range(3):
            with trace.stage(QUERY):
                time.sleep(0.001)
        record = trace.record(QUERY)
        assert record.entries == 3
        assert record.seconds >= 0.003
        # Still a single top-level entry in the flat view.
        assert list(trace.as_dict()) == ["query"]

    def test_nested_stages_do_not_double_count(self):
        trace = StageTrace()
        with trace.stage(BUILD):
            with trace.stage(PURGE):
                time.sleep(0.002)
        # The nested stage lives under its parent, not at top level.
        assert list(trace.as_dict()) == ["build"]
        parent = trace.record(BUILD)
        child = parent.children["purge"]
        assert child.entries == 1
        assert parent.seconds >= child.seconds
        assert trace.total == parent.seconds
        # Exclusive time subtracts the nested child.
        assert parent.exclusive_seconds == pytest.approx(
            parent.seconds - child.seconds
        )

    def test_nested_reentry_accumulates_in_parent_scope(self):
        trace = StageTrace()
        with trace.stage(BUILD):
            with trace.stage(PURGE):
                pass
            with trace.stage(PURGE):
                pass
        assert trace.record(BUILD).children["purge"].entries == 2
        # The nested stage never leaks into the top level.
        assert trace.record(PURGE) is None

    def test_cardinalities(self):
        trace = StageTrace()
        with trace.stage(BUILD, input_size=100) as build:
            build.output_size = 40
        with trace.stage(CLEAN):
            pass
        assert trace.cardinalities() == {
            "build": (100, 40),
            "clean": (None, None),
        }

    def test_as_tree_exposes_children(self):
        trace = StageTrace()
        with trace.stage(BUILD, input_size=10):
            with trace.stage(PURGE):
                pass
        (node,) = trace.as_tree()
        assert node["name"] == "build"
        assert node["entries"] == 1
        assert node["input_size"] == 10
        (child,) = node["children"]
        assert child["name"] == "purge"

    def test_reset(self):
        trace = StageTrace()
        with trace.stage(BUILD):
            pass
        trace.reset()
        assert trace.as_dict() == {}
        assert trace.total == 0.0

    def test_exception_still_records_time(self):
        trace = StageTrace()
        with pytest.raises(RuntimeError):
            with trace.stage(QUERY):
                raise RuntimeError("boom")
        assert trace.record(QUERY).entries == 1
        assert trace.record(QUERY).seconds >= 0.0
        # The stack unwound: the next stage is top-level again.
        with trace.stage(BUILD):
            pass
        assert set(trace.as_dict()) == {"query", "build"}


def _workflow():
    from repro.blocking.building import StandardBlocking
    from repro.blocking.workflow import BlockingWorkflow

    return BlockingWorkflow(builder=StandardBlocking())


class TestFilterIntegration:
    def test_filter_trace_resets_between_runs(self, left_collection,
                                              right_collection):
        workflow = _workflow()
        workflow.candidates(left_collection, right_collection)
        first = workflow.trace.record("build").entries
        workflow.candidates(left_collection, right_collection)
        assert workflow.trace.record("build").entries == first == 1

    def test_filter_reports_cardinalities(self, left_collection,
                                          right_collection):
        workflow = _workflow()
        candidates = workflow.candidates(left_collection, right_collection)
        cards = workflow.trace.cardinalities()
        assert cards["build"][0] == len(left_collection) + len(right_collection)
        assert cards["clean"][1] == len(candidates)

    def test_base_reseed_is_noop(self):
        workflow = _workflow()
        assert not workflow.is_stochastic
        workflow.reseed(3)  # explicit no-op on deterministic filters

    def test_stage_schema_declared(self):
        from repro.blocking.workflow import BlockingWorkflow
        from repro.dense.minhash import MinHashLSH
        from repro.sparse.knn_join import KNNJoin

        assert BlockingWorkflow.stages == BLOCKING_STAGES
        assert KNNJoin.stages == NN_STAGES
        assert MinHashLSH.stages == NN_STAGES
