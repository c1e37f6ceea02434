"""Unit tests for the Filter base class and its phase timing."""

import time

import pytest

from repro.core.candidates import CandidateSet
from repro.core.filters import Filter
from repro.core.profile import EntityCollection, EntityProfile
from repro.core.stages import StageTrace


class DummyFilter(Filter):
    name = "dummy"

    def _run(self, left, right, attribute):
        with self.trace.stage("work"):
            time.sleep(0.001)
        return CandidateSet([(0, 0)])


class TestPhaseTimer:
    """Flat per-phase seconds as a filter's ``trace`` records them."""

    def test_accumulates(self):
        trace = StageTrace()
        with trace.stage("a"):
            pass
        with trace.stage("a"):
            pass
        assert trace.as_dict()["a"] >= 0.0
        assert trace.total == sum(trace.as_dict().values())

    def test_reset(self):
        trace = StageTrace()
        with trace.stage("a"):
            pass
        trace.reset()
        assert trace.as_dict() == {}

    def test_records_on_exception(self):
        trace = StageTrace()
        with pytest.raises(RuntimeError):
            with trace.stage("x"):
                raise RuntimeError("boom")
        assert "x" in trace.as_dict()

    def test_multiple_phases(self):
        trace = StageTrace()
        with trace.stage("a"):
            pass
        with trace.stage("b"):
            pass
        assert set(trace.as_dict()) == {"a", "b"}


class TestFilterBase:
    def test_candidates_resets_timer(self):
        filter_ = DummyFilter()
        left = EntityCollection([EntityProfile("x", {})])
        right = EntityCollection([EntityProfile("y", {})])
        filter_.candidates(left, right)
        first = filter_.trace.total
        filter_.candidates(left, right)
        # The second run re-times from scratch, not cumulatively.
        assert filter_.trace.total < first * 10

    def test_default_not_stochastic(self):
        assert not DummyFilter().is_stochastic

    def test_describe_defaults_to_name(self):
        assert DummyFilter().describe() == "dummy"

    def test_abstract(self):
        with pytest.raises(TypeError):
            Filter()  # abstract method _run
