"""Unit tests for CandidateSet and GroundTruth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.candidates import KEY_WIDTH, CandidateSet
from repro.core.groundtruth import GroundTruth
from repro.core.metrics import evaluate_candidates
from repro.core.profile import EntityCollection, EntityProfile


class TestCandidateSet:
    def test_deduplicates(self):
        candidates = CandidateSet([(0, 1), (0, 1), (1, 2)])
        assert len(candidates) == 2

    def test_add_and_contains(self):
        candidates = CandidateSet()
        candidates.add(3, 4)
        assert (3, 4) in candidates
        assert (4, 3) not in candidates

    def test_pairs_are_ordered(self):
        candidates = CandidateSet([(1, 0)])
        assert (1, 0) in candidates
        assert (0, 1) not in candidates

    def test_update(self):
        candidates = CandidateSet()
        candidates.update([(0, 0), (1, 1)])
        assert len(candidates) == 2

    def test_coerces_to_int(self):
        import numpy as np

        candidates = CandidateSet([(np.int64(1), np.int64(2))])
        assert (1, 2) in candidates

    def test_equality(self):
        assert CandidateSet([(0, 1)]) == CandidateSet([(0, 1)])
        assert CandidateSet([(0, 1)]) != CandidateSet([(1, 0)])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(CandidateSet())

    def test_as_frozenset(self):
        snapshot = CandidateSet([(0, 1)]).as_frozenset()
        assert snapshot == frozenset({(0, 1)})

    def test_intersection_size(self):
        a = CandidateSet([(0, 0), (1, 1), (2, 2)])
        b = CandidateSet([(1, 1), (3, 3)])
        assert a.intersection_size(b) == 1

    def test_union(self):
        a = CandidateSet([(0, 0)])
        b = CandidateSet([(1, 1)])
        assert len(a.union(b)) == 2


class TestCandidateSetIdRange:
    """Ids outside the key range would corrupt the packed keys."""

    def test_negative_id_raises(self):
        with pytest.raises(ValueError):
            CandidateSet([(-1, 0)])
        with pytest.raises(ValueError):
            CandidateSet([(0, -1)])

    def test_right_id_of_two_to_the_32_raises(self):
        CandidateSet([(0, KEY_WIDTH - 1)])  # the largest right id fits
        with pytest.raises(ValueError):
            CandidateSet([(0, KEY_WIDTH)])

    def test_array_construction_validates_too(self):
        with pytest.raises(ValueError):
            CandidateSet.from_ids(np.array([0, -1]), np.array([0, 0]))
        with pytest.raises(ValueError):
            CandidateSet.from_ids(np.array([0]), np.array([KEY_WIDTH]))

    def test_from_keys_rejects_unsorted_or_repeated_keys(self):
        with pytest.raises(ValueError):
            CandidateSet.from_keys(np.array([5, 3]))
        with pytest.raises(ValueError):
            CandidateSet.from_keys(np.array([3, 3]))

    def test_failed_add_leaves_the_set_unchanged(self):
        candidates = CandidateSet([(0, 1)])
        with pytest.raises(ValueError):
            candidates.add(-1, 0)
        assert list(candidates) == [(0, 1)]


#: Small ids make repeats likely; the edge ids probe the key range.
_LEFTS = st.one_of(st.integers(0, 12), st.just(2**31 - 1))
_RIGHTS = st.one_of(st.integers(0, 12), st.just(KEY_WIDTH - 1))
_PAIRS = st.lists(st.tuples(_LEFTS, _RIGHTS), max_size=30)


class CandidateSetModel(RuleBasedStateMachine):
    """CandidateSet against a reference ``set`` of tuples.

    Mutations and reads interleave freely, so reads see pairs that are
    still on the pending list as well as pairs already in the keys.
    """

    @initialize(pairs=_PAIRS)
    def build(self, pairs):
        self.candidates = CandidateSet(pairs)
        self.model = set(pairs)

    @rule(left=_LEFTS, right=_RIGHTS)
    def add(self, left, right):
        self.candidates.add(left, right)
        self.model.add((left, right))

    @rule(pairs=_PAIRS)
    def update(self, pairs):
        self.candidates.update(pairs)
        self.model.update(pairs)

    @rule()
    def length(self):
        assert len(self.candidates) == len(self.model)

    @rule(left=_LEFTS, right=_RIGHTS)
    def contains(self, left, right):
        pair = (left, right)
        assert (pair in self.candidates) == (pair in self.model)

    @rule(pairs=_PAIRS)
    def equality(self, pairs):
        assert self.candidates == CandidateSet(self.model)
        other = CandidateSet(pairs)
        assert (self.candidates == other) == (self.model == set(pairs))

    @rule(pairs=_PAIRS)
    def union(self, pairs):
        union = self.candidates.union(CandidateSet(pairs))
        assert list(union) == sorted(self.model | set(pairs))

    @rule(pairs=_PAIRS)
    def intersection_size(self, pairs):
        other = CandidateSet(pairs)
        expected = len(self.model & set(pairs))
        assert self.candidates.intersection_size(other) == expected
        assert other.intersection_size(self.candidates) == expected

    @rule()
    def as_frozenset(self):
        assert self.candidates.as_frozenset() == frozenset(self.model)

    @rule()
    def iterates_in_ascending_order(self):
        pairs = list(self.candidates)
        assert pairs == sorted(self.model)
        assert all(type(side) is int for pair in pairs for side in pair)

    @invariant()
    def keys_stay_sorted_unique(self):
        keys = self.candidates._keys  # no flush: pending pairs stay queued
        assert np.all(keys[1:] > keys[:-1])


TestCandidateSetModel = CandidateSetModel.TestCase
TestCandidateSetModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


class TestGroundTruth:
    def test_len_and_contains(self, groundtruth):
        assert len(groundtruth) == 3
        assert (0, 0) in groundtruth
        assert (0, 1) not in groundtruth

    def test_matches_of_left(self, groundtruth):
        assert groundtruth.matches_of_left(1) == [1]
        assert groundtruth.matches_of_left(99) == []

    def test_matches_of_right(self, groundtruth):
        assert groundtruth.matches_of_right(2) == [2]

    def test_duplicates_in(self, groundtruth):
        candidates = CandidateSet([(0, 0), (1, 1), (5, 5)])
        assert groundtruth.duplicates_in(candidates) == 2

    def test_duplicates_in_large_candidate_set(self, groundtruth):
        candidates = CandidateSet((i, j) for i in range(10) for j in range(10))
        assert groundtruth.duplicates_in(candidates) == 3

    def test_reversed(self, groundtruth):
        swapped = groundtruth.reversed()
        assert (0, 0) in swapped
        assert len(swapped) == 3

    def test_one_to_many_supported(self):
        gt = GroundTruth([(0, 1), (0, 2)])
        assert gt.matches_of_left(0) == sorted(gt.matches_of_left(0))
        assert len(gt.matches_of_left(0)) == 2

    def test_from_uids(self):
        left = EntityCollection([EntityProfile("x", {}), EntityProfile("y", {})])
        right = EntityCollection([EntityProfile("u", {}), EntityProfile("v", {})])
        gt = GroundTruth.from_uids([("y", "u")], left, right)
        assert (1, 0) in gt

    def test_from_uids_unknown_raises(self):
        left = EntityCollection([EntityProfile("x", {})])
        right = EntityCollection([EntityProfile("u", {})])
        with pytest.raises(KeyError):
            GroundTruth.from_uids([("nope", "u")], left, right)


_SMALL_PAIRS = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60
)


class TestKeyEvaluationParity:
    """Key-array evaluation equals counting over sets of tuples."""

    @settings(max_examples=100, deadline=None)
    @given(candidate_pairs=_SMALL_PAIRS, truth_pairs=_SMALL_PAIRS)
    def test_duplicates_in_matches_set_count(
        self, candidate_pairs, truth_pairs
    ):
        found = GroundTruth(truth_pairs).duplicates_in(
            CandidateSet(candidate_pairs)
        )
        assert found == len(set(candidate_pairs) & set(truth_pairs))

    @settings(max_examples=100, deadline=None)
    @given(candidate_pairs=_SMALL_PAIRS, truth_pairs=_SMALL_PAIRS)
    def test_evaluate_candidates_matches_set_count(
        self, candidate_pairs, truth_pairs
    ):
        candidates, truth = set(candidate_pairs), set(truth_pairs)
        found = len(candidates & truth)
        evaluation = evaluate_candidates(
            CandidateSet(candidate_pairs), GroundTruth(truth_pairs), 16, 16
        )
        assert evaluation.duplicates_found == found
        assert evaluation.candidates == len(candidates)
        assert evaluation.pc == (found / len(truth) if truth else 0.0)
        pq = found / len(candidates) if candidates else 0.0
        assert evaluation.pq == pq
        assert evaluation.rr == 1.0 - len(candidates) / 256
