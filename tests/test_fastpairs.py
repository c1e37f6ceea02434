"""Unit tests for the array-encoded fast evaluation path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import KEY_WIDTH, CandidateSet, pack_ids
from repro.core.fastpairs import (
    encode_pairs,
    evaluate_keys,
    groundtruth_keys,
    keys_to_candidate_set,
    unique_keys,
)
from repro.core.groundtruth import GroundTruth
from repro.core.metrics import evaluate_candidates


class TestEncoding:
    def test_encode_roundtrip(self):
        lefts = np.array([0, 3, 7])
        rights = np.array([2, 0, 9])
        width = 10
        keys = encode_pairs(lefts, rights, width)
        np.testing.assert_array_equal(keys // width, lefts)
        np.testing.assert_array_equal(keys % width, rights)

    def test_unique_keys_sorted_deduplicated(self):
        keys = unique_keys(np.array([5, 1, 5, 3]))
        np.testing.assert_array_equal(keys, [1, 3, 5])

    def test_groundtruth_keys(self):
        gt = GroundTruth([(1, 2), (0, 0)])
        keys = groundtruth_keys(gt, width=10)
        np.testing.assert_array_equal(keys, [0, 12])

    def test_empty_groundtruth(self):
        assert len(groundtruth_keys(GroundTruth(), 10)) == 0


class TestEvaluateKeys:
    def test_agrees_with_slow_path(self):
        rng = np.random.default_rng(0)
        width = 20
        gt_pairs = [(i, i) for i in range(10)]
        cand_pairs = [
            (int(a), int(b))
            for a, b in zip(rng.integers(0, 15, 60), rng.integers(0, 20, 60))
        ]
        groundtruth = GroundTruth(gt_pairs)
        candidates = CandidateSet(cand_pairs)
        slow = evaluate_candidates(candidates, groundtruth, 15, 20)

        cand_keys = unique_keys(
            np.array([left * width + right for left, right in candidates])
        )
        gt_keys = groundtruth_keys(groundtruth, width)
        fast = evaluate_keys(cand_keys, gt_keys, 15, 20)
        assert fast.pc == pytest.approx(slow.pc)
        assert fast.pq == pytest.approx(slow.pq)
        assert fast.candidates == slow.candidates

    def test_empty_candidates(self):
        gt_keys = np.array([3, 7])
        result = evaluate_keys(np.zeros(0, dtype=np.int64), gt_keys, 5, 5)
        assert result.pc == 0.0
        assert result.pq == 0.0

    def test_empty_groundtruth(self):
        result = evaluate_keys(np.array([1, 2]), np.zeros(0, np.int64), 5, 5)
        assert result.pc == 0.0

    def test_perfect_match(self):
        keys = np.array([0, 11, 22])
        result = evaluate_keys(keys, keys, 3, 10)
        assert result.pc == 1.0
        assert result.pq == 1.0


class TestKeysToCandidateSet:
    def test_roundtrip(self):
        original = CandidateSet([(0, 1), (2, 3), (4, 0)])
        width = 10
        keys = unique_keys(
            np.array([left * width + right for left, right in original])
        )
        restored = keys_to_candidate_set(keys, width)
        assert restored == original

    @pytest.mark.parametrize("width", [1, 7, KEY_WIDTH])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_roundtrips_every_key_array(self, width, data):
        """Widths 1, a collection size and 2**32 (the set's own width)."""
        ids = st.tuples(
            st.integers(0, 2**31 - 1), st.integers(0, width - 1)
        )
        pairs = data.draw(st.lists(ids, max_size=40))
        lefts = np.array([left for left, __ in pairs], dtype=np.int64)
        rights = np.array([right for __, right in pairs], dtype=np.int64)
        keys = unique_keys(encode_pairs(lefts, rights, width))
        restored = keys_to_candidate_set(keys, width)
        assert list(restored) == sorted(set(pairs))
        assert restored == CandidateSet(pairs)

    def test_repack_keeps_key_order(self):
        lefts, rights = np.array([3, 0, 1]), np.array([1, 6, 0])
        keys = unique_keys(encode_pairs(lefts, rights, 7))
        restored = keys_to_candidate_set(keys, 7)
        np.testing.assert_array_equal(restored.keys, np.sort(restored.keys))
        np.testing.assert_array_equal(
            restored.keys, pack_ids(keys // 7, keys % 7)
        )

    def test_candidate_keys_are_fastpairs_keys_at_width_two_to_the_32(self):
        lefts = np.array([0, 5, 2**31 - 1])
        rights = np.array([KEY_WIDTH - 1, 0, 3])
        np.testing.assert_array_equal(
            pack_ids(lefts, rights), encode_pairs(lefts, rights, KEY_WIDTH)
        )
