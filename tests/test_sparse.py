"""Unit tests for the sparse NN methods: similarity, ScanCount, joins."""

import pytest

from repro.core.metrics import pair_completeness
from repro.core.profile import EntityCollection, EntityProfile
from repro.sparse.base import SparseNNFilter
from repro.sparse.epsilon_join import EpsilonJoin
from repro.sparse.knn_join import DefaultKNNJoin, KNNJoin, default_knn_join
from repro.sparse.scancount import ScanCountIndex
from repro.sparse.similarity import (
    cosine,
    dice,
    jaccard,
    set_similarity,
    similarity_function,
)
from repro.sparse.topk_join import TopKJoin


class TestSimilarityMeasures:
    def test_cosine_identical_sets(self):
        assert cosine(3, 3, 3) == pytest.approx(1.0)

    def test_cosine_disjoint(self):
        assert cosine(3, 4, 0) == 0.0

    def test_cosine_zero_size(self):
        assert cosine(0, 5, 0) == 0.0

    def test_dice(self):
        assert dice(2, 2, 2) == 1.0
        assert dice(3, 1, 1) == pytest.approx(0.5)

    def test_jaccard(self):
        assert jaccard(3, 3, 3) == 1.0
        assert jaccard(2, 2, 1) == pytest.approx(1 / 3)

    def test_ordering_relation(self):
        # For any overlap: jaccard <= dice, and all within [0, 1].
        for a, b, o in [(5, 3, 2), (10, 10, 5), (4, 8, 3)]:
            assert 0.0 <= jaccard(a, b, o) <= dice(a, b, o) <= 1.0

    def test_similarity_function_lookup(self):
        assert similarity_function("COSINE") is cosine
        with pytest.raises(ValueError):
            similarity_function("euclid")

    def test_set_similarity_convenience(self):
        a = frozenset({"x", "y"})
        b = frozenset({"y", "z"})
        assert set_similarity(a, b, "jaccard") == pytest.approx(1 / 3)


class TestScanCountIndex:
    def test_overlaps_exact(self):
        sets = [frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"d"})]
        index = ScanCountIndex(sets)
        overlaps = index.overlaps(frozenset({"b", "c", "e"}))
        assert overlaps == {0: 1, 1: 2}

    def test_zero_overlap_absent(self):
        index = ScanCountIndex([frozenset({"a"})])
        assert index.overlaps(frozenset({"z"})) == {}

    def test_size_of(self):
        index = ScanCountIndex([frozenset({"a", "b", "c"})])
        assert index.size_of(0) == 3

    def test_vocabulary_size(self):
        index = ScanCountIndex([frozenset({"a", "b"}), frozenset({"b"})])
        assert index.vocabulary_size == 2

    def test_empty_query(self):
        index = ScanCountIndex([frozenset({"a"})])
        assert index.overlaps(frozenset()) == {}

    def test_len(self):
        assert len(ScanCountIndex([frozenset(), frozenset({"x"})])) == 2


class TestSparseNNFilterBase:
    def test_join_without_consumer_fails_loudly(
        self, left_collection, right_collection
    ):
        # Every join answers through a kernel consumer; there is no
        # materialising fallback for a subclass that names none.
        class NoConsumerJoin(SparseNNFilter):
            name = "no-consumer"

        with pytest.raises(NotImplementedError):
            NoConsumerJoin().candidates(left_collection, right_collection)


class TestEpsilonJoin:
    def test_high_threshold_exact_matches_only(
        self, left_collection, right_collection
    ):
        join = EpsilonJoin(threshold=1.0, model="T1G")
        candidates = join.candidates(left_collection, right_collection)
        assert (1, 1) in candidates  # identical titles
        assert (0, 3) not in candidates

    def test_lower_threshold_superset(self, left_collection, right_collection):
        strict = EpsilonJoin(threshold=0.9).candidates(
            left_collection, right_collection
        )
        loose = EpsilonJoin(threshold=0.3).candidates(
            left_collection, right_collection
        )
        assert strict.as_frozenset() <= loose.as_frozenset()

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            EpsilonJoin(threshold=1.5)

    def test_finds_duplicates(self, tiny_dataset):
        join = EpsilonJoin(threshold=0.3, model="C3G")
        candidates = join.candidates(tiny_dataset.left, tiny_dataset.right)
        assert pair_completeness(candidates, tiny_dataset.groundtruth) == 1.0

    def test_phase_timer(self, left_collection, right_collection):
        join = EpsilonJoin(threshold=0.5)
        join.candidates(left_collection, right_collection)
        assert set(join.trace.as_dict()) == {"preprocess", "index", "query"}

    def test_cleaning_changes_tokens(self, left_collection, right_collection):
        plain = EpsilonJoin(threshold=0.5, cleaning=False)
        cleaned = EpsilonJoin(threshold=0.5, cleaning=True)
        # Both run without error; results may differ but stay valid.
        a = plain.candidates(left_collection, right_collection)
        b = cleaned.candidates(left_collection, right_collection)
        assert isinstance(len(a), int) and isinstance(len(b), int)


class TestKNNJoin:
    def test_k1_returns_best_neighbor(self, left_collection, right_collection):
        join = KNNJoin(k=1, model="C3G")
        candidates = join.candidates(left_collection, right_collection)
        assert (1, 1) in candidates

    def test_ties_kept_beyond_k(self):
        from repro.core.profile import EntityCollection, EntityProfile

        left = EntityCollection(
            [
                EntityProfile("l0", {"t": "alpha beta"}),
                EntityProfile("l1", {"t": "alpha gamma"}),
            ]
        )
        right = EntityCollection([EntityProfile("r0", {"t": "alpha"})])
        join = KNNJoin(k=1, model="T1G")
        candidates = join.candidates(left, right)
        # Both indexed entities are equidistant: k=1 keeps both (paper's
        # distinct-similarity tie rule).
        assert len(candidates) == 2

    def test_larger_k_superset(self, tiny_dataset):
        small = KNNJoin(k=1, model="C3G").candidates(
            tiny_dataset.left, tiny_dataset.right
        )
        large = KNNJoin(k=3, model="C3G").candidates(
            tiny_dataset.left, tiny_dataset.right
        )
        assert small.as_frozenset() <= large.as_frozenset()

    def test_reverse_changes_direction_not_orientation(
        self, left_collection, right_collection
    ):
        join = KNNJoin(k=1, model="C3G", reverse=True)
        candidates = join.candidates(left_collection, right_collection)
        # Pairs remain (E1 id, E2 id) even when E2 is indexed.
        for left, right in candidates:
            assert 0 <= left < len(left_collection)
            assert 0 <= right < len(right_collection)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNNJoin(k=0)

    def test_not_commutative(self, left_collection, right_collection):
        forward = KNNJoin(k=1, model="C3G").candidates(
            left_collection, right_collection
        )
        backward = KNNJoin(k=1, model="C3G", reverse=True).candidates(
            left_collection, right_collection
        )
        # Usually different; at minimum both valid and non-empty.
        assert len(forward) > 0 and len(backward) > 0


class TestDefaultKNNJoin:
    def test_defaults(self):
        baseline = default_knn_join()
        assert isinstance(baseline, DefaultKNNJoin)
        assert baseline.k == 5
        assert baseline.model.code == "C5GM"
        assert baseline.measure_name == "cosine"
        assert baseline.cleaning

    def test_queries_with_smaller_side(self, small_generated):
        baseline = default_knn_join()
        baseline.candidates(small_generated.left, small_generated.right)
        # |E1|=60 < |E2|=80, so E1 becomes the query set (reverse=True).
        assert baseline.reverse


class TestTopKJoin:
    def test_returns_k_best_pairs(self, left_collection, right_collection):
        join = TopKJoin(k=1, model="T1G")
        candidates = join.candidates(left_collection, right_collection)
        # The single best pair is the identical title (similarity 1.0);
        # ties at the cutoff are kept.
        assert (1, 1) in candidates

    def test_global_not_local(self, left_collection, right_collection):
        topk = TopKJoin(k=2, model="C3G").candidates(
            left_collection, right_collection
        )
        knn = KNNJoin(k=2, model="C3G").candidates(
            left_collection, right_collection
        )
        # kNN-Join returns ~k pairs per query; top-k join returns ~k total.
        assert len(topk) <= len(knn)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKJoin(k=0)

    def test_token_disjoint_input_reports_empty_query_output(self):
        left = EntityCollection([EntityProfile("l0", {"t": "alpha beta"})])
        right = EntityCollection([EntityProfile("r0", {"t": "gamma delta"})])
        join = TopKJoin(k=1, model="T1G")
        assert len(join.candidates(left, right)) == 0
        assert join.trace.cardinalities()["query"] == (1, 0)

    def test_empty_input_reports_empty_query_output(self):
        join = TopKJoin(k=1, model="T1G")
        empty = EntityCollection()
        assert len(join.candidates(empty, empty)) == 0
        assert join.trace.cardinalities()["query"] == (0, 0)
