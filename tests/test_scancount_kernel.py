"""Parity suite: the CSR ScanCount kernel vs plain set intersections.

Every test pits the vectorized implementation (batched CSR kernel, array
similarities, NumPy selection) against an independent reference:
:func:`overlaps_reference` (overlaps from plain set intersections) and
direct per-query reimplementations of the join selection rules on top of
it.  The join tests require *byte-identical* candidate key arrays, which
is what lets the benchmark tables trust the kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateSet
from repro.core.profile import EntityCollection, EntityProfile
from repro.core.fastpairs import encode_pairs, unique_keys
from repro.sparse.epsilon_join import EpsilonJoin
from repro.sparse.knn_join import KNNJoin, distinct_similarity_ranks
from repro.sparse.scancount import ScanCountIndex
from repro.sparse.similarity import (
    similarity_function,
    vector_similarity_function,
)
from repro.sparse.topk_join import TopKJoin
from repro.text.tokenizers import RepresentationModel


VOCABULARY = [f"tok{i}" for i in range(60)]
OOV = ["oov1", "oov2", "oov3"]


def random_token_sets(rng, count, max_size, extra=(), allow_empty=True):
    """Random frozensets over VOCABULARY (+ optional OOV tokens)."""
    pool = list(VOCABULARY) + list(extra)
    sets = []
    for __ in range(count):
        low = 0 if allow_empty else 1
        size = int(rng.integers(low, max_size + 1))
        sets.append(frozenset(rng.choice(pool, size=size, replace=False)))
    return sets


def overlaps_reference(indexed, query):
    """Ground-truth overlaps computed with plain set intersections."""
    return {
        set_id: len(tokens & query)
        for set_id, tokens in enumerate(indexed)
        if tokens & query
    }


class TestBatchOverlapsParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_parity_with_reference(self, seed):
        rng = np.random.default_rng(seed)
        indexed = random_token_sets(rng, 40, 12)
        queries = random_token_sets(rng, 30, 12, extra=OOV)
        queries += [frozenset(), frozenset(OOV)]  # empty + fully-OOV
        csr = ScanCountIndex(indexed)
        query_ptr, set_ids, counts = csr.batch_overlaps(queries)
        assert len(query_ptr) == len(queries) + 1
        for position, query in enumerate(queries):
            expected = overlaps_reference(indexed, query)
            lo, hi = query_ptr[position], query_ptr[position + 1]
            got = dict(
                zip(set_ids[lo:hi].tolist(), counts[lo:hi].tolist())
            )
            assert got == expected
            # set ids ascending within each query slice
            assert np.all(np.diff(set_ids[lo:hi]) > 0)
            # the per-query compat wrapper serves the same dict
            assert csr.overlaps(query) == expected

    def test_singleton_postings(self):
        indexed = [frozenset({"only-here"}), frozenset({"a", "b"})]
        csr = ScanCountIndex(indexed)
        assert csr.overlaps(frozenset({"only-here"})) == {0: 1}
        assert csr.overlaps(frozenset({"a"})) == {1: 1}

    def test_empty_index(self):
        csr = ScanCountIndex([])
        query_ptr, set_ids, counts = csr.batch_overlaps(
            [frozenset({"x"}), frozenset()]
        )
        assert list(query_ptr) == [0, 0, 0]
        assert len(set_ids) == 0 and len(counts) == 0
        assert csr.overlaps(frozenset({"x"})) == {}

    def test_no_queries(self):
        csr = ScanCountIndex([frozenset({"a"})])
        query_ptr, set_ids, counts = csr.batch_overlaps([])
        assert list(query_ptr) == [0]
        assert len(set_ids) == 0

    def test_batch_agrees_with_single_query_calls(self):
        rng = np.random.default_rng(7)
        indexed = random_token_sets(rng, 25, 8)
        queries = random_token_sets(rng, 40, 8, extra=OOV)
        csr = ScanCountIndex(indexed)
        query_ptr, set_ids, counts = csr.batch_overlaps(queries)
        for position, query in enumerate(queries):
            single_ptr, single_ids, single_counts = csr.batch_overlaps(
                [query]
            )
            lo, hi = query_ptr[position], query_ptr[position + 1]
            np.testing.assert_array_equal(single_ids, set_ids[lo:hi])
            np.testing.assert_array_equal(single_counts, counts[lo:hi])
            assert single_ptr[-1] == hi - lo


class TestCSRStorage:
    def test_layout_invariants(self):
        rng = np.random.default_rng(3)
        indexed = random_token_sets(rng, 30, 10, allow_empty=False)
        index = ScanCountIndex(indexed)
        ptr, postings = index.token_ptr, index.postings
        assert ptr[0] == 0 and ptr[-1] == len(postings)
        assert np.all(np.diff(ptr) >= 0)
        assert postings.dtype == np.int32
        for token, token_id in index.vocabulary.items():
            members = postings[ptr[token_id] : ptr[token_id + 1]]
            assert np.all(np.diff(members) > 0)  # ascending, unique
            for set_id in members.tolist():
                assert token in indexed[set_id]

    def test_vocabulary_size_and_len(self):
        index = ScanCountIndex([frozenset({"a", "b"}), frozenset({"b"})])
        assert index.vocabulary_size == 2
        assert len(index) == 2
        assert index.size_of(0) == 2

    def test_sizes_array(self):
        index = ScanCountIndex([frozenset({"a", "b"}), frozenset()])
        np.testing.assert_array_equal(index.sizes, [2, 0])

    def test_postings_attribute_removed(self):
        index = ScanCountIndex([frozenset({"a"})])
        with pytest.raises(AttributeError):
            index._postings
        with pytest.raises(AttributeError):
            index.definitely_not_an_attribute

    def test_repr_reflects_csr_storage(self):
        index = ScanCountIndex([frozenset({"a", "b"}), frozenset({"b"})])
        text = repr(index)
        assert "csr" in text
        assert "postings=3" in text


# ----------------------------------------------------------------------
# Join parity: byte-identical candidate keys before vs after the kernel.
# ----------------------------------------------------------------------


def make_collections(rng, size_left, size_right):
    """Random word-soup collections (T1G tokens == the words)."""
    words = [f"w{i}" for i in range(30)]

    def build(prefix, size):
        profiles = []
        for i in range(size):
            count = int(rng.integers(1, 7))
            text = " ".join(rng.choice(words, size=count, replace=False))
            profiles.append(EntityProfile(f"{prefix}{i}", {"title": text}))
        return EntityCollection(profiles, name=prefix)

    return build("L", size_left), build("R", size_right)


def token_sets_of(collection, model):
    representation = RepresentationModel(model)
    return [representation.tokens(text) for text in collection.texts(None)]


def keys_of(candidates, width):
    pairs = sorted(candidates.as_frozenset())
    if not pairs:
        return np.zeros(0, dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    return unique_keys(encode_pairs(arr[:, 0], arr[:, 1], width))


def reference_epsilon_pairs(left_sets, right_sets, threshold, measure):
    func = similarity_function(measure)
    pairs = set()
    for j, query in enumerate(right_sets):
        for i, overlap in overlaps_reference(left_sets, query).items():
            if func(len(left_sets[i]), len(query), overlap) >= threshold:
                pairs.add((i, j))
    return pairs


def reference_knn_select(indexed, query, k, func):
    scored = [
        (func(len(indexed[i]), len(query), overlap), i)
        for i, overlap in overlaps_reference(indexed, query).items()
    ]
    scored.sort(key=lambda item: (-item[0], item[1]))
    selected = []
    distinct_values = 0
    previous = None
    for similarity, set_id in scored:
        if similarity != previous:
            if distinct_values == k:
                break
            distinct_values += 1
            previous = similarity
        selected.append(set_id)
    return selected


def reference_knn_pairs(left_sets, right_sets, k, measure, reverse):
    indexed, queries = (
        (right_sets, left_sets) if reverse else (left_sets, right_sets)
    )
    func = similarity_function(measure)
    pairs = set()
    for query_id, query in enumerate(queries):
        for indexed_id in reference_knn_select(indexed, query, k, func):
            if reverse:
                pairs.add((query_id, indexed_id))
            else:
                pairs.add((indexed_id, query_id))
    return pairs


def reference_topk_pairs(left_sets, right_sets, k, measure):
    import heapq

    func = similarity_function(measure)

    def scored(query):
        return [
            (func(len(left_sets[i]), len(query), overlap), i)
            for i, overlap in overlaps_reference(left_sets, query).items()
        ]

    heap = []
    for right_id, query in enumerate(right_sets):
        for similarity, left_id in scored(query):
            entry = (similarity, left_id, right_id)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
    pairs = set()
    if heap:
        cutoff = heap[0][0]
        for right_id, query in enumerate(right_sets):
            for similarity, left_id in scored(query):
                if similarity >= cutoff:
                    pairs.add((left_id, right_id))
    return pairs


class TestJoinParity:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("measure", ["cosine", "dice", "jaccard"])
    def test_epsilon_join_byte_identical(self, seed, measure):
        rng = np.random.default_rng(seed)
        left, right = make_collections(rng, 25, 30)
        width = len(right)
        for threshold in (0.05, 0.3, 0.7, 1.0):
            join = EpsilonJoin(
                threshold=threshold, model="T1G", measure=measure
            )
            got = keys_of(join.candidates(left, right), width)
            expected = reference_epsilon_pairs(
                token_sets_of(left, "T1G"),
                token_sets_of(right, "T1G"),
                threshold,
                measure,
            )
            expected_keys = keys_of(CandidateSet(expected), width)
            assert got.tobytes() == expected_keys.tobytes()
            assert got.dtype == expected_keys.dtype

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_knn_join_byte_identical(self, seed, reverse):
        rng = np.random.default_rng(10 + seed)
        left, right = make_collections(rng, 20, 25)
        width = len(right)
        for k, measure, model in [
            (1, "cosine", "T1G"),
            (3, "jaccard", "C3G"),
            (5, "dice", "T1G"),
        ]:
            join = KNNJoin(
                k=k, model=model, measure=measure, reverse=reverse
            )
            got = keys_of(join.candidates(left, right), width)
            expected = reference_knn_pairs(
                token_sets_of(left, model),
                token_sets_of(right, model),
                k,
                measure,
                reverse,
            )
            expected_keys = keys_of(CandidateSet(expected), width)
            assert got.tobytes() == expected_keys.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_topk_join_byte_identical(self, seed):
        rng = np.random.default_rng(20 + seed)
        left, right = make_collections(rng, 15, 18)
        width = len(right)
        for k, measure in [(1, "cosine"), (5, "jaccard"), (400, "dice")]:
            join = TopKJoin(k=k, model="T1G", measure=measure)
            got = keys_of(join.candidates(left, right), width)
            expected = reference_topk_pairs(
                token_sets_of(left, "T1G"),
                token_sets_of(right, "T1G"),
                k,
                measure,
            )
            expected_keys = keys_of(CandidateSet(expected), width)
            assert got.tobytes() == expected_keys.tobytes()


class TestVectorSimilarityParity:
    @pytest.mark.parametrize("measure", ["cosine", "dice", "jaccard"])
    def test_bitwise_equal_to_scalar(self, measure):
        rng = np.random.default_rng(5)
        sizes_a = rng.integers(0, 40, size=200)
        sizes_b = rng.integers(0, 40, size=200)
        overlaps = np.minimum(sizes_a, sizes_b)
        overlaps = (overlaps * rng.random(200)).astype(np.int64)
        scalar = similarity_function(measure)
        vector = vector_similarity_function(measure)
        got = vector(sizes_a, sizes_b, overlaps)
        expected = np.array(
            [
                scalar(int(a), int(b), int(o))
                for a, b, o in zip(sizes_a, sizes_b, overlaps)
            ]
        )
        assert got.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Consumer kernels: parity on arbitrary [lo, hi) ranges.
# ----------------------------------------------------------------------


def _consumer_arrays(rng, num_indexed=35, num_queries=35):
    from repro.sparse.kernels import query_tokens

    indexed = random_token_sets(rng, num_indexed, 10)
    queries = random_token_sets(rng, num_queries, 10, extra=OOV)
    queries += [frozenset(), frozenset(OOV)]  # empty + fully-OOV
    index = ScanCountIndex(indexed)
    tokens = query_tokens(index.vocabulary, queries)
    arrays = {**index.arrays(), **tokens.as_arrays()}
    return indexed, queries, arrays


class TestConsumerParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_count_consumer_matches_reference(self, seed):
        from repro.sparse.kernels import run_consumer

        rng = np.random.default_rng(seed)
        indexed, queries, arrays = _consumer_arrays(rng)
        for lo, hi in [(0, len(queries)), (3, 11), (0, 1), (5, 5)]:
            counts = run_consumer(arrays, lo, hi, {"consumer": "count"})
            expected = [
                len(overlaps_reference(indexed, queries[position]))
                for position in range(lo, hi)
            ]
            assert counts.tolist() == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_materialize_consumer_matches_reference(self, seed):
        from repro.sparse.kernels import run_consumer

        rng = np.random.default_rng(10 + seed)
        indexed, queries, arrays = _consumer_arrays(rng)
        for lo, hi in [(0, len(queries)), (2, 9)]:
            ptr, set_ids, counts = run_consumer(
                arrays, lo, hi, {"consumer": "materialize"}
            )
            assert len(ptr) == hi - lo + 1 and ptr[0] == 0
            for position in range(lo, hi):
                a, b = ptr[position - lo], ptr[position - lo + 1]
                got = dict(
                    zip(set_ids[a:b].tolist(), counts[a:b].tolist())
                )
                assert got == overlaps_reference(indexed, queries[position])
                assert np.all(np.diff(set_ids[a:b]) > 0)

    @pytest.mark.parametrize("measure", ["cosine", "dice", "jaccard"])
    @pytest.mark.parametrize("threshold", [0.05, 0.4, 0.8, 1.0])
    def test_epsilon_consumer_matches_reference(self, measure, threshold):
        from repro.sparse.kernels import run_consumer

        rng = np.random.default_rng(hash((measure, threshold)) % 2**32)
        indexed, queries, arrays = _consumer_arrays(rng)
        func = similarity_function(measure)
        for lo, hi in [(0, len(queries)), (4, 13)]:
            query_ids, set_ids = run_consumer(
                arrays,
                lo,
                hi,
                {
                    "consumer": "epsilon",
                    "threshold": threshold,
                    "measure": measure,
                },
            )
            got = set(zip(query_ids.tolist(), set_ids.tolist()))
            expected = {
                (position, set_id)
                for position in range(lo, hi)
                for set_id, overlap in overlaps_reference(
                    indexed, queries[position]
                ).items()
                if func(
                    len(indexed[set_id]), len(queries[position]), overlap
                )
                >= threshold
            }
            assert got == expected

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_knn_consumer_matches_reference(self, k):
        from repro.sparse.kernels import run_consumer

        rng = np.random.default_rng(100 + k)
        indexed, queries, arrays = _consumer_arrays(rng)
        for measure in ("cosine", "dice", "jaccard"):
            func = similarity_function(measure)
            for lo, hi in [(0, len(queries)), (6, 15)]:
                query_ids, set_ids = run_consumer(
                    arrays,
                    lo,
                    hi,
                    {"consumer": "knn", "k": k, "measure": measure},
                )
                got = set(zip(query_ids.tolist(), set_ids.tolist()))
                expected = {
                    (position, set_id)
                    for position in range(lo, hi)
                    for set_id in reference_knn_select(
                        indexed, queries[position], k, func
                    )
                }
                assert got == expected, measure

    def test_knn_range_split_invariance(self):
        from repro.sparse.kernels import knn_kernel

        rng = np.random.default_rng(41)
        __, queries, arrays = _consumer_arrays(rng)
        args = (
            arrays["token_ptr"], arrays["postings"], arrays["sizes"],
            arrays["qt_ptr"], arrays["qt_ids"], arrays["qt_sizes"],
        )
        lo, hi = 2, len(queries) - 1
        whole = knn_kernel(*args, lo, hi, k=3, measure="jaccard")
        for mid in range(lo, hi + 1):
            head = knn_kernel(*args, lo, mid, k=3, measure="jaccard")
            tail = knn_kernel(*args, mid, hi, k=3, measure="jaccard")
            for part in (0, 1):
                np.testing.assert_array_equal(
                    whole[part], np.concatenate((head[part], tail[part]))
                )

    def test_unknown_consumer_rejected(self):
        from repro.sparse.kernels import run_consumer

        rng = np.random.default_rng(0)
        __, __, arrays = _consumer_arrays(rng, 5, 5)
        with pytest.raises(KeyError):
            run_consumer(arrays, 0, 1, {"consumer": "nope"})


# ----------------------------------------------------------------------
# Class-scored join kernels: exactness against the scalar measures.
# ----------------------------------------------------------------------


def _kernel_args(indexed, queries):
    from repro.sparse.kernels import query_tokens

    index = ScanCountIndex(indexed)
    tokens = query_tokens(index.vocabulary, queries)
    return (
        index.token_ptr, index.postings, index.sizes,
        tokens.ptr, tokens.token_ids, tokens.sizes,
    )


def _expected_pairs(queries, lo, hi, select):
    """``(query_ids, set_ids)`` of ``select(query)`` over ``[lo, hi)``."""
    query_ids, set_ids = [], []
    for position in range(lo, hi):
        chosen = sorted(select(queries[position]))
        query_ids += [position] * len(chosen)
        set_ids += chosen
    return (
        np.asarray(query_ids, dtype=np.int64),
        np.asarray(set_ids, dtype=np.int64),
    )


def _epsilon_select(indexed, threshold, measure):
    func = similarity_function(measure)
    return lambda query: [
        set_id
        for set_id, overlap in overlaps_reference(indexed, query).items()
        if func(len(indexed[set_id]), len(query), overlap) >= threshold
    ]


def _knn_select(indexed, k, measure):
    func = similarity_function(measure)
    return lambda query: reference_knn_select(indexed, query, k, func)


def _assert_pairs_equal(got, expected):
    for got_part, expected_part in zip(got, expected):
        assert got_part.dtype == np.int64
        assert got_part.tobytes() == expected_part.tobytes()


def _exactness_cell(model, seed):
    """Word-soup token sets plus every degenerate query and set shape."""
    rng = np.random.default_rng(seed)
    left, right = make_collections(rng, 40, 45)
    indexed = token_sets_of(left, model) + [frozenset()]  # a zero-size set
    queries = token_sets_of(right, model)
    some_token = sorted(indexed[0])[0]
    queries += [
        frozenset(),  # empty
        frozenset(OOV),  # all out of vocabulary
        frozenset({some_token}),  # single token
        frozenset({some_token, *OOV}),  # one in-vocabulary token of four
    ]
    return indexed, queries


THRESHOLDS = (0.0, 0.1, 0.5, 0.9, 1.0)


class TestClassScoredKernels:
    @pytest.mark.parametrize("model", ["T1G", "C3GM"])
    @pytest.mark.parametrize("measure", ["cosine", "dice", "jaccard"])
    def test_knn_matches_scalar_reference(self, model, measure):
        from repro.sparse.kernels import knn_kernel

        indexed, queries = _exactness_cell(model, 31)
        args = _kernel_args(indexed, queries)
        for k in (1, 5, 20):
            for lo, hi in [(0, len(queries)), (7, 19)]:
                _assert_pairs_equal(
                    knn_kernel(*args, lo, hi, k=k, measure=measure),
                    _expected_pairs(
                        queries, lo, hi, _knn_select(indexed, k, measure)
                    ),
                )

    @pytest.mark.parametrize("model", ["T1G", "C3GM"])
    @pytest.mark.parametrize("measure", ["cosine", "dice", "jaccard"])
    def test_epsilon_matches_scalar_reference(self, model, measure):
        from repro.sparse.kernels import epsilon_kernel

        indexed, queries = _exactness_cell(model, 32)
        args = _kernel_args(indexed, queries)
        for threshold in THRESHOLDS:
            for lo, hi in [(0, len(queries)), (7, 19)]:
                _assert_pairs_equal(
                    epsilon_kernel(
                        *args, lo, hi, threshold=threshold, measure=measure
                    ),
                    _expected_pairs(
                        queries,
                        lo,
                        hi,
                        _epsilon_select(indexed, threshold, measure),
                    ),
                )

    def test_empty_index(self):
        from repro.sparse.kernels import epsilon_kernel, knn_kernel

        queries = [frozenset({"a", "b"}), frozenset(), frozenset({"c"})]
        args = _kernel_args([], queries)
        for got in (
            knn_kernel(*args, 0, len(queries), k=3, measure="cosine"),
            epsilon_kernel(
                *args, 0, len(queries), threshold=0.0, measure="cosine"
            ),
        ):
            assert [part.tolist() for part in got] == [[], []]
            assert all(part.dtype == np.int64 for part in got)

    def test_index_of_zero_size_sets_only(self):
        from repro.sparse.kernels import epsilon_kernel, knn_kernel

        queries = [frozenset({"a"}), frozenset()]
        args = _kernel_args([frozenset(), frozenset()], queries)
        assert len(knn_kernel(*args, 0, 2, k=1, measure="dice")[0]) == 0
        assert len(
            epsilon_kernel(*args, 0, 2, threshold=0.0, measure="dice")[0]
        ) == 0

    @pytest.mark.parametrize("measure", ["cosine", "dice", "jaccard"])
    def test_k_above_distinct_similarities_keeps_every_overlap(self, measure):
        from repro.sparse.kernels import knn_kernel

        # Three set shapes give the query at most three similarities.
        indexed = [
            frozenset({"a"}),
            frozenset({"a", "b"}),
            frozenset({"a", "b", "c"}),
            frozenset({"z"}),
        ] * 3
        queries = [frozenset({"a", "b"})]
        query_ids, set_ids = knn_kernel(
            *_kernel_args(indexed, queries), 0, 1, k=50, measure=measure
        )
        expected = [i for i, tokens in enumerate(indexed) if "a" in tokens]
        assert set_ids.tolist() == expected
        assert query_ids.tolist() == [0] * len(expected)

    @pytest.mark.parametrize("measure", ["cosine", "dice", "jaccard"])
    def test_heavy_ties(self, measure):
        from repro.sparse.kernels import epsilon_kernel, knn_kernel

        # Ten copies each of three shapes: every similarity is tied ten
        # ways, and the query's best class is the exact copy.
        shapes = [
            frozenset({"a", "b"}),
            frozenset({"a", "c"}),
            frozenset({"c", "d", "e", "f"}),
        ]
        indexed = [shape for shape in shapes for __ in range(10)]
        queries = [frozenset({"a", "b"}), frozenset({"a"}), frozenset({"c"})]
        args = _kernel_args(indexed, queries)
        for k in (1, 2, 3):
            _assert_pairs_equal(
                knn_kernel(*args, 0, 3, k=k, measure=measure),
                _expected_pairs(
                    queries, 0, 3, _knn_select(indexed, k, measure)
                ),
            )
        assert knn_kernel(*args, 0, 1, k=1, measure=measure)[1].tolist() == (
            list(range(10))
        )
        for threshold in THRESHOLDS:
            _assert_pairs_equal(
                epsilon_kernel(
                    *args, 0, 3, threshold=threshold, measure=measure
                ),
                _expected_pairs(
                    queries,
                    0,
                    3,
                    _epsilon_select(indexed, threshold, measure),
                ),
            )

    def test_epsilon_range_split_invariance(self):
        from repro.sparse.kernels import epsilon_kernel

        indexed, queries = _exactness_cell("C3GM", 33)
        args = _kernel_args(indexed, queries)
        params = {"threshold": 0.3, "measure": "cosine"}
        lo, hi = 2, len(queries) - 1
        whole = epsilon_kernel(*args, lo, hi, **params)
        for mid in range(lo, hi + 1):
            head = epsilon_kernel(*args, lo, mid, **params)
            tail = epsilon_kernel(*args, mid, hi, **params)
            for part in (0, 1):
                np.testing.assert_array_equal(
                    whole[part], np.concatenate((head[part], tail[part]))
                )

    @pytest.mark.parametrize("measure", ["cosine", "dice", "jaccard"])
    def test_measures_non_decreasing_in_overlap(self, measure):
        # The ε-Join cutoff reads each set size's minimum overlap off the
        # class similarities, which is exact only if every measure is
        # non-decreasing in the overlap for fixed sizes, rounding
        # included.  Exhaustive for sizes up to 200.
        vector = vector_similarity_function(measure)
        limit = 200
        overlaps = np.arange(limit + 1, dtype=np.int64)
        query_sizes = np.arange(limit + 1, dtype=np.int64)
        grid_b, grid_c = np.meshgrid(query_sizes, overlaps, indexing="ij")
        for size in range(limit + 1):
            values = vector(np.full_like(grid_b, size), grid_b, grid_c)
            reachable = grid_c <= np.minimum(size, grid_b)
            values = np.where(reachable, values, np.inf)
            assert np.all(values[:, 1:] >= values[:, :-1]), (measure, size)


def test_epsilon_memory_does_not_grow_with_distinct_query_sizes():
    """One size's minimum-overlap array is alive at a time, not one per
    distinct query size for the whole range."""
    import tracemalloc

    from repro.sparse.kernels import epsilon_kernel, knn_kernel

    num_sets, num_sizes = 20_000, 300
    indexed = [frozenset({f"u{i}", f"v{i % 7}"}) for i in range(num_sets)]
    # One in-vocabulary token each, padded out of vocabulary to 300
    # distinct query sizes.
    queries = [
        frozenset({f"u{q}", *(f"oov{q}-{j}" for j in range(q))})
        for q in range(num_sizes)
    ]
    args = _kernel_args(indexed, queries)
    for kernel, params in (
        (epsilon_kernel, {"threshold": 0.01, "measure": "cosine"}),
        (knn_kernel, {"k": 5, "measure": "cosine"}),
    ):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            query_ids, __ = kernel(*args, 0, num_sizes, **params)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert query_ids.tolist() == list(range(num_sizes))
        # A handful of n-length int64 arrays; one per distinct query
        # size would be 300 of them (48 MB).
        budget = 16 * 8 * num_sets
        assert peak <= budget, (kernel.__name__, peak, budget)


def _cutoff_reference(values, k):
    distinct = np.unique(values)
    return distinct[max(0, len(distinct) - k)]


class TestKthDistinctCutoff:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.integers(0, 12).map(lambda v: v / 12), min_size=1, max_size=80
        ),
        k=st.integers(1, 25),
    )
    def test_matches_unique_reference(self, values, k):
        from repro.sparse.kernels import kth_distinct_cutoff

        # A 13-value pool forces heavy ties and k beyond the distinct
        # count; sizes span n <= 4k and n > 4k for every k drawn.
        values = np.asarray(values, dtype=np.float64)
        assert kth_distinct_cutoff(values, k) == _cutoff_reference(values, k)

    @pytest.mark.parametrize(
        "values, k, expected",
        [
            ([0.5], 1, 0.5),  # n = 1
            ([0.5], 3, 0.5),  # k beyond the single distinct value
            ([0.7] * 50, 2, 0.7),  # all equal, n > 4k
            ([0.1, 0.9, 0.9, 0.3], 1, 0.9),  # k = 1 keeps only the max
            ([0.1, 0.9, 0.9, 0.3], 2, 0.3),  # n <= 4k
            ([0.9] * 20 + [0.1, 0.2], 2, 0.2),  # tied top forces fallback
        ],
    )
    def test_edge_cases(self, values, k, expected):
        from repro.sparse.kernels import kth_distinct_cutoff

        assert kth_distinct_cutoff(np.asarray(values), k) == expected

    def test_input_is_not_modified(self):
        from repro.sparse.kernels import kth_distinct_cutoff

        values = np.random.default_rng(5).random(100)
        before = values.copy()
        kth_distinct_cutoff(values, 3)
        np.testing.assert_array_equal(values, before)


def _check_dense_ranks(block, ordered, ranks):
    """Rows sorted descending; every rank is ``len(unique(row[row >= v]))``."""
    assert ordered.shape == ranks.shape == block.shape
    for row, sorted_row, row_ranks in zip(block, ordered, ranks):
        np.testing.assert_array_equal(sorted_row, np.sort(row)[::-1])
        for value, rank in zip(sorted_row.tolist(), row_ranks.tolist()):
            assert rank == len(np.unique(row[row >= value]))


class TestDistinctSimilarityRanks:
    def test_against_python_reference(self):
        rng = np.random.default_rng(11)
        block = rng.choice([0.0, 0.1, 0.25, 0.5, 0.75, 1.0], size=(12, 40))
        ordered, ranks = distinct_similarity_ranks(block)
        _check_dense_ranks(block, ordered, ranks)

    def test_empty(self):
        for shape in ((0, 0), (0, 5), (5, 0)):
            ordered, ranks = distinct_similarity_ranks(np.zeros(shape))
            assert ordered.shape == ranks.shape == shape

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 6),
        columns=st.integers(1, 30),
        pool=st.integers(1, 4),
        data=st.data(),
    )
    def test_heavily_tied_blocks(self, rows, columns, pool, data):
        # A pool of at most four values forces long runs of ties, rows of
        # one repeated value and zeros (the token-disjoint pairs).
        values = data.draw(
            st.lists(
                st.integers(0, pool).map(lambda v: v / 4),
                min_size=rows * columns,
                max_size=rows * columns,
            )
        )
        block = np.asarray(values, dtype=np.float64).reshape(rows, columns)
        before = block.copy()
        ordered, ranks = distinct_similarity_ranks(block)
        np.testing.assert_array_equal(block, before)
        _check_dense_ranks(block, ordered, ranks)
