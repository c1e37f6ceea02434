"""White-box tests for tuner internals: sweeps, snapping, materialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.blocks import BlockCollection
from repro.blocking.metablocking import MetaBlocking, NodeRanking, PairGraph
from repro.blocking.workflow import ComparisonPropagation
from repro.core.groundtruth import GroundTruth
from repro.core.profile import EntityCollection, EntityProfile
from repro.datasets.generator import DatasetSpec, ERDataset
from repro.datasets.registry import load_dataset
from repro.tuning import blocking as blocking_tuning
from repro.tuning import sparse as sparse_tuning
from repro.tuning import spaces
from repro.tuning.blocking import BlockingWorkflowTuner
from repro.tuning.learned import SupervisedMetaBlockingTuner
from repro.tuning.dense import EmbeddingCache, _first_feasible_k
from repro.sparse import EpsilonJoin, KNNJoin
from repro.sparse.kernels import query_tokens
from repro.sparse.knn_join import distinct_similarity_ranks
from repro.sparse.scancount import ScanCountIndex
from repro.sparse.similarity import vector_similarity_function
from repro.text import memo
from repro.text.tokenizers import RepresentationModel
from repro.tuning.sparse import (
    EpsilonJoinTuner,
    KNNJoinTuner,
    _OverlapMatrix,
    clear_overlap_cache,
    count_overlaps,
    overlap_counts,
    snap_down,
    tokenize_collection,
)
from repro.text.store import encode_sets


class TestSnapDown:
    def test_snaps_to_grid(self):
        assert snap_down(0.537) == pytest.approx(0.53)

    def test_exact_grid_value_kept(self):
        assert snap_down(0.50) == pytest.approx(0.50)

    def test_never_below_minimum(self):
        assert snap_down(0.001) == pytest.approx(0.01)

    def test_never_exceeds_input(self):
        for value in (0.011, 0.5, 0.999):
            assert snap_down(value) <= value + 1e-12

    def test_every_grid_point_snaps_to_itself(self):
        # floor(0.29 / 0.01) is 28: the division lands just below the
        # integer for 0.29, 0.47, 0.57, 0.58, 0.59 and 0.94.
        for step in range(1, 101):
            assert snap_down(step / 100) == step / 100, step

    def test_largest_grid_value_at_or_below(self):
        rng = np.random.default_rng(0)
        for value in rng.uniform(0.01, 1.0, size=5000).tolist():
            snapped = snap_down(value)
            assert snapped <= value < snapped + 0.01, value
            assert snapped == round(snapped, 2), value

    def test_dice_duplicate_on_a_grid_point_keeps_its_threshold(self):
        # Overlap 29 at sizes 60/40 scores exactly 2 * 29 / 100 = 0.58.
        assert snap_down(2 * 29 / (60 + 40)) == 0.58


def _seeded_cell(seed):
    """Indexed sets, query sets and (indexed, query) duplicates."""
    rng = np.random.default_rng(seed)
    vocabulary = [f"t{i}" for i in range(60)]

    def token_sets(count):
        return [
            frozenset(rng.choice(vocabulary, rng.integers(1, 30), False))
            for __ in range(count)
        ]

    indexed = token_sets(150)
    # Query q is a noisy copy of indexed set sources[q] (one token
    # swapped), so the duplicates land at every rank from the top down;
    # the shuffled sources keep (set, query) ids from lining up.
    sources = rng.permutation(len(indexed))[:40].tolist()
    queries = [
        (indexed[source] - {sorted(indexed[source])[0]})
        | {str(rng.choice(vocabulary))}
        for source in sources
    ]
    gt_pairs = list(zip(sources, range(len(queries))))
    return indexed, queries, gt_pairs


def _matrix(indexed, queries, gt_pairs):
    return _OverlapMatrix(count_overlaps(indexed, queries), gt_pairs)


def _reference_histograms(indexed, queries, gt_pairs, measure, k_max):
    """Brute force over ``batch_overlaps`` rows, one query at a time.

    A row's rank is the number of distinct similarities of its query at
    or above its own: ``len(np.unique(s[s >= v]))``.
    """
    index = ScanCountIndex(indexed)
    query_ptr, set_ids, counts = index.batch_overlaps(queries)
    similarity = vector_similarity_function(measure)
    duplicates = set(gt_pairs)
    count_hist = np.zeros(k_max + 1, dtype=np.int64)
    dup_hist = np.zeros(k_max + 1, dtype=np.int64)
    for query, tokens in enumerate(queries):
        lo, hi = query_ptr[query], query_ptr[query + 1]
        sets = set_ids[lo:hi]
        sims = similarity(
            index.sizes[sets], np.full(hi - lo, len(tokens)), counts[lo:hi]
        )
        for set_id, value in zip(sets.tolist(), sims):
            rank = len(np.unique(sims[sims >= value]))
            if rank <= k_max:
                count_hist[rank] += 1
                dup_hist[rank] += (set_id, query) in duplicates
    return count_hist, dup_hist


class TestKNNRankHistograms:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k_max", [1, 5, 50])
    @pytest.mark.parametrize("measure", ["cosine", "jaccard"])
    def test_preselection_matches_ranking_every_row(
        self, measure, k_max, seed
    ):
        indexed, queries, gt_pairs = _seeded_cell(seed)
        forward = _matrix(indexed, queries, gt_pairs)
        reversed_pairs = [(query, set_id) for set_id, query in gt_pairs]
        # The reverse (RVS) direction reads the forward transpose.
        for matrix, expected in (
            (forward, _reference_histograms(
                indexed, queries, gt_pairs, measure, k_max
            )),
            (forward.transposed(), _reference_histograms(
                queries, indexed, reversed_pairs, measure, k_max
            )),
        ):
            got = KNNJoinTuner._rank_histograms(matrix, measure, k_max)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])
            assert got[1].sum() > 0  # the duplicates reach the histogram

    def test_blocks_match_one_block(self, monkeypatch):
        # The reverse direction has 150 queries: 22 blocks of 7.
        matrix = _matrix(*_seeded_cell(0)).transposed()
        whole = KNNJoinTuner._rank_histograms(matrix, "cosine", 50)
        monkeypatch.setattr(sparse_tuning, "QUERY_BLOCK", 7)
        split = KNNJoinTuner._rank_histograms(matrix, "cosine", 50)
        np.testing.assert_array_equal(whole[0], split[0])
        np.testing.assert_array_equal(whole[1], split[1])


class TestOverlapMatrix:
    @pytest.mark.parametrize("seed", range(3))
    def test_transpose_equals_index_built_the_other_way(self, seed):
        indexed, queries, gt_pairs = _seeded_cell(seed)
        flipped = _matrix(indexed, queries, gt_pairs).transposed()
        built = _matrix(
            queries, indexed, [(query, set_id) for set_id, query in gt_pairs]
        )
        assert flipped.counts.flags.c_contiguous
        for name in ("counts", "set_sizes", "query_sizes", "gt_sets",
                     "gt_queries"):
            np.testing.assert_array_equal(
                getattr(flipped, name), getattr(built, name)
            )

    def test_counts_match_batch_overlaps_rows(self):
        indexed, queries, gt_pairs = _seeded_cell(1)
        matrix = _matrix(indexed, queries, gt_pairs)
        query_ptr, set_ids, counts = ScanCountIndex(indexed).batch_overlaps(
            queries
        )
        query_ids = np.repeat(np.arange(len(queries)), np.diff(query_ptr))
        np.testing.assert_array_equal(matrix.counts[query_ids, set_ids], counts)
        assert np.count_nonzero(matrix.counts) == len(counts)

    def test_knn_tune_runs_one_overlap_pass_per_cleaning_and_model(
        self, calls
    ):
        KNNJoinTuner(profile="fast", prune=False).tune(load_dataset("d2"))
        # 2 cleanings x 5 models; the RVS direction reuses the transpose.
        assert calls["batch_overlaps"] == 10
        # One sorted block per (cleaning, RVS, model, measure).
        assert calls["ranks"] == 40


@pytest.fixture()
def calls(monkeypatch):
    """Counts of overlap passes and sorted blocks, from a cold memo."""
    counted = {"batch_overlaps": 0, "ranks": 0}
    batch_overlaps = ScanCountIndex.batch_overlaps

    def counted_overlaps(self, *args, **kwargs):
        counted["batch_overlaps"] += 1
        return batch_overlaps(self, *args, **kwargs)

    def counted_ranks(block):
        counted["ranks"] += 1
        return distinct_similarity_ranks(block)

    monkeypatch.setattr(ScanCountIndex, "batch_overlaps", counted_overlaps)
    monkeypatch.setattr(
        sparse_tuning, "distinct_similarity_ranks", counted_ranks
    )
    clear_overlap_cache()
    yield counted
    clear_overlap_cache()


def _memo_bytes():
    memo_entries = sparse_tuning._overlap_memo.values()
    return sum(entry.nbytes for entry in memo_entries)


def _tuned(dataset):
    """(params, pc, pq, |C|, feasible) of both fast-profile sparse tuners."""
    return [
        (result.params, result.pc, result.pq, result.candidates,
         result.feasible)
        for result in (
            tuner(profile="fast").tune(dataset)
            for tuner in (EpsilonJoinTuner, KNNJoinTuner)
        )
    ]


class TestOverlapMemo:
    """One overlap matrix per (collection pair, cleaning, model)."""

    def test_both_tuners_share_one_pass_per_cleaning_and_model(self, calls):
        dataset = load_dataset("d2")
        EpsilonJoinTuner(profile="fast").tune(dataset)
        assert calls["batch_overlaps"] == 10
        KNNJoinTuner(profile="fast", prune=False).tune(dataset)
        # The kNN tuner reads every forward matrix from the memo.
        assert calls["batch_overlaps"] == 10
        assert calls["ranks"] == 40

    def test_memo_arrays_are_read_only(self, calls):
        overlaps = overlap_counts(["a b", "c d"], ["a c", "d"], "T1G", False)
        assert overlaps.counts.tolist() == [[1, 1], [0, 1]]
        for array in overlaps:
            with pytest.raises(ValueError):
                array[0] = 7
        # The tuner's view shares the read-only arrays.
        matrix = _OverlapMatrix(overlaps, [(0, 0)])
        with pytest.raises(ValueError):
            matrix.counts[0, 0] = 7

    def test_equal_size_texts_get_different_entries(self, calls):
        left = ["sonacore laptop", "veltron mouse"]
        first = overlap_counts(
            left, ["sonacore laptop", "mouse"], "T1G", False
        )
        second = overlap_counts(
            left, ["quantix router", "camera"], "T1G", False
        )
        assert len(sparse_tuning._overlap_memo) == 2
        assert calls["batch_overlaps"] == 2
        assert first.counts.tolist() == [[2, 0], [0, 1]]
        assert second.counts.tolist() == [[0, 0], [0, 0]]
        # The same texts again, as a fresh list, hit their own entry.
        assert overlap_counts(
            list(left), ["quantix router", "camera"], "T1G", False
        ) is second
        assert calls["batch_overlaps"] == 2

    @pytest.mark.parametrize("entries", [0, 2.5])
    def test_budget_bounds_the_memo_and_keeps_results(
        self, calls, monkeypatch, entries
    ):
        dataset = load_dataset("d2")
        unbounded = _tuned(dataset)
        entry = next(iter(sparse_tuning._overlap_memo.values())).nbytes
        clear_overlap_cache()
        budget = int(entries * entry)
        monkeypatch.setattr(sparse_tuning, "OVERLAP_MEMO_BYTES", budget)
        held = []
        unwrapped = sparse_tuning.overlap_counts

        def watched(*args, **kwargs):
            result = unwrapped(*args, **kwargs)
            held.append(_memo_bytes())
            return result

        monkeypatch.setattr(sparse_tuning, "overlap_counts", watched)
        passes = calls["batch_overlaps"]
        assert _tuned(dataset) == unbounded
        assert held and max(held) <= budget
        # The grid cycles through more entries than fit, so LRU keeps
        # none of them for the kNN tuner: 10 passes per tuner.
        assert calls["batch_overlaps"] - passes == 20


def _edge_dataset(left_texts, right_texts, gt_pairs):
    spec = DatasetSpec(
        name="edge", domain="product", size1=4, size2=4, duplicates=1, seed=1
    )
    return ERDataset(
        spec=spec,
        left=EntityCollection(
            [EntityProfile(f"a{i}", {"title": t})
             for i, t in enumerate(left_texts)],
            name="left",
        ),
        right=EntityCollection(
            [EntityProfile(f"b{i}", {"title": t})
             for i, t in enumerate(right_texts)],
            name="right",
        ),
        groundtruth=GroundTruth(gt_pairs),
    )


_LEFT = [
    "sonacore ultra laptop X100",
    "veltron compact mouse M20",
    "quantix wireless router R7",
    "sonacore ultra laptop X200",
]
_RIGHT = [
    "sonacore ultra laptop X100 edition",
    "veltron compact mouse M20",
    "quantix wireles router R7",
    "aerolite digital camera C5",
]
_EJ_FALLBACK = {
    "cleaning": False, "model": "T1G", "measure": "cosine", "threshold": 1.0
}
_KNN_FALLBACK = {
    "cleaning": False, "reverse": False, "model": "T1G", "measure": "cosine",
    "k": 50,
}

#: (left, right, groundtruth, EJ result, kNNJ result); each result is
#: (params, pc, pq, candidates, feasible) as the row-list tuners (the
#: flat overlap rows this matrix replaced) returned them.
_EDGE_CASES = {
    "empty-left": (
        [], _RIGHT, [],
        (_EJ_FALLBACK, 0.0, 0.0, 0, False),
        (_KNN_FALLBACK, 0.0, 0.0, 0, False),
    ),
    "empty-right": (
        _LEFT, [], [],
        (_EJ_FALLBACK, 0.0, 0.0, 0, False),
        (_KNN_FALLBACK, 0.0, 0.0, 0, False),
    ),
    "empty-groundtruth": (
        _LEFT, _RIGHT, [],
        (_EJ_FALLBACK, 0.0, 0.0, 1, False),
        (_KNN_FALLBACK, 0.0, 0.0, 4, False),
    ),
    # The blank pair is a duplicate sharing no token: never found.
    "blank-entity-per-side": (
        _LEFT + [""], _RIGHT + [""], [(0, 0), (1, 1), (2, 2), (4, 4)],
        ({}, 0.0, 0.0, 0, False),
        (_KNN_FALLBACK, 0.75, 0.75, 4, False),
    ),
    "blank-entity-per-side-unpaired": (
        [""] + _LEFT, _RIGHT + [""], [(1, 0), (2, 1), (3, 2)],
        (dict(_EJ_FALLBACK, threshold=0.75), 1.0, 1.0, 3, True),
        (dict(_KNN_FALLBACK, k=1), 1.0, 1.0, 3, True),
    ),
}


class TestSparseTunerEdgeCases:
    @pytest.mark.parametrize("case", sorted(_EDGE_CASES))
    @pytest.mark.parametrize("tuner", [EpsilonJoinTuner, KNNJoinTuner])
    def test_result_is_pinned(self, tuner, case):
        left, right, gt_pairs, ej, knn = _EDGE_CASES[case]
        result = tuner(profile="fast").tune(
            _edge_dataset(left, right, gt_pairs)
        )
        expected = ej if tuner is EpsilonJoinTuner else knn
        got = (
            result.params, result.pc, result.pq, result.candidates,
            result.feasible,
        )
        assert got == expected


class TestFirstFeasibleK:
    def make_counts(self, n_index, n_queries, k_max):
        return np.array(
            [min(k, n_index) * n_queries for k in range(k_max + 1)],
            dtype=np.int64,
        )

    def test_picks_first_feasible(self):
        # 10 duplicates; 8 found at rank 0, 1 more at rank 2, 1 at rank 4.
        rank_hits = np.array([8.0, 0.0, 1.0, 0.0, 1.0])
        counts = self.make_counts(100, 50, 5)
        k, pc, pq, candidates = _first_feasible_k(
            rank_hits, counts, 10, [1, 2, 3, 4, 5], target=0.9
        )
        assert k == 3  # cumulative hits: 8, 8, 9 -> 0.9 reached at k=3
        assert pc == pytest.approx(0.9)
        assert candidates == 3 * 50

    def test_infeasible_returns_last_k(self):
        rank_hits = np.array([1.0, 0.0, 0.0])
        counts = self.make_counts(10, 5, 3)
        k, pc, __, __ = _first_feasible_k(
            rank_hits, counts, 10, [1, 2, 3], target=0.9
        )
        assert k == 3
        assert pc < 0.9

    def test_fractional_hits_from_averaging(self):
        # Stochastic methods average hits over repetitions.
        rank_hits = np.array([4.5, 4.5])
        counts = self.make_counts(10, 10, 2)
        k, pc, __, __ = _first_feasible_k(
            rank_hits, counts, 10, [1, 2], target=0.9
        )
        assert k == 2
        assert pc == pytest.approx(0.9)


class TestEmbeddingCache:
    def test_keyed_by_cleaning_flag(self, left_collection):
        cache = EmbeddingCache()
        plain = cache.vectors(left_collection, None, False)
        cleaned = cache.vectors(left_collection, None, True)
        assert plain.shape == cleaned.shape
        assert len(cache._cache) == 2

    def test_keyed_by_attribute(self, left_collection):
        cache = EmbeddingCache()
        cache.vectors(left_collection, None, False)
        cache.vectors(left_collection, "title", False)
        assert len(cache._cache) == 2

    def test_returns_same_object(self, left_collection):
        cache = EmbeddingCache()
        a = cache.vectors(left_collection, None, False)
        b = cache.vectors(left_collection, None, False)
        assert a is b


class TestBuildWorkflow:
    def test_cp_cleaner(self):
        tuner = BlockingWorkflowTuner("SBW")
        workflow = tuner.build_filter({"cleaner": "CP"})
        assert isinstance(workflow.cleaner, ComparisonPropagation)

    def test_metablocking_cleaner_parsed(self):
        tuner = BlockingWorkflowTuner("SBW")
        workflow = tuner.build_filter(
            {"cleaner": "ARCS+RCNP", "purging": True, "ratio": 0.4}
        )
        assert isinstance(workflow.cleaner, MetaBlocking)
        assert workflow.cleaner.scheme == "ARCS"
        assert workflow.cleaner.pruning == "RCNP"
        assert workflow.purging is not None
        assert workflow.filtering.ratio == 0.4

    def test_builder_params_forwarded(self):
        tuner = BlockingWorkflowTuner("QBW")
        workflow = tuner.build_filter({"q": 4, "cleaner": "CP"})
        assert workflow.builder.q == 4

    def test_suffix_params_forwarded(self):
        tuner = BlockingWorkflowTuner("SABW")
        workflow = tuner.build_filter(
            {"l_min": 4, "b_max": 20, "cleaner": "CP"}
        )
        assert workflow.builder.l_min == 4
        assert workflow.builder.b_max == 20


class TestTokenizeCollection:
    def test_cleaning_applied(self):
        store = tokenize_collection(["the running dogs"], "T1G", True)
        assert store.token_sets() == [frozenset({"run", "dog"})]

    def test_no_cleaning(self):
        store = tokenize_collection(["the running dogs"], "T1G", False)
        assert "the" in store.token_sets()[0]

    def test_model_applied(self):
        store = tokenize_collection(["abc"], "C2G", False)
        assert store.token_sets() == [frozenset({"ab", "bc"})]

    def test_memoized_per_collection_model_cleaning(self):
        from repro.text.memo import _tokenize_cached, clear_tokenize_cache

        clear_tokenize_cache()
        texts = ["alpha beta", "gamma delta"]
        first = tokenize_collection(texts, "T1G", False)
        hits_before = _tokenize_cached.cache_info().hits
        second = tokenize_collection(list(texts), "T1G", False)
        assert _tokenize_cached.cache_info().hits == hits_before + 1
        assert second is first
        # Different model / cleaning are distinct cache entries.
        tokenize_collection(texts, "C2G", False)
        tokenize_collection(texts, "T1G", True)
        assert _tokenize_cached.cache_info().currsize >= 3
        clear_tokenize_cache()

    def test_memoized_result_is_read_only(self):
        texts = ["alpha beta"]
        first = tokenize_collection(texts, "T1G", False)
        for array in (first.ptr, first.ids):
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(TypeError):
            first.vocabulary[0] = "mutated"
        second = tokenize_collection(texts, "T1G", False)
        assert second.token_sets() == [frozenset({"alpha", "beta"})]


class TestCleanOnce:
    """The word-sequence memo: one cleaning pass per collection."""

    def test_fast_grid_cleans_each_collection_once(self):
        dataset = load_dataset("d2")
        memo.clear_tokenize_cache()
        clear_overlap_cache()  # a warm overlap memo skips tokenization
        try:
            for tuner in (
                EpsilonJoinTuner(profile="fast"),
                KNNJoinTuner(profile="fast", prune=False),
                KNNJoinTuner(profile="fast", prune=True),
            ):
                tuner.tune(dataset)
            # Every (side, model, cleaning) store read the memo, but
            # left and right were each tokenized once and cleaned once
            # for the whole grid: one word sequence per (side, cleaning).
            models = spaces.representation_models("fast")
            stores = memo._tokenize_cached.cache_info()
            assert stores.hits + stores.misses > 4 * len(models)
            assert stores.misses == 4 * len(models)
            words = memo._words.cache_info()
            assert words.misses == 4
            assert words.currsize == 4
        finally:
            memo.clear_tokenize_cache()

    def test_clear_drops_every_memo(self):
        memo.tokenize_collection(["the running dogs"], "C3GM", True)
        memo.clear_tokenize_cache()
        for cached in (memo._words, memo._sequence, memo._tokenize_cached):
            assert cached.cache_info().currsize == 0

    def test_filters_clean_on_their_own(self):
        # A filter's preprocessing is part of its measured run-time, so
        # it must never be served from the tuners' memo.
        dataset = load_dataset("d2")
        memo.clear_tokenize_cache()
        for join in (
            EpsilonJoin(threshold=0.5, model="C3GM", cleaning=True),
            KNNJoin(k=2, model="T1G", cleaning=True),
        ):
            join.candidates(dataset.left, dataset.right)
        for cached in (memo._words, memo._sequence, memo._tokenize_cached):
            assert cached.cache_info().currsize == 0


def loop_query_tokens(vocabulary, queries):
    """The per-query ``sorted`` loop ``query_tokens`` replaced."""
    lengths = np.zeros(len(queries), dtype=np.int64)
    sizes = np.zeros(len(queries), dtype=np.int64)
    parts = []
    for position, query in enumerate(queries):
        sizes[position] = len(query)
        ids = sorted(
            vocabulary[token] for token in query if token in vocabulary
        )
        lengths[position] = len(ids)
        if ids:
            parts.append(ids)
    flat = (
        np.asarray([i for part in parts for i in part], dtype=np.int64)
        if parts
        else np.zeros(0, dtype=np.int64)
    )
    ptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lengths)))
    return ptr, flat, sizes


def assert_same_encoding(indexed, queries):
    vocabulary = ScanCountIndex(indexed).vocabulary
    encoded = query_tokens(vocabulary, encode_sets(queries))
    got = (encoded.ptr, encoded.token_ids, encoded.sizes)
    for actual, expected in zip(got, loop_query_tokens(vocabulary, queries)):
        assert actual.dtype == expected.dtype == np.int64
        assert np.array_equal(actual, expected)


TOKENS = st.sampled_from([f"t{i}" for i in range(12)] + ["oov1", "oov2"])


class TestQueryTokens:
    INDEXED = [frozenset({"a", "b"}), frozenset({"b", "c", "d"})]

    def test_empty_query_list(self):
        assert_same_encoding(self.INDEXED, [])

    def test_empty_query_sets(self):
        assert_same_encoding(self.INDEXED, [frozenset(), frozenset({"a"}),
                                            frozenset()])

    def test_all_oov_queries(self):
        assert_same_encoding(self.INDEXED, [frozenset({"x", "y"}),
                                            frozenset({"z"})])

    def test_empty_index(self):
        assert_same_encoding([], [frozenset({"a"}), frozenset()])

    def test_multiset_tokens(self):
        model = RepresentationModel("C3GM")
        indexed = [model.tokens(t) for t in ("aaaa bbb", "abab abab", "")]
        queries = [model.tokens(t) for t in ("aaaaaa", "abab", "zzz", "")]
        assert_same_encoding(indexed, queries)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.frozensets(TOKENS, max_size=6), max_size=8),
        st.lists(st.frozensets(TOKENS, max_size=6), max_size=8),
    )
    def test_matches_loop(self, indexed, queries):
        assert_same_encoding(indexed, queries)


class TestSharedGraphWork:
    """Work that does not depend on the configuration runs once."""

    @pytest.fixture()
    def ranking_log(self, monkeypatch):
        """Per dense rank, the (graph, weight vector) it ranked."""
        graphs = []  # kept alive, so ids stay unique
        keys = {}
        ranked = []
        node_ranking = PairGraph.node_ranking
        dense_rank = NodeRanking._dense_rank

        def logged_node_ranking(graph, weights):
            ranking = node_ranking(graph, weights)
            graphs.append(graph)
            keys[id(ranking)] = (id(graph), np.asarray(weights).tobytes())
            return ranking

        def logged_dense_rank(ranking):
            ranked.append(keys[id(ranking)])
            return dense_rank(ranking)

        monkeypatch.setattr(PairGraph, "node_ranking", logged_node_ranking)
        monkeypatch.setattr(NodeRanking, "_dense_rank", logged_dense_rank)
        return graphs, ranked

    def test_blocking_tuner(self, ranking_log, monkeypatch):
        _, ranked = ranking_log
        calls = {"graphs": 0, "prune_mask": 0, "distinct_pairs": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        # The tuner's own graphs and masks; the runtime measurement of the
        # winner goes through MetaBlocking and is not counted.
        monkeypatch.setattr(
            blocking_tuning, "PairGraph", counted("graphs", PairGraph)
        )
        monkeypatch.setattr(
            blocking_tuning,
            "prune_mask",
            counted("prune_mask", blocking_tuning.prune_mask),
        )
        monkeypatch.setattr(
            BlockCollection,
            "distinct_pairs",
            counted("distinct_pairs", BlockCollection.distinct_pairs),
        )
        result = BlockingWorkflowTuner("SBW").tune(load_dataset("d1"))

        assert calls["distinct_pairs"] == 0
        # One Comparison Propagation row per graph; every other row is
        # one meta-blocking configuration with exactly one prune_mask.
        configurations = len(spaces.weighting_schemes()) * len(
            spaces.pruning_algorithms()
        )
        assert calls["prune_mask"] == (
            result.configurations_tried - calls["graphs"]
        )
        assert calls["prune_mask"] % configurations == 0
        swept = calls["prune_mask"] // configurations
        assert swept > 0
        # At most one dense rank per (graph, weighting scheme).
        assert 0 < len(ranked) <= swept * len(spaces.weighting_schemes())
        assert len(set(ranked)) == len(ranked)

    def test_smb_tuner(self, ranking_log):
        graphs, ranked = ranking_log
        SupervisedMetaBlockingTuner().tune(load_dataset("d1"))
        tuner_graph = id(graphs[0])
        # One dense rank per (model, sample size), shared by every k.
        assert sum(graph == tuner_graph for graph, _ in ranked) == len(
            spaces.smb_models()
        ) * len(spaces.smb_sample_sizes())
        assert len(set(ranked)) == len(ranked)
