"""Exactness of the vocabulary-coded token store and its ScanCount use.

The store (:mod:`repro.text.store`) must decode to exactly the token
sets the representation models build from (cleaned) text, and a
:class:`ScanCountIndex` built and queried from codes must answer every
query path byte-identically to one built from those frozensets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.registry import load_dataset
from repro.sparse.scancount import ScanCountIndex
from repro.text import memo
from repro.text.cleaning import TextCleaner
from repro.text.store import (
    TokenStore, as_store, encode_sets, encode_texts, word_sequence,
)
from repro.text.tokenizers import (
    REPRESENTATION_MODELS, RepresentationModel, word_tokens,
)

#: Word pieces covering the encoder's edge cases: stop-words,
#: punctuation, non-ASCII, words shorter than q, heavily repeated
#: grams (multiset ``#n``), stems, digits and case.
PIECES = [
    "the", "and", "of", "a", "is",
    "!!", ",", "--", "...", "()",
    "café", "naïve", "Straße", "İstanbul", "日本", "ñ",
    "x", "ab", "x1", "q",
    "aaaaaaaa", "abab", "abababab", "zzzzz",
    "running", "dogs", "connection", "generously", "ULTRA", "x100", "2024",
]
SEPARATORS = [" ", "  ", "-", ".", "\t", "/"]
#: Pieces for the one-pass word tokenizer: newlines inside a text, the
#: separator word it uses, and characters whose lowercase is
#: context-dependent (final sigma), longer (dotted capital I) or ASCII
#: (Kelvin sign).
NEWLINE_PIECES = [
    "\n", "\r\n", " ", "|", "a|b", "ΣΑΣ", "ΟΔΟΣ\n", "σ", "İ", "İx",
    "\u212a", "\u212aelvin", "word", "W0rd", "\u0307", "\x00", "é",
]

texts_strategy = st.lists(
    st.one_of(
        st.lists(
            st.tuples(st.sampled_from(PIECES), st.sampled_from(SEPARATORS)),
            max_size=12,
        ).map(lambda parts: "".join(p + s for p, s in parts)),
        st.just(""),
        st.text(max_size=20),
    ),
    max_size=8,
)


def expected_sets(texts, model, cleaning):
    cleaner = TextCleaner()
    representation = RepresentationModel(model)
    return [
        representation.tokens(cleaner.clean(text) if cleaning else text)
        for text in texts
    ]


def assert_well_formed(store: TokenStore, rows: int):
    assert len(store) == rows
    assert store.ptr.dtype == np.int64 and store.ids.dtype == np.int32
    assert len(set(store.vocabulary)) == len(store.vocabulary)
    for row in range(rows):
        ids = store.ids[store.ptr[row] : store.ptr[row + 1]]
        assert len(np.unique(ids)) == len(ids)


class TestStoreDecodes:
    @settings(max_examples=60, deadline=None)
    @given(texts_strategy)
    def test_every_model_and_cleaning(self, texts):
        for model in REPRESENTATION_MODELS:
            for cleaning in (False, True):
                expected = expected_sets(texts, model, cleaning)
                store = encode_texts(texts, model, cleaning)
                assert_well_formed(store, len(texts))
                assert store.token_sets() == expected, (model, cleaning)
                assert list(store.sizes) == [len(s) for s in expected]
                memoised = memo.tokenize_collection(texts, model, cleaning)
                assert memoised.token_sets() == expected, (model, cleaning)
        memo.clear_tokenize_cache()

    @settings(max_examples=60, deadline=None)
    @given(texts_strategy)
    def test_clean_collection_matches_cleaner(self, texts):
        cleaner = TextCleaner()
        assert memo.clean_collection(texts) == [cleaner.clean(t) for t in texts]
        memo.clear_tokenize_cache()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                texts_strategy.map(" ".join),
                st.lists(st.sampled_from(NEWLINE_PIECES), max_size=10).map(
                    "".join
                ),
                st.text(max_size=20),
            ),
            max_size=8,
        )
    )
    def test_word_sequence_matches_word_tokens(self, texts):
        sequence = word_sequence(texts)
        assert len(sequence.ptr) == len(texts) + 1
        assert sequence.ptr.dtype == np.int64 and sequence.ids.dtype == np.int32
        bounds = sequence.ptr.tolist()
        assert [
            [sequence.tokens[i] for i in sequence.ids[lo:hi].tolist()]
            for lo, hi in zip(bounds, bounds[1:])
        ] == [word_tokens(text) for text in texts]
        # Every token occurs, ids dense by first use.
        assert sorted(set(sequence.ids.tolist())) == list(
            range(len(sequence.tokens))
        )

    def test_word_sequence_degenerate_collections(self):
        for texts in ([], [""], ["", ""], ["\n"], ["a\nb", "\n\nc", ""]):
            bounds = word_sequence(texts).ptr.tolist()
            assert len(bounds) == len(texts) + 1
            assert bounds[-1] == sum(len(word_tokens(t)) for t in texts)

    def test_repeated_grams_number_every_occurrence(self):
        store = encode_texts(["aaaaaa aaaa"], "C3GM", False)
        assert store.token_sets() == [
            frozenset({"aaa#1", "aaa#2", "aaa#3", "aaa#4", "aaa#5", "aaa#6"})
        ]

    def test_degenerate_collections(self):
        for texts in ([], [""], ["the of and"], ["!!! ,,, ..."]):
            for model in REPRESENTATION_MODELS:
                store = encode_texts(texts, model, True)
                assert_well_formed(store, len(texts))
                assert store.token_sets() == expected_sets(texts, model, True)

    def test_dataset_collections(self):
        texts = load_dataset("d2").left.texts(None)
        for model in REPRESENTATION_MODELS:
            for cleaning in (False, True):
                store = encode_texts(texts, model, cleaning)
                assert store.token_sets() == expected_sets(
                    texts, model, cleaning
                )

    def test_take_and_encode_sets(self):
        texts = ["alpha beta", "", "beta gamma", "alpha"]
        store = encode_texts(texts, "T1G", False)
        taken = store.take([3, 0, 1])
        assert taken.vocabulary is store.vocabulary
        rows = store.token_sets()
        assert taken.token_sets() == [rows[3], rows[0], rows[1]]
        sets = expected_sets(texts, "C2GM", False)
        assert encode_sets(sets).token_sets() == sets
        assert as_store(store) is store


# ----------------------------------------------------------------------
# ScanCount from codes vs from frozensets.
# ----------------------------------------------------------------------


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for actual, wanted in zip(got, expected):
        assert actual.dtype == wanted.dtype
        assert actual.tobytes() == wanted.tobytes()


def kernel_pairs(index, consumer, queries, **params):
    shards = index.run_kernel(consumer, queries, 1, **params)
    if not shards:  # an empty batch has no shards
        return ()
    return (
        np.concatenate([shard.value[0] for shard in shards]),
        np.concatenate([shard.value[1] for shard in shards]),
    )


def assert_index_parity(left, right, model, cleaning):
    coded_sets = encode_texts(left, model, cleaning)
    coded_queries = encode_texts(right, model, cleaning)
    plain_sets = expected_sets(left, model, cleaning)
    plain_queries = expected_sets(right, model, cleaning)
    coded = ScanCountIndex(coded_sets)
    plain = ScanCountIndex(plain_sets)
    assert_same_arrays(coded.sizes, plain.sizes)
    assert_same_arrays(
        coded.batch_overlaps(coded_queries),
        plain.batch_overlaps(plain_queries),
    )
    # The reference: plain set intersections.
    query_ptr, set_ids, counts = coded.batch_overlaps(coded_queries)
    for position, query in enumerate(plain_queries):
        lo, hi = query_ptr[position], query_ptr[position + 1]
        expected = {
            set_id: len(tokens & query)
            for set_id, tokens in enumerate(plain_sets)
            if tokens & query
        }
        assert dict(zip(set_ids[lo:hi].tolist(), counts[lo:hi].tolist())) == (
            expected
        )
    assert_same_arrays(
        [coded.count_overlaps(coded_queries)],
        [plain.count_overlaps(plain_queries)],
    )
    for query in plain_queries:
        assert_same_arrays(coded.probe(query), plain.probe(query))
    for measure in ("cosine", "dice", "jaccard"):
        for threshold in (0.0, 0.3, 0.7, 1.0):
            assert_same_arrays(
                kernel_pairs(
                    coded, "epsilon", coded_queries,
                    threshold=threshold, measure=measure,
                ),
                kernel_pairs(
                    plain, "epsilon", plain_queries,
                    threshold=threshold, measure=measure,
                ),
            )
        for k in (1, 3):
            assert_same_arrays(
                kernel_pairs(coded, "knn", coded_queries, k=k, measure=measure),
                kernel_pairs(plain, "knn", plain_queries, k=k, measure=measure),
            )


class TestIndexFromCodes:
    LEFT = [
        "sonacore ultra laptop X100", "veltron compact mouse", "",
        "the quantix wireless router R7", "aaaa aaaa laptop",
    ]
    #: Matching, OOV-only ("zzqx wvvk") and empty queries.
    RIGHT = [
        "sonacore laptop X100 ultra", "zzqx wvvk", "", "the and of",
        "quantix router", "aaaa laptop compact",
    ]

    @pytest.mark.parametrize("model", REPRESENTATION_MODELS)
    @pytest.mark.parametrize("cleaning", [False, True])
    def test_every_query_path(self, model, cleaning):
        assert_index_parity(self.LEFT, self.RIGHT, model, cleaning)

    def test_dataset_cell(self):
        dataset = load_dataset("d2")
        left = dataset.left.texts(None)
        right = dataset.right.texts(None) + ["", "zzqx wvvk"]
        for model in ("T1G", "C3GM"):
            assert_index_parity(left, right, model, True)

    @settings(max_examples=40, deadline=None)
    @given(texts_strategy, texts_strategy, st.sampled_from(REPRESENTATION_MODELS))
    def test_random_texts(self, left, right, model):
        assert_index_parity(left, right, model, False)

    def test_empty_index_and_batch(self):
        empty = ScanCountIndex(encode_texts([], "T1G", False))
        queries = encode_texts(["alpha", ""], "T1G", False)
        query_ptr, set_ids, counts = empty.batch_overlaps(queries)
        assert query_ptr.tolist() == [0, 0, 0]
        assert len(set_ids) == len(counts) == 0
        index = ScanCountIndex(encode_texts(["alpha"], "T1G", False))
        no_queries = encode_texts([], "T1G", False)
        assert index.batch_overlaps(no_queries)[0].tolist() == [0]
        assert len(index.count_overlaps(no_queries)) == 0
