"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.blocks import Block, BlockCollection
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.metablocking import (
    PRUNING_ALGORITHMS,
    WEIGHTING_SCHEMES,
    ComparisonPropagation,
    MetaBlocking,
    PairGraph,
    prune_mask,
)
from repro.core.candidates import CandidateSet
from repro.core.groundtruth import GroundTruth
from repro.core.metrics import (
    evaluate_candidates,
    f_measure,
    pair_completeness,
    pairs_quality,
)
from repro.sparse.similarity import cosine, dice, jaccard
from repro.text.porter import stem
from repro.text.tokenizers import (
    character_qgrams,
    multiset_tokens,
    normalize,
    shingles,
    word_tokens,
)

pairs_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=80
)

texts = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs")),
    max_size=60,
)


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------

@given(pairs_strategy, pairs_strategy)
def test_metrics_bounded(candidate_pairs, gt_pairs):
    candidates = CandidateSet(candidate_pairs)
    groundtruth = GroundTruth(gt_pairs)
    pc = pair_completeness(candidates, groundtruth)
    pq = pairs_quality(candidates, groundtruth)
    assert 0.0 <= pc <= 1.0
    assert 0.0 <= pq <= 1.0


@given(pairs_strategy)
def test_perfect_candidates_have_perfect_recall(gt_pairs):
    groundtruth = GroundTruth(gt_pairs)
    candidates = CandidateSet(gt_pairs)
    if len(groundtruth):
        assert pair_completeness(candidates, groundtruth) == 1.0
        assert pairs_quality(candidates, groundtruth) == 1.0


@given(pairs_strategy, pairs_strategy)
def test_evaluation_consistency(candidate_pairs, gt_pairs):
    candidates = CandidateSet(candidate_pairs)
    groundtruth = GroundTruth(gt_pairs)
    evaluation = evaluate_candidates(candidates, groundtruth, 31, 31)
    assert evaluation.duplicates_found <= len(groundtruth)
    assert evaluation.duplicates_found <= len(candidates)
    assert evaluation.f1 == f_measure(evaluation.pc, evaluation.pq)


@given(st.floats(0, 1), st.floats(0, 1))
def test_f_measure_bounds(pc, pq):
    f1 = f_measure(pc, pq)
    assert 0.0 <= f1 <= 1.0
    assert f1 <= max(pc, pq) + 1e-12


# ----------------------------------------------------------------------
# Similarity measures.
# ----------------------------------------------------------------------

set_sizes = st.tuples(st.integers(0, 50), st.integers(0, 50))


@given(set_sizes, st.integers(0, 50))
def test_similarities_bounded(sizes, overlap):
    a, b = sizes
    overlap = min(overlap, a, b)
    for measure in (cosine, dice, jaccard):
        value = measure(a, b, overlap)
        assert 0.0 <= value <= 1.0 + 1e-9


@given(st.integers(1, 50))
def test_identical_sets_have_similarity_one(size):
    assert cosine(size, size, size) == 1.0
    assert dice(size, size, size) == 1.0
    assert jaccard(size, size, size) == 1.0


@given(set_sizes, st.integers(0, 50))
def test_jaccard_le_dice_le_cosine_ordering(sizes, overlap):
    a, b = sizes
    overlap = min(overlap, a, b)
    if a and b:
        assert jaccard(a, b, overlap) <= dice(a, b, overlap) + 1e-12
        # Dice <= Cosine by AM-GM: (a+b)/2 >= sqrt(ab).
        assert dice(a, b, overlap) <= cosine(a, b, overlap) + 1e-12


# ----------------------------------------------------------------------
# Tokenization.
# ----------------------------------------------------------------------

@given(texts)
def test_normalize_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


@given(texts)
def test_word_tokens_contain_no_whitespace(text):
    for token in word_tokens(text):
        assert " " not in token
        assert token == token.lower()


@given(texts, st.integers(2, 5))
def test_qgram_lengths(text, q):
    for gram in character_qgrams(text, q):
        assert 1 <= len(gram) <= q


@given(texts, st.integers(2, 5))
def test_shingle_count(text, k):
    normalized = normalize(text)
    result = shingles(text, k)
    if normalized:
        expected = max(1, len(normalized) - k + 1)
        assert len(result) == expected


@given(st.lists(st.sampled_from("abc"), max_size=20))
def test_multiset_tokens_bijective(tokens):
    counted = multiset_tokens(tokens)
    assert len(counted) == len(tokens)
    assert len(set(counted)) == len(counted)  # all distinct


@given(texts)
def test_stemmer_never_lengthens(text):
    for token in word_tokens(text):
        assert len(stem(token)) <= max(len(token), 2)


# ----------------------------------------------------------------------
# Blocking invariants.
# ----------------------------------------------------------------------

def _blocks_from_pairs(assignments):
    """Build a small random block collection from generated assignments."""
    blocks = []
    for key, (lefts, rights) in enumerate(assignments):
        blocks.append(
            Block(str(key), tuple(sorted(set(lefts))), tuple(sorted(set(rights))))
        )
    return BlockCollection(blocks)


block_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(0, 12), min_size=1, max_size=5),
        st.lists(st.integers(0, 12), min_size=1, max_size=5),
    ),
    min_size=1,
    max_size=10,
)


@given(block_strategy)
def test_comparison_propagation_no_recall_loss(assignments):
    blocks = _blocks_from_pairs(assignments)
    distinct = blocks.distinct_pairs()
    cleaned = ComparisonPropagation().clean(blocks)
    assert cleaned.as_frozenset() == distinct.as_frozenset()


@given(block_strategy)
def test_purging_returns_subset(assignments):
    blocks = _blocks_from_pairs(assignments)
    cleaned = BlockPurging().clean(blocks, total_entities=26)
    assert len(cleaned) <= len(blocks)
    original = {b.key for b in blocks}
    assert all(b.key in original for b in cleaned)


@given(block_strategy, st.sampled_from([0.2, 0.5, 0.8]))
def test_filtering_pairs_subset(assignments, ratio):
    blocks = _blocks_from_pairs(assignments)
    cleaned = BlockFiltering(ratio).clean(blocks)
    assert (
        cleaned.distinct_pairs().as_frozenset()
        <= blocks.distinct_pairs().as_frozenset()
    )


@given(block_strategy, st.sampled_from(WEIGHTING_SCHEMES))
@settings(max_examples=40)
def test_weights_finite_nonnegative(assignments, scheme):
    graph = PairGraph(_blocks_from_pairs(assignments))
    weights = graph.weights(scheme)
    assert np.all(np.isfinite(weights))
    assert np.all(weights >= 0.0)


@given(
    block_strategy,
    st.sampled_from(WEIGHTING_SCHEMES),
    st.sampled_from(PRUNING_ALGORITHMS),
)
@settings(max_examples=40)
def test_metablocking_subset_of_distinct_pairs(assignments, scheme, pruning):
    blocks = _blocks_from_pairs(assignments)
    cleaned = MetaBlocking(scheme, pruning).clean(blocks)
    assert cleaned.as_frozenset() <= blocks.distinct_pairs().as_frozenset()


@given(block_strategy)
def test_distinct_pairs_match_per_block_reference(assignments):
    blocks = _blocks_from_pairs(assignments)
    reference = {(l, r) for block in blocks for l in block.left for r in block.right}
    assert list(blocks.distinct_pairs()) == sorted(reference)


# ----------------------------------------------------------------------
# Pruning monotonicity.
# ----------------------------------------------------------------------

@given(block_strategy)
@settings(max_examples=30)
def test_reciprocal_pruning_subsets(assignments):
    graph = PairGraph(_blocks_from_pairs(assignments))
    if not len(graph):
        return
    weights = graph.weights("CBS")
    assert np.all(
        ~prune_mask(graph, weights, "RCNP") | prune_mask(graph, weights, "CNP")
    )
    assert np.all(
        ~prune_mask(graph, weights, "RWNP") | prune_mask(graph, weights, "WNP")
    )
