"""Array-built block collections against their object-level definitions.

Every key-grouping builder groups one vocabulary-coded signature store
into CSR blocks (:meth:`BlockCollection.from_store`), and Block Purging,
Block Filtering and the blocking graph work on those arrays.  Here each
of them is checked against a plain-Python reference: a dict of lists
over the builder's ``keys()`` for the blocks, and per-block loops over
:class:`Block` objects for the cleaning steps and the graph.
"""

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.blocks import (
    Block,
    BlockCollection,
    BlockMembers,
    build_blocks_from_keys,
)
from repro.blocking.building import (
    BlockBuilder,
    ExtendedQGramsBlocking,
    ExtendedSuffixArraysBlocking,
    QGramsBlocking,
    SortedNeighborhoodBlocking,
    StandardBlocking,
    SuffixArraysBlocking,
)
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.metablocking import PairGraph
from repro.core.profile import EntityCollection, EntityProfile
from repro.datasets.registry import load_dataset
from repro.tuning import blocking as blocking_tuning
from repro.tuning import spaces

#: Words covering the builders' edge cases: shared and one-sided
#: tokens, tokens shorter than q and l_min, repeated grams, digits,
#: non-ASCII words (dropped or split by the tokenizer) and punctuation.
WORDS = [
    "laptop", "laptops", "lap", "ultra", "x1", "x100", "ab", "q",
    "aaaaaa", "abab", "sonacore", "sonacor", "2024",
    "café", "İstanbul", "日本", "Σοφία", "Kelvin", "!!", "--", "",
]

_text = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
_sides = st.lists(_text, max_size=6)


def collection(texts):
    return EntityCollection(
        EntityProfile(f"e{i}", {"text": text} if text else {})
        for i, text in enumerate(texts)
    )


def reference_blocks(builder, left_texts, right_texts, cap=None):
    """Dict-of-lists grouping of ``keys()``: sorted keys, ids ascending."""
    by_key = defaultdict(lambda: ([], []))
    for side, texts in enumerate((left_texts, right_texts)):
        for entity, text in enumerate(texts):
            for key in builder.keys(text):
                by_key[key][side].append(entity)
    return [
        (key, tuple(lefts), tuple(rights))
        for key, (lefts, rights) in sorted(by_key.items())
        if lefts and rights
        and (cap is None or len(lefts) + len(rights) <= cap)
    ]


def reference_sorted_neighborhood(builder, left_texts, right_texts):
    """Sliding windows over the (key, side, entity)-sorted entries."""
    entries = sorted(
        (key, side, entity)
        for side, texts in enumerate((left_texts, right_texts))
        for entity, text in enumerate(texts)
        for key in builder.keys(text)
    )
    blocks = []
    for start in range(max(0, len(entries) - builder.window + 1)):
        window = entries[start : start + builder.window]
        lefts = tuple(sorted({e for _, side, e in window if side == 0}))
        rights = tuple(sorted({e for _, side, e in window if side == 1}))
        if lefts and rights:
            blocks.append((f"w{start}", lefts, rights))
    return blocks


def as_tuples(blocks):
    return [(block.key, block.left, block.right) for block in blocks]


BUILDERS = [
    StandardBlocking(),
    QGramsBlocking(2),
    QGramsBlocking(3),
    QGramsBlocking(5),
    ExtendedQGramsBlocking(3, 0.85),
    SuffixArraysBlocking(2, 4),
    SuffixArraysBlocking(3, 100),
    ExtendedSuffixArraysBlocking(3, 3),
    ExtendedSuffixArraysBlocking(2, 50),
]


def assert_builds_reference(builder, left_texts, right_texts):
    built = builder.build(collection(left_texts), collection(right_texts))
    if isinstance(builder, SortedNeighborhoodBlocking):
        expected = reference_sorted_neighborhood(
            builder, left_texts, right_texts
        )
    else:
        expected = reference_blocks(
            builder, left_texts, right_texts, getattr(builder, "b_max", None)
        )
    assert as_tuples(built) == expected, builder.describe()
    assert len(built) == len(expected)
    assert built.total_comparisons == sum(
        len(left) * len(right) for _, left, right in expected
    )
    assert built.total_assignments == sum(
        len(left) + len(right) for _, left, right in expected
    )


class TestBuildersMatchKeyGrouping:
    @settings(max_examples=60, deadline=None)
    @given(_sides, _sides)
    def test_random_texts(self, left_texts, right_texts):
        for builder in BUILDERS + [SortedNeighborhoodBlocking(3)]:
            assert_builds_reference(builder, left_texts, right_texts)

    @pytest.mark.parametrize("name", ["d1", "d2"])
    def test_datasets(self, name):
        dataset = load_dataset(name)
        left, right = dataset.left.texts(), dataset.right.texts()
        for builder in BUILDERS + [SortedNeighborhoodBlocking(4)]:
            assert_builds_reference(builder, left, right)

    @pytest.mark.parametrize(
        "left_texts, right_texts",
        [
            ([], []),
            (["laptop ultra"], []),
            ([], ["laptop"]),
            (["", "!!"], ["日本", ""]),
            (["laptop"], ["ultra"]),  # every key one-sided
            (["x1 x1 laptop"], ["laptop x1", "laptop"]),
        ],
    )
    def test_degenerate_inputs(self, left_texts, right_texts):
        for builder in BUILDERS + [SortedNeighborhoodBlocking(2)]:
            assert_builds_reference(builder, left_texts, right_texts)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sets(st.sampled_from(WORDS)), max_size=6),
        st.lists(st.lists(st.sampled_from(WORDS)), max_size=6),
    )
    def test_build_blocks_from_keys(self, left_keys, right_keys):
        by_key = defaultdict(lambda: ([], []))
        for side, keys in enumerate((left_keys, right_keys)):
            for entity, entity_keys in enumerate(keys):
                for key in set(entity_keys):
                    by_key[key][side].append(entity)
        expected = [
            (key, tuple(lefts), tuple(rights))
            for key, (lefts, rights) in sorted(by_key.items())
            if lefts and rights
        ]
        built = build_blocks_from_keys(left_keys, right_keys)
        assert as_tuples(built) == expected

    def test_standard_and_qgram_stores_are_their_keys(self):
        texts = load_dataset("d2").left.texts() + ["", "İstanbul café x1"]
        for builder in (StandardBlocking(), QGramsBlocking(3), QGramsBlocking(11)):
            expected = [frozenset(builder.keys(text)) for text in texts]
            assert builder.key_store(texts).token_sets() == expected
            # The generic ``keys()`` encoding agrees.
            assert BlockBuilder.key_store(builder, texts).token_sets() == expected


# ----------------------------------------------------------------------
# Cleaning and the blocking graph on array-built collections.
# ----------------------------------------------------------------------


def reference_purging(blocks, total_entities):
    threshold = 0.5 * total_entities
    return [
        (block.key, block.left, block.right)
        for block in blocks
        if block.size <= threshold
    ]


def reference_filtering(blocks, ratio):
    """Per entity, the ``max(1, ceil(ratio * n))`` blocks of fewest
    comparisons (ties by block index) keep it."""
    blocks = list(blocks)
    kept = []
    for side in ("left", "right"):
        of_entity = defaultdict(list)
        for index, block in enumerate(blocks):
            for entity in getattr(block, side):
                of_entity[entity].append(index)
        keep = {}
        for entity, indices in of_entity.items():
            limit = max(1, math.ceil(ratio * len(indices)))
            ordered = sorted(indices, key=lambda i: (blocks[i].comparisons, i))
            keep[entity] = set(ordered[:limit])
        kept.append(keep)
    rebuilt = []
    for index, block in enumerate(blocks):
        lefts = tuple(e for e in block.left if index in kept[0][e])
        rights = tuple(e for e in block.right if index in kept[1][e])
        if lefts and rights:
            rebuilt.append((block.key, lefts, rights))
    return rebuilt


def reference_graph(blocks):
    """Per distinct pair, in (left, right) order: |B_ij| and ARCS."""
    common, arcs = defaultdict(int), defaultdict(float)
    for block in blocks:
        for left in block.left:
            for right in block.right:
                common[(left, right)] += 1
                arcs[(left, right)] += 1.0 / block.comparisons
    pairs = sorted(common)
    return (
        [left for left, _ in pairs],
        [right for _, right in pairs],
        [float(common[pair]) for pair in pairs],
        [arcs[pair] for pair in pairs],
    )


def assert_graph_matches(blocks):
    graph = PairGraph(blocks)
    lefts, rights, common, arcs = reference_graph(blocks)
    assert graph.lefts.tolist() == lefts
    assert graph.rights.tolist() == rights
    assert graph.common.tolist() == common
    # Summed in block order, exactly as the reference adds them.
    assert graph.arcs.tolist() == arcs
    assert graph.total_assignments == blocks.total_assignments
    assert graph.n_blocks == len(blocks)
    # The graph of the Block-object form of the same collection.
    rebuilt = PairGraph(BlockCollection(list(blocks)))
    for field in ("lefts", "rights", "common", "arcs"):
        assert (
            getattr(rebuilt, field).tobytes() == getattr(graph, field).tobytes()
        )


def assert_cleaning_matches(blocks, total_entities):
    purged = BlockPurging().clean(blocks, total_entities)
    assert as_tuples(purged) == reference_purging(blocks, total_entities)
    for ratio in (1.0, 0.8, 0.5, 0.2, 0.025):
        filtered = BlockFiltering(ratio).clean(purged)
        assert as_tuples(filtered) == reference_filtering(purged, ratio), ratio
        assert_graph_matches(filtered)
    assert_graph_matches(blocks)


class TestCleaningOnArrays:
    @settings(max_examples=40, deadline=None)
    @given(_sides, _sides)
    def test_random_texts(self, left_texts, right_texts):
        total = len(left_texts) + len(right_texts)
        for builder in (StandardBlocking(), QGramsBlocking(3)):
            blocks = builder.build(
                collection(left_texts), collection(right_texts)
            )
            assert_cleaning_matches(blocks, total)

    @pytest.mark.parametrize("name", ["d1", "d2"])
    def test_datasets(self, name):
        dataset = load_dataset(name)
        total = len(dataset.left) + len(dataset.right)
        for builder in (StandardBlocking(), QGramsBlocking(4)):
            blocks = builder.build(dataset.left, dataset.right)
            assert_cleaning_matches(blocks, total)

    def test_empty_sided_block_from_arrays(self):
        # ``of`` keeps what it is given, a block with an empty side too.
        blocks = BlockCollection.of(
            BlockMembers(
                left=np.array([0, 1]),
                left_sizes=np.array([1, 1]),
                right=np.array([0]),
                right_sizes=np.array([1, 0]),
            ),
            np.array(["ok", "lonely"], dtype=object),
        )
        assert as_tuples(blocks) == [("ok", (0,), (0,)), ("lonely", (1,), ())]
        assert blocks.total_comparisons == 1
        assert blocks.total_assignments == 3
        assert blocks[1] == Block("lonely", (1,), ())
        assert blocks[-1] == blocks[1]
        assert as_tuples(blocks.select(np.array([False, True]))) == [
            ("lonely", (1,), ())
        ]

    def test_members_are_read_only(self):
        blocks = StandardBlocking().build(
            collection(["laptop ultra"]), collection(["laptop"])
        )
        with pytest.raises(ValueError):
            blocks.members().left[0] = 5


# ----------------------------------------------------------------------
# The proactive tuners' b_max caps applied to one uncapped build.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workflow", ["SABW", "ESABW"])
@pytest.mark.parametrize("name", ["d1", "d2"])
def test_tuner_caps_equal_builds(monkeypatch, workflow, name):
    """Every (l_min, b_max) the tuner evaluates is the builder's build."""
    dataset = load_dataset(name)
    graphs = []

    class RecordingGraph(PairGraph):
        def __init__(self, blocks):
            graphs.append(as_tuples(blocks))
            super().__init__(blocks)

    monkeypatch.setattr(blocking_tuning, "PairGraph", RecordingGraph)
    tuner = blocking_tuning.BlockingWorkflowTuner(workflow)
    tuner.tune(dataset)
    grid = spaces.builder_grid(tuner.builder_name, tuner.profile)
    assert len(graphs) == len(grid)
    for params, seen in zip(grid, graphs):
        builder = blocking_tuning.make_builder(tuner.builder_name, **params)
        assert seen == as_tuples(builder.build(dataset.left, dataset.right))
