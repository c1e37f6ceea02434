"""Unit tests for Block Purging and Block Filtering."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.blocks import Block, BlockCollection
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.tuning.spaces import block_filtering_ratios


def make_blocks():
    return BlockCollection(
        [
            Block("small", (0,), (0,)),
            Block("medium", (0, 1), (0, 1)),
            Block("huge", tuple(range(10)), tuple(range(10))),
        ]
    )


class TestBlockPurging:
    def test_removes_oversized_blocks(self):
        blocks = make_blocks()
        cleaned = BlockPurging(size_fraction=0.5).clean(blocks, total_entities=20)
        assert {b.key for b in cleaned} == {"small", "medium"}

    def test_keeps_everything_when_no_giant_blocks(self):
        blocks = BlockCollection([Block("a", (0,), (0,)), Block("b", (1,), (1,))])
        cleaned = BlockPurging().clean(blocks, total_entities=100)
        assert len(cleaned) == 2

    def test_infers_total_entities(self):
        blocks = make_blocks()
        # 10 left + 10 right entities inferred; threshold 10 removes "huge".
        cleaned = BlockPurging().clean(blocks)
        assert {b.key for b in cleaned} == {"small", "medium"}

    def test_never_loses_blocks_below_threshold(self):
        blocks = make_blocks()
        cleaned = BlockPurging(size_fraction=1.0).clean(blocks, 20)
        assert len(cleaned) == len(blocks)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            BlockPurging(size_fraction=0.0)
        with pytest.raises(ValueError):
            BlockPurging(size_fraction=1.5)

    def test_result_is_subset(self):
        blocks = make_blocks()
        cleaned = BlockPurging().clean(blocks, 20)
        original_keys = {b.key for b in blocks}
        assert all(b.key in original_keys for b in cleaned)


class TestBlockFiltering:
    def test_ratio_one_is_identity(self):
        blocks = make_blocks()
        assert BlockFiltering(1.0).clean(blocks) is blocks

    def test_low_ratio_keeps_smallest_blocks_per_entity(self):
        blocks = make_blocks()
        cleaned = BlockFiltering(0.4).clean(blocks)
        # Entity 0 sits in 3 blocks; with ratio 0.4 it keeps ceil(1.2)=2,
        # ordered by block size: "small" and "medium".
        kept_keys = {b.key for b in cleaned}
        assert "small" in kept_keys
        assert "huge" not in kept_keys or all(
            0 not in b.left for b in cleaned if b.key == "huge"
        )

    def test_candidates_shrink_monotonically(self):
        blocks = make_blocks()
        sizes = []
        for ratio in (1.0, 0.7, 0.4, 0.1):
            cleaned = BlockFiltering(ratio).clean(blocks)
            sizes.append(len(cleaned.distinct_pairs()))
        assert sizes == sorted(sizes, reverse=True)

    def test_pairs_are_subset_of_input(self):
        blocks = make_blocks()
        original = blocks.distinct_pairs().as_frozenset()
        cleaned = BlockFiltering(0.5).clean(blocks).distinct_pairs()
        assert cleaned.as_frozenset() <= original

    def test_every_entity_keeps_at_least_one_block(self):
        blocks = make_blocks()
        cleaned = BlockFiltering(0.05).clean(blocks)
        retained_left = set()
        for block in cleaned:
            retained_left.update(block.left)
        # Entity 0 appears in blocks on both sides of the smallest block,
        # so it must survive somewhere.
        assert 0 in retained_left

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            BlockFiltering(0.0)
        with pytest.raises(ValueError):
            BlockFiltering(1.2)

    def test_empty_collection(self):
        empty = BlockCollection([])
        assert len(BlockFiltering(0.5).clean(empty)) == 0


def reference_filtering(blocks, ratio):
    """Block Filtering by its definition, one entity at a time.

    Per entity, its block ids sorted by ``(comparisons, id)``; it stays
    in the first ``max(1, ceil(ratio * n))`` of them.  Membership is by
    block id, so an entity listed twice in a block keeps both copies.
    """
    if ratio >= 1.0 or not len(blocks):
        return blocks

    def retained(index):
        kept = {}
        for entity, block_ids in index.items():
            limit = max(1, math.ceil(ratio * len(block_ids)))
            ordered = sorted(
                block_ids, key=lambda b: (blocks[b].comparisons, b)
            )
            kept[entity] = frozenset(ordered[:limit])
        return kept

    keep_left = retained(blocks.left_index())
    keep_right = retained(blocks.right_index())
    rebuilt = []
    for block_id, block in enumerate(blocks):
        lefts = tuple(e for e in block.left if block_id in keep_left[e])
        rights = tuple(e for e in block.right if block_id in keep_right[e])
        if lefts and rights:
            rebuilt.append(Block(key=block.key, left=lefts, right=rights))
    return BlockCollection(rebuilt)


#: Every ratio either tuning profile sweeps.
ALL_RATIOS = sorted(
    set(block_filtering_ratios("fast")) | set(block_filtering_ratios("full"))
)

# Few entity ids and short sides: comparisons tie often, some entities
# sit in exactly one block, and a side may list an entity twice.
_side = st.lists(st.integers(0, 7), min_size=1, max_size=4)
_collections = st.lists(st.tuples(_side, _side), max_size=12).map(
    lambda sides: BlockCollection(
        Block(f"b{i}", tuple(left), tuple(right))
        for i, (left, right) in enumerate(sides)
    )
)


def _as_tuples(blocks):
    return [(b.key, b.left, b.right) for b in blocks]


class TestBlockFilteringReference:
    @settings(max_examples=60, deadline=None)
    @given(_collections)
    def test_matches_reference_on_every_ratio(self, blocks):
        for ratio in ALL_RATIOS:
            assert _as_tuples(BlockFiltering(ratio).clean(blocks)) == (
                _as_tuples(reference_filtering(blocks, ratio))
            ), ratio

    def test_comparison_ties_break_by_block_id(self):
        # Entity 0 sits in three blocks of one comparison each.
        blocks = BlockCollection(
            [Block(f"b{i}", (0,), (i,)) for i in range(3)]
        )
        cleaned = BlockFiltering(0.4).clean(blocks)
        assert _as_tuples(cleaned) == [("b0", (0,), (0,)), ("b1", (0,), (1,))]
        assert _as_tuples(cleaned) == _as_tuples(
            reference_filtering(blocks, 0.4)
        )

    def test_single_block_entities_stay(self):
        blocks = BlockCollection(
            [Block("a", (0,), (0, 1)), Block("b", (1,), (2,))]
        )
        assert _as_tuples(BlockFiltering(0.025).clean(blocks)) == (
            _as_tuples(blocks)
        )

    def test_block_emptied_on_one_side_is_dropped(self):
        # Left entity 0 keeps only its smaller block "a"; "b" loses its
        # only left member and disappears.
        blocks = BlockCollection(
            [Block("a", (0,), (0,)), Block("b", (0,), (0, 1, 2))]
        )
        cleaned = BlockFiltering(0.5).clean(blocks)
        assert [b.key for b in cleaned] == ["a"]
        assert _as_tuples(cleaned) == _as_tuples(
            reference_filtering(blocks, 0.5)
        )

    def test_entity_listed_twice_keeps_both_copies(self):
        # Left entity 0 has four assignments, by comparisons: "s", twice
        # "a", "z".  ceil(0.4 * 4) = 2 admits "s" and the first copy in
        # "a", but membership is by block, so both copies stay.
        blocks = BlockCollection(
            [
                Block("z", (0,), (3, 4, 5, 6, 7)),
                Block("a", (0, 0), (1, 2)),
                Block("s", (0,), (0,)),
            ]
        )
        cleaned = BlockFiltering(0.4).clean(blocks)
        assert _as_tuples(cleaned) == [
            ("a", (0, 0), (1, 2)),
            ("s", (0,), (0,)),
        ]
        assert _as_tuples(cleaned) == _as_tuples(
            reference_filtering(blocks, 0.4)
        )
