"""Unit tests for blocks, block collections and block building."""

import pytest

from repro.blocking.blocks import Block, BlockCollection, build_blocks_from_keys
from repro.blocking.building import (
    ExtendedQGramsBlocking,
    ExtendedSuffixArraysBlocking,
    QGramsBlocking,
    SortedNeighborhoodBlocking,
    StandardBlocking,
    SuffixArraysBlocking,
)


class TestBlock:
    def test_comparisons(self):
        block = Block("k", left=(0, 1), right=(2, 3, 4))
        assert block.comparisons == 6

    def test_size(self):
        block = Block("k", left=(0,), right=(1, 2))
        assert block.size == 3


class TestBlockCollection:
    def test_drops_single_side_blocks(self):
        collection = BlockCollection(
            [Block("a", (0,), ()), Block("b", (), (1,)), Block("c", (0,), (1,))]
        )
        assert len(collection) == 1

    def test_total_comparisons(self):
        collection = BlockCollection(
            [Block("a", (0, 1), (0,)), Block("b", (2,), (1, 2))]
        )
        assert collection.total_comparisons == 4

    def test_total_assignments(self):
        collection = BlockCollection([Block("a", (0, 1), (0,))])
        assert collection.total_assignments == 3

    def test_entity_indexes(self):
        collection = BlockCollection(
            [Block("a", (0,), (5,)), Block("b", (0, 1), (5, 6))]
        )
        assert collection.blocks_of_left(0) == [0, 1]
        assert collection.blocks_of_left(1) == [1]
        assert collection.blocks_of_right(6) == [1]
        assert collection.blocks_of_right(99) == []

    def test_distinct_pairs_deduplicates(self):
        collection = BlockCollection(
            [Block("a", (0,), (5,)), Block("b", (0,), (5,))]
        )
        assert len(collection.distinct_pairs()) == 1

    def test_distinct_pairs_match_per_block_reference(self):
        collection = BlockCollection(
            [Block("a", (0, 1), (0, 1)), Block("b", (1,), (1, 2))]
        )
        reference = {
            (left, right)
            for block in collection
            for left in block.left
            for right in block.right
        }
        assert list(collection.distinct_pairs()) == sorted(reference)

    def test_build_blocks_from_keys(self):
        blocks = build_blocks_from_keys(
            [{"x", "y"}, {"y"}], [{"y"}, {"z"}]
        )
        assert len(blocks) == 1  # only "y" appears on both sides
        assert blocks[0].key == "y"
        assert blocks[0].left == (0, 1)
        assert blocks[0].right == (0,)


class TestStandardBlocking:
    def test_keys_are_tokens(self):
        assert StandardBlocking().keys("Joe Biden") == {"joe", "biden"}

    def test_build(self, left_collection, right_collection):
        blocks = StandardBlocking().build(left_collection, right_collection)
        keys = {b.key for b in blocks}
        assert "sonacore" in keys
        # A pair sharing a token appears in some block.
        pairs = blocks.distinct_pairs()
        assert (0, 0) in pairs

    def test_schema_based_build(self, left_collection, right_collection):
        blocks = StandardBlocking().build(
            left_collection, right_collection, "title"
        )
        assert len(blocks) > 0


class TestQGramsBlocking:
    def test_paper_example(self):
        # q=3 on "Joe Biden": {joe, bid, ide, den} -> 4 keys.
        assert len(QGramsBlocking(3).keys("Joe Biden")) == 4

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramsBlocking(1)

    def test_tolerates_typos(self):
        clean = QGramsBlocking(3).keys("wireless")
        noisy = QGramsBlocking(3).keys("wireles")
        assert clean & noisy  # still share q-grams


class TestExtendedQGramsBlocking:
    def test_paper_example(self):
        # T=0.9, q=3 on "Joe Biden" -> 5 keys:
        # {joe, bid_ide_den, bid_ide, bid_den, ide_den}
        keys = ExtendedQGramsBlocking(q=3, t=0.9).keys("Joe Biden")
        assert keys == {"joe", "bid_ide_den", "bid_ide", "bid_den", "ide_den"}

    def test_lower_t_more_keys(self):
        high = ExtendedQGramsBlocking(q=3, t=0.95).keys("wireless keyboard")
        low = ExtendedQGramsBlocking(q=3, t=0.8).keys("wireless keyboard")
        assert len(low) >= len(high)

    def test_combination_blowup_guard(self):
        builder = ExtendedQGramsBlocking(q=2, t=0.8, max_grams_per_token=5)
        keys = builder.keys("extraordinarily")
        # Falls back to plain q-grams for the long token.
        assert all("_" not in key for key in keys)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            ExtendedQGramsBlocking(q=3, t=1.0)


class TestSuffixArraysBlocking:
    def test_paper_example(self):
        # l_min=3, large b_max: {joe, biden, iden, den}.
        keys = SuffixArraysBlocking(l_min=3, b_max=100).keys("Joe Biden")
        assert keys == {"joe", "biden", "iden", "den"}

    def test_b_max_caps_block_size(self, left_collection, right_collection):
        builder = SuffixArraysBlocking(l_min=2, b_max=3)
        blocks = builder.build(left_collection, right_collection)
        assert all(block.size <= 3 for block in blocks)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SuffixArraysBlocking(l_min=0)
        with pytest.raises(ValueError):
            SuffixArraysBlocking(b_max=1)


class TestExtendedSuffixArraysBlocking:
    def test_paper_example(self):
        # l_min=3: {joe, biden, bide, iden, bid, ide, den} -> 7 keys.
        keys = ExtendedSuffixArraysBlocking(l_min=3, b_max=100).keys("Joe Biden")
        assert keys == {"joe", "biden", "bide", "iden", "bid", "ide", "den"}

    def test_superset_of_suffix_arrays(self):
        text = "wireless keyboard"
        suffixes = SuffixArraysBlocking(l_min=3, b_max=100).keys(text)
        substrings = ExtendedSuffixArraysBlocking(l_min=3, b_max=100).keys(text)
        assert suffixes <= substrings


class TestSortedNeighborhood:
    def test_window_blocks(self, left_collection, right_collection):
        blocks = SortedNeighborhoodBlocking(window=4).build(
            left_collection, right_collection
        )
        assert all(block.size <= 4 for block in blocks)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SortedNeighborhoodBlocking(window=1)

    def test_finds_duplicates(self, left_collection, right_collection):
        blocks = SortedNeighborhoodBlocking(window=6).build(
            left_collection, right_collection
        )
        pairs = blocks.distinct_pairs()
        assert (1, 1) in pairs  # identical titles sort adjacently
