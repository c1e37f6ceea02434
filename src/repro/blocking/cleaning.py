"""Block cleaning: Block Purging and Block Filtering (Section IV-B).

Both methods operate on whole blocks (coarse-grained), are optional in the
blocking workflow of Figure 1, and trade a small recall loss for a large
precision gain.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .blocks import Block, BlockCollection

__all__ = ["BlockPurging", "BlockFiltering"]


class BlockPurging:
    """Parameter-free removal of the oversized blocks.

    Following the paper's description, the purged blocks are those whose
    signatures behave like stop-words: blocks containing more than half
    the input entities (``size_fraction`` of ``|E1| + |E2|``).  Such blocks
    convey almost no matching evidence of their own — duplicate pairs they
    contain virtually always share another, smaller block — so removing
    them raises precision at a negligible (usually zero) recall cost.
    """

    def __init__(self, size_fraction: float = 0.5) -> None:
        if not 0.0 < size_fraction <= 1.0:
            raise ValueError(
                f"size_fraction must be in (0, 1], got {size_fraction}"
            )
        self.size_fraction = size_fraction

    def max_block_size(self, blocks: BlockCollection, total_entities: int = 0) -> float:
        """The purging threshold on block size (total entities per block)."""
        if total_entities <= 0:
            # Infer the input size from the block assignments: every
            # entity placed in at least one block is counted once.
            members = blocks.members()
            total_entities = len(np.unique(members.left)) + len(
                np.unique(members.right)
            )
        return self.size_fraction * total_entities

    def clean(
        self, blocks: BlockCollection, total_entities: int = 0
    ) -> BlockCollection:
        """Return the blocks not exceeding the size threshold."""
        threshold = self.max_block_size(blocks, total_entities)
        return BlockCollection(
            block for block in blocks if block.size <= threshold
        )

    def describe(self) -> str:
        return "block-purging"


class BlockFiltering:
    """Retain every entity only in its ``ratio`` smallest blocks.

    For each entity, its blocks are ordered by increasing comparison
    cardinality and the entity is kept in the top ``ceil(ratio * n)`` of
    them; blocks are then rebuilt from the surviving assignments.  A ratio
    of 1.0 keeps everything (i.e. disables the step).
    """

    def __init__(self, ratio: float = 0.8) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio

    def clean(self, blocks: BlockCollection) -> BlockCollection:
        if self.ratio >= 1.0 or not len(blocks):
            return blocks
        members = blocks.members()
        # Every block's place in the (comparisons, block id) order.
        order = np.argsort(members.comparisons, kind="stable")
        block_rank = np.empty_like(order)
        block_rank[order] = np.arange(len(order))
        lefts, left_bounds = self._survivors(
            members.left, members.left_sizes, block_rank
        )
        rights, right_bounds = self._survivors(
            members.right, members.right_sizes, block_rank
        )
        # The collection drops the blocks left with an empty side.
        return BlockCollection(
            Block(key=block.key, left=lefts[l0:l1], right=rights[r0:r1])
            for block, l0, l1, r0, r1 in zip(
                blocks, left_bounds, left_bounds[1:],
                right_bounds, right_bounds[1:],
            )
        )

    def _survivors(
        self, entities: np.ndarray, sizes: np.ndarray, block_rank: np.ndarray
    ) -> Tuple[Tuple[int, ...], List[int]]:
        """One side's surviving members and, per block, their bounds.

        One sort of the keys ``entity * n_blocks + block_rank`` orders
        each entity's assignments; one survives when fewer than
        ``max(1, ceil(ratio * n))`` of the entity's ``n`` sort strictly
        before it, so an entity's copies in one block share their fate.
        """
        keys = entities * len(block_rank) + np.repeat(block_rank, sizes)
        counts = np.bincount(entities)
        limits = np.maximum(1, np.ceil(self.ratio * counts)).astype(np.int64)
        starts = np.cumsum(counts) - counts
        before = np.searchsorted(np.sort(keys), keys) - starts[entities]
        keep = before < limits[entities]
        kept_so_far = np.concatenate(([0], np.cumsum(keep)))
        bounds = kept_so_far[np.concatenate(([0], np.cumsum(sizes)))]
        return tuple(entities[keep].tolist()), bounds.tolist()

    def describe(self) -> str:
        return f"block-filtering(r={self.ratio})"
