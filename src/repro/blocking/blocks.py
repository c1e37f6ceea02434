"""Blocks and block collections for Clean-Clean ER.

A block groups the entities that share one signature (blocking key).  For
Clean-Clean ER a block carries two sides — ids from ``E1`` and ids from
``E2`` — and only cross-side pairs are candidate comparisons, so a block
with an empty side contributes nothing and is dropped at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..core.candidates import KEY_WIDTH, CandidateSet
from ..core.incremental import IncrementalIndex
from ..core.profile import EntityProfile

__all__ = [
    "Block",
    "BlockCollection",
    "BlockMembers",
    "IncrementalBlockIndex",
    "build_blocks_from_keys",
]


@dataclass(frozen=True)
class Block:
    """One block: a signature plus the entity ids on each side."""

    key: str
    left: Tuple[int, ...]
    right: Tuple[int, ...]

    @property
    def comparisons(self) -> int:
        """Number of candidate comparisons the block induces."""
        return len(self.left) * len(self.right)

    @property
    def size(self) -> int:
        """Total number of entities in the block."""
        return len(self.left) + len(self.right)


@dataclass(frozen=True)
class BlockMembers:
    """The members of a block collection in a CSR-like layout.

    Per side, ``left`` / ``right`` concatenate the blocks' entity ids in
    block order and ``left_sizes`` / ``right_sizes`` hold how many of
    them each block owns (all int64).
    """

    left: np.ndarray
    left_sizes: np.ndarray
    right: np.ndarray
    right_sizes: np.ndarray

    @property
    def comparisons(self) -> np.ndarray:
        """Per block, the number of cross-side pairs it induces."""
        return self.left_sizes * self.right_sizes

    def pair_occurrences(self, width: int) -> np.ndarray:
        """The keys ``left * width + right`` of every pair of every block.

        Repeats are kept, block by block and left-major; ``width`` must
        exceed every right id.  Each left member repeats once per right
        of its block, whose slice of ``right`` a cumsum-with-resets index
        walks.
        """
        per_left = np.repeat(self.right_sizes, self.left_sizes)
        keys = np.repeat(self.left, per_left)
        if not len(keys):
            return keys
        right_starts = np.cumsum(self.right_sizes) - self.right_sizes
        first = np.repeat(right_starts, self.left_sizes)[per_left > 0]
        lengths = per_left[per_left > 0]
        # Step 1 inside a run; at a run's start, jump there from the end
        # of the previous run.
        steps = first.copy()
        steps[1:] -= first[:-1] + lengths[:-1] - 1
        index = np.ones(len(keys), dtype=np.int64)
        index[np.cumsum(lengths) - lengths] = steps
        np.cumsum(index, out=index)
        keys *= width
        # "clip" lets take() gather into its own index array unbuffered.
        keys += self.right.take(index, out=index, mode="clip")
        return keys


class BlockCollection:
    """An ordered list of blocks plus entity-to-block inverted indexes."""

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        self.blocks: List[Block] = [
            b for b in blocks if b.left and b.right
        ]
        self._indexes: Dict[str, Dict[int, List[int]]] = {}

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __getitem__(self, index: int) -> Block:
        return self.blocks[index]

    @property
    def total_comparisons(self) -> int:
        """Sum of per-block comparisons (counts redundant pairs repeatedly)."""
        return sum(block.comparisons for block in self.blocks)

    @property
    def total_assignments(self) -> int:
        """Sum of block sizes, i.e. the number of entity-to-block assignments."""
        return sum(block.size for block in self.blocks)

    def blocks_of_left(self, entity: int) -> List[int]:
        """Indices of the blocks containing E1 entity ``entity``."""
        return self.left_index().get(entity, [])

    def blocks_of_right(self, entity: int) -> List[int]:
        """Indices of the blocks containing E2 entity ``entity``."""
        return self.right_index().get(entity, [])

    def left_index(self) -> Dict[int, List[int]]:
        """Full E1-entity -> block-indices map."""
        return self._index("left")

    def right_index(self) -> Dict[int, List[int]]:
        """Full E2-entity -> block-indices map."""
        return self._index("right")

    def _index(self, side: str) -> Dict[int, List[int]]:
        if side not in self._indexes:
            index: Dict[int, List[int]] = {}
            for block_id, block in enumerate(self.blocks):
                for entity in getattr(block, side):
                    index.setdefault(entity, []).append(block_id)
            self._indexes[side] = index
        return self._indexes[side]

    def members(self) -> BlockMembers:
        """The block members as flat arrays (see :class:`BlockMembers`)."""
        sides = []
        for side in ("left", "right"):
            groups = [getattr(block, side) for block in self.blocks]
            sizes = np.fromiter(map(len, groups), np.int64, len(groups))
            flat = np.fromiter(
                chain.from_iterable(groups), np.int64, int(sizes.sum())
            )
            sides.extend((flat, sizes))
        return BlockMembers(*sides)

    def pair_keys(self, width: int) -> np.ndarray:
        """Distinct cross-side pairs as sorted ``left * width + right`` keys.

        The fast path used by the configuration optimizer (see
        :mod:`repro.core.fastpairs`); ``width`` must exceed every right id.
        """
        return np.unique(self.members().pair_occurrences(width))

    def distinct_pairs(self) -> CandidateSet:
        """All distinct cross-side pairs (Comparison Propagation semantics)."""
        return CandidateSet.from_keys(self.pair_keys(KEY_WIDTH))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockCollection(blocks={len(self.blocks)}, "
            f"comparisons={self.total_comparisons})"
        )


def build_blocks_from_keys(
    left_keys: Sequence[Iterable[str]],
    right_keys: Sequence[Iterable[str]],
) -> BlockCollection:
    """Group entities with identical signatures into blocks.

    ``left_keys[i]`` / ``right_keys[j]`` are the signatures of E1 entity
    ``i`` / E2 entity ``j``.  Blocks are emitted in sorted-key order so the
    result is deterministic; single-side blocks are dropped by the
    :class:`BlockCollection` constructor.
    """
    by_key: Dict[str, Tuple[List[int], List[int]]] = {}
    for entity, keys in enumerate(left_keys):
        for key in set(keys):
            by_key.setdefault(key, ([], []))[0].append(entity)
    for entity, keys in enumerate(right_keys):
        for key in set(keys):
            by_key.setdefault(key, ([], []))[1].append(entity)
    blocks = (
        Block(key=key, left=tuple(sides[0]), right=tuple(sides[1]))
        for key, sides in sorted(by_key.items())
    )
    return BlockCollection(blocks)


class IncrementalBlockIndex(IncrementalIndex):
    """Mutable key -> block-membership index over one live catalog.

    The serving form of the blocking family: the catalog plays the role
    of ``E1``, each ``query`` probe the role of one ``E2`` entity, and
    the candidates are the catalog entities sharing at least one
    blocking key with the probe — exactly the cross-side pairs
    :func:`build_blocks_from_keys` would emit for the same signatures.

    ``max_block_size`` mirrors the proactive builders' ``b_max`` cap:
    keys whose live membership exceeds the cap are suppressed at query
    time (membership is still tracked, so removals can shrink an
    oversized block back under the cap and re-enable it).
    """

    name = "inc-blocks"

    def __init__(
        self,
        builder: Optional[object] = None,
        attribute: Optional[str] = None,
        max_block_size: Optional[int] = None,
    ) -> None:
        if builder is None:
            from .building import StandardBlocking

            builder = StandardBlocking()
        if max_block_size is not None and max_block_size < 1:
            raise ValueError(
                f"max_block_size must be positive, got {max_block_size}"
            )
        super().__init__(attribute=attribute)
        self.builder = builder
        self.max_block_size = max_block_size
        self._members: Dict[str, Set[int]] = {}
        self._keys_of: Dict[int, Tuple[str, ...]] = {}

    def _signatures(self, profile: EntityProfile) -> Set[str]:
        return set(self.builder.keys(self.text_of(profile)))

    def _add(self, slot: int, profile: EntityProfile) -> None:
        keys = tuple(sorted(self._signatures(profile)))
        self._keys_of[slot] = keys
        for key in keys:
            self._members.setdefault(key, set()).add(slot)

    def _remove(self, slot: int, profile: EntityProfile) -> None:
        for key in self._keys_of.pop(slot):
            members = self._members[key]
            members.discard(slot)
            if not members:
                del self._members[key]

    def _query(self, profile: EntityProfile) -> Iterable[int]:
        matches: Set[int] = set()
        cap = self.max_block_size
        for key in self._signatures(profile):
            members = self._members.get(key)
            if not members:
                continue
            if cap is not None and len(members) > cap:
                continue
            matches.update(members)
        return matches

    def index_stats(self) -> Dict[str, object]:
        stats = super().index_stats()
        oversized = 0
        if self.max_block_size is not None:
            oversized = sum(
                1
                for members in self._members.values()
                if len(members) > self.max_block_size
            )
        stats.update(
            keys=len(self._members),
            max_block=max(
                (len(members) for members in self._members.values()),
                default=0,
            ),
            suppressed_keys=oversized,
        )
        return stats

    def describe(self) -> str:
        builder = getattr(self.builder, "describe", lambda: "custom")()
        cap = f", b_max={self.max_block_size}" if self.max_block_size else ""
        return f"{self.name}({builder}{cap})"
