"""Blocks and block collections for Clean-Clean ER.

A block groups the entities that share one signature (blocking key).  For
Clean-Clean ER a block carries two sides — ids from ``E1`` and ids from
``E2`` — and only cross-side pairs are candidate comparisons, so a block
with an empty side contributes nothing and is dropped at construction.

A :class:`BlockCollection` is array-native: its members are one
:class:`BlockMembers` CSR layout and its keys one object array, so
purging, filtering and the blocking graph are array operations.  The
key-grouping builders make a collection with
:meth:`BlockCollection.from_store`, one sort of a vocabulary-coded
:class:`~repro.text.store.TokenStore` over the texts of both sides;
:class:`Block` objects exist only for a caller that iterates a
collection or hands it blocks one by one (tests, Canopy Clustering,
Sorted Neighborhood).
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

from ..core.candidates import KEY_WIDTH, CandidateSet, unique_keys
from ..core.incremental import BucketIndex
from ..core.profile import EntityProfile
from ..text.store import TokenStore, encode_sets

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

    def __post_init__(self) -> None:
        # Collections share members (``select`` of an all-true mask).
        for field in (self.left, self.right, self.left_sizes, self.right_sizes):
            field.flags.writeable = False

    @property
    def comparisons(self) -> np.ndarray:
        """Per block, the number of cross-side pairs it induces."""
        return self.left_sizes * self.right_sizes

    @property
    def sizes(self) -> np.ndarray:
        """Per block, the number of entities on both sides."""
        return self.left_sizes + self.right_sizes

    def select(self, mask: np.ndarray) -> "BlockMembers":
        """The members of the blocks where ``mask`` is true, in order."""
        return BlockMembers(
            self.left[np.repeat(mask, self.left_sizes)],
            self.left_sizes[mask],
            self.right[np.repeat(mask, self.right_sizes)],
            self.right_sizes[mask],
        )

    def pair_occurrences(self) -> np.ndarray:
        """The candidate keys of every pair of every block.

        Repeats are kept, block by block and left-major.  Each left
        member repeats once per right of its block, whose slice of
        ``right`` a cumsum-with-resets index walks.  The keys are packed
        in place (as :func:`~repro.core.candidates.pack_ids` would, but
        without its copies of the id arrays).
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
        keys *= KEY_WIDTH
        # "clip" lets take() gather into its own index array unbuffered.
        keys += self.right.take(index, out=index, mode="clip")
        return keys


def _flat_side(
    groups: Sequence[Tuple[int, ...]],
) -> Tuple[np.ndarray, np.ndarray]:
    """One side's concatenated ids and per-block sizes (int64)."""
    sizes = np.fromiter(map(len, groups), np.int64, len(groups))
    flat = np.fromiter(chain.from_iterable(groups), np.int64, int(sizes.sum()))
    return flat, sizes


class BlockCollection:
    """An ordered list of blocks: CSR members plus one key per block.

    ``BlockCollection(blocks)`` takes :class:`Block` objects and drops
    those with an empty side; :meth:`from_store` groups coded
    signatures and :meth:`of` wraps ready arrays as they are.  A
    collection is immutable: :meth:`select` returns a new one.
    """

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        kept = [block for block in blocks if block.left and block.right]
        self._members = BlockMembers(
            *_flat_side([block.left for block in kept]),
            *_flat_side([block.right for block in kept]),
        )
        self.keys = np.array([block.key for block in kept], dtype=object)
        self._indexes: Dict[str, Dict[int, List[int]]] = {}

    @classmethod
    def of(cls, members: BlockMembers, keys: np.ndarray) -> "BlockCollection":
        """The collection of ``members`` keyed by ``keys``, kept as given.

        Unlike the constructor, blocks with an empty side stay.
        """
        collection = cls.__new__(cls)
        collection._members = members
        collection.keys = keys
        collection._indexes = {}
        return collection

    @classmethod
    def from_store(cls, store: TokenStore, n_left: int) -> "BlockCollection":
        """Group the rows of ``store`` by signature into blocks.

        Rows ``[0, n_left)`` of ``store`` are the signatures of the E1
        entities, the remaining rows those of E2.  One sort of the codes
        ``(key rank in string order, row)`` lists every block's members
        in order: the blocks come in sorted-key order, each with its
        left entities ascending and then its right ones.  Blocks with an
        empty side are dropped.
        """
        vocabulary = store.vocabulary
        order = sorted(range(len(vocabulary)), key=vocabulary.__getitem__)
        rank = np.empty(len(vocabulary), dtype=np.int64)
        rank[order] = np.arange(len(vocabulary), dtype=np.int64)
        rows = len(store)
        codes = rank[store.ids]
        codes *= rows
        codes += np.repeat(np.arange(rows, dtype=np.int64), store.sizes)
        codes.sort()
        block_ranks, entities = np.divmod(codes, max(rows, 1))
        opens = np.ones(len(codes), dtype=bool)
        np.not_equal(block_ranks[1:], block_ranks[:-1], out=opens[1:])
        starts = np.flatnonzero(opens)
        bounds = np.append(starts, len(codes))
        on_right = entities >= n_left
        rights_before = np.concatenate(([0], np.cumsum(on_right)))[bounds]
        right_sizes = np.diff(rights_before)
        left_sizes = np.diff(bounds) - right_sizes
        keep = (left_sizes > 0) & (right_sizes > 0)
        kept = np.repeat(keep, left_sizes + right_sizes)
        members = BlockMembers(
            entities[kept & ~on_right],
            left_sizes[keep],
            entities[kept & on_right] - n_left,
            right_sizes[keep],
        )
        keys = [order[rank] for rank in block_ranks[starts[keep]].tolist()]
        return cls.of(
            members, np.array([vocabulary[i] for i in keys], dtype=object)
        )

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Block]:
        members = self._members
        left, right = members.left.tolist(), members.right.tolist()
        left_bounds = np.cumsum(members.left_sizes).tolist()
        right_bounds = np.cumsum(members.right_sizes).tolist()
        for key, l0, l1, r0, r1 in zip(
            self.keys.tolist(),
            [0] + left_bounds, left_bounds,
            [0] + right_bounds, right_bounds,
        ):
            yield Block(
                key=key, left=tuple(left[l0:l1]), right=tuple(right[r0:r1])
            )

    def __getitem__(self, index: int) -> Block:
        members = self._members
        index = range(len(self))[index]
        l0 = int(members.left_sizes[:index].sum())
        r0 = int(members.right_sizes[:index].sum())
        l1 = l0 + int(members.left_sizes[index])
        r1 = r0 + int(members.right_sizes[index])
        return Block(
            key=self.keys[index],
            left=tuple(members.left[l0:l1].tolist()),
            right=tuple(members.right[r0:r1].tolist()),
        )

    @property
    def sizes(self) -> np.ndarray:
        """Per block, the number of entities it holds."""
        return self._members.sizes

    @property
    def total_comparisons(self) -> int:
        """Sum of per-block comparisons (counts redundant pairs repeatedly)."""
        return int(self._members.comparisons.sum())

    @property
    def total_assignments(self) -> int:
        """Sum of block sizes, i.e. the number of entity-to-block assignments."""
        return len(self._members.left) + len(self._members.right)

    def select(self, mask: np.ndarray) -> "BlockCollection":
        """The blocks where the boolean ``mask`` is true, in order."""
        if mask.all():
            return self
        return BlockCollection.of(self._members.select(mask), self.keys[mask])

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
            entities = getattr(self._members, side)
            sizes = getattr(self._members, f"{side}_sizes")
            block_ids = np.repeat(np.arange(len(sizes)), sizes)
            index: Dict[int, List[int]] = {}
            for entity, block_id in zip(entities.tolist(), block_ids.tolist()):
                index.setdefault(entity, []).append(block_id)
            self._indexes[side] = index
        return self._indexes[side]

    def members(self) -> BlockMembers:
        """The block members as flat arrays (see :class:`BlockMembers`)."""
        return self._members

    def distinct_pairs(self) -> CandidateSet:
        """All distinct cross-side pairs (Comparison Propagation semantics)."""
        return CandidateSet.from_keys(
            unique_keys(self._members.pair_occurrences())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockCollection(blocks={len(self)}, "
            f"comparisons={self.total_comparisons})"
        )


def build_blocks_from_keys(
    left_keys: Sequence[Iterable[str]],
    right_keys: Sequence[Iterable[str]],
) -> BlockCollection:
    """Group entities with identical signatures into blocks.

    ``left_keys[i]`` / ``right_keys[j]`` are the signatures of E1 entity
    ``i`` / E2 entity ``j``.  Blocks are emitted in sorted-key order so the
    result is deterministic; single-side blocks are dropped (see
    :meth:`BlockCollection.from_store`).
    """
    store = encode_sets([set(keys) for keys in chain(left_keys, right_keys)])
    return BlockCollection.from_store(store, len(left_keys))


class IncrementalBlockIndex(BucketIndex):
    """Mutable key -> block-membership index over one live catalog.

    The serving form of the blocking family: the catalog plays the role
    of ``E1``, each ``query`` probe the role of one ``E2`` entity, and
    the candidates are the catalog entities sharing at least one
    blocking key with the probe — exactly the cross-side pairs
    :func:`build_blocks_from_keys` would emit for the same signatures.
    The buckets are the blocks, keyed by the builder's signatures.

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

    def _keys(self, profile: EntityProfile) -> Set[str]:
        return set(self.builder.keys(self.text_of(profile)))

    def _query(self, profile: EntityProfile) -> Iterable[int]:
        cap = self.max_block_size
        if cap is None:
            return super()._query(profile)
        matches: Set[int] = set()
        for key in self._probe_keys(profile):
            members = self._buckets.get(key, ())
            if len(members) <= cap:
                matches.update(members)
        return matches

    def index_stats(self) -> Dict[str, object]:
        stats = super().index_stats()
        cap = self.max_block_size
        stats["suppressed_keys"] = (
            0
            if cap is None
            else sum(len(members) > cap for members in self._buckets.values())
        )
        return stats

    def describe(self) -> str:
        builder = getattr(self.builder, "describe", lambda: "custom")()
        cap = f", b_max={self.max_block_size}" if self.max_block_size else ""
        return f"{self.name}({builder}{cap})"
