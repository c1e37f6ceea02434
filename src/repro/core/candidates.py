"""Candidate pair sets — the common output of every filtering method.

A candidate pair ``(i, j)`` couples entity ``i`` from collection ``E1`` with
entity ``j`` from collection ``E2``.  Because the paper studies Clean-Clean
ER, the two sides come from different collections, so pairs are *ordered*:
``(i, j)`` always means ``(id in E1, id in E2)``.

A :class:`CandidateSet` holds its pairs as one sorted, unique int64 array
of keys ``left << 32 | right``: the fastpairs key ``left * width + right``
(:func:`encode_pairs`) at the fixed width :data:`KEY_WIDTH` = 2**32.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Tuple

import numpy as np

__all__ = ["CandidateSet", "KEY_WIDTH", "count_shared", "encode_pairs",
           "pack_ids"]

Pair = Tuple[int, int]

KEY_WIDTH = 1 << 32
#: Left ids stay below 2**31, so that ``left << 32`` fits an int64.
_LEFT_LIMIT = 1 << 31
#: Pairs decoded per step while iterating.
_ITER_CHUNK = 4096


def encode_pairs(
    lefts: np.ndarray, rights: np.ndarray, width: int
) -> np.ndarray:
    """Encode parallel id arrays into single int64 keys.

    Ids must be non-negative: a negative id would collide with the key of
    another pair and silently corrupt every downstream PC/PQ figure.
    """
    lefts = np.asarray(lefts)
    rights = np.asarray(rights)
    if len(lefts) and (lefts.min() < 0 or rights.min() < 0):
        raise ValueError("entity ids must be non-negative to encode as keys")
    return lefts.astype(np.int64) * width + rights.astype(np.int64)


def pack_ids(lefts, rights) -> np.ndarray:
    """Candidate keys of parallel id arrays or lists, in input order.

    Like a negative id, a right id of 2**32 or more (a left one of 2**31
    or more) raises ``ValueError``: its key would collide with another's.
    """
    lefts = np.asarray(lefts, dtype=np.int64)
    rights = np.asarray(rights, dtype=np.int64)
    if len(lefts) and (
        lefts.max() >= _LEFT_LIMIT or rights.max() >= KEY_WIDTH
    ):
        raise ValueError("entity ids must be below 2**31 (E1) and 2**32 (E2)")
    return encode_pairs(lefts, rights, KEY_WIDTH)


def count_shared(keys: np.ndarray, probes: np.ndarray) -> int:
    """How many of the unique ``probes`` occur in the sorted ``keys``."""
    if not len(keys) or not len(probes):
        return 0
    positions = np.minimum(np.searchsorted(keys, probes), len(keys) - 1)
    return int(np.count_nonzero(keys[positions] == probes))


class CandidateSet:
    """A deduplicated set of candidate pairs between ``E1`` and ``E2``.

    Filters build one once, from a list of pairs, from parallel id
    arrays (:meth:`from_ids`) or from keys already sorted and unique
    (:meth:`from_keys`).  :meth:`add` and :meth:`update` queue pairs on a
    pending list that the next read merges into the keys, at one sort per
    batch of adds.  Iteration decodes ``(left, right)`` int tuples in
    ascending order, a chunk at a time; no tuple is stored.
    """

    __slots__ = ("_keys", "_pending")

    def __init__(self, pairs: Iterable[Pair] = ()) -> None:
        ids = np.array(list(pairs), dtype=np.int64)
        if ids.size and ids.shape[1:] != (2,):
            raise ValueError("candidate pairs must be (left, right) id pairs")
        self._keys = np.unique(pack_ids(*ids.reshape(-1, 2).T))
        self._keys.flags.writeable = False
        self._pending: List[int] = []

    @classmethod
    def from_ids(cls, lefts, rights) -> "CandidateSet":
        """The pairs ``(lefts[i], rights[i])``; any order, repeats allowed."""
        return cls.from_keys(np.unique(pack_ids(lefts, rights)))

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "CandidateSet":
        """Adopt a strictly increasing array of keys (see :func:`pack_ids`)."""
        keys = np.asarray(keys, dtype=np.int64).view()
        if len(keys) and (keys[0] < 0 or np.any(keys[1:] <= keys[:-1])):
            raise ValueError("candidate keys must be non-negative, increasing")
        keys.flags.writeable = False
        result = cls.__new__(cls)
        result._keys, result._pending = keys, []
        return result

    def add(self, left: int, right: int) -> None:
        """Add the pair (entity ``left`` of E1, entity ``right`` of E2)."""
        left, right = int(left), int(right)
        if not (0 <= left < _LEFT_LIMIT and 0 <= right < KEY_WIDTH):
            raise ValueError(f"pair ({left}, {right}) is out of the id range")
        self._pending.append(left << 32 | right)

    def update(self, pairs: Iterable[Pair]) -> None:
        self._pending.extend(CandidateSet(pairs).keys.tolist())

    @property
    def keys(self) -> np.ndarray:
        """The pairs' sorted, unique keys (read-only)."""
        if self._pending:
            self._keys = np.union1d(self._keys, self._pending)
            self._keys.flags.writeable = False
            self._pending = []
        return self._keys

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Pair]:
        keys = self.keys
        for start in range(0, len(keys), _ITER_CHUNK):
            chunk = keys[start : start + _ITER_CHUNK]
            lefts, rights = np.divmod(chunk, KEY_WIDTH)
            yield from zip(lefts.tolist(), rights.tolist())

    def __contains__(self, pair: object) -> bool:
        try:
            return CandidateSet([pair]).intersection_size(self) == 1
        except (TypeError, ValueError, OverflowError):
            return False

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CandidateSet):
            return np.array_equal(self.keys, other.keys)
        return NotImplemented

    __hash__ = None  # mutable, hence unhashable

    def as_frozenset(self) -> FrozenSet[Pair]:
        """An immutable snapshot of the pairs."""
        return frozenset(self)

    def intersection_size(self, other: "CandidateSet") -> int:
        return count_shared(self.keys, other.keys)

    def union(self, other: "CandidateSet") -> "CandidateSet":
        return CandidateSet.from_keys(np.union1d(self.keys, other.keys))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CandidateSet(size={len(self)})"
