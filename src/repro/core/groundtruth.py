"""Groundtruth: the set of true duplicate pairs between two collections."""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from .candidates import KEY_WIDTH, CandidateSet, count_shared
from .profile import EntityCollection

__all__ = ["GroundTruth"]

Pair = Tuple[int, int]


class GroundTruth:
    """True matches between ``E1`` and ``E2`` as dense-id pairs.

    For Clean-Clean ER each entity matches at most one entity on the other
    side in real datasets, but the class does not enforce that — some
    benchmark datasets legitimately contain one-to-many matches.
    """

    def __init__(self, pairs: Iterable[Pair] = ()) -> None:
        self._pairs: Set[Pair] = {(int(a), int(b)) for a, b in pairs}
        self._keys: Optional[np.ndarray] = None

    @classmethod
    def from_uids(
        cls,
        uid_pairs: Iterable[Tuple[str, str]],
        left: EntityCollection,
        right: EntityCollection,
    ) -> "GroundTruth":
        """Resolve uid pairs against two collections."""
        return cls(
            (left.index_of(a), right.index_of(b)) for a, b in uid_pairs
        )

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._pairs)

    def __contains__(self, pair: object) -> bool:
        return pair in self._pairs

    def as_frozenset(self) -> FrozenSet[Pair]:
        return frozenset(self._pairs)

    def matches_of_left(self, left: int) -> List[int]:
        """E2 ids matching E1 entity ``left``, ascending (empty when none)."""
        lefts, rights = np.divmod(self.keys, KEY_WIDTH)
        return rights[lefts == left].tolist()

    def matches_of_right(self, right: int) -> List[int]:
        """E1 ids matching E2 entity ``right``, ascending."""
        lefts, rights = np.divmod(self.keys, KEY_WIDTH)
        return lefts[rights == right].tolist()

    @property
    def keys(self) -> np.ndarray:
        """The pairs as sorted candidate keys (packed on first use)."""
        if self._keys is None:
            self._keys = CandidateSet(self._pairs).keys
        return self._keys

    def duplicates_in(self, candidates: CandidateSet) -> int:
        """Number of true matches contained in ``candidates``."""
        return count_shared(candidates.keys, self.keys)

    def reversed(self) -> "GroundTruth":
        """Groundtruth with the roles of E1 and E2 swapped."""
        return GroundTruth((b, a) for a, b in self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroundTruth(size={len(self)})"
