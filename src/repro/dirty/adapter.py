"""Dirty ER (deduplication) on top of the Clean-Clean filter stack.

Section III distinguishes two ER tasks: Clean-Clean ER (two
individually duplicate-free collections — everything the benchmark
measures) and Dirty ER (one collection with duplicates inside it).  Every
Clean-Clean filter transfers to Dirty ER by the standard self-join
construction: the collection plays both roles, self-pairs are dropped and
each unordered pair is kept once, canonicalized as (min id, max id).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.candidates import KEY_WIDTH, CandidateSet
from ..core.fastpairs import evaluate_keys
from ..core.filters import Filter
from ..core.groundtruth import GroundTruth
from ..core.metrics import FilterEvaluation
from ..core.profile import EntityCollection

__all__ = [
    "dirty_candidates",
    "clusters_to_groundtruth",
    "evaluate_dirty",
]


def dirty_candidates(
    filter_: Filter,
    collection: EntityCollection,
    attribute: Optional[str] = None,
) -> CandidateSet:
    """Run a Clean-Clean filter as a self-join over one dirty collection.

    The returned pairs are canonicalized to (smaller id, larger id);
    self-pairs are removed.
    """
    raw = filter_.candidates(collection, collection, attribute)
    lefts, rights = np.divmod(raw.keys, KEY_WIDTH)
    distinct = lefts != rights
    lefts, rights = lefts[distinct], rights[distinct]
    return CandidateSet.from_ids(
        np.minimum(lefts, rights), np.maximum(lefts, rights)
    )


def clusters_to_groundtruth(clusters: Iterable[Sequence[int]]) -> GroundTruth:
    """Groundtruth of a dirty collection from its duplicate clusters.

    Every unordered within-cluster pair becomes one groundtruth pair,
    canonicalized as (min id, max id) to match :func:`dirty_candidates`.
    """
    pairs: Set[Tuple[int, int]] = set()
    for cluster in clusters:
        members: List[int] = sorted(set(cluster))
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.add((members[i], members[j]))
    return GroundTruth(pairs)


def evaluate_dirty(
    candidates: CandidateSet,
    groundtruth: GroundTruth,
    collection_size: int,
) -> FilterEvaluation:
    """PC/PQ/RR for Dirty ER; the search space is n*(n-1)/2 pairs."""
    total_pairs = collection_size * (collection_size - 1) // 2
    return evaluate_keys(
        candidates.keys, groundtruth.keys, size1=total_pairs, size2=1
    )
