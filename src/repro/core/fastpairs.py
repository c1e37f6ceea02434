"""Array-encoded candidate pairs for the hot evaluation path.

The configuration optimizer evaluates thousands of candidate sets, each
as a sorted key array.  A pair ``(left, right)`` is the single integer
``left * width + right`` (``width`` > every right id); PC/PQ are computed
directly on the keys.  :class:`~repro.core.candidates.CandidateSet` keeps
its pairs in this encoding at the fixed width ``2**32``, so handing a
key array over to it is a re-pack, not a decode.
"""

from __future__ import annotations

import numpy as np

from .candidates import (
    KEY_WIDTH, CandidateSet, count_shared, encode_pairs, pack_ids,
)
from .groundtruth import GroundTruth
from .metrics import FilterEvaluation

__all__ = [
    "encode_pairs",
    "unique_keys",
    "groundtruth_keys",
    "evaluate_keys",
    "keys_to_candidate_set",
]


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted, de-duplicated keys (the canonical candidate-set encoding)."""
    return np.unique(keys)


def groundtruth_keys(groundtruth: GroundTruth, width: int) -> np.ndarray:
    """The groundtruth as a sorted key array."""
    lefts, rights = np.divmod(groundtruth.keys, KEY_WIDTH)
    return np.unique(encode_pairs(lefts, rights, width))


def evaluate_keys(
    candidate_keys: np.ndarray,
    gt_keys: np.ndarray,
    size1: int,
    size2: int,
) -> FilterEvaluation:
    """PC/PQ/RR of a *sorted unique* candidate key array."""
    found = count_shared(candidate_keys, gt_keys)
    total = size1 * size2
    pc = found / len(gt_keys) if len(gt_keys) else 0.0
    pq = found / len(candidate_keys) if len(candidate_keys) else 0.0
    rr = max(0.0, min(1.0, 1.0 - len(candidate_keys) / total)) if total else 0.0
    return FilterEvaluation(
        pc=pc,
        pq=pq,
        rr=rr,
        candidates=int(len(candidate_keys)),
        duplicates_found=found,
    )


def keys_to_candidate_set(keys: np.ndarray, width: int) -> CandidateSet:
    """Re-pack a sorted, unique key array into a :class:`CandidateSet`.

    One ``np.divmod`` splits the keys and :func:`pack_ids` re-joins them
    at the set's width 2**32.  Key order is ``(left, right)`` order at
    every width, so the result stays sorted and unique without a sort.
    """
    lefts, rights = np.divmod(np.asarray(keys, dtype=np.int64), width)
    return CandidateSet.from_keys(pack_ids(lefts, rights))
