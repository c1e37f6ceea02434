"""Array-encoded candidate pairs for the hot evaluation path.

The configuration optimizer evaluates thousands of candidate sets, each
as a sorted array of :class:`~repro.core.candidates.CandidateSet` keys
(:func:`~repro.core.candidates.pack_ids`); PC/PQ are computed directly
on the keys, and a key array becomes a set without a decode.  The
blocking tuners score many row masks of one sorted unique key array (a
blocking graph's pairs): :class:`MaskEvaluator` finds the groundtruth's
rows once and then scores each mask by counting, with no masked copy.
"""

from __future__ import annotations

import numpy as np

from .candidates import (
    CandidateSet,
    count_shared,
    encode_pairs,
    shared_rows,
    unique_keys,
)
from .metrics import FilterEvaluation

__all__ = [
    "encode_pairs",
    "unique_keys",
    "evaluate_keys",
    "MaskEvaluator",
    "keys_to_candidate_set",
]


def evaluate_keys(
    candidate_keys: np.ndarray,
    gt_keys: np.ndarray,
    size1: int,
    size2: int,
) -> FilterEvaluation:
    """PC/PQ/RR of a *sorted unique* candidate key array."""
    found = count_shared(candidate_keys, gt_keys)
    return _evaluation(found, len(candidate_keys), len(gt_keys), size1 * size2)


class MaskEvaluator:
    """PC/PQ/RR of row masks over one *sorted unique* key array.

    A mask of sorted unique keys is sorted unique, so ``evaluate(mask)``
    equals ``evaluate_keys(keys[mask], ...)``: its candidates are the
    mask's set rows and its duplicates the set rows among those holding
    a groundtruth key — two counts, the same divisions.
    """

    def __init__(
        self, keys: np.ndarray, gt_keys: np.ndarray, size1: int, size2: int
    ) -> None:
        self._duplicate_rows = shared_rows(keys, gt_keys)
        self._gt_count = len(gt_keys)
        self._total = size1 * size2

    def evaluate(self, mask: np.ndarray) -> FilterEvaluation:
        """The evaluation of a boolean ``mask``, one entry per key."""
        found = int(np.count_nonzero(mask[self._duplicate_rows]))
        candidates = int(np.count_nonzero(mask))
        return _evaluation(found, candidates, self._gt_count, self._total)


def _evaluation(
    found: int, candidates: int, gt_count: int, total: int
) -> FilterEvaluation:
    pc = found / gt_count if gt_count else 0.0
    pq = found / candidates if candidates else 0.0
    rr = max(0.0, min(1.0, 1.0 - candidates / total)) if total else 0.0
    return FilterEvaluation(
        pc=pc,
        pq=pq,
        rr=rr,
        candidates=int(candidates),
        duplicates_found=found,
    )


def keys_to_candidate_set(keys: np.ndarray) -> CandidateSet:
    """The :class:`CandidateSet` of keys in any order, repeats allowed."""
    return CandidateSet.from_keys(unique_keys(keys))
