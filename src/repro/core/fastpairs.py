"""Array-encoded candidate pairs for the hot evaluation path.

The configuration optimizer evaluates thousands of candidate sets, each
as a sorted array of :class:`~repro.core.candidates.CandidateSet` keys
(:func:`~repro.core.candidates.pack_ids`); PC/PQ are computed directly
on the keys, and a key array becomes a set without a decode.
"""

from __future__ import annotations

import numpy as np

from .candidates import CandidateSet, count_shared, encode_pairs, unique_keys
from .metrics import FilterEvaluation

__all__ = [
    "encode_pairs",
    "unique_keys",
    "evaluate_keys",
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


def keys_to_candidate_set(keys: np.ndarray) -> CandidateSet:
    """The :class:`CandidateSet` of keys in any order, repeats allowed."""
    return CandidateSet.from_keys(unique_keys(keys))
