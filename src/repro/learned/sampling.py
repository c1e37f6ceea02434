"""Seeded labeled edge samples for supervised meta-blocking.

The training set is drawn from the *edges of the blocking graph*, not
from all entity pairs: the learned model only ever re-ranks candidates
the blocking workflow already surfaced, so edges are exactly its
inference distribution.  Labels come from the groundtruth oracle via the
candidate keys, making the membership test a single vectorized
``np.isin``.

Sampling is deterministic given ``seed``: a fresh
``np.random.default_rng(seed)`` draws positives and negatives
separately (stratified — uniform sampling would almost never see a
match at realistic edge densities), and the chosen indices are sorted
so downstream feature slicing is order-stable.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["sample_labeled_edges"]


def sample_labeled_edges(
    keys: np.ndarray,
    gt_keys: np.ndarray,
    sample_size: int,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pick ``<= sample_size`` edge indices plus their 0/1 labels.

    ``keys`` are the candidate keys of every graph edge; ``gt_keys``
    the groundtruth's (:attr:`GroundTruth.keys`).  Up to half the budget
    goes to positives (fewer when the graph holds fewer matching
    edges), the remainder to negatives.  Returns ``(indices, labels)``
    with ``indices`` sorted ascending; degenerate graphs may yield a
    single-class or empty sample — callers own that fallback.
    """
    keys = np.asarray(keys, dtype=np.int64)
    labels_all = np.isin(keys, np.asarray(gt_keys, dtype=np.int64))
    positives = np.flatnonzero(labels_all)
    negatives = np.flatnonzero(~labels_all)
    budget = max(0, int(sample_size))
    rng = np.random.default_rng(seed)
    take_pos = min(len(positives), budget // 2)
    take_neg = min(len(negatives), budget - take_pos)
    chosen_pos = rng.choice(positives, size=take_pos, replace=False) if (
        take_pos
    ) else np.zeros(0, dtype=np.int64)
    chosen_neg = rng.choice(negatives, size=take_neg, replace=False) if (
        take_neg
    ) else np.zeros(0, dtype=np.int64)
    indices = np.sort(np.concatenate([chosen_pos, chosen_neg])).astype(np.int64)
    return indices, labels_all[indices].astype(np.float64)
