"""Global top-k set similarity join (Section IV-C discussion).

Unlike the kNN-Join, which performs a *local* join (at least k pairs per
query entity), the top-k join is *global*: it returns the k entity pairs
with the highest similarities among all pairs of the two collections.  It
is equivalent to an ε-Join whose threshold equals the k-th highest pair
similarity.  The paper discusses but does not benchmark it; we provide it
for the ablation benches.

The batched kernel makes the equivalence literal: one overlap pass yields
the full similarity array, ``np.partition`` finds the k-th highest value,
and the join reduces to a threshold mask at that cutoff (ties kept).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.candidates import CandidateSet
from ..core.profile import EntityCollection
from ..core.stages import INDEX, PREPROCESS, QUERY
from .base import SparseNNFilter, batch_similarities
from .scancount import ScanCountIndex

__all__ = ["TopKJoin"]


class TopKJoin(SparseNNFilter):
    """Return the k globally best-weighted pairs (ties at the cut kept)."""

    name = "topk-join"

    def __init__(
        self,
        k: int,
        model: str = "T1G",
        measure: str = "cosine",
        cleaning: bool = False,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        super().__init__(model=model, measure=measure, cleaning=cleaning)
        self.k = k

    def _run(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str],
    ) -> CandidateSet:
        with self.trace.stage(PREPROCESS, input_size=len(left) + len(right)):
            left_sets = self._token_sets(left, attribute)
            right_sets = self._token_sets(right, attribute)
        with self.trace.stage(INDEX, input_size=len(left_sets)):
            index = ScanCountIndex(left_sets)
        with self.trace.stage(QUERY, input_size=len(right_sets)) as query:
            query_ptr, set_ids, counts = index.batch_overlaps(right_sets)
            similarities = batch_similarities(
                index, right_sets, query_ptr, set_ids, counts,
                self.measure_name,
            )
            rows = np.ones(len(similarities), dtype=bool)
            if len(similarities) > self.k:
                position = len(similarities) - self.k
                cutoff = np.partition(similarities, position)[position]
                rows = similarities >= cutoff
            query_ids = np.repeat(
                np.arange(len(right_sets), dtype=np.int64),
                np.diff(query_ptr),
            )
            candidates = CandidateSet.from_ids(set_ids[rows], query_ids[rows])
            query.output_size = len(candidates)
        return candidates

    def describe(self) -> str:
        return f"{super().describe()} k={self.k}"
