"""k-nearest-neighbor join over token sets (Section IV-C).

For every query entity, the join returns the indexed entities holding the
``k`` highest *distinct* similarity values — ties are kept, so a query may
be paired with more than ``k`` entities when some are equidistant.  The
join is not commutative; the paper's RVS flag chooses which collection is
indexed.

The original Cone algorithm (Kocher & Augsten, SIGMOD 2019) answers top-k
label-set queries with size-striped inverted lists; following the paper we
adapt its candidate enumeration to ScanCount, which serves the same exact
overlap counts without the size partitioning.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .base import SparseNNFilter

__all__ = [
    "KNNJoin",
    "DefaultKNNJoin",
    "default_knn_join",
    "distinct_similarity_ranks",
]


def distinct_similarity_ranks(
    block: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Row-wise distinct-similarity ranks of a dense similarity block.

    ``block`` is a ``(queries, sets)`` float array.  Returns ``(ordered,
    ranks)`` of the same shape: ``ordered[q]`` is row ``q`` sorted
    descending and ``ranks[q, j]`` is the number of *distinct* values of
    row ``q`` at or above ``ordered[q, j]`` — the paper's tie rule, under
    which a kNN join keeps every entry of rank <= k.  Zero-width and
    zero-height blocks yield empty arrays of their shape.
    """
    ordered = np.sort(block, axis=1)[:, ::-1]
    new_value = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new_value[:, 1:])
    return ordered, np.cumsum(new_value, axis=1, dtype=np.int32)


class KNNJoin(SparseNNFilter):
    """Cardinality-threshold join: top-k distinct similarities per query."""

    name = "knn-join"

    def __init__(
        self,
        k: int,
        model: str = "T1G",
        measure: str = "cosine",
        cleaning: bool = False,
        reverse: bool = False,
        workers: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        super().__init__(
            model=model,
            measure=measure,
            cleaning=cleaning,
            reverse=reverse,
            workers=workers,
        )
        self.k = k

    def _consumer_params(self) -> Dict[str, object]:
        # The knn kernel keeps, per query, the rows at or above the k-th
        # distinct similarity — the tie rule of `distinct_similarity_ranks`,
        # without ranking rows or holding the overlap-row universe.
        return {"consumer": "knn", "k": self.k, "measure": self.measure_name}

    def describe(self) -> str:
        return f"{super().describe()} k={self.k}"


class DefaultKNNJoin(KNNJoin):
    """DkNN: the paper's default sparse baseline.

    Cosine similarity, cleaning enabled, multiset of character five-grams
    (C5GM), k = 5, and the smaller input collection used as the query set
    (the RVS flag is resolved from the input sizes at run time).
    """

    name = "dknn"

    def __init__(self, k: int = 5, workers: Optional[int] = None) -> None:
        super().__init__(
            k=k, model="C5GM", measure="cosine", cleaning=True, workers=workers
        )

    def _run(self, left, right, attribute):
        self.reverse = len(left) < len(right)
        return super()._run(left, right, attribute)


def default_knn_join() -> DefaultKNNJoin:
    """Factory for the DkNN baseline."""
    return DefaultKNNJoin()
