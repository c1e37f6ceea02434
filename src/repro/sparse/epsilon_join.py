"""Range join (ε-Join): pair all entities with similarity >= ε.

This is the similarity-threshold sparse NN method of the paper.  All exact
ε-Join algorithms produce the identical candidate set; we use ScanCount
because ER requires *low* thresholds where prefix-filter techniques lose
their advantage (Section IV-C).
"""

from __future__ import annotations

from typing import Dict, Optional

from .base import SparseNNFilter

__all__ = ["EpsilonJoin"]


class EpsilonJoin(SparseNNFilter):
    """Similarity-threshold join over token sets."""

    name = "e-join"

    def __init__(
        self,
        threshold: float,
        model: str = "T1G",
        measure: str = "cosine",
        cleaning: bool = False,
        workers: Optional[int] = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        super().__init__(
            model=model, measure=measure, cleaning=cleaning, workers=workers
        )
        self.threshold = threshold

    def _consumer_params(self) -> Dict[str, object]:
        # The epsilon kernel pushes the threshold into the counting loop
        # via a per-size integer overlap bound; its survivors still pass
        # the exact similarity check (similarity >= threshold).
        return {
            "consumer": "epsilon",
            "threshold": self.threshold,
            "measure": self.measure_name,
        }

    def describe(self) -> str:
        return f"{super().describe()} t={self.threshold:.2f}"
