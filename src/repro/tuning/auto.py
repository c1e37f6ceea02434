"""Unsupervised, a-priori configuration of the kNN-Join (extension).

Conclusion 1 of the paper calls for "a-priori fine-tuning the filtering
methods through an automatic, data-driven approach that requires no
labelled set".  This module implements such an approach for the method
the paper recommends overall (kNN-Join), using only unlabelled data:

* *fixed choices* follow the paper's cross-dataset observations —
  cosine similarity, cleaning enabled, the smaller collection as query
  set;
* the *representation model* is chosen from the dataset's token-length
  statistics: long, natural-language-like tokens favour whole-token
  models, short/code-like tokens favour character q-grams;
* the *cardinality* ``k`` is estimated from the similarity-gap statistic:
  for a sample of query entities, the rank at which the neighbour
  similarity drops most sharply approximates the boundary between the
  true match region and the noise floor; ``k`` is a high quantile of
  those per-query gap ranks.

This is a heuristic, not an oracle — the accompanying benchmarks measure
how much of the fine-tuned PQ it retains (typically far more than the
static DkNN defaults).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core import registry
from ..core.profile import EntityCollection
from ..datasets.generator import ERDataset
from ..sparse.base import batch_similarities
from ..sparse.knn_join import KNNJoin
from ..sparse.scancount import ScanCountIndex
from ..text.memo import tokenize_collection
from ..text.store import TokenSets, as_store
from ..text.tokenizers import word_tokens

__all__ = ["AutoKNNConfigurator"]


class AutoKNNConfigurator:
    """Label-free configuration of the kNN-Join."""

    def __init__(
        self,
        sample_size: int = 200,
        max_k: int = 20,
        quantile: float = 0.9,
        seed: int = 17,
    ) -> None:
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        if max_k < 1:
            raise ValueError(f"max_k must be positive, got {max_k}")
        self.sample_size = sample_size
        self.max_k = max_k
        self.quantile = quantile
        self.seed = seed

    # ------------------------------------------------------------------
    # Heuristics.
    # ------------------------------------------------------------------

    @staticmethod
    def choose_model(
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str] = None,
    ) -> str:
        """Pick the representation from token-length statistics.

        Short tokens (model codes, abbreviations) carry their evidence in
        characters, so q-grams; longer tokens tolerate the coarser and
        cheaper whole-token model.  Multisets are used throughout, as the
        paper observes they never hurt.

        The statistic is the mean character length over every raw
        ``word_tokens`` occurrence of both collections.
        """
        lengths = [
            len(token)
            for collection in (left, right)
            for text in collection.texts(attribute)
            for token in word_tokens(text)
        ]
        if not lengths:
            return "C5GM"
        mean_length = sum(lengths) / len(lengths)
        if mean_length >= 8.0:
            return "T1GM"
        if mean_length >= 6.0:
            return "C5GM"
        return "C3GM"

    def estimate_k(
        self,
        indexed_sets: TokenSets,
        query_sets: TokenSets,
    ) -> int:
        """The similarity-gap estimate of the required cardinality."""
        rng = np.random.default_rng(self.seed)
        index = ScanCountIndex(indexed_sets)
        count = min(self.sample_size, len(query_sets))
        if count == 0:
            return 1
        sample = rng.choice(len(query_sets), size=count, replace=False)
        queries = as_store(query_sets).take(sample)
        query_ptr, set_ids, overlap_counts = index.batch_overlaps(queries)
        similarities = batch_similarities(
            index, queries.sizes, query_ptr, set_ids, overlap_counts, "cosine"
        )
        gap_ranks: List[int] = []
        for position in range(len(queries)):
            start, stop = query_ptr[position], query_ptr[position + 1]
            scored = np.sort(similarities[start:stop])[::-1][
                : self.max_k + 1
            ]
            if len(scored) < 2:
                gap_ranks.append(1)
                continue
            drops = scored[:-1] - scored[1:]
            gap_ranks.append(1 + int(np.argmax(drops)))
        return max(1, min(self.max_k, int(np.quantile(gap_ranks, self.quantile))))

    # ------------------------------------------------------------------
    # Entry point.
    # ------------------------------------------------------------------

    def configure(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str] = None,
    ) -> KNNJoin:
        """A fully configured kNN-Join for the given (unlabelled) inputs."""
        reverse = len(left) < len(right)
        model = self.choose_model(left, right, attribute)
        indexed = right if reverse else left
        queries = left if reverse else right
        indexed_sets = tokenize_collection(
            indexed.texts(attribute), model, cleaning=True
        )
        query_sets = tokenize_collection(
            queries.texts(attribute), model, cleaning=True
        )
        k = self.estimate_k(indexed_sets, query_sets)
        return registry.build_filter(
            "kNNJ",
            {
                "k": k,
                "model": model,
                "measure": "cosine",
                "cleaning": True,
                "reverse": reverse,
            },
        )

    def configure_for(self, dataset: ERDataset, attribute: Optional[str] = None):
        """Convenience wrapper over a generated benchmark dataset."""
        return self.configure(dataset.left, dataset.right, attribute)
