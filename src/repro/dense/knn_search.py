"""Cardinality-based dense NN filters: exact and partitioned kNN search.

* :class:`FaissKNN` — the FAISS substitute: exact Flat-index kNN with
  normalized embeddings and Euclidean distance (the configuration the
  paper settles on for FAISS).
* :class:`ScannKNN` — the SCANN substitute: k-means partitioned index with
  brute-force (BF) or asymmetric-hashing (AH, product-quantization)
  scoring, and a choice of dot-product or squared-L2 similarity — the two
  knobs the paper varies in Tables V and X.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.stages import INDEX, QUERY
from .base import DenseNNFilter
from .embeddings import HashedNGramEmbedder
from .flat_index import FlatIndex
from .partitioned import PartitionedIndex

__all__ = ["FaissKNN", "ScannKNN", "default_deepblocker"]


class FaissKNN(DenseNNFilter):
    """Exact kNN search over entity embeddings (FAISS Flat substitute)."""

    name = "faiss"

    def __init__(
        self,
        k: int,
        cleaning: bool = False,
        reverse: bool = False,
        metric: str = "l2",
        embedder: Optional[HashedNGramEmbedder] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        super().__init__(cleaning=cleaning, reverse=reverse, embedder=embedder)
        self.k = k
        self.metric = metric

    def _index_and_query(
        self, indexed: np.ndarray, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        with self.trace.stage(INDEX, input_size=indexed.shape[0]):
            index = FlatIndex(indexed, metric=self.metric)
        with self.trace.stage(QUERY, input_size=queries.shape[0]):
            ids, __ = index.search(queries, self.k)
        return ids.ravel(), np.repeat(np.arange(len(ids)), ids.shape[1])

    def describe(self) -> str:
        return f"{super().describe()} k={self.k}"


class ScannKNN(DenseNNFilter):
    """Partitioned kNN search (SCANN substitute).

    Parameters
    ----------
    k:
        Candidates per query entity.
    index_type:
        ``"BF"`` for brute-force scoring inside the searched partitions or
        ``"AH"`` for asymmetric hashing (8-bit product quantization).
    similarity:
        ``"dot"`` (dot product) or ``"l2"`` (squared Euclidean).
    num_leaves / leaves_to_search:
        Partitioning granularity; defaults follow SCANN's guidance of
        about sqrt(n) leaves, searching a fixed fraction of them.
    """

    name = "scann"

    def __init__(
        self,
        k: int,
        cleaning: bool = False,
        reverse: bool = False,
        index_type: str = "BF",
        similarity: str = "l2",
        num_leaves: Optional[int] = None,
        leaves_to_search: Optional[int] = None,
        seed: int = 13,
        embedder: Optional[HashedNGramEmbedder] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        index_type = index_type.upper()
        if index_type not in ("BF", "AH"):
            raise ValueError(f"index_type must be BF or AH, got {index_type!r}")
        super().__init__(cleaning=cleaning, reverse=reverse, embedder=embedder)
        self.k = k
        self.index_type = index_type
        self.similarity = similarity
        self.num_leaves = num_leaves
        self.leaves_to_search = leaves_to_search
        self.seed = seed

    def _index_and_query(
        self, indexed: np.ndarray, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        with self.trace.stage(INDEX, input_size=indexed.shape[0]):
            index = PartitionedIndex(
                indexed,
                metric=self.similarity,
                num_leaves=self.num_leaves,
                quantize=(self.index_type == "AH"),
                seed=self.seed,
            )
        with self.trace.stage(QUERY, input_size=queries.shape[0]):
            ids = index.search(
                queries, self.k, leaves_to_search=self.leaves_to_search
            )
        query_ids = np.repeat(np.arange(len(ids)), [len(row) for row in ids])
        return np.concatenate([np.zeros(0, np.int64), *ids]), query_ids

    def describe(self) -> str:
        return (
            f"{super().describe()} k={self.k} "
            f"index={self.index_type} sim={self.similarity}"
        )


def default_deepblocker():
    """DDB baseline factory (lives here to avoid a circular import)."""
    from .deepblocker import DeepBlocker

    return DeepBlocker(k=5, cleaning=True, auto_reverse=True)
