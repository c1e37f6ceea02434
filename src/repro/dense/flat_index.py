"""Exact (brute-force) k-nearest-neighbor index — the FAISS-Flat substitute.

The paper uses FAISS's Flat index (exact search; the approximate indexes
did not help under Problem 1), with normalized embeddings and Euclidean
distance.  This module provides the same semantics with blocked numpy
matrix products, supporting squared-L2 and dot-product scoring.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["FlatIndex"]


class FlatIndex:
    """Exact kNN over a fixed matrix of vectors.

    Parameters
    ----------
    vectors:
        Array of shape (n, d); a copy is not taken.
    metric:
        ``"l2"`` (smaller is closer) or ``"dot"`` (larger is closer).
    block_size:
        Queries are processed in blocks of this many rows to bound memory.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        metric: str = "l2",
        block_size: int = 1024,
    ) -> None:
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
        metric = metric.lower()
        if metric not in ("l2", "dot"):
            raise ValueError(f"metric must be 'l2' or 'dot', got {metric!r}")
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        self.metric = metric
        self.block_size = max(1, block_size)
        self._sq_norms = np.einsum("ij,ij->i", self.vectors, self.vectors)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def _scores(self, queries: np.ndarray) -> np.ndarray:
        """Score matrix (higher = closer) for a block of queries."""
        products = queries @ self.vectors.T
        if self.metric == "dot":
            return products
        # Negated squared Euclidean distance: higher is closer.
        query_norms = np.einsum("ij,ij->i", queries, queries)
        return 2.0 * products - self._sq_norms[None, :] - query_norms[:, None]

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """For each query row, the ids and scores of its k nearest vectors.

        Returns ``(ids, scores)``, each of shape (n_queries, k'), where
        ``k' = min(k, len(index))``; ids are ordered best-first.  Scores
        follow the internal convention (higher = closer), so for the L2
        metric they are negated squared distances.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        n = len(self)
        k = min(k, n)
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        ids = np.empty((queries.shape[0], k), dtype=np.int64)
        best_scores = np.empty((queries.shape[0], k), dtype=np.float32)
        for start in range(0, queries.shape[0], self.block_size):
            block = queries[start : start + self.block_size]
            rows = slice(start, start + block.shape[0])
            scores = self._scores(block)
            if k < n:
                part = np.argpartition(scores, -k, axis=1)[:, -k:]
            else:
                part = np.broadcast_to(
                    np.arange(n), (block.shape[0], n)
                ).copy()
            part_scores = np.take_along_axis(scores, part, axis=1)
            order = np.argsort(-part_scores, axis=1, kind="stable")
            ids[rows] = np.take_along_axis(part, order, axis=1)
            best_scores[rows] = np.take_along_axis(part_scores, order, axis=1)
        return ids, best_scores

    def range_search(self, queries: np.ndarray, radius: float) -> List[np.ndarray]:
        """Per query, the ids whose (metric-specific) score is within radius.

        For L2 the condition is squared distance <= radius**2; for dot it
        is product >= radius.  Provided because FAISS also supports range
        search (the paper found it consistently inferior to kNN search).
        """
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        results: List[np.ndarray] = []
        for start in range(0, queries.shape[0], self.block_size):
            block = queries[start : start + self.block_size]
            scores = self._scores(block)
            if self.metric == "l2":
                mask = scores >= -(radius * radius)
            else:
                mask = scores >= radius
            results.extend(np.nonzero(row)[0] for row in mask)
        return results
