"""DeepBlocker substitute: learned tuple embeddings + exact kNN search.

DeepBlocker (Thirumuruganathan et al., VLDB 2021) converts attribute values
to fastText embeddings, learns a *tuple embedding* with a self-supervised
module (the paper benchmarks the AutoEncoder module), then indexes and
queries with FAISS.  Our substitute keeps that exact structure:

1. entity texts -> HashedNGramEmbedder vectors (fastText substitute);
2. an :class:`~repro.dense.autoencoder.Autoencoder` is trained on the
   union of both collections' vectors — the training step whose cost
   dominates the method's run-time in the paper (Figures 7-9);
3. the encoder output is L2-normalized and searched exactly with
   :class:`~repro.dense.flat_index.FlatIndex`.

Random weight initialization makes the method stochastic (Table II), so
benchmark code averages it over repetitions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.stages import INDEX, PREPROCESS, QUERY
from .autoencoder import Autoencoder
from .base import DenseNNFilter
from .embeddings import HashedNGramEmbedder
from .flat_index import FlatIndex

__all__ = ["DeepBlocker"]


class DeepBlocker(DenseNNFilter):
    """AutoEncoder tuple embedding + exact kNN (cardinality threshold)."""

    name = "deepblocker"

    def __init__(
        self,
        k: int,
        cleaning: bool = False,
        reverse: bool = False,
        hidden_dim: int = 150,
        epochs: int = 20,
        seed: int = 0,
        auto_reverse: bool = False,
        embedder: Optional[HashedNGramEmbedder] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        super().__init__(cleaning=cleaning, reverse=reverse, embedder=embedder)
        self.k = k
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.seed = seed
        self.auto_reverse = auto_reverse

    @property
    def is_stochastic(self) -> bool:
        return True

    def reseed(self, seed: int) -> None:
        """Change the training seed (used to average over repetitions)."""
        self.seed = seed

    def _run(self, left, right, attribute):
        if self.auto_reverse:
            self.reverse = len(left) < len(right)
        return super()._run(left, right, attribute)

    def _index_and_query(
        self, indexed: np.ndarray, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Training belongs to preprocessing in the paper's run-time
        # decomposition: it is part of building the tuple embeddings.
        with self.trace.stage(PREPROCESS):
            model = Autoencoder(
                input_dim=indexed.shape[1],
                hidden_dim=self.hidden_dim,
                seed=self.seed,
            )
            training = np.vstack([indexed, queries])
            model.fit(training, epochs=self.epochs)
            indexed_codes = self._normalize(model.encode(indexed))
            query_codes = self._normalize(model.encode(queries))
        with self.trace.stage(INDEX, input_size=indexed_codes.shape[0]):
            index = FlatIndex(indexed_codes, metric="l2")
        with self.trace.stage(QUERY, input_size=query_codes.shape[0]):
            ids, __ = index.search(query_codes, self.k)
        return ids.ravel(), np.repeat(np.arange(len(ids)), ids.shape[1])

    @staticmethod
    def _normalize(vectors: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return vectors / norms

    def describe(self) -> str:
        return f"{super().describe()} k={self.k}"
