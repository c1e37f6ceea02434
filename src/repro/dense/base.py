"""Shared machinery of the dense NN filters (Figure 2 with embeddings).

The dense methods share the preprocessing pipeline: optional cleaning,
embedding of every entity's textual content into a fixed-size vector, then
indexing one side and querying with the other.  Subclasses provide the
index-and-query step.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.candidates import CandidateSet
from ..core.filters import Filter
from ..core.profile import EntityCollection
from ..core.stages import NN_STAGES, PREPROCESS, QUERY
from ..text.cleaning import TextCleaner
from .embeddings import HashedNGramEmbedder

__all__ = ["DenseNNFilter", "bucket_join"]


def bucket_join(
    index_keys: np.ndarray, query_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(i, q)`` with ``index_keys[i] == query_keys[q]``.

    The equi-join as two int64 position arrays, grouped by query: the
    index keys are sorted once, ``searchsorted`` finds each query key's
    run of equal keys, and ``np.repeat`` expands the runs.
    """
    order = np.argsort(index_keys, kind="stable")
    sorted_keys = index_keys[order]
    starts = np.searchsorted(sorted_keys, query_keys, side="left")
    counts = np.searchsorted(sorted_keys, query_keys, side="right") - starts
    query_pos = np.repeat(np.arange(len(query_keys)), counts)
    # Each run's output slots map onto its sorted positions by one shift.
    shift = starts - (np.cumsum(counts) - counts)
    return order[np.arange(len(query_pos)) + shift[query_pos]], query_pos


class DenseNNFilter(Filter):
    """Base class: cleaning -> embedding -> (index, query) -> candidates.

    Parameters
    ----------
    cleaning:
        Apply stop-word removal and stemming before embedding.
    reverse:
        The RVS flag: index ``E2``, query with ``E1``.
    embedder:
        Shared :class:`HashedNGramEmbedder`; pass one instance across
        filters to share the n-gram cache (a large speed-up in grid searches).
    """

    stages = NN_STAGES

    def __init__(
        self,
        cleaning: bool = False,
        reverse: bool = False,
        embedder: Optional[HashedNGramEmbedder] = None,
    ) -> None:
        super().__init__()
        self.cleaning = cleaning
        self.reverse = reverse
        self.embedder = embedder or HashedNGramEmbedder()
        self._cleaner = TextCleaner()

    def _embed(
        self, collection: EntityCollection, attribute: Optional[str]
    ) -> np.ndarray:
        texts = collection.texts(attribute)
        if self.cleaning:
            texts = [self._cleaner.clean(text) for text in texts]
        return self.embedder.embed_texts(texts)

    def _run(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str],
    ) -> CandidateSet:
        entities = len(left) + len(right)
        with self.trace.stage(PREPROCESS, input_size=entities) as preprocess:
            left_vectors = self._embed(left, attribute)
            right_vectors = self._embed(right, attribute)
            preprocess.output_size = entities
        if self.reverse:
            indexed, queries = right_vectors, left_vectors
        else:
            indexed, queries = left_vectors, right_vectors
        indexed_ids, query_ids = self._index_and_query(indexed, queries)
        if self.reverse:
            candidates = CandidateSet.from_ids(query_ids, indexed_ids)
        else:
            candidates = CandidateSet.from_ids(indexed_ids, query_ids)
        self.trace.record(QUERY).output_size = len(candidates)
        return candidates

    def _index_and_query(
        self, indexed: np.ndarray, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Matched ``(indexed ids, query ids)`` as parallel int64 arrays.

        Any order, repeats allowed; times its own INDEX and QUERY stages.
        """
        raise NotImplementedError

    def describe(self) -> str:
        flags = []
        if self.cleaning:
            flags.append("clean")
        if self.reverse:
            flags.append("rvs")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"{self.name}{suffix}"
