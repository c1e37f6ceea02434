"""Shared machinery of the sparse NN filters (Figure 2's workflow).

Both ε-Join and kNN-Join share the same pipeline: optional cleaning
(stop-word removal + stemming), tokenization under a representation model,
indexing of one collection with ScanCount, then one *batched* overlap pass
over the other collection.  This module factors that pipeline out.

The query phase runs through the chunked counting kernels of
:mod:`repro.sparse.kernels`: each join declares a *consumer*
(:meth:`_consumer_params`) that reduces every query's count vector in
place — the ε-Join masks with an integer overlap bound before the exact
similarity check, the kNN join cuts each query at its k-th distinct
similarity — so the flat overlap-row universe is never materialized.  The
selected pairs are encoded directly into
:func:`~repro.core.fastpairs.encode_pairs` keys — no intermediate Python
sets.  A ``workers=`` knob shards the query axis over
:mod:`repro.core.parallel` worker processes; results are byte-identical
for every worker count (see the determinism argument there), and
per-shard wall times land as nested ``shard-N`` records under the QUERY
stage.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.candidates import CandidateSet
from ..core.fastpairs import encode_pairs, keys_to_candidate_set, unique_keys
from ..core.filters import Filter
from ..core.profile import EntityCollection
from ..core.stages import INDEX, NN_STAGES, PREPROCESS, QUERY
from ..text.cleaning import TextCleaner
from ..text.tokenizers import RepresentationModel
from .scancount import ScanCountIndex
from .similarity import similarity_function, vector_similarity_function

__all__ = ["SparseNNFilter", "batch_similarities"]


def batch_similarities(
    index: ScanCountIndex,
    queries: Sequence[FrozenSet[str]],
    query_ptr: np.ndarray,
    set_ids: np.ndarray,
    counts: np.ndarray,
    measure: str,
) -> np.ndarray:
    """Similarity of every (query, indexed set) overlap row, vectorized.

    ``(query_ptr, set_ids, counts)`` is the CSR triple produced by
    :meth:`ScanCountIndex.batch_overlaps` for ``queries``.
    """
    if len(set_ids) == 0:
        return np.zeros(0, dtype=np.float64)
    query_sizes = np.fromiter(
        (len(query) for query in queries), count=len(queries), dtype=np.int64
    )
    sizes_b = np.repeat(query_sizes, np.diff(query_ptr))
    return vector_similarity_function(measure)(
        index.sizes[set_ids], sizes_b, counts
    )


class SparseNNFilter(Filter):
    """Base class for set-similarity-join filters.

    Parameters
    ----------
    model:
        Representation model code (``T1G`` ... ``C5GM``, Table IV).
    measure:
        ``cosine``, ``dice`` or ``jaccard``.
    cleaning:
        Apply stop-word removal and stemming before tokenization.
    reverse:
        The paper's RVS flag: index ``E2`` and use ``E1`` as the query set
        instead of the opposite.  Only meaningful for the cardinality-based
        joins; the range join is symmetric in its output.
    workers:
        Processes to shard the query phase over (``None`` = the
        process-wide default from :func:`repro.core.parallel.
        default_workers`; ``0`` = one per CPU; ``1`` = in-process).
    """

    stages = NN_STAGES

    def __init__(
        self,
        model: str = "T1G",
        measure: str = "cosine",
        cleaning: bool = False,
        reverse: bool = False,
        workers: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.model = RepresentationModel(model)
        self.measure_name = measure.lower()
        self.measure = similarity_function(measure)
        self.vector_measure = vector_similarity_function(measure)
        self.cleaning = cleaning
        self.reverse = reverse
        self.workers = workers
        self._cleaner = TextCleaner()

    def _token_sets(
        self, collection: EntityCollection, attribute: Optional[str]
    ) -> List[FrozenSet[str]]:
        texts = collection.texts(attribute)
        if self.cleaning:
            texts = [self._cleaner.clean(text) for text in texts]
        return [self.model.tokens(text) for text in texts]

    def _run(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str],
    ) -> CandidateSet:
        entities = len(left) + len(right)
        with self.trace.stage(PREPROCESS, input_size=entities) as preprocess:
            left_sets = self._token_sets(left, attribute)
            right_sets = self._token_sets(right, attribute)
            preprocess.output_size = entities
        if self.reverse:
            indexed, queries = right_sets, left_sets
        else:
            indexed, queries = left_sets, right_sets
        with self.trace.stage(INDEX, input_size=len(indexed)):
            index = ScanCountIndex(indexed)
        with self.trace.stage(QUERY, input_size=len(queries)) as query:
            query_ids, set_ids = self._select_pairs(index, queries)
            if self.reverse:
                lefts, rights = query_ids, set_ids
            else:
                lefts, rights = set_ids, query_ids
            width = max(1, len(right))
            keys = unique_keys(encode_pairs(lefts, rights, width))
            candidates = keys_to_candidate_set(keys, width)
            query.output_size = len(candidates)
        return candidates

    # ------------------------------------------------------------------
    # Join-type specific selection.
    # ------------------------------------------------------------------

    def _consumer_params(self) -> Dict[str, object]:
        """Kernel consumer + params answering this join (see kernels)."""
        raise NotImplementedError

    def _select_pairs(
        self, index: ScanCountIndex, queries: Sequence[FrozenSet[str]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Selected ``(query_ids, set_ids)`` pairs over the whole batch."""
        params = dict(self._consumer_params())
        consumer = str(params.pop("consumer"))
        shards = index.run_kernel(consumer, queries, self.workers, **params)
        if len(shards) > 1:
            for position, shard in enumerate(shards):
                self.trace.add_external(
                    f"shard-{position}",
                    shard.wall_s,
                    input_size=shard.hi - shard.lo,
                    output_size=len(shard.value[0]),
                )
        if not shards:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return (
            np.concatenate([shard.value[0] for shard in shards]),
            np.concatenate([shard.value[1] for shard in shards]),
        )

    def describe(self) -> str:
        flags = []
        if self.cleaning:
            flags.append("clean")
        if self.reverse:
            flags.append("rvs")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"{self.name}({self.model.code},{self.measure_name}){suffix}"
