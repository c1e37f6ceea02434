"""Configuration optimization of the dense NN methods (Table V).

* Cardinality-based methods (FAISS, SCANN, DeepBlocker) — for each
  cleaning/RVS combination (and SCANN index variant) the tuner builds
  the filter at the maximum cardinality and runs its index-and-query
  step once, so the tuned and the built filter share one index
  construction.  The whole ascending-K sweep derives from the rank of
  each duplicate, stopping at the first feasible K (the paper's early
  termination).  DeepBlocker is stochastic: ranks are averaged over
  training seeds ``0 .. repetitions-1``, the seeds
  :meth:`GridSearchOptimizer.evaluate` averages a built filter over.
* Threshold-based methods (MinHash / Hyperplane / Cross-Polytope LSH) —
  plain grid search over the discrete configurations of Table V through
  :meth:`GridSearchOptimizer.search`; each configuration is evaluated
  over ``repetitions`` reseeded runs (one by default).

Embeddings are cached per (dataset, attribute, cleaning) combination and
the n-gram vector cache is shared through a single embedder instance, so
the grid search does not recompute the most expensive preprocessing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.candidates import pack_ids
from ..core.optimizer import DEFAULT_RECALL_TARGET, GridSearchOptimizer
from ..datasets.generator import ERDataset
from ..dense.crosspolytope import CrossPolytopeLSH
from ..dense.deepblocker import DeepBlocker
from ..dense.embeddings import HashedNGramEmbedder
from ..dense.hyperplane import HyperplaneLSH
from ..dense.knn_search import FaissKNN, ScannKNN
from ..dense.minhash import MinHashLSH
from ..text.cleaning import TextCleaner
from . import spaces
from .result import Incumbent, TunedResult

__all__ = [
    "EmbeddingCache",
    "KNNSearchTuner",
    "LSHTuner",
]


class EmbeddingCache:
    """Entity embedding matrices, cached per (side, attribute, cleaning)."""

    def __init__(self, embedder: Optional[HashedNGramEmbedder] = None) -> None:
        self.embedder = embedder or HashedNGramEmbedder()
        self._cache: Dict[Tuple[int, Optional[str], bool], np.ndarray] = {}
        self._cleaner = TextCleaner()

    def vectors(
        self,
        collection,
        attribute: Optional[str],
        cleaning: bool,
    ) -> np.ndarray:
        key = (id(collection), attribute, cleaning)
        if key not in self._cache:
            texts = collection.texts(attribute)
            if cleaning:
                texts = [self._cleaner.clean(text) for text in texts]
            self._cache[key] = self.embedder.embed_texts(texts)
        return self._cache[key]


def _first_feasible_k(
    rank_hits: np.ndarray,
    per_query_counts: np.ndarray,
    total_duplicates: int,
    k_values: Sequence[int],
    target: float,
) -> Tuple[int, float, float, int]:
    """Sweep K ascending over precomputed duplicate ranks.

    ``rank_hits[r]`` counts duplicates whose true match sits at rank ``r``
    (0-based) in its query's result list; ``per_query_counts[k]`` is the
    total candidate count at cardinality ``k``.
    """
    cumulative_hits = np.cumsum(rank_hits)

    def stats(k: int) -> Tuple[float, float, int]:
        hits = float(cumulative_hits[min(k, len(cumulative_hits)) - 1]) if k else 0.0
        candidates = int(per_query_counts[min(k, len(per_query_counts) - 1)])
        pc = hits / total_duplicates if total_duplicates else 0.0
        pq = hits / candidates if candidates else 0.0
        return pc, pq, candidates

    for k in k_values:
        pc, pq, candidates = stats(k)
        if pc >= target:
            return k, pc, pq, candidates
    k = k_values[-1]
    pc, pq, candidates = stats(k)
    return k, pc, pq, candidates


def _rank_hits(
    keys: np.ndarray,
    query_ids: np.ndarray,
    gt_keys: np.ndarray,
    k_max: int,
) -> np.ndarray:
    """Duplicates found at each rank ``0..k_max-1`` of one kNN search.

    ``query_ids`` is a filter's flat ``_index_and_query`` output: each
    query's ids form one contiguous best-first run, queries in ascending
    order, so a pair's rank is its offset within its run.  ``keys`` are
    the same pairs' candidate keys, checked against the groundtruth's.
    """
    run_lengths = np.bincount(query_ids, minlength=1)
    run_starts = np.cumsum(run_lengths) - run_lengths
    ranks = np.arange(len(keys)) - run_starts[query_ids]
    hits = np.isin(keys, gt_keys)
    return np.bincount(ranks[hits], minlength=k_max)


class KNNSearchTuner:
    """Problem-1 tuner for FAISS / SCANN / DeepBlocker."""

    def __init__(
        self,
        method: str,
        target_recall: float = DEFAULT_RECALL_TARGET,
        profile: str = "",
        cache: Optional[EmbeddingCache] = None,
        repetitions: int = 3,
    ) -> None:
        method = method.lower()
        if method not in ("faiss", "scann", "deepblocker"):
            raise ValueError(f"unknown dense kNN method {method!r}")
        self.method = method
        self.target_recall = target_recall
        self.profile = spaces.active_profile(profile)
        self.cache = cache or EmbeddingCache()
        self.repetitions = repetitions

    def _variants(self) -> List[Dict[str, object]]:
        if self.method == "scann":
            return [
                {"index_type": index_type, "similarity": similarity}
                for index_type in ("BF", "AH")
                for similarity in ("l2", "dot")
            ]
        return [{}]

    # ------------------------------------------------------------------
    # Search.
    # ------------------------------------------------------------------

    def tune(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> TunedResult:
        k_values = spaces.dense_k_values(self.profile)
        incumbent = Incumbent(self.method, self.target_recall)
        total_duplicates = len(dataset.groundtruth)
        repetitions = self.repetitions if self.method == "deepblocker" else 1
        gt_keys = dataset.groundtruth.keys
        for cleaning in (False, True):
            left_vectors = self.cache.vectors(dataset.left, attribute, cleaning)
            right_vectors = self.cache.vectors(
                dataset.right, attribute, cleaning
            )
            for reverse in (False, True):
                if reverse:
                    indexed, queries = right_vectors, left_vectors
                else:
                    indexed, queries = left_vectors, right_vectors
                k_max = min(max(k_values), indexed.shape[0])
                usable_ks = [k for k in k_values if k <= k_max] or [k_max]
                per_query_counts = np.arange(k_max + 1) * queries.shape[0]
                base = {"cleaning": cleaning, "reverse": reverse}
                for variant in self._variants():
                    flt = self.build_filter({**base, "k": k_max, **variant})
                    rank_hits = np.zeros(k_max, dtype=np.float64)
                    for repetition in range(repetitions):
                        flt.reseed(repetition)
                        ids, query_ids = flt._index_and_query(
                            indexed, queries
                        )
                        pair = (query_ids, ids) if reverse else (ids, query_ids)
                        rank_hits += _rank_hits(
                            pack_ids(*pair), query_ids, gt_keys, k_max
                        )
                    rank_hits /= repetitions
                    k, pc, pq, candidates = _first_feasible_k(
                        rank_hits,
                        per_query_counts,
                        total_duplicates,
                        usable_ks,
                        self.target_recall,
                    )
                    incumbent.enumerated += len(usable_ks)
                    incumbent.offer(
                        {**base, "k": k, **variant},
                        pc,
                        pq,
                        candidates,
                        tried=len(usable_ks),
                    )
        return incumbent.finish(self.build_filter, dataset, attribute)

    def build_filter(self, params: Dict[str, object]):
        cleaning = bool(params["cleaning"])
        reverse = bool(params["reverse"])
        k = int(params["k"])
        if self.method == "faiss":
            return FaissKNN(
                k=k, cleaning=cleaning, reverse=reverse,
                embedder=self.cache.embedder,
            )
        if self.method == "scann":
            return ScannKNN(
                k=k, cleaning=cleaning, reverse=reverse,
                index_type=str(params.get("index_type", "BF")),
                similarity=str(params.get("similarity", "l2")),
                embedder=self.cache.embedder,
            )
        return DeepBlocker(
            k=k, cleaning=cleaning, reverse=reverse,
            embedder=self.cache.embedder,
        )


class LSHTuner:
    """Problem-1 tuner for the three LSH variants (plain grid search)."""

    def __init__(
        self,
        method: str,
        target_recall: float = DEFAULT_RECALL_TARGET,
        profile: str = "",
        cache: Optional[EmbeddingCache] = None,
        repetitions: int = 1,
    ) -> None:
        method = method.lower()
        if method not in ("mh-lsh", "hp-lsh", "cp-lsh"):
            raise ValueError(f"unknown LSH method {method!r}")
        self.method = method
        self.target_recall = target_recall
        self.profile = spaces.active_profile(profile)
        self.cache = cache or EmbeddingCache()
        self.repetitions = repetitions

    def _grid(self) -> List[Dict[str, object]]:
        if self.method == "mh-lsh":
            return spaces.minhash_grid(self.profile)
        if self.method == "hp-lsh":
            return spaces.hyperplane_grid(self.profile)
        return spaces.crosspolytope_grid(self.profile)

    def build_filter(self, params: Dict[str, object]):
        if self.method == "mh-lsh":
            return MinHashLSH(**params)
        if self.method == "hp-lsh":
            return HyperplaneLSH(**params, embedder=self.cache.embedder)
        return CrossPolytopeLSH(**params, embedder=self.cache.embedder)

    def tune(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> TunedResult:
        optimizer = GridSearchOptimizer(
            target_recall=self.target_recall, repetitions=self.repetitions
        )
        result = optimizer.search(
            self._grid(),
            lambda **params: self.build_filter(params),
            dataset,
            attribute,
        )
        result.method = self.method
        return result


# ----------------------------------------------------------------------
# Registry entries (Table VII rows 11-16).
# ----------------------------------------------------------------------


def _build_incremental(code: str, params: Dict[str, object]):
    """The streaming form of one LSH method (per-bucket add/remove).

    Reuses the tuner's parameter vocabulary directly; an empty dict
    selects the filters' defaults.  Cross-Polytope LSH rotates against a
    data-dependent padding dimension and has no streaming form yet.
    """
    from ..dense.hyperplane import IncrementalHyperplaneLSH
    from ..dense.minhash import IncrementalMinHashLSH

    if code == "MH-LSH":
        return IncrementalMinHashLSH(**params)
    return IncrementalHyperplaneLSH(**params)


def _register() -> None:
    from ..core import registry, stages

    lsh_rows = (("MH-LSH", 10), ("CP-LSH", 11), ("HP-LSH", 12))
    for code, order in lsh_rows:
        registry.register(
            registry.FilterSpec(
                code=code,
                family="dense",
                order=order,
                stages=stages.NN_STAGES,
                filter_factory=lambda params, code=code.lower(): (
                    LSHTuner(code).build_filter(params)
                ),
                tuner_factory=lambda recall, profile, cache, prune, code=code.lower(): (
                    LSHTuner(
                        code,
                        target_recall=recall,
                        profile=profile,
                        cache=cache,
                    )
                ),
                # MinHash signatures over every shingle set exhaust memory
                # on the largest dataset (the paper's "-" cell).
                excluded_datasets=(
                    frozenset({"d10"}) if code == "MH-LSH" else frozenset()
                ),
                incremental_factory=(
                    None
                    if code == "CP-LSH"
                    else lambda params, code=code: (
                        _build_incremental(code, params)
                    )
                ),
            )
        )
    knn_rows = (("FAISS", "faiss", 13), ("SCANN", "scann", 14),
                ("DB", "deepblocker", 15))
    for code, internal, order in knn_rows:
        registry.register(
            registry.FilterSpec(
                code=code,
                family="dense",
                order=order,
                stages=stages.NN_STAGES,
                filter_factory=lambda params, internal=internal: (
                    KNNSearchTuner(internal).build_filter(params)
                ),
                tuner_factory=lambda recall, profile, cache, prune, internal=internal: (
                    KNNSearchTuner(
                        internal,
                        target_recall=recall,
                        profile=profile,
                        cache=cache,
                    )
                ),
                # DeepBlocker trains an autoencoder per run; excluded from
                # the largest dataset like the paper's "-" cell.
                excluded_datasets=(
                    frozenset({"d10"}) if code == "DB" else frozenset()
                ),
            )
        )


_register()
