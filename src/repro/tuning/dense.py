"""Configuration optimization of the dense NN methods (Table V).

* Cardinality-based methods (FAISS, SCANN, DeepBlocker) — for each
  cleaning/RVS combination the tuner runs *one* search at the maximum
  cardinality and derives the whole ascending-K sweep from the rank of
  each duplicate, stopping at the first feasible K (the paper's early
  termination).  DeepBlocker is stochastic, so ranks are averaged over
  repetitions with different training seeds.
* Threshold-based methods (MinHash / Hyperplane / Cross-Polytope LSH) —
  plain grid search over the discrete configurations of Table V, with
  stochastic averaging handled by :class:`GridSearchOptimizer`.

Embeddings are cached per (dataset, attribute, cleaning) combination and
the n-gram vector cache is shared through a single embedder instance, so
the grid search does not recompute the most expensive preprocessing.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.optimizer import DEFAULT_RECALL_TARGET, GridSearchOptimizer
from ..core.stages import fire_stage_hooks
from ..datasets.generator import ERDataset
from ..dense.autoencoder import Autoencoder
from ..dense.crosspolytope import CrossPolytopeLSH
from ..dense.deepblocker import DeepBlocker
from ..dense.embeddings import HashedNGramEmbedder
from ..dense.flat_index import FlatIndex
from ..dense.hyperplane import HyperplaneLSH
from ..dense.knn_search import FaissKNN, ScannKNN
from ..dense.minhash import MinHashLSH
from ..dense.partitioned import PartitionedIndex
from ..text.cleaning import TextCleaner
from . import spaces
from .estimator import MinHashEstimator, coverage_prunable, prune_enabled
from .result import TunedResult, better

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

    # ------------------------------------------------------------------
    # Rank computation per preprocessing combination.
    # ------------------------------------------------------------------

    def _ranked_ids(
        self,
        indexed: np.ndarray,
        queries: np.ndarray,
        k_max: int,
        variant: Dict[str, object],
        seed: int,
    ) -> List[np.ndarray]:
        """Best-first indexed ids per query, under the method's index."""
        if self.method == "faiss":
            ids, __ = FlatIndex(indexed, metric="l2").search(queries, k_max)
            return [row for row in ids]
        if self.method == "scann":
            index = PartitionedIndex(
                indexed,
                metric=str(variant.get("similarity", "l2")),
                quantize=variant.get("index_type") == "AH",
                seed=seed,
            )
            return index.search(queries, k_max)
        # DeepBlocker: train the tuple embedding, then exact search.
        model = Autoencoder(
            input_dim=indexed.shape[1], hidden_dim=150, seed=seed
        )
        model.fit(np.vstack([indexed, queries]), epochs=12)
        encoded_index = DeepBlocker._normalize(model.encode(indexed))
        encoded_queries = DeepBlocker._normalize(model.encode(queries))
        ids, __ = FlatIndex(encoded_index, metric="l2").search(
            encoded_queries, k_max
        )
        return [row for row in ids]

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
        best: Optional[TunedResult] = None
        tried = 0
        total_duplicates = len(dataset.groundtruth)
        repetitions = self.repetitions if self.method == "deepblocker" else 1
        for cleaning in (False, True):
            left_vectors = self.cache.vectors(dataset.left, attribute, cleaning)
            right_vectors = self.cache.vectors(
                dataset.right, attribute, cleaning
            )
            for reverse in (False, True):
                if reverse:
                    indexed, queries = right_vectors, left_vectors
                    gt_by_query = self._group_gt(
                        [(j, i) for i, j in dataset.groundtruth]
                    )
                else:
                    indexed, queries = left_vectors, right_vectors
                    gt_by_query = self._group_gt(list(dataset.groundtruth))
                k_max = min(max(k_values), indexed.shape[0])
                usable_ks = [k for k in k_values if k <= k_max] or [k_max]
                for variant in self._variants():
                    rank_hits = np.zeros(k_max, dtype=np.float64)
                    for repetition in range(repetitions):
                        ids = self._ranked_ids(
                            indexed, queries, k_max, variant, seed=repetition
                        )
                        for query_id, row in enumerate(ids):
                            matches = gt_by_query.get(query_id)
                            if not matches:
                                continue
                            for rank, indexed_id in enumerate(row):
                                if int(indexed_id) in matches:
                                    rank_hits[rank] += 1.0
                    rank_hits /= repetitions
                    per_query_counts = np.array(
                        [
                            min(k, indexed.shape[0]) * queries.shape[0]
                            for k in range(k_max + 1)
                        ],
                        dtype=np.int64,
                    )
                    k, pc, pq, candidates = _first_feasible_k(
                        rank_hits,
                        per_query_counts,
                        total_duplicates,
                        usable_ks,
                        self.target_recall,
                    )
                    tried += len(usable_ks)
                    best = better(
                        best,
                        TunedResult(
                            method=self.method,
                            params={
                                "cleaning": cleaning,
                                "reverse": reverse,
                                "k": k,
                                **variant,
                            },
                            pc=pc,
                            pq=pq,
                            candidates=candidates,
                            feasible=pc >= self.target_recall,
                        ),
                    )
        if best is None:
            best = TunedResult(method=self.method, feasible=False)
        best.configurations_tried = tried
        best.configurations_enumerated = tried
        if best.params:
            best.runtime = GridSearchOptimizer(
                self.target_recall
            ).measure_runtime(self.build_filter(best.params), dataset, attribute)
        return best

    @staticmethod
    def _group_gt(pairs) -> Dict[int, set]:
        grouped: Dict[int, set] = {}
        for indexed_id, query_id in pairs:
            grouped.setdefault(query_id, set()).add(indexed_id)
        return grouped

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
        prune: Optional[bool] = None,
    ) -> None:
        method = method.lower()
        if method not in ("mh-lsh", "hp-lsh", "cp-lsh"):
            raise ValueError(f"unknown LSH method {method!r}")
        self.method = method
        self.target_recall = target_recall
        self.profile = spaces.active_profile(profile)
        self.cache = cache or EmbeddingCache()
        self.repetitions = repetitions
        self.prune = prune_enabled(prune)

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

    def _minhash_prune_rule(self, dataset: ERDataset, attribute: Optional[str]):
        """A selection-safe ``should_prune`` callback for MinHash LSH.

        A banded signature collision requires a shared shingle (modulo
        raw hash collisions), so the shingle-coverage of the groundtruth
        caps PC for every (bands, rows) layout over that shingle space.
        Only coverage facts are used — LSH gives no candidate floor, so
        no PQ-domination rule applies.
        """
        estimator = MinHashEstimator(dataset, attribute)
        total_duplicates = len(dataset.groundtruth)
        needed = math.ceil(self.target_recall * total_duplicates)

        def should_prune(config: Dict[str, object], best: TunedResult) -> bool:
            fire_stage_hooks("enter", "estimate")
            try:
                stats = estimator.key_stats(config)
                return coverage_prunable(
                    stats.gt_overlapping, needed, total_duplicates, best
                )
            finally:
                fire_stage_hooks("exit", "estimate")

        return should_prune

    def _config_cost(self, config: Dict[str, object]) -> float:
        """Estimated execution cost of one grid configuration.

        Only the *relative* order matters (the optimizer sorts by it):
        hashing work scales with signature length x tables, probing with
        the probe count, and post-hoc comparison cleaning roughly
        doubles a run.  Feeding this to ``GridSearchOptimizer.search``
        evaluates cheap configurations first so the prune rule has an
        incumbent before the expensive corner of the grid arrives —
        provably without changing the selected winner.
        """
        if self.method == "mh-lsh":
            base = float(
                int(config["bands"]) * int(config["rows"])
                * (1 + int(config["shingle_k"]))
            )
        elif self.method == "hp-lsh":
            base = float(
                int(config["tables"]) * int(config["hashes"])
                + int(config["probes"])
            )
        else:  # cp-lsh: rotations scale with the last CP dimension.
            base = float(
                int(config["tables"]) * int(config["hashes"])
                * int(config["last_cp_dimension"])
                + int(config["probes"])
            )
        return base * (2.0 if config.get("cleaning") else 1.0)

    def tune(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> TunedResult:
        optimizer = GridSearchOptimizer(
            target_recall=self.target_recall, repetitions=self.repetitions
        )
        should_prune = None
        if self.prune and self.method == "mh-lsh":
            should_prune = self._minhash_prune_rule(dataset, attribute)
        result = optimizer.search(
            self._grid(),
            lambda **params: self.build_filter(params),
            dataset,
            attribute,
            should_prune=should_prune,
            cost=self._config_cost,
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
                tuner_factory=lambda recall, profile, cache, prune=None, code=code.lower(): (
                    LSHTuner(
                        code,
                        target_recall=recall,
                        profile=profile,
                        cache=cache,
                        prune=prune,
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
                tuner_factory=lambda recall, profile, cache, prune=None, internal=internal: (
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
