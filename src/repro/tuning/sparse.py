"""Configuration optimization of the sparse NN methods (Table IV).

Both joins share the preprocessing grid (cleaning x representation model);
the tuners tokenize each combination once (memoized across tuners via
:func:`tokenize_collection`), run one *batched* ScanCount pass over the
queries, and derive the whole threshold/cardinality sweep from the
resulting overlap arrays by pure NumPy masking — mirroring how
``tuning/blocking.py`` shares ``PairGraph`` weights across pruning
configurations:

* ε-Join — the feasible threshold with maximal PQ is the largest t with
  PC >= τ, i.e. the ceil(τ |D|)-th highest duplicate similarity, snapped
  down to the paper's 0.01 grid; the candidate count at t is a single
  ``(sims >= t).sum()`` over the shared similarity array, never
  materializing the pairs.
* kNN-Join — each query's rows are first cut to those at or above its
  ``k_max``-th distinct similarity
  (:func:`~repro.sparse.kernels.kth_distinct_cutoff`); only those
  survivors are converted to distinct-similarity ranks (the vectorized
  machinery of :func:`~repro.sparse.knn_join.distinct_similarity_ranks`).
  The sweep over k uses cumulative histograms, and stops at the first
  feasible k (the paper's early termination), which also maximizes PQ.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.optimizer import DEFAULT_RECALL_TARGET, GridSearchOptimizer
from ..core.stages import fire_stage_hooks
from ..datasets.generator import ERDataset
from ..sparse.epsilon_join import EpsilonJoin
from ..sparse.kernels import kth_distinct_cutoff
from ..sparse.knn_join import KNNJoin, distinct_similarity_ranks
from ..sparse.scancount import ScanCountIndex
from ..sparse.similarity import vector_similarity_function

from ..text.memo import tokenize_collection
from . import spaces
from .estimator import SparseJoinEstimator, prune_enabled, snap_down
from .result import TunedResult, better

__all__ = ["EpsilonJoinTuner", "KNNJoinTuner", "tokenize_collection"]


class _OverlapMatrix:
    """The shared per-(cleaning, model, RVS) overlap state of a tuner.

    One :meth:`ScanCountIndex.batch_overlaps` pass over the query
    collection, plus the derived flat arrays every measure sweep needs:
    per-row sizes, query ids, sorted row keys and the groundtruth rows.
    """

    def __init__(
        self,
        indexed_sets: List[FrozenSet[str]],
        query_sets: List[FrozenSet[str]],
        gt_pairs: Sequence[Tuple[int, int]],
        workers: Optional[int] = None,
    ) -> None:
        self.index = ScanCountIndex(indexed_sets)
        num_sets = len(indexed_sets)
        # The sweep needs every overlap row (thresholds/k are decided
        # *after* this pass), so this is the one caller that genuinely
        # wants the materializing consumer — sharded when workers > 1.
        query_ptr, self.set_ids, self.counts = self.index.batch_overlaps(
            query_sets, workers=workers
        )
        self.query_ptr = query_ptr
        rows_per_query = np.diff(query_ptr)
        self.query_ids = np.repeat(
            np.arange(len(query_sets), dtype=np.int64), rows_per_query
        )
        query_sizes = np.fromiter(
            (len(query) for query in query_sets),
            count=len(query_sets),
            dtype=np.int64,
        )
        self.sizes_a = self.index.sizes[self.set_ids]
        self.sizes_b = query_sizes[self.query_ids]
        # Row keys are ascending (query-major, set id minor), so duplicate
        # pairs can be located with one binary search per pair.
        self.row_keys = self.query_ids * max(1, num_sets) + self.set_ids
        pairs = np.asarray(list(gt_pairs), dtype=np.int64).reshape(-1, 2)
        self.gt_indexed = pairs[:, 0]
        self.gt_query = pairs[:, 1]
        self.gt_keys = self.gt_query * max(1, num_sets) + self.gt_indexed
        self.gt_sizes_a = self.index.sizes[self.gt_indexed]
        self.gt_sizes_b = query_sizes[self.gt_query]
        self.gt_overlaps = self._lookup_counts(self.gt_keys)

    def _lookup_counts(self, keys: np.ndarray) -> np.ndarray:
        """Overlap count per key, 0 for pairs sharing no token."""
        if len(self.row_keys) == 0 or len(keys) == 0:
            return np.zeros(len(keys), dtype=np.int64)
        positions = np.searchsorted(self.row_keys, keys)
        positions = np.minimum(positions, len(self.row_keys) - 1)
        matched = self.row_keys[positions] == keys
        return np.where(matched, self.counts[positions], 0)

    def similarities(self, measure: str) -> np.ndarray:
        """Similarity of every overlap row under ``measure``."""
        return vector_similarity_function(measure)(
            self.sizes_a, self.sizes_b, self.counts
        )

    def top_distinct_rows(
        self, similarities: np.ndarray, k: int
    ) -> np.ndarray:
        """Rows among their query's ``k`` highest distinct similarities.

        Ascending row indices; exactly the rows of distinct-similarity
        rank <= ``k``, found per query by :func:`kth_distinct_cutoff`
        instead of ranking every row.
        """
        bounds = self.query_ptr.tolist()
        cutoffs = np.zeros(len(bounds) - 1)
        for query in range(len(bounds) - 1):
            a, b = bounds[query], bounds[query + 1]
            if a < b:
                cutoffs[query] = kth_distinct_cutoff(similarities[a:b], k)
        return np.flatnonzero(
            similarities >= np.repeat(cutoffs, np.diff(self.query_ptr))
        )

    def duplicate_similarities(self, measure: str) -> np.ndarray:
        """Similarity of every groundtruth pair (0 when token-disjoint)."""
        return vector_similarity_function(measure)(
            self.gt_sizes_a, self.gt_sizes_b, self.gt_overlaps
        )

    def duplicate_row_mask(self, order: np.ndarray) -> np.ndarray:
        """Boolean mask: is row ``order[p]`` a groundtruth pair?"""
        if len(order) == 0:
            return np.zeros(0, dtype=bool)
        gt_sorted = np.sort(self.gt_keys)
        if len(gt_sorted) == 0:
            return np.zeros(len(order), dtype=bool)
        keys = self.row_keys[order]
        positions = np.searchsorted(gt_sorted, keys)
        positions = np.minimum(positions, len(gt_sorted) - 1)
        return gt_sorted[positions] == keys


class EpsilonJoinTuner:
    """Problem-1 tuner for the range join."""

    method = "e-join"

    def __init__(
        self,
        target_recall: float = DEFAULT_RECALL_TARGET,
        profile: str = "",
        workers: Optional[int] = None,
        prune: Optional[bool] = None,
    ) -> None:
        self.target_recall = target_recall
        self.profile = spaces.active_profile(profile)
        self.workers = workers
        self.prune = prune_enabled(prune)

    def _plan_measures(
        self,
        estimator: SparseJoinEstimator,
        model: str,
        cleaning: bool,
        measures: Sequence[str],
        needed: int,
        best: Optional[TunedResult],
    ) -> Tuple[List[str], int]:
        """Estimator pass over one (cleaning, model) combination.

        Returns the measures worth executing plus the pruned count.  Two
        provably selection-safe rules:

        * an *infeasible* combination (fewer than ``needed`` duplicates
          share a key, so no threshold reaches the PC target) is exactly
          the combination the unpruned tuner silently skips — pruning it
          merely skips the overlap pass that would discover the same;
        * when the incumbent is feasible, the MCV candidate floor caps
          this combination's PQ at found / floor; when that cap cannot
          *strictly* beat the incumbent's PQ, ``better()`` would keep the
          incumbent anyway.
        """
        surviving: List[str] = []
        pruned = 0
        fire_stage_hooks("enter", "estimate")
        try:
            for measure in measures:
                threshold = estimator.feasible_threshold(
                    model, cleaning, measure, needed
                )
                if threshold is None:
                    pruned += 1
                    continue
                if best is not None and best.feasible:
                    floor = estimator.candidate_floor(
                        model, cleaning, measure, threshold
                    )
                    if floor > 0:
                        dup_sims = estimator.duplicate_similarities(
                            model, cleaning, measure
                        )
                        found = int(np.count_nonzero(dup_sims >= threshold))
                        if found / floor <= best.pq:
                            pruned += 1
                            continue
                surviving.append(measure)
        finally:
            fire_stage_hooks("exit", "estimate")
        return surviving, pruned

    def tune(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> TunedResult:
        duplicates = list(dataset.groundtruth)
        needed = math.ceil(self.target_recall * len(duplicates))
        best: Optional[TunedResult] = None
        tried = 0
        enumerated = 0
        pruned = 0
        measures = spaces.similarity_measures(self.profile)
        left_texts = dataset.left.texts(attribute)
        right_texts = dataset.right.texts(attribute)
        estimator: Optional[SparseJoinEstimator] = None
        if self.prune:
            estimator = SparseJoinEstimator("EJ")
            estimator.prepare(dataset, attribute)
        for cleaning in (False, True):
            for model in spaces.representation_models(self.profile):
                enumerated += len(measures)
                if estimator is not None:
                    surviving, newly_pruned = self._plan_measures(
                        estimator, model, cleaning, measures, needed, best
                    )
                    pruned += newly_pruned
                    if not surviving:
                        continue  # skip the overlap pass entirely
                else:
                    surviving = list(measures)
                left_sets = tokenize_collection(left_texts, model, cleaning)
                right_sets = tokenize_collection(right_texts, model, cleaning)
                matrix = _OverlapMatrix(
                    left_sets, right_sets, duplicates, workers=self.workers
                )
                for measure in surviving:
                    tried += 1
                    # Feasible threshold: the needed-th highest duplicate
                    # similarity, snapped down to the 0.01 grid.
                    dup_sims = np.sort(
                        matrix.duplicate_similarities(measure)
                    )[::-1]
                    if needed == 0:
                        threshold = snap_down(1.0)
                    elif (
                        len(dup_sims) >= needed and dup_sims[needed - 1] > 0.0
                    ):
                        threshold = snap_down(float(dup_sims[needed - 1]))
                    else:
                        continue  # infeasible combo
                    # The shared similarity array serves every threshold;
                    # one mask yields both |C| and the duplicates found.
                    sims = matrix.similarities(measure)
                    total = int(np.count_nonzero(sims >= threshold))
                    found = int(np.count_nonzero(dup_sims >= threshold))
                    pc = found / len(duplicates) if duplicates else 0.0
                    pq = found / total if total else 0.0
                    best = better(
                        best,
                        TunedResult(
                            method=self.method,
                            params={
                                "cleaning": cleaning,
                                "model": model,
                                "measure": measure,
                                "threshold": threshold,
                            },
                            pc=pc,
                            pq=pq,
                            candidates=total,
                            feasible=pc >= self.target_recall,
                        ),
                    )
        if best is None:
            best = TunedResult(method=self.method, feasible=False)
        best.configurations_tried = tried
        best.configurations_enumerated = enumerated
        best.configurations_pruned = pruned
        if best.params:
            best.runtime = GridSearchOptimizer(
                self.target_recall
            ).measure_runtime(self.build_filter(best.params), dataset, attribute)
        return best

    def build_filter(self, params: Dict[str, object]) -> EpsilonJoin:
        return EpsilonJoin(
            threshold=float(params["threshold"]),
            model=str(params["model"]),
            measure=str(params["measure"]),
            cleaning=bool(params["cleaning"]),
            workers=self.workers,
        )


class KNNJoinTuner:
    """Problem-1 tuner for the kNN join."""

    method = "knn-join"

    def __init__(
        self,
        target_recall: float = DEFAULT_RECALL_TARGET,
        profile: str = "",
        workers: Optional[int] = None,
        prune: Optional[bool] = None,
    ) -> None:
        self.target_recall = target_recall
        self.profile = spaces.active_profile(profile)
        self.workers = workers
        self.prune = prune_enabled(prune)

    def _combo_prunable(
        self,
        estimator: SparseJoinEstimator,
        model: str,
        cleaning: bool,
        reverse: bool,
        needed: int,
        total_duplicates: int,
        best: Optional[TunedResult],
    ) -> bool:
        """Can this (cleaning, reverse, model) combination beat ``best``?

        The kNN sweep's PC/PQ are capped by two measure-independent
        bound-mode facts: duplicates found <= duplicates sharing a key
        (``gt_ov``), and |C| at any k >= 1 is at least the number of
        covered queries (each returns its rank-1 row).  A combination
        whose caps cannot *strictly* beat the incumbent under
        ``better()`` would never replace it, so skipping the whole
        tokenize + overlap pass is selection-safe.
        """
        if best is None:
            return False
        fire_stage_hooks("enter", "estimate")
        try:
            stats = estimator.stats(model, cleaning)
            gt_ov = stats.gt_overlapping
            covered = stats.covered_queries(reverse)
            if best.feasible:
                if needed > 0 and gt_ov < needed:
                    return True  # provably infeasible, incumbent feasible
                if covered == 0:
                    return True  # zero candidates at every k
                return gt_ov / covered <= best.pq
            pc_cap = gt_ov / total_duplicates if total_duplicates else 0.0
            return pc_cap <= best.pc
        finally:
            fire_stage_hooks("exit", "estimate")

    def tune(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> TunedResult:
        best: Optional[TunedResult] = None
        tried = 0
        enumerated = 0
        pruned = 0
        k_values = spaces.knn_k_values(self.profile)
        k_max = max(k_values)
        measures = spaces.similarity_measures(self.profile)
        total_duplicates = len(dataset.groundtruth)
        needed = math.ceil(self.target_recall * total_duplicates)
        estimator: Optional[SparseJoinEstimator] = None
        if self.prune:
            estimator = SparseJoinEstimator("kNNJ")
            estimator.prepare(dataset, attribute)
        for cleaning in (False, True):
            for reverse in (False, True):
                if reverse:
                    indexed_texts = dataset.right.texts(attribute)
                    query_texts = dataset.left.texts(attribute)
                    gt_pairs = [(j, i) for i, j in dataset.groundtruth]
                else:
                    indexed_texts = dataset.left.texts(attribute)
                    query_texts = dataset.right.texts(attribute)
                    gt_pairs = list(dataset.groundtruth)
                for model in spaces.representation_models(self.profile):
                    enumerated += len(measures)
                    if estimator is not None and self._combo_prunable(
                        estimator,
                        model,
                        cleaning,
                        reverse,
                        needed,
                        total_duplicates,
                        best,
                    ):
                        pruned += len(measures)
                        continue
                    indexed_sets = tokenize_collection(
                        indexed_texts, model, cleaning
                    )
                    query_sets = tokenize_collection(
                        query_texts, model, cleaning
                    )
                    matrix = _OverlapMatrix(
                        indexed_sets, query_sets, gt_pairs,
                        workers=self.workers,
                    )
                    for measure in measures:
                        result = self._sweep(
                            matrix,
                            len(dataset.groundtruth),
                            measure,
                            k_values,
                            k_max,
                        )
                        tried += len(k_values)
                        if result is None:
                            continue
                        k, pc, pq, candidates = result
                        best = better(
                            best,
                            TunedResult(
                                method=self.method,
                                params={
                                    "cleaning": cleaning,
                                    "reverse": reverse,
                                    "model": model,
                                    "measure": measure,
                                    "k": k,
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
        best.configurations_enumerated = enumerated
        best.configurations_pruned = pruned
        if best.params:
            best.runtime = GridSearchOptimizer(
                self.target_recall
            ).measure_runtime(self.build_filter(best.params), dataset, attribute)
        return best

    def _sweep(
        self,
        matrix: _OverlapMatrix,
        total_duplicates: int,
        measure: str,
        k_values: List[int],
        k_max: int,
    ) -> Optional[Tuple[int, float, float, int]]:
        """Evaluate all k at once; return the first feasible (k, pc, pq, |C|).

        The whole sweep is two histograms (:meth:`_rank_histograms`) over
        the shared overlap arrays — no re-querying per k.
        """
        count_hist, dup_hist = self._rank_histograms(matrix, measure, k_max)
        counts = np.cumsum(count_hist)
        duplicates = np.cumsum(dup_hist)
        for k in k_values:
            pc = duplicates[k] / total_duplicates if total_duplicates else 0.0
            if pc >= self.target_recall:
                pq = duplicates[k] / counts[k] if counts[k] else 0.0
                return k, float(pc), float(pq), int(counts[k])
        # Infeasible: report the largest k as the closest miss.
        k = k_values[-1]
        pc = duplicates[k] / total_duplicates if total_duplicates else 0.0
        pq = duplicates[k] / counts[k] if counts[k] else 0.0
        return k, float(pc), float(pq), int(counts[k])

    @staticmethod
    def _rank_histograms(
        matrix: _OverlapMatrix, measure: str, k_max: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows and duplicate rows per distinct-similarity rank 0..``k_max``.

        Uses the join's tie semantics: a candidate's rank is the number of
        *distinct similarity values* at or above its own.  Rows beyond
        rank ``k_max`` can never be selected, so they are cut per query
        before ranking; a survivor's rank depends only on the values at
        or above it, all of which survive.
        """
        similarities = matrix.similarities(measure)
        survivors = matrix.top_distinct_rows(similarities, k_max)
        order, ranks = distinct_similarity_ranks(
            matrix.query_ids[survivors],
            matrix.set_ids[survivors],
            similarities[survivors],
        )
        is_duplicate = matrix.duplicate_row_mask(survivors[order])
        return (
            np.bincount(ranks, minlength=k_max + 1),
            np.bincount(ranks[is_duplicate], minlength=k_max + 1),
        )

    def build_filter(self, params: Dict[str, object]) -> KNNJoin:
        return KNNJoin(
            k=int(params["k"]),
            model=str(params["model"]),
            measure=str(params["measure"]),
            cleaning=bool(params["cleaning"]),
            reverse=bool(params["reverse"]),
            workers=self.workers,
        )


# ----------------------------------------------------------------------
# Registry entries (Table VII rows 8-9).
# ----------------------------------------------------------------------


def _build_incremental(code: str, params: Dict[str, object]):
    """The streaming (add/remove/query) form of one sparse join.

    Maps the tuner's parameter vocabulary onto
    :class:`~repro.sparse.scancount.IncrementalScanCountFilter`; an
    empty dict selects serving defaults (ε = 0.5 / k = 5, matching the
    joins' common baselines).  The RVS flag has no streaming meaning
    (there is one catalog, not two collections) and is ignored.
    """
    from ..sparse.scancount import IncrementalScanCountFilter

    common = dict(
        model=str(params.get("model", "T1G")),
        measure=str(params.get("measure", "cosine")),
        cleaning=bool(params.get("cleaning", False)),
    )
    if code == "EJ":
        return IncrementalScanCountFilter(
            threshold=float(params.get("threshold", 0.5)), **common
        )
    return IncrementalScanCountFilter(
        k=int(params.get("k", 5)), **common
    )


def _register() -> None:
    from ..core import registry, stages

    for order, (code, tuner_class) in enumerate(
        (("EJ", EpsilonJoinTuner), ("kNNJ", KNNJoinTuner)), start=7
    ):
        registry.register(
            registry.FilterSpec(
                code=code,
                family="sparse",
                order=order,
                stages=stages.NN_STAGES,
                filter_factory=lambda params, cls=tuner_class: (
                    cls().build_filter(params)
                ),
                tuner_factory=lambda recall, profile, cache, prune=None, cls=tuner_class: (
                    cls(target_recall=recall, profile=profile, prune=prune)
                ),
                incremental_factory=lambda params, code=code: (
                    _build_incremental(code, params)
                ),
                supports_workers=True,
                estimator_factory=lambda code=code: SparseJoinEstimator(code),
            )
        )


_register()
