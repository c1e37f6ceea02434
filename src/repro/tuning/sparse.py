"""Configuration optimization of the sparse NN methods (Table IV).

Both joins share the preprocessing grid (cleaning x representation model)
and read each combination's overlaps from one module-level memo
(:func:`overlap_counts`), keyed by (left texts, right texts, model,
cleaning).  On a miss it reads both sides' coded token stores
(:func:`tokenize_collection`) and runs one batched ScanCount pass into a
dense, read-only ``(queries x sets)`` overlap-count matrix, so the
ε-Join and kNN-Join tuners of one collection pair pay one pass per
combination between them.
Entries past :data:`OVERLAP_MEMO_BYTES` are evicted least recently used
first.  Each tuner derives its whole threshold/cardinality sweep from the
matrix by pure NumPy — mirroring how ``tuning/blocking.py`` shares
``PairGraph`` weights across pruning configurations:

* ε-Join — the feasible threshold with maximal PQ is the largest t with
  PC >= τ, i.e. the ceil(τ |D|)-th highest duplicate similarity, snapped
  down to the paper's 0.01 grid; the candidate count at t is a single
  ``count_nonzero(sims >= t)`` over the similarity matrix, never
  materializing the pairs.
* kNN-Join — overlap is symmetric, so the reverse (RVS) direction reads
  the transpose of the forward matrix: at most one overlap pass per
  (cleaning, model), none when the ε-Join tuner has already filled the
  memo.  The tuner holds its own references to a cleaning's forward
  matrices until the reverse pass, so an eviction never costs it a
  second pass.  The similarity matrix is row-sorted in blocks of
  :data:`QUERY_BLOCK` queries, with the distinct rank of every entry
  (:func:`~repro.sparse.knn_join.distinct_similarity_ranks`); each
  duplicate's rank is read from its query's sorted row.  The sweep over
  k uses cumulative histograms of those ranks, and stops at the first
  feasible k (the paper's early termination), which also maximizes PQ.
  With ``prune=True`` it first skips every (cleaning, RVS, model)
  combination whose token coverage (:func:`coverage_prunable`) proves it
  cannot strictly beat the incumbent: the only prune rule of the tuners.
"""

from __future__ import annotations

import copy
import math
import threading
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.optimizer import DEFAULT_RECALL_TARGET
from ..core.stages import boundary
from ..datasets.generator import ERDataset
from ..datasets.stats import token_stats
from ..sparse.epsilon_join import EpsilonJoin
from ..sparse.knn_join import KNNJoin, distinct_similarity_ranks
from ..sparse.scancount import ScanCountIndex
from ..sparse.similarity import vector_similarity_function
from ..text.memo import tokenize_collection
from ..text.store import TokenSets, as_store
from . import spaces
from .result import Incumbent, TunedResult

__all__ = [
    "EpsilonJoinTuner",
    "KNNJoinTuner",
    "OverlapCounts",
    "clear_overlap_cache",
    "overlap_counts",
]

#: Queries per row-sorted block of the kNN sweep; bounds the sorted copy
#: and the rank array to ``QUERY_BLOCK x sets`` entries.
QUERY_BLOCK = 1024


def snap_down(threshold: float) -> float:
    """The largest 0.01-grid value <= ``threshold`` (but at least 0.01).

    Never rounding up keeps every duplicate at or above ``threshold``
    selected, which is what guarantees PC >= τ.  ``threshold * 100`` can
    land a hair off an integer either way, so the floor is corrected by
    at most one grid step against the rounded grid values themselves.
    """
    steps = math.floor(threshold * 100)
    if round((steps + 1) / 100, 2) <= threshold:
        steps += 1
    elif round(steps / 100, 2) > threshold:
        steps -= 1
    return max(0.01, round(steps / 100, 2))


def feasible_threshold(
    duplicate_similarities: np.ndarray, needed: int
) -> Optional[float]:
    """The ε-Join's chosen threshold for one combination, or None.

    The needed-th highest duplicate similarity, snapped down to the 0.01
    grid: the largest grid threshold keeping PC >= τ, hence the one with
    maximal PQ.  None when the combination is infeasible (fewer than
    ``needed`` duplicates share a token).
    """
    if needed == 0:
        return snap_down(1.0)
    ranked = np.sort(duplicate_similarities)[::-1]
    if len(ranked) >= needed and ranked[needed - 1] > 0.0:
        return snap_down(float(ranked[needed - 1]))
    return None


def coverage_prunable(
    gt_overlapping: int,
    needed: int,
    total_duplicates: int,
    best: TunedResult,
) -> bool:
    """The coverage cap: can a combination whose duplicates share a token
    ``gt_overlapping`` times never *strictly* beat ``best``?

    A feasible incumbent is only beaten by a feasible configuration,
    which needs ``needed`` retained duplicates; an infeasible one is
    beaten on PC, which ``gt_overlapping / total_duplicates`` caps.
    """
    if best.feasible:
        return needed > 0 and gt_overlapping < needed
    pc_cap = gt_overlapping / total_duplicates if total_duplicates else 0.0
    return pc_cap <= best.pc


class OverlapCounts(NamedTuple):
    """The overlap state of one (indexed, queried) collection pair.

    ``counts[q, s]`` (int32) is the number of tokens query ``q`` shares
    with indexed set ``s``, 0 when they share none; ``set_sizes`` and
    ``query_sizes`` are both sides' token-set sizes.  Every array is
    read-only: the memo (:func:`overlap_counts`) hands the same arrays to
    every tuner.
    """

    counts: np.ndarray
    set_sizes: np.ndarray
    query_sizes: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self)


def count_overlaps(
    indexed_sets: TokenSets,
    query_sets: TokenSets,
    workers: Optional[int] = None,
) -> OverlapCounts:
    """One :meth:`ScanCountIndex.batch_overlaps` pass into dense counts."""
    index = ScanCountIndex(indexed_sets)
    queries = as_store(query_sets)
    query_ptr, set_ids, overlaps = index.batch_overlaps(
        queries, workers=workers
    )
    counts = np.zeros((len(queries), len(index)), dtype=np.int32)
    query_ids = np.repeat(
        np.arange(len(queries), dtype=np.int64), np.diff(query_ptr)
    )
    counts[query_ids, set_ids] = overlaps
    result = OverlapCounts(counts, index.sizes, queries.sizes)
    for array in result:
        array.flags.writeable = False
    return result


#: Byte budget of the overlap memo; past it the least recently used
#: entries are evicted.  It holds the whole fast-profile grid (10
#: matrices) of d1-d9 and of the quarter-size d10 benchmark cell; a
#: full-size d10 matrix (~17 MiB) leaves room for three.
OVERLAP_MEMO_BYTES = 64 << 20

#: (left texts, right texts, model, cleaning) -> counts, oldest first.
_overlap_memo: "OrderedDict[tuple, OverlapCounts]" = OrderedDict()
_overlap_lock = threading.Lock()


def overlap_counts(
    left_texts: Sequence[str],
    right_texts: Sequence[str],
    model: str,
    cleaning: bool,
    workers: Optional[int] = None,
) -> OverlapCounts:
    """The left-indexed, right-queried counts of one preprocessing combo.

    Memoized per (left texts, right texts, model, cleaning), so the
    ε-Join and kNN-Join tuners, which walk the same grid, share one
    tokenization and one overlap pass per combination.  ``workers`` is
    not part of the key: the counts are byte-identical for every worker
    count.
    """
    key = (tuple(left_texts), tuple(right_texts), model, cleaning)
    with _overlap_lock:
        cached = _overlap_memo.get(key)
        if cached is not None:
            _overlap_memo.move_to_end(key)
            return cached
    cached = count_overlaps(
        tokenize_collection(key[0], model, cleaning),
        tokenize_collection(key[1], model, cleaning),
        workers,
    )
    with _overlap_lock:
        _overlap_memo[key] = cached
        held = sum(entry.nbytes for entry in _overlap_memo.values())
        while held > OVERLAP_MEMO_BYTES:
            __, evicted = _overlap_memo.popitem(last=False)
            held -= evicted.nbytes
    return cached


def clear_overlap_cache() -> None:
    """Drop every memoized overlap matrix (tests / benchmarks / memory)."""
    with _overlap_lock:
        _overlap_memo.clear()


class _OverlapMatrix:
    """One tuner's view of an overlap-count matrix and its groundtruth.

    ``counts``, ``set_sizes`` and ``query_sizes`` are the (read-only)
    arrays of an :class:`OverlapCounts`; alongside them the groundtruth
    as (set, query) id arrays.
    """

    def __init__(
        self,
        overlaps: OverlapCounts,
        gt_pairs: Sequence[Tuple[int, int]],
    ) -> None:
        self.counts, self.set_sizes, self.query_sizes = overlaps
        pairs = np.asarray(list(gt_pairs), dtype=np.int64).reshape(-1, 2)
        self.gt_sets = pairs[:, 0]
        self.gt_queries = pairs[:, 1]

    def transposed(self) -> "_OverlapMatrix":
        """The reverse direction: the queries indexed, the sets queried."""
        flipped = copy.copy(self)
        flipped.counts = np.ascontiguousarray(self.counts.T)
        flipped.set_sizes, flipped.query_sizes = (
            self.query_sizes, self.set_sizes
        )
        flipped.gt_sets, flipped.gt_queries = self.gt_queries, self.gt_sets
        return flipped

    def similarities(
        self, measure: str, lo: int = 0, hi: Optional[int] = None
    ) -> np.ndarray:
        """Similarities of queries ``[lo, hi)`` with every set (0: disjoint)."""
        return vector_similarity_function(measure)(
            self.set_sizes, self.query_sizes[lo:hi, None], self.counts[lo:hi]
        )

    def duplicate_similarities(self, measure: str) -> np.ndarray:
        """Similarity of every groundtruth pair (0 when token-disjoint)."""
        return vector_similarity_function(measure)(
            self.set_sizes[self.gt_sets],
            self.query_sizes[self.gt_queries],
            self.counts[self.gt_queries, self.gt_sets],
        )


class EpsilonJoinTuner:
    """Problem-1 tuner for the range join."""

    method = "e-join"

    def __init__(
        self,
        target_recall: float = DEFAULT_RECALL_TARGET,
        profile: str = "",
        workers: Optional[int] = None,
    ) -> None:
        self.target_recall = target_recall
        self.profile = spaces.active_profile(profile)
        self.workers = workers

    def tune(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> TunedResult:
        duplicates = list(dataset.groundtruth)
        needed = math.ceil(self.target_recall * len(duplicates))
        incumbent = Incumbent(self.method, self.target_recall)
        measures = spaces.similarity_measures(self.profile)
        left_texts = dataset.left.texts(attribute)
        right_texts = dataset.right.texts(attribute)
        for cleaning in (False, True):
            for model in spaces.representation_models(self.profile):
                incumbent.enumerated += len(measures)
                matrix = _OverlapMatrix(
                    overlap_counts(
                        left_texts, right_texts, model, cleaning, self.workers
                    ),
                    duplicates,
                )
                for measure in measures:
                    dup_sims = matrix.duplicate_similarities(measure)
                    threshold = feasible_threshold(dup_sims, needed)
                    if threshold is None:
                        incumbent.tried += 1
                        continue  # infeasible combo
                    # The threshold is >= 0.01, so token-disjoint pairs
                    # (similarity 0) never count toward |C|.
                    total = int(
                        np.count_nonzero(
                            matrix.similarities(measure) >= threshold
                        )
                    )
                    found = int(np.count_nonzero(dup_sims >= threshold))
                    pc = found / len(duplicates) if duplicates else 0.0
                    pq = found / total if total else 0.0
                    incumbent.offer(
                        {
                            "cleaning": cleaning,
                            "model": model,
                            "measure": measure,
                            "threshold": threshold,
                        },
                        pc,
                        pq,
                        total,
                    )
        return incumbent.finish(self.build_filter, dataset, attribute)

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
        prune: bool = False,
    ) -> None:
        self.target_recall = target_recall
        self.profile = spaces.active_profile(profile)
        self.workers = workers
        self.prune = prune

    def _combo_prunable(
        self,
        left_texts: Sequence[str],
        right_texts: Sequence[str],
        duplicates: Sequence[Tuple[int, int]],
        model: str,
        cleaning: bool,
        reverse: bool,
        needed: int,
        best: Optional[TunedResult],
    ) -> bool:
        """Can this (cleaning, reverse, model) combination beat ``best``?

        The kNN sweep's PC/PQ are capped by two measure-independent
        facts of the combination's :class:`~repro.datasets.stats.TokenStats`:
        duplicates found <= duplicates sharing a token (``gt_ov``), and
        |C| at any k >= 1 is at least the number of covered queries (each
        returns its rank-1 row).  A combination whose caps cannot
        *strictly* beat the incumbent under ``better()`` would never
        replace it, so skipping the whole tokenize + overlap pass is
        selection-safe.
        """
        if best is None:
            return False
        with boundary("estimate"):
            stats = token_stats(
                left_texts, right_texts, duplicates, model, cleaning
            )
            gt_ov = stats.gt_overlapping
            if coverage_prunable(gt_ov, needed, len(duplicates), best):
                return True
            if not best.feasible:
                return False
            # PQ cap: found <= gt_ov over |C| >= covered queries (zero
            # candidates at every k when no query is covered).
            covered = stats.covered_queries(reverse)
            return covered == 0 or gt_ov / covered <= best.pq

    def tune(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> TunedResult:
        incumbent = Incumbent(self.method, self.target_recall)
        k_values = spaces.knn_k_values(self.profile)
        k_max = max(k_values)
        measures = spaces.similarity_measures(self.profile)
        total_duplicates = len(dataset.groundtruth)
        needed = math.ceil(self.target_recall * total_duplicates)
        left_texts = dataset.left.texts(attribute)
        right_texts = dataset.right.texts(attribute)
        duplicates = list(dataset.groundtruth)
        for cleaning in (False, True):
            # Forward matrices (left indexed, right queried) per model,
            # kept until the reverse pass reads their transpose.
            forward: Dict[str, _OverlapMatrix] = {}
            for reverse in (False, True):
                for model in spaces.representation_models(self.profile):
                    incumbent.enumerated += len(measures)
                    if self.prune and self._combo_prunable(
                        left_texts,
                        right_texts,
                        duplicates,
                        model,
                        cleaning,
                        reverse,
                        needed,
                        incumbent.best,
                    ):
                        incumbent.pruned += len(measures)
                        continue
                    if model not in forward:
                        forward[model] = _OverlapMatrix(
                            overlap_counts(
                                left_texts,
                                right_texts,
                                model,
                                cleaning,
                                self.workers,
                            ),
                            duplicates,
                        )
                    if reverse:
                        matrix = forward.pop(model).transposed()
                    else:
                        matrix = forward[model]
                    for measure in measures:
                        k, pc, pq, candidates = self._sweep(
                            matrix,
                            total_duplicates,
                            measure,
                            k_values,
                            k_max,
                        )
                        incumbent.offer(
                            {
                                "cleaning": cleaning,
                                "reverse": reverse,
                                "model": model,
                                "measure": measure,
                                "k": k,
                            },
                            pc,
                            pq,
                            candidates,
                            tried=len(k_values),
                        )
        return incumbent.finish(self.build_filter, dataset, attribute)

    def _sweep(
        self,
        matrix: _OverlapMatrix,
        total_duplicates: int,
        measure: str,
        k_values: List[int],
        k_max: int,
    ) -> Tuple[int, float, float, int]:
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
        """Pairs and duplicates per distinct-similarity rank 0..``k_max``.

        Uses the join's tie semantics: a pair's rank is the number of
        *distinct similarity values* of its query at or above its own.
        Only pairs with similarity > 0 count (0 means no shared token),
        and ranks beyond ``k_max`` can never be selected.  The similarity
        matrix is row-sorted in blocks of :data:`QUERY_BLOCK` queries; a
        duplicate's rank is the rank of the first entry of its query's
        sorted row that equals its similarity.
        """
        count_hist = np.zeros(k_max + 1, dtype=np.int64)
        dup_hist = np.zeros(k_max + 1, dtype=np.int64)
        for lo in range(0, len(matrix.query_sizes), QUERY_BLOCK):
            hi = lo + QUERY_BLOCK
            sims = matrix.similarities(measure, lo, hi)
            ordered, ranks = distinct_similarity_ranks(sims)
            count_hist += np.bincount(
                ranks[(ordered > 0.0) & (ranks <= k_max)], minlength=k_max + 1
            )
            mine = (matrix.gt_queries >= lo) & (matrix.gt_queries < hi)
            rows = matrix.gt_queries[mine] - lo
            values = sims[rows, matrix.gt_sets[mine]]
            shared = values > 0.0
            rows, values = rows[shared], values[shared]
            above = np.count_nonzero(ordered[rows] > values[:, None], axis=1)
            dup_ranks = ranks[rows, above]
            dup_hist += np.bincount(
                dup_ranks[dup_ranks <= k_max], minlength=k_max + 1
            )
        return count_hist, dup_hist

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

    # Only the kNN-Join tuner has a prune rule; EJ drops the knob.
    tuner_factories = (
        lambda recall, profile, cache, prune: EpsilonJoinTuner(
            target_recall=recall, profile=profile
        ),
        lambda recall, profile, cache, prune: KNNJoinTuner(
            target_recall=recall, profile=profile, prune=prune
        ),
    )
    for order, (code, tuner_class, tuner_factory) in enumerate(
        zip(("EJ", "kNNJ"), (EpsilonJoinTuner, KNNJoinTuner), tuner_factories),
        start=7,
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
                tuner_factory=tuner_factory,
                incremental_factory=lambda params, code=code: (
                    _build_incremental(code, params)
                ),
                supports_workers=True,
            )
        )


_register()
