"""PostBOUND-style cardinality estimation for cost-based tuning.

Problem-1 tuning used to *execute* every configuration of the grid.  The
estimators here produce cheap per-configuration candidate-cardinality
figures from the token statistics of :mod:`repro.datasets.stats`
(doc-frequency convolutions, groundtruth overlap triples, MCV entries),
letting the tuners discard dominated configurations before any filter
runs.  Every figure is a provable bound, in the PostBOUND sense:
``estimate_candidates`` is an upper bound on |C| (candidate pairs share
at least one key, so ``sum(df_left * df_right)`` over the shared
vocabulary — divided by the minimal overlap a threshold requires — caps
the count), and ``pc_upper_bound`` caps the achievable pair completeness
(key-disjoint duplicates can never become candidates).  The tuners prune
only on these facts, which is why pruning never changes the selected
configuration.

The only assumption behind the MinHash bound is hash injectivity:
shingle-disjoint pairs collide only if two distinct shingles hash
identically (probability ~2^-31 per pair of shingles), which the parity
suite confirms never fires on the seeded datasets.
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, Mapping, Optional

import numpy as np

from ..datasets.generator import ERDataset
from ..datasets.stats import TokenStats, TokenStatsCache, shared_stats_cache
from ..sparse.similarity import vector_similarity_function
from ..text.tokenizers import shingles

__all__ = [
    "CardinalityEstimator",
    "SparseJoinEstimator",
    "BlockingEstimator",
    "MinHashEstimator",
    "DenseKNNEstimator",
    "DenseLSHEstimator",
    "prune_enabled",
    "snap_down",
]


def prune_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the pruning knob: argument > REPRO_TUNING_PRUNE > off.

    Pruning defaults to off so existing runs (and cached matrices) keep
    their exact execution profile unless the user opts in.
    """
    if explicit is not None:
        return bool(explicit)
    value = os.environ.get("REPRO_TUNING_PRUNE", "").strip().lower()
    return value in ("1", "true", "yes", "on")


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


class CardinalityEstimator(ABC):
    """Cheap per-configuration |C| and PC figures for one method.

    Subclasses implement :meth:`estimate_candidates` over the method's
    parameter vocabulary (the same dicts its tuner produces).  Call
    :meth:`prepare` with the dataset/attribute before estimating —
    mirroring PostBOUND's ``setup_for_query``/``estimate_for`` split.
    """

    def __init__(
        self, code: str, stats: Optional[TokenStatsCache] = None
    ) -> None:
        self.code = code
        self.stats_cache = stats if stats is not None else shared_stats_cache()
        self._dataset: Optional[ERDataset] = None
        self._attribute: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def prepare(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> None:
        """Bind the estimator to one dataset/setting."""
        self._dataset = dataset
        self._attribute = attribute

    @property
    def dataset(self) -> ERDataset:
        if self._dataset is None:
            raise RuntimeError(
                f"{type(self).__name__}: call prepare(dataset) before"
                " estimating"
            )
        return self._dataset

    def stats(
        self,
        model: str,
        cleaning: bool,
        key_function: Optional[Callable[[str], Iterable[str]]] = None,
    ) -> TokenStats:
        """Token statistics of one key space over the bound dataset."""
        return self.stats_cache.for_dataset(
            self.dataset,
            self._attribute,
            model=model,
            cleaning=cleaning,
            key_function=key_function,
        )

    # ------------------------------------------------------------------
    # The PostBOUND-style surface.
    # ------------------------------------------------------------------

    @abstractmethod
    def estimate_candidates(self, params: Mapping[str, object]) -> float:
        """An upper bound on |C| for one configuration."""

    def pc_upper_bound(self, params: Mapping[str, object]) -> float:
        """A sound ceiling on the pair completeness any run can reach."""
        return 1.0

    def describe(self) -> Dict[str, object]:
        return {"code": self.code, "estimator": type(self).__name__}

    # ------------------------------------------------------------------
    # Shared math.
    # ------------------------------------------------------------------

    @property
    def comparison_space(self) -> int:
        return len(self.dataset.left) * len(self.dataset.right)


def _min_required_overlap(
    measure: str, threshold: float, size_a: float, size_b: float
) -> int:
    """Smallest integer overlap a candidate pair can have at ``threshold``.

    Inverts the set-similarity measures at the given sizes; the epsilon
    slack only ever *lowers* the requirement, keeping bounds sound.
    """
    if size_a <= 0 or size_b <= 0:
        return 1
    if measure == "cosine":
        required = threshold * math.sqrt(size_a * size_b)
    elif measure == "dice":
        required = threshold * (size_a + size_b) / 2.0
    elif measure == "jaccard":
        required = threshold * (size_a + size_b) / (1.0 + threshold)
    else:
        raise ValueError(f"unknown similarity measure {measure!r}")
    return max(1, math.ceil(required - 1e-9))


class SparseJoinEstimator(CardinalityEstimator):
    """|C| and PC figures for the ScanCount joins (EJ / kNNJ).

    Besides the generic surface, this estimator exposes the exact
    groundtruth-side quantities the sparse tuners prune with: the
    duplicate-similarity array of a combination is a pure function of
    the (size, size, overlap) triples stored in :class:`TokenStats`, so
    feasibility and the selected threshold are reproduced bit for bit
    without touching the query collection.
    """

    def duplicate_similarities(
        self, model: str, cleaning: bool, measure: str
    ) -> np.ndarray:
        """Similarity of every groundtruth pair (matches the tuner's)."""
        stats = self.stats(model, cleaning)
        return vector_similarity_function(measure)(
            np.asarray(stats.gt_sizes_left, dtype=np.int64),
            np.asarray(stats.gt_sizes_right, dtype=np.int64),
            np.asarray(stats.gt_overlaps, dtype=np.int64),
        )

    def feasible_threshold(
        self, model: str, cleaning: bool, measure: str, needed: int
    ) -> Optional[float]:
        """The ε-Join's chosen threshold for one combination, or None.

        Replicates the tuner's rule exactly: the needed-th highest
        duplicate similarity, snapped down to the 0.01 grid; None when
        the combination is infeasible (fewer than ``needed`` duplicates
        share a key).
        """
        if needed == 0:
            return snap_down(1.0)
        dup_sims = np.sort(
            self.duplicate_similarities(model, cleaning, measure)
        )[::-1]
        if len(dup_sims) >= needed and dup_sims[needed - 1] > 0.0:
            return snap_down(float(dup_sims[needed - 1]))
        return None

    def candidate_floor(
        self, model: str, cleaning: bool, measure: str, threshold: float
    ) -> int:
        """A provable *lower* bound on |C| at ``threshold`` (MCV rule).

        Every pair sharing an MCV key has overlap >= 1 and set sizes no
        larger than the key's maximal document sizes, so its similarity
        is at least the measure evaluated at (max_doc_l, max_doc_r, 1);
        when that floor clears the threshold, all df_l * df_r pairs of
        the key are candidates.
        """
        function = vector_similarity_function(measure)
        floor = 0
        for df_l, df_r, max_l, max_r in self.stats(model, cleaning).top_keys:
            if max_l < 1 or max_r < 1:
                continue
            worst = float(
                function(
                    np.asarray([max_l], dtype=np.int64),
                    np.asarray([max_r], dtype=np.int64),
                    np.asarray([1], dtype=np.int64),
                )[0]
            )
            if worst >= threshold:
                floor = max(floor, df_l * df_r)
        return floor

    def estimate_candidates(self, params: Mapping[str, object]) -> float:
        model = str(params["model"])
        cleaning = bool(params["cleaning"])
        stats = self.stats(model, cleaning)
        space = stats.comparison_space
        if "threshold" in params:  # ε-Join
            measure = str(params.get("measure", "cosine"))
            minimum = _min_required_overlap(
                measure,
                float(params["threshold"]),
                stats.min_size_left,
                stats.min_size_right,
            )
            return float(min(space, stats.df_product_sum // minimum))
        # kNN-Join: candidates are a subset of the key-sharing pairs.
        return float(min(space, stats.df_product_sum))

    def pc_upper_bound(self, params: Mapping[str, object]) -> float:
        model = str(params["model"])
        cleaning = bool(params["cleaning"])
        stats = self.stats(model, cleaning)
        if not stats.num_duplicates:
            return 0.0
        if "threshold" in params:
            dup_sims = self.duplicate_similarities(
                model, cleaning, str(params.get("measure", "cosine"))
            )
            found = int(np.count_nonzero(dup_sims >= float(params["threshold"])))
            return found / stats.num_duplicates
        return stats.pc_upper_bound


class BlockingEstimator(CardinalityEstimator):
    """|C| and PC figures for the blocking workflows.

    The key space of a builder configuration is its ``keys()`` signature
    function; every downstream step (purging, filtering, comparison
    cleaning) only *removes* pairs from the key-sharing set, so the
    df-convolution over builder keys caps |C| and the key-disjoint
    groundtruth pairs cap PC for the whole subtree.
    """

    #: Builder parameters that shape the key signature (``b_max`` caps
    #: block sizes at build time but leaves ``keys()`` untouched, so
    #: configurations differing only in it share one statistics entry).
    _KEY_PARAMS = ("q", "t", "l_min")

    def _key_space(
        self, params: Mapping[str, object]
    ) -> tuple:
        from .blocking import WORKFLOW_NAMES, make_builder

        builder_name = WORKFLOW_NAMES[self.code]
        key_params = {
            name: params[name] for name in self._KEY_PARAMS if name in params
        }
        builder_params = dict(key_params)
        if "b_max" in params:
            builder_params["b_max"] = params["b_max"]
        builder = make_builder(builder_name, **builder_params)
        suffix = ",".join(f"{k}={key_params[k]}" for k in sorted(key_params))
        return f"block:{builder_name}:{suffix}", builder.keys

    def key_stats(self, params: Mapping[str, object]) -> TokenStats:
        model_id, key_function = self._key_space(params)
        return self.stats(model_id, False, key_function=key_function)

    def estimate_candidates(self, params: Mapping[str, object]) -> float:
        stats = self.key_stats(params)
        return float(min(stats.comparison_space, stats.df_product_sum))

    def pc_upper_bound(self, params: Mapping[str, object]) -> float:
        return self.key_stats(params).pc_upper_bound


class MinHashEstimator(CardinalityEstimator):
    """|C| and PC figures for MinHash LSH over character shingles."""

    def key_stats(self, params: Mapping[str, object]) -> TokenStats:
        shingle_k = int(params.get("shingle_k", 3))
        cleaning = bool(params.get("cleaning", False))
        return self.stats(
            f"shingle:{shingle_k}",
            cleaning,
            key_function=lambda text, k=shingle_k: shingles(text, k),
        )

    def estimate_candidates(self, params: Mapping[str, object]) -> float:
        stats = self.key_stats(params)
        # Sound modulo hash injectivity: a banded signature match
        # between shingle-disjoint sets needs a raw hash collision.
        return float(min(stats.comparison_space, stats.df_product_sum))

    def pc_upper_bound(self, params: Mapping[str, object]) -> float:
        return self.key_stats(params).pc_upper_bound


class DenseKNNEstimator(CardinalityEstimator):
    """Exact |C| for the dense cardinality methods (FAISS / SCANN / DB).

    A flat or partitioned index returns ``min(k, N)`` neighbours per
    query unconditionally, so the candidate count is a closed form;
    embeddings erase the token structure, hence no non-trivial PC bound.
    """

    def estimate_candidates(self, params: Mapping[str, object]) -> float:
        k = int(params.get("k", 1))
        reverse = bool(params.get("reverse", False))
        indexed = len(self.dataset.right if reverse else self.dataset.left)
        queries = len(self.dataset.left if reverse else self.dataset.right)
        return float(queries * min(k, indexed))


class DenseLSHEstimator(CardinalityEstimator):
    """|C| figures for the embedding LSH methods (HP-LSH / CP-LSH).

    Random-projection buckets carry no combinatorial invariant over
    tokens, so the bound degrades to the Cartesian space.
    """

    def estimate_candidates(self, params: Mapping[str, object]) -> float:
        return float(self.comparison_space)
