"""The facts cost-based tuning prunes with.

Problem-1 tuning used to *execute* every configuration of the grid.  The
estimators here read the token statistics of :mod:`repro.datasets.stats`
(groundtruth overlap triples, covered queries, MCV entries) and hand the
tuners the few provable facts that let them discard dominated
configurations before any filter runs:

* ``gt_overlapping`` — duplicates sharing at least one key cap the
  duplicates *any* configuration over that key space can retain, which
  :func:`coverage_prunable` turns into the shared coverage cap;
* the duplicate-similarity array, from which :func:`feasible_threshold`
  reproduces the ε-Join's chosen threshold bit for bit;
* ``covered_queries`` — a floor on the kNN-Join's |C| at any k >= 1;
* :meth:`SparseJoinEstimator.candidate_floor` — the MCV floor on the
  ε-Join's |C| at a threshold.

The tuners prune only on these facts, which is why pruning never changes
the selected configuration.

The only assumption behind the MinHash coverage fact is hash
injectivity: shingle-disjoint pairs collide only if two distinct
shingles hash identically (probability ~2^-31 per pair of shingles),
which the parity suite confirms never fires on the seeded datasets.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from ..datasets.generator import ERDataset
from ..datasets.stats import TokenStats, token_stats
from ..sparse.similarity import vector_similarity_function
from ..text.tokenizers import shingles
from .result import TunedResult

__all__ = [
    "CardinalityEstimator",
    "SparseJoinEstimator",
    "BlockingEstimator",
    "MinHashEstimator",
    "coverage_prunable",
    "feasible_threshold",
    "snap_down",
]


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
    ``needed`` duplicates share a key).
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
    """The coverage cap: can a key space whose duplicates share a key
    ``gt_overlapping`` times never *strictly* beat ``best``?

    A feasible incumbent is only beaten by a feasible configuration,
    which needs ``needed`` retained duplicates; an infeasible one is
    beaten on PC, which ``gt_overlapping / total_duplicates`` caps.
    """
    if best.feasible:
        return needed > 0 and gt_overlapping < needed
    pc_cap = gt_overlapping / total_duplicates if total_duplicates else 0.0
    return pc_cap <= best.pc


class CardinalityEstimator:
    """Token statistics of one dataset/setting, per key space."""

    def __init__(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> None:
        self.dataset = dataset
        self.attribute = attribute

    def stats(
        self,
        model: str,
        cleaning: bool,
        key_function: Optional[Callable[[str], Iterable[str]]] = None,
    ) -> TokenStats:
        """Token statistics of one key space over the bound dataset."""
        return token_stats(
            self.dataset.left.texts(self.attribute),
            self.dataset.right.texts(self.attribute),
            self.dataset.groundtruth,
            model=model,
            cleaning=cleaning,
            key_function=key_function,
        )


class SparseJoinEstimator(CardinalityEstimator):
    """The facts the ScanCount joins' tuners (EJ / kNNJ) prune with.

    The duplicate-similarity array of a combination is a pure function
    of the (size, size, overlap) triples stored in :class:`TokenStats`,
    so feasibility and the selected threshold are reproduced bit for bit
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


class BlockingEstimator(CardinalityEstimator):
    """Key statistics of the blocking workflows' builder configurations.

    The key space of a builder configuration is its ``keys()`` signature
    function; every downstream step (purging, filtering, comparison
    cleaning) only *removes* pairs from the key-sharing set, so the
    key-disjoint groundtruth pairs cap PC for the whole subtree.
    """

    #: Builder parameters that shape the key signature (``b_max`` caps
    #: block sizes at build time but leaves ``keys()`` untouched, so
    #: configurations differing only in it share one statistics entry).
    _KEY_PARAMS = ("q", "t", "l_min")

    def key_stats(
        self, builder_name: str, params: Mapping[str, object]
    ) -> TokenStats:
        from .blocking import make_builder

        key_params = {
            name: params[name] for name in self._KEY_PARAMS if name in params
        }
        builder = make_builder(builder_name, **params)
        suffix = ",".join(f"{k}={key_params[k]}" for k in sorted(key_params))
        return self.stats(
            f"block:{builder_name}:{suffix}", False, key_function=builder.keys
        )


class MinHashEstimator(CardinalityEstimator):
    """Shingle statistics of MinHash LSH configurations."""

    def key_stats(self, params: Mapping[str, object]) -> TokenStats:
        shingle_k = int(params.get("shingle_k", 3))
        cleaning = bool(params.get("cleaning", False))
        return self.stats(
            f"shingle:{shingle_k}",
            cleaning,
            key_function=lambda text, k=shingle_k: shingles(text, k),
        )
