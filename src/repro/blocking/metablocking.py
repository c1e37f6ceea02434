"""Comparison cleaning: Comparison Propagation and Meta-blocking.

Comparison cleaning is the mandatory last step of a blocking workflow
(Figure 1).  At minimum it removes *redundant* candidates (pairs repeated
across overlapping blocks); Meta-blocking additionally prunes *superfluous*
candidates (likely non-matches) by weighting every distinct pair and
keeping only the best-weighted ones.

Weighting schemes (Section IV-B): ARCS, CBS, ECBS, JS, EJS, X2 (chi^2).
Pruning algorithms: BLAST, CEP, CNP, RCNP, WEP, WNP, RWNP.

The blocking graph is held in flat numpy arrays (one row per distinct
pair), so that the configuration-optimization grid search — which weighs
and prunes the same graph under dozens of configurations — runs at array
speed even on million-pair graphs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.candidates import KEY_WIDTH, CandidateSet, pack_ids
from .blocks import BlockCollection

__all__ = [
    "ComparisonPropagation",
    "WEIGHTING_SCHEMES",
    "PRUNING_ALGORITHMS",
    "PairGraph",
    "NodeRanking",
    "MetaBlocking",
    "prune_mask",
]


class ComparisonPropagation:
    """Parameter-free removal of all redundant pairs.

    Every distinct cross-side pair is retained exactly once, so precision
    increases at zero recall cost.
    """

    name = "CP"

    def clean(self, blocks: BlockCollection) -> CandidateSet:
        return blocks.distinct_pairs()

    def describe(self) -> str:
        return "comparison-propagation"


#: Names of the supported weighting schemes, in the paper's order.
WEIGHTING_SCHEMES: Tuple[str, ...] = ("ARCS", "CBS", "ECBS", "JS", "EJS", "X2")

#: Names of the supported pruning algorithms, in the paper's order.
PRUNING_ALGORITHMS: Tuple[str, ...] = (
    "BLAST", "CEP", "CNP", "RCNP", "WEP", "WNP", "RWNP",
)


def _group_means(entities: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row: the mean weight of the rows sharing its entity."""
    size = int(entities.max()) + 1 if len(entities) else 0
    sums = np.bincount(entities, weights=weights, minlength=size)
    counts = np.bincount(entities, minlength=size)
    counts[counts == 0] = 1
    return (sums / counts)[entities]


def _group_maxima(entities: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row: the maximum weight of the rows sharing its entity."""
    size = int(entities.max()) + 1 if len(entities) else 0
    maxima = np.full(size, -np.inf)
    np.maximum.at(maxima, entities, weights)
    return maxima[entities]


class NodeRanking:
    """One weight vector ranked within every node of a :class:`PairGraph`.

    What depends on the weights alone is built on first use and shared:
    the dense rank and the sorted per-side keys by every ``k`` of
    :meth:`tops`, the per-entity mean weights by WNP and RWNP.  It holds
    the graph's arrays, not the graph, so the graph can cache it.
    """

    def __init__(self, graph: "PairGraph", weights: np.ndarray) -> None:
        # A private copy: the graph reuses this ranking while the weights
        # it is asked about compare equal to these.
        self.weights = np.array(weights)
        self._sides = (
            (graph.lefts, graph._left_degree),
            (graph.rights, graph._right_degree),
        )
        self._ranks: Optional[np.ndarray] = None
        self._distinct = 0
        self._keys: List[Optional[np.ndarray]] = [None, None]
        self._means: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._last_tops: Optional[Tuple[int, Tuple[np.ndarray, ...]]] = None

    def _dense_rank(self) -> None:
        # Ascending negated weights put the best weight first, exactly
        # as the descending order (-0.0 ties 0.0).
        values, self._ranks = np.unique(-self.weights, return_inverse=True)
        self._distinct = len(values)

    def tops(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node top-k retention masks ``(left_mask, right_mask)``.

        A row is in ``left_mask`` when it is among the ``k`` best rows of
        its left entity, ordered by weight descending with ties broken by
        ascending row index; ``right_mask`` is the same for the right
        entity.  CNP keeps ``left | right``, RCNP ``left & right``, and
        the learned family's CEP ``left | right`` over its scores.

        No row is ranked within its entity: with ``D`` distinct weights,
        one plain sort per side of the int64 keys ``entity * D + rank``
        (below 2**63 for any graph the tuners build) yields every
        entity's k-th best key.  Rows strictly better than it are kept;
        rows tied with it fill the remaining slots in row order.  The
        masks of the last ``k`` are kept for CNP's and RCNP's calls to
        share, so they come back read-only.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self._last_tops is None or self._last_tops[0] != k:
            masks = self._side_tops(0, k), self._side_tops(1, k)
            for mask in masks:
                mask.flags.writeable = False
            self._last_tops = k, masks
        return self._last_tops[1]

    def _side_tops(self, side: int, k: int) -> np.ndarray:
        entities, degree = self._sides[side]
        heavy = np.flatnonzero(degree > k)
        if not len(heavy):
            return np.ones(len(entities), dtype=bool)
        if self._ranks is None:
            self._dense_rank()
        ranks, distinct = self._ranks, self._distinct
        keys = self._keys[side]
        if keys is None:
            keys = self._keys[side] = np.sort(entities * distinct + ranks)
        starts = np.cumsum(degree) - degree
        kth = keys[starts[heavy] + (k - 1)]
        # Per entity, the rank of its k-th best row; an entity with at most
        # k rows keeps them all, as no rank reaches ``distinct``.
        cutoff = np.full(len(degree), distinct, dtype=np.int64)
        cutoff[heavy] = kth - heavy * distinct
        row_cutoff = cutoff[entities]
        mask = ranks < row_cutoff
        # Rows tied with the cutoff fill what the strictly better rows leave
        # of the entity's k slots, first rows first.
        slots = np.zeros(len(degree), dtype=np.int64)
        slots[heavy] = k - (np.searchsorted(keys, kth) - starts[heavy])
        tied_rows = np.flatnonzero(ranks == row_cutoff)
        tied_rows = tied_rows[np.argsort(entities[tied_rows], kind="stable")]
        tied_entities = entities[tied_rows]
        position = np.arange(len(tied_rows)) - np.searchsorted(
            tied_entities, tied_entities
        )
        mask[tied_rows] = position < slots[tied_entities]
        return mask

    def means(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per row, the mean weight of its left and of its right entity."""
        if self._means is None:
            self._means = tuple(
                _group_means(entities, self.weights)
                for entities, _ in self._sides
            )
        return self._means


class PairGraph:
    """The blocking graph: distinct pairs with co-occurrence statistics.

    Attributes (aligned arrays, one row per distinct pair):

    * ``lefts`` / ``rights`` — the entity ids;
    * ``common`` — number of blocks the pair co-occurs in (|B_ij|);
    * ``arcs`` — sum of inverse block cardinalities over the common blocks.
    """

    def __init__(self, blocks: BlockCollection) -> None:
        self.n_blocks = len(blocks)
        self.total_assignments = blocks.total_assignments
        members = blocks.members()
        # Blocks per entity (|B_i|).
        self._left_blocks = np.bincount(members.left)
        self._right_blocks = np.bincount(members.right)
        unique_keys, inverse = np.unique(
            members.pair_occurrences(), return_inverse=True
        )
        self.lefts, self.rights = np.divmod(unique_keys, KEY_WIDTH)
        del unique_keys
        self.common = np.bincount(inverse).astype(np.float64)
        # ARCS sums 1/||b|| over the pair's occurrences in block order.
        # A block with an empty side has no occurrence, so clamping its
        # zero comparisons only avoids a division warning.
        comparisons = members.comparisons
        self.arcs = np.bincount(
            inverse,
            weights=np.repeat(1.0 / np.maximum(comparisons, 1), comparisons),
        ).astype(np.float64, copy=False)  # an empty bincount is int64
        # Node degrees (|v_i|).
        self._left_degree = np.bincount(self.lefts)
        self._right_degree = np.bincount(self.rights)
        # The ranking of the last weight vector, reused while it is equal.
        self._ranking: Optional[NodeRanking] = None

    def __len__(self) -> int:
        return len(self.lefts)

    def weights(self, scheme: str) -> np.ndarray:
        """Weight of every distinct pair under the named scheme."""
        scheme = scheme.upper()
        if not len(self):
            return np.zeros(0)
        if scheme == "ARCS":
            return self.arcs.copy()
        if scheme == "CBS":
            return self.common.copy()
        if scheme == "ECBS":
            total = max(1, self.n_blocks)
            # Every graph entity sits in >= 1 block, but collections
            # built outside the cleaning pipeline may disagree with the
            # per-entity index — clamp so the discount stays finite.
            left_counts = np.maximum(self._left_blocks[self.lefts], 1)
            right_counts = np.maximum(self._right_blocks[self.rights], 1)
            discount_left = np.log1p(total / left_counts)
            discount_right = np.log1p(total / right_counts)
            return self.common * discount_left * discount_right
        if scheme == "JS":
            union = (
                self._left_blocks[self.lefts]
                + self._right_blocks[self.rights]
                - self.common
            )
            return np.where(union > 0, self.common / union, 0.0)
        if scheme == "EJS":
            total_edges = max(1, len(self))
            js = self.weights("JS")
            left_degree = np.maximum(self._left_degree[self.lefts], 1)
            right_degree = np.maximum(self._right_degree[self.rights], 1)
            discount_left = np.log1p(total_edges / left_degree)
            discount_right = np.log1p(total_edges / right_degree)
            return js * discount_left * discount_right
        if scheme == "X2":
            return self._chi_squared()
        raise ValueError(f"unknown weighting scheme {scheme!r}")

    def _chi_squared(self) -> np.ndarray:
        """Chi-squared test of co-occurrence independence per pair."""
        total = float(max(1, self.n_blocks))
        n_left = self._left_blocks[self.lefts].astype(np.float64)
        n_right = self._right_blocks[self.rights].astype(np.float64)
        observed = (
            self.common,
            n_left - self.common,
            n_right - self.common,
            total - n_left - n_right + self.common,
        )
        rows = (n_left, total - n_left)
        cols = (n_right, total - n_right)
        statistic = np.zeros(len(self))
        for i in range(2):
            for j in range(2):
                expected = rows[i] * cols[j] / total
                safe = np.where(expected > 0, expected, 1.0)
                diff = observed[i * 2 + j] - expected
                statistic += np.where(expected > 0, diff * diff / safe, 0.0)
        return statistic

    def node_ranking(self, weights: np.ndarray) -> NodeRanking:
        """The :class:`NodeRanking` of ``weights`` on this graph.

        The graph keeps the last ranking it built and returns it again
        while the weights compare equal to the ones it ranked, so the
        per-node pruning algorithms of one weight vector share one
        ranking across their separate :func:`prune_mask` calls.
        """
        ranking = self._ranking
        if ranking is None or not np.array_equal(ranking.weights, weights):
            ranking = self._ranking = NodeRanking(self, weights)
        return ranking

    def candidate_set(self, mask: np.ndarray) -> CandidateSet:
        """The pairs selected by a boolean ``mask`` (rows are key-sorted)."""
        return CandidateSet.from_keys(
            pack_ids(self.lefts[mask], self.rights[mask])
        )


def prune_mask(graph: PairGraph, weights: np.ndarray, algorithm: str) -> np.ndarray:
    """Boolean retention mask over the graph's pairs for one algorithm.

    Exposed at module level so that the configuration optimizer can reuse
    one weighted graph across all pruning algorithms.  Per weight vector,
    the graph's :meth:`~PairGraph.node_ranking` is shared by the calls
    for CNP and RCNP (dense rank, sorted per-side keys and the top-k
    masks) and for WNP and RWNP (per-entity mean weights), so only the
    per-algorithm combination runs per call.
    """
    algorithm = algorithm.upper()
    if not len(graph):
        return np.zeros(0, dtype=bool)
    if algorithm == "WEP":
        return weights >= weights.mean()
    if algorithm == "CEP":
        k = max(1, graph.total_assignments // 2)
        if k >= len(weights):
            return np.ones(len(weights), dtype=bool)
        cutoff = np.partition(weights, -k)[-k]
        return weights >= cutoff
    if algorithm in ("CNP", "RCNP"):
        entities = len(graph._left_blocks) + len(graph._right_blocks)
        blocks_per_entity = graph.total_assignments / max(1, entities)
        k = max(1, int(blocks_per_entity) - 1)
        top_left, top_right = graph.node_ranking(weights).tops(k)
        if algorithm == "CNP":
            return top_left | top_right
        return top_left & top_right
    if algorithm in ("WNP", "RWNP"):
        mean_left, mean_right = graph.node_ranking(weights).means()
        if algorithm == "WNP":
            return (weights >= mean_left) | (weights >= mean_right)
        return (weights >= mean_left) & (weights >= mean_right)
    if algorithm == "BLAST":
        max_left = _group_maxima(graph.lefts, weights)
        max_right = _group_maxima(graph.rights, weights)
        return weights >= (max_left + max_right) / 2.0
    raise ValueError(f"unknown pruning algorithm {algorithm!r}")


class MetaBlocking:
    """Weight the blocking graph, then prune it.

    Parameters mirror the paper: a weighting scheme name and a pruning
    algorithm name (see :data:`WEIGHTING_SCHEMES`,
    :data:`PRUNING_ALGORITHMS`).
    """

    def __init__(self, scheme: str = "CBS", pruning: str = "WEP") -> None:
        scheme = scheme.upper()
        pruning = pruning.upper()
        if scheme not in WEIGHTING_SCHEMES:
            raise ValueError(f"unknown weighting scheme {scheme!r}")
        if pruning not in PRUNING_ALGORITHMS:
            raise ValueError(f"unknown pruning algorithm {pruning!r}")
        self.scheme = scheme
        self.pruning = pruning

    def clean(self, blocks: BlockCollection) -> CandidateSet:
        graph = PairGraph(blocks)
        if not len(graph):
            return CandidateSet()
        weights = graph.weights(self.scheme)
        return graph.candidate_set(prune_mask(graph, weights, self.pruning))

    def describe(self) -> str:
        return f"meta-blocking({self.scheme}+{self.pruning})"
