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

from typing import Optional, Tuple

import numpy as np

from ..core.candidates import CandidateSet
from .blocks import BlockCollection

__all__ = [
    "ComparisonPropagation",
    "WEIGHTING_SCHEMES",
    "PRUNING_ALGORITHMS",
    "PairGraph",
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


def _side_tops(
    entities: np.ndarray,
    degree: np.ndarray,
    ranks: np.ndarray,
    distinct: int,
    k: int,
    row_order: Optional[np.ndarray],
) -> np.ndarray:
    """One side of :meth:`PairGraph.node_tops`.

    ``ranks`` is the dense weight rank of every row (0 = best, below
    ``distinct``), ``degree`` the rows per entity, and ``row_order`` the
    rows grouped by entity in ascending row order (``None`` when the
    rows already are).
    """
    heavy = np.flatnonzero(degree > k)
    if not len(heavy):
        return np.ones(len(entities), dtype=bool)
    keys = entities * distinct + ranks
    keys.sort()
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
    tied = ranks == row_cutoff
    if row_order is None:
        tied_rows = np.flatnonzero(tied)
    else:
        tied_rows = row_order[tied[row_order]]
    tied_entities = entities[tied_rows]
    group_starts = np.flatnonzero(np.diff(tied_entities, prepend=-1))
    group_sizes = np.diff(np.append(group_starts, len(tied_rows)))
    position = np.arange(len(tied_rows)) - np.repeat(group_starts, group_sizes)
    mask[tied_rows] = position < slots[tied_entities]
    return mask


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
        left_chunks = []
        right_chunks = []
        arc_chunks = []
        for block in blocks:
            if not block.comparisons:
                # A block with an empty side induces no pairs; the ARCS
                # weight 1/comparisons below would divide by zero.  The
                # standard cleaning steps never emit such blocks, but
                # directly constructed collections can.
                continue
            left = np.asarray(block.left, dtype=np.int64)
            right = np.asarray(block.right, dtype=np.int64)
            left_chunks.append(np.repeat(left, len(right)))
            right_chunks.append(np.tile(right, len(left)))
            arc_chunks.append(
                np.full(block.comparisons, 1.0 / block.comparisons)
            )
        if left_chunks:
            all_lefts = np.concatenate(left_chunks)
            all_rights = np.concatenate(right_chunks)
            all_arcs = np.concatenate(arc_chunks)
            width = int(all_rights.max()) + 1
            keys = all_lefts * width + all_rights
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            self.lefts = unique_keys // width
            self.rights = unique_keys % width
            self.common = np.bincount(inverse).astype(np.float64)
            self.arcs = np.bincount(inverse, weights=all_arcs)
        else:
            self.lefts = np.zeros(0, dtype=np.int64)
            self.rights = np.zeros(0, dtype=np.int64)
            self.common = np.zeros(0)
            self.arcs = np.zeros(0)
        # Blocks per entity (|B_i|) and node degrees (|v_i|).
        self._left_blocks = self._count_map(blocks.left_index())
        self._right_blocks = self._count_map(blocks.right_index())
        size_left = int(self.lefts.max()) + 1 if len(self.lefts) else 0
        size_right = int(self.rights.max()) + 1 if len(self.rights) else 0
        self._left_degree = np.bincount(self.lefts, minlength=size_left)
        self._right_degree = np.bincount(self.rights, minlength=size_right)
        # Rows grouped by right entity, built on first use by node_tops.
        self._right_order: Optional[np.ndarray] = None

    @staticmethod
    def _count_map(index) -> np.ndarray:
        if not index:
            return np.zeros(0, dtype=np.int64)
        size = max(index) + 1
        counts = np.zeros(size, dtype=np.int64)
        for entity, block_ids in index.items():
            counts[entity] = len(block_ids)
        return counts

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

    def node_tops(
        self, weights: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node top-k retention masks ``(left_mask, right_mask)``.

        A row is in ``left_mask`` when it is among the ``k`` best rows of
        its left entity, ordered by weight descending with ties broken by
        ascending row index; ``right_mask`` is the same for the right
        entity.  CNP keeps ``left | right``, RCNP ``left & right``, and
        the learned family's CEP ``left | right`` over its scores.

        No row is ranked within its entity: ``weights`` get one dense
        rank shared by both sides (0 = best), and per side one plain sort
        of the int64 keys ``entity * D + rank`` (``D`` distinct weights,
        so a key stays
        below 2**63 for any graph the tuners build) yields every
        entity's k-th best key.  Rows strictly better than it are kept;
        rows tied with it fill the remaining slots in row order.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not len(self):
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
        # Ascending negated weights put the best weight first, exactly
        # as the descending order (-0.0 ties 0.0).
        values, ranks = np.unique(-np.asarray(weights), return_inverse=True)
        distinct = len(values)
        if self._right_order is None:
            self._right_order = np.argsort(self.rights, kind="stable")
        return (
            _side_tops(
                self.lefts, self._left_degree, ranks, distinct, k, None
            ),
            _side_tops(
                self.rights, self._right_degree, ranks, distinct, k,
                self._right_order,
            ),
        )

    def candidate_set(self, mask: np.ndarray) -> CandidateSet:
        """The pairs selected by a boolean ``mask`` as a CandidateSet."""
        lefts = self.lefts[mask].tolist()
        rights = self.rights[mask].tolist()
        result = CandidateSet()
        result.update(zip(lefts, rights))
        return result


def prune_mask(graph: PairGraph, weights: np.ndarray, algorithm: str) -> np.ndarray:
    """Boolean retention mask over the graph's pairs for one algorithm.

    Exposed at module level so that the configuration optimizer can reuse
    one weighted graph across all pruning algorithms.
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
        top_left, top_right = graph.node_tops(weights, k)
        if algorithm == "CNP":
            return top_left | top_right
        return top_left & top_right
    if algorithm in ("WNP", "RWNP"):
        mean_left = _group_means(graph.lefts, weights)
        mean_right = _group_means(graph.rights, weights)
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
