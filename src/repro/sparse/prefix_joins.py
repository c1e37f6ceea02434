"""Prefix-filter ε-Join algorithms: AllPairs and PPJoin.

The paper (Section IV-C) notes that *all* exact ε-Join algorithms return
the identical candidate set and differ only in run-time; the classic
prefix-filter family — AllPairs (Bayardo et al., WWW 2007) and PPJoin
(Xiao et al., TODS 2011) — is crafted for *high* similarity thresholds,
which is why the paper adopts ScanCount for the low thresholds ER needs.
We implement both so that this trade-off is reproducible (see
``benchmarks/test_ablations_joins.py``).

Both algorithms follow the filter-verification pattern:

1. tokens are globally ordered rarest-first; every set is sorted by that
   order, so infrequent tokens land in the *prefix*;
2. a pair can only reach similarity t if it shares a token within the
   query's prefix (prefix filter) and the indexed set's size lies within
   derived bounds (size filter);
3. PPJoin additionally upper-bounds the overlap from the match positions
   (positional filter);
4. surviving candidates are verified with an exact intersection.

The overlap lower bounds used per measure (for a query of size ``q``):

* jaccard:  o >= ceil(t * q)           (since |A u B| >= q)
* cosine:   o >= ceil(t^2 * q)         (since o <= min sizes)
* dice:     o >= ceil(t * q / (2 - t))

and the size window for an indexed set of size ``s``:

* jaccard:  t*q <= s <= q/t
* cosine:   t^2*q <= s <= q/t^2
* dice:     t*q/(2-t) <= s <= q*(2-t)/t
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.candidates import CandidateSet
from ..core.profile import EntityCollection
from ..core.stages import INDEX, PREPROCESS, QUERY
from .base import SparseNNFilter

__all__ = ["TokenOrder", "AllPairsJoin", "PPJoin"]


class TokenOrder:
    """Global rarest-first token ordering over both input collections."""

    def __init__(self, token_sets: Sequence[FrozenSet[str]]) -> None:
        frequency: Counter = Counter()
        for tokens in token_sets:
            frequency.update(tokens)
        ordered = sorted(frequency.items(), key=lambda item: (item[1], item[0]))
        self._rank: Dict[str, int] = {
            token: rank for rank, (token, __) in enumerate(ordered)
        }

    def sort(self, tokens: FrozenSet[str]) -> List[str]:
        """The set's tokens, rarest first; unseen tokens go last."""
        fallback = len(self._rank)
        return sorted(tokens, key=lambda t: (self._rank.get(t, fallback), t))


def _min_overlap(measure: str, threshold: float, query_size: int) -> int:
    """Minimal overlap any qualifying partner must share with the query."""
    if measure == "jaccard":
        bound = threshold * query_size
    elif measure == "cosine":
        bound = threshold * threshold * query_size
    else:  # dice
        bound = threshold * query_size / (2.0 - threshold)
    return max(1, math.ceil(bound - 1e-9))


def _size_bounds(
    measure: str, threshold: float, query_size: int
) -> Tuple[int, int]:
    """Admissible indexed-set sizes for one query."""
    if threshold <= 0.0:
        return 1, 10**18
    if measure == "jaccard":
        low = threshold * query_size
        high = query_size / threshold
    elif measure == "cosine":
        low = threshold * threshold * query_size
        high = query_size / (threshold * threshold)
    else:  # dice
        low = threshold * query_size / (2.0 - threshold)
        high = query_size * (2.0 - threshold) / threshold
    return max(1, math.ceil(low - 1e-9)), math.floor(high + 1e-9)


def _pair_overlap_requirement(
    measure: str, threshold: float, query_size: int, indexed_size: int
) -> int:
    """Exact overlap a specific (query, indexed) pair must reach."""
    if measure == "jaccard":
        bound = threshold / (1.0 + threshold) * (query_size + indexed_size)
    elif measure == "cosine":
        bound = threshold * math.sqrt(query_size * indexed_size)
    else:  # dice
        bound = threshold / 2.0 * (query_size + indexed_size)
    return max(1, math.ceil(bound - 1e-9))


class _PrefixJoinBase(SparseNNFilter):
    """Shared machinery: ordering, indexing, verification."""

    def __init__(
        self,
        threshold: float,
        model: str = "T1G",
        measure: str = "jaccard",
        cleaning: bool = False,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        super().__init__(model=model, measure=measure, cleaning=cleaning)
        self.threshold = threshold
        #: Filter-stage statistics of the last run (for the ablation bench).
        self.last_candidates_examined = 0
        self.last_pairs_verified = 0

    def _run(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str],
    ) -> CandidateSet:
        with self.trace.stage(PREPROCESS, input_size=len(left) + len(right)):
            left_sets = self._token_sets(left, attribute)
            right_sets = self._token_sets(right, attribute)
            order = TokenOrder(left_sets + right_sets)
            left_sorted = [order.sort(tokens) for tokens in left_sets]
            right_sorted = [order.sort(tokens) for tokens in right_sets]
        with self.trace.stage(INDEX, input_size=len(left_sorted)):
            postings: Dict[str, List[Tuple[int, int]]] = {}
            for set_id, tokens in enumerate(left_sorted):
                for position, token in enumerate(tokens):
                    postings.setdefault(token, []).append((set_id, position))
        with self.trace.stage(QUERY, input_size=len(right_sorted)) as query:
            pairs: List[Tuple[int, int]] = []
            self.last_candidates_examined = 0
            self.last_pairs_verified = 0
            for query_id, query_tokens in enumerate(right_sorted):
                if not query_tokens:
                    continue
                survivors = self._probe(
                    query_tokens, postings, left_sorted
                )
                query_set = right_sets[query_id]
                for indexed_id in survivors:
                    self.last_pairs_verified += 1
                    overlap = len(left_sets[indexed_id] & query_set)
                    similarity = self.measure(
                        len(left_sets[indexed_id]), len(query_set), overlap
                    )
                    if similarity >= self.threshold:
                        pairs.append((indexed_id, query_id))
            candidates = CandidateSet(pairs)
            query.output_size = len(candidates)
        return candidates

    def _probe(
        self,
        query_tokens: List[str],
        postings: Dict[str, List[Tuple[int, int]]],
        indexed_sorted: List[List[str]],
    ) -> List[int]:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{super().describe()} t={self.threshold:.2f}"


class AllPairsJoin(_PrefixJoinBase):
    """AllPairs: prefix + size filters, then verification."""

    name = "allpairs"

    def _probe(self, query_tokens, postings, indexed_sorted) -> List[int]:
        query_size = len(query_tokens)
        alpha = _min_overlap(self.measure_name, self.threshold, query_size)
        prefix = query_size - alpha + 1
        low, high = _size_bounds(self.measure_name, self.threshold, query_size)
        seen = set()
        for token in query_tokens[:prefix]:
            for indexed_id, __ in postings.get(token, ()):
                if indexed_id in seen:
                    continue
                if low <= len(indexed_sorted[indexed_id]) <= high:
                    seen.add(indexed_id)
                    self.last_candidates_examined += 1
        return list(seen)


class PPJoin(_PrefixJoinBase):
    """PPJoin: AllPairs plus the positional filter.

    While scanning the query prefix, the number of prefix matches and the
    positions of the last match on both sides bound the best achievable
    overlap; pairs that cannot reach the pair-specific requirement are
    dropped before verification.
    """

    name = "ppjoin"

    def _probe(self, query_tokens, postings, indexed_sorted) -> List[int]:
        query_size = len(query_tokens)
        alpha = _min_overlap(self.measure_name, self.threshold, query_size)
        prefix = query_size - alpha + 1
        low, high = _size_bounds(self.measure_name, self.threshold, query_size)
        # candidate -> (prefix matches, last query pos, last indexed pos)
        partial: Dict[int, Tuple[int, int, int]] = {}
        for query_position, token in enumerate(query_tokens[:prefix]):
            for indexed_id, indexed_position in postings.get(token, ()):
                size = len(indexed_sorted[indexed_id])
                if not low <= size <= high:
                    continue
                matches, __, __ = partial.get(indexed_id, (0, 0, 0))
                if matches == 0:
                    self.last_candidates_examined += 1
                partial[indexed_id] = (
                    matches + 1,
                    query_position,
                    indexed_position,
                )
        survivors = []
        for indexed_id, (matches, qpos, ipos) in partial.items():
            size = len(indexed_sorted[indexed_id])
            required = _pair_overlap_requirement(
                self.measure_name, self.threshold, query_size, size
            )
            upper_bound = matches + min(
                query_size - qpos - 1, size - ipos - 1
            )
            if upper_bound >= required:
                survivors.append(indexed_id)
        return survivors
