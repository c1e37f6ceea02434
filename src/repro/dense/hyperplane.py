"""Hyperplane LSH (Charikar, STOC 2002) with multi-probe querying.

A vector is hashed by the signs of its projections onto random normal
vectors: ``h(v) = sign(r . v)``, so two vectors collide with probability
``1 - angle/pi``.  We concatenate ``hashes`` sign bits per table and use
``tables`` independent tables; multi-probe additionally visits the buckets
obtained by flipping the lowest-margin bits, in increasing total-margin
order — the standard probing sequence, which is how FALCONN reaches a
target recall without more tables.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.incremental import IncrementalIndex
from ..core.profile import EntityProfile
from ..core.stages import INDEX, QUERY
from ..text.cleaning import TextCleaner
from .base import DenseNNFilter, bucket_join
from .embeddings import HashedNGramEmbedder

__all__ = ["HyperplaneLSH", "IncrementalHyperplaneLSH", "probe_sequence"]


def probe_sequence(margins: np.ndarray, probes: int) -> List[Tuple[int, ...]]:
    """The first ``probes`` bit-flip sets in increasing total-margin order.

    ``margins`` holds the absolute projection value per bit — the cost of
    flipping that bit.  The first element is always the empty set (the
    exact bucket).  Uses the classic heap-based enumeration over sorted
    margins.
    """
    order = np.argsort(margins, kind="stable")
    sorted_margins = margins[order]
    sequence: List[Tuple[int, ...]] = [()]
    if probes <= 1 or not len(margins):
        return sequence[:probes] if probes >= 1 else []
    # Heap entries: (total_margin, positions-in-sorted-order tuple).
    heap: List[Tuple[float, Tuple[int, ...]]] = [
        (float(sorted_margins[0]), (0,))
    ]
    while heap and len(sequence) < probes:
        total, positions = heapq.heappop(heap)
        sequence.append(tuple(int(order[p]) for p in positions))
        last = positions[-1]
        if last + 1 < len(sorted_margins):
            # "Shift": replace the last flipped bit with the next one.
            shifted = positions[:-1] + (last + 1,)
            heapq.heappush(
                heap,
                (
                    total - float(sorted_margins[last]) + float(sorted_margins[last + 1]),
                    shifted,
                ),
            )
            # "Expand": additionally flip the next bit.
            expanded = positions + (last + 1,)
            heapq.heappush(
                heap, (total + float(sorted_margins[last + 1]), expanded)
            )
    return sequence


class HyperplaneLSH(DenseNNFilter):
    """Multi-table, multi-probe hyperplane LSH over entity embeddings."""

    name = "hp-lsh"

    def __init__(
        self,
        tables: int = 10,
        hashes: int = 12,
        probes: Optional[int] = None,
        cleaning: bool = False,
        seed: int = 0,
        embedder: Optional[HashedNGramEmbedder] = None,
    ) -> None:
        if tables < 1:
            raise ValueError(f"tables must be positive, got {tables}")
        if not 1 <= hashes <= 62:
            raise ValueError(f"hashes must be in [1, 62], got {hashes}")
        super().__init__(cleaning=cleaning, embedder=embedder)
        self.tables = tables
        self.hashes = hashes
        # Default probing budget: the exact bucket plus one flip per bit,
        # per table (FALCONN-style auto-tuning is approximated by the
        # optimizer sweeping this parameter).
        self.probes = probes if probes is not None else 1 + hashes
        self.seed = seed

    @property
    def is_stochastic(self) -> bool:
        return True

    def reseed(self, seed: int) -> None:
        self.seed = seed

    def _projections(self, dim: int) -> List[np.ndarray]:
        rng = np.random.default_rng(self.seed)
        return [
            rng.standard_normal((dim, self.hashes)).astype(np.float32)
            for __ in range(self.tables)
        ]

    @staticmethod
    def _keys(signs: np.ndarray) -> np.ndarray:
        """Pack sign bits (n, hashes) into integer bucket keys (n,)."""
        weights = np.int64(1) << np.arange(signs.shape[1] - 1, -1, -1)
        return (signs > 0).astype(np.int64) @ weights

    def _index_and_query(
        self, indexed: np.ndarray, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        with self.trace.stage(INDEX, input_size=indexed.shape[0]):
            projections = self._projections(indexed.shape[1])
            index_keys = [self._keys(indexed @ p) for p in projections]
        joins = []
        with self.trace.stage(QUERY, input_size=queries.shape[0]):
            for projection, keys in zip(projections, index_keys):
                probe_keys, probe_ids = self._probe_keys(queries @ projection)
                index_pos, probe_pos = bucket_join(keys, probe_keys)
                joins.append((index_pos, probe_ids[probe_pos]))
        return tuple(np.concatenate(ids) for ids in zip(*joins))

    def _probe_keys(self, scores: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every query's multi-probe bucket keys, with the query id of each.

        Each table probes ``max(1, probes // tables)`` buckets per query.
        """
        per_table_probes = max(1, self.probes // self.tables)
        keys: List[int] = []
        query_ids: List[int] = []
        base_keys = self._keys(scores).tolist()
        for query_id, margins in enumerate(np.abs(scores)):
            for flips in probe_sequence(margins, per_table_probes):
                flipped = sum(1 << (self.hashes - 1 - bit) for bit in flips)
                keys.append(base_keys[query_id] ^ flipped)
                query_ids.append(query_id)
        return np.array(keys, dtype=np.int64), np.array(query_ids, np.int64)

    def describe(self) -> str:
        return (
            f"{super().describe()}(L={self.tables}, h={self.hashes}, "
            f"probes={self.probes})"
        )


class IncrementalHyperplaneLSH(IncrementalIndex):
    """Mutable multi-table hyperplane LSH (per-bucket add/remove).

    The projections are drawn once at construction (the embedder's
    dimensionality is fixed), exactly as :class:`HyperplaneLSH` draws
    them per run, so under the same seed and embedder the streamed
    buckets match the batch filter's.  Queries multi-probe with the same
    per-table budget (``max(1, probes // tables)``); removals delete the
    slot from its one bucket per table.
    """

    name = "inc-hp-lsh"

    def __init__(
        self,
        tables: int = 10,
        hashes: int = 12,
        probes: Optional[int] = None,
        cleaning: bool = False,
        seed: int = 0,
        embedder: Optional[HashedNGramEmbedder] = None,
        attribute: Optional[str] = None,
    ) -> None:
        super().__init__(attribute=attribute)
        self._lsh = HyperplaneLSH(
            tables=tables, hashes=hashes, probes=probes,
            cleaning=cleaning, seed=seed, embedder=embedder,
        )
        self.embedder = self._lsh.embedder
        self._cleaner = TextCleaner()
        self._projections = self._lsh._projections(self.embedder.dim)
        self._buckets: List[Dict[int, List[int]]] = [
            {} for __ in range(tables)
        ]
        self._bucket_keys: Dict[int, List[int]] = {}

    @property
    def tables(self) -> int:
        return self._lsh.tables

    @property
    def hashes(self) -> int:
        return self._lsh.hashes

    @property
    def probes(self) -> int:
        return self._lsh.probes

    def _vector(self, profile: EntityProfile) -> np.ndarray:
        text = self.text_of(profile)
        if self._lsh.cleaning:
            text = self._cleaner.clean(text)
        return self.embedder.embed_text(text)

    def _add(self, slot: int, profile: EntityProfile) -> None:
        vector = self._vector(profile)
        keys: List[int] = []
        for table, projection in enumerate(self._projections):
            key = int(self._lsh._keys((vector @ projection)[None, :])[0])
            keys.append(key)
            self._buckets[table].setdefault(key, []).append(slot)
        self._bucket_keys[slot] = keys

    def _remove(self, slot: int, profile: EntityProfile) -> None:
        for table, key in enumerate(self._bucket_keys.pop(slot)):
            bucket = self._buckets[table][key]
            bucket.remove(slot)
            if not bucket:
                del self._buckets[table][key]

    def _query(self, profile: EntityProfile) -> Iterable[int]:
        vector = self._vector(profile)
        matches: Set[int] = set()
        for buckets, projection in zip(self._buckets, self._projections):
            keys, __ = self._lsh._probe_keys((vector @ projection)[None, :])
            for key in keys.tolist():
                matches.update(buckets.get(key, ()))
        return matches

    def index_stats(self) -> Dict[str, object]:
        stats = super().index_stats()
        stats.update(
            buckets=sum(len(table) for table in self._buckets),
            max_bucket=max(
                (
                    len(bucket)
                    for table in self._buckets
                    for bucket in table.values()
                ),
                default=0,
            ),
        )
        return stats

    def describe(self) -> str:
        return (
            f"{self.name}(L={self.tables}, h={self.hashes}, "
            f"probes={self.probes})"
        )
