"""The ScanCount algorithm (Li, Lu and Lu, ICDE 2008), CSR-vectorized.

ScanCount answers set-overlap queries with an inverted index: every token
maps to the posting list of indexed sets containing it; a query performs a
merge-count over the posting lists of its own tokens, producing the exact
overlap with every indexed set that shares at least one token.

The paper picks ScanCount for the sparse NN methods because, unlike
prefix-filter joins, its cost does not degrade at the *low* similarity
thresholds that ER requires.

Storage layout
--------------
The index is stored in CSR (compressed sparse row) form: a vocabulary
``Dict[str, int]`` maps tokens to token ids (the flat position of each
token's first occurrence — sparse, not dense, so the whole build runs at
C speed), ``token_ptr`` (int64) delimits each token's slice of
``postings`` (int32 set ids, ascending within a slice); slices at
never-assigned ids are empty and unreachable through the vocabulary.  A batched query
concatenates each query's posting slices (contiguous views, no Python
iteration over postings) and counts them with one ``np.bincount``, so the
per-element work happens in NumPy rather than in a Python dict-merge
loop; the results for the whole batch come back as flat CSR arrays.

Both sparse joins query this one index through :meth:`ScanCountIndex.
run_kernel` (the reduction consumers of :mod:`repro.sparse.kernels`);
:meth:`ScanCountIndex.batch_overlaps` materializes every overlap row for
the callers that need all of them, such as the tuners' threshold sweeps.

A single query can skip the batch machinery: :meth:`ScanCountIndex.probe`
counts one query's posting slices in process, so its cost is the
postings it touches.

The incremental (serving) form of the same structure is
:class:`DynamicPostings` — a token -> postings delta dict layered over a
lazily compacted CSR snapshot with tombstoned removals — wrapped by
:class:`IncrementalScanCountFilter`, the
:class:`~repro.core.incremental.IncrementalIndex` of the sparse family.
"""

from __future__ import annotations

import itertools
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.incremental import IncrementalIndex
from ..core.parallel import query_shards, resolve_workers, run_sharded
from ..core.profile import EntityProfile
from ..text.cleaning import TextCleaner
from ..text.tokenizers import RepresentationModel
from .kernels import kth_distinct_cutoff, query_tokens
from .similarity import vector_similarity_function

__all__ = [
    "ScanCountIndex",
    "DynamicPostings",
    "IncrementalScanCountFilter",
]

#: The empty overlap-row array every no-match result shares.
_EMPTY = np.zeros(0, dtype=np.int64)


class ScanCountIndex:
    """Inverted index over token sets supporting exact overlap counting.

    Postings are held as contiguous ``(token_ptr, postings)`` int arrays
    (CSR layout) plus a token vocabulary; see the module docstring.
    """

    def __init__(self, token_sets: Sequence[FrozenSet[str]]) -> None:
        token_sets = list(token_sets)
        count = len(token_sets)
        self._sizes = np.fromiter(
            map(len, token_sets), dtype=np.int64, count=count
        )
        total = int(self._sizes.sum())
        # One pass entirely in C: each token's id is the flat position of
        # its first occurrence (``setdefault`` hands the position back on
        # repeats).  Ids are *sparse* — token_ptr simply has empty slices
        # at never-assigned positions, which no query can ever reference
        # because the vocabulary only maps to assigned ids.
        vocabulary: Dict[str, int] = {}
        tokens_arr = np.fromiter(
            map(
                vocabulary.setdefault,
                chain.from_iterable(token_sets),
                itertools.count(),
            ),
            dtype=np.int64,
            count=total,
        )
        self._vocabulary = vocabulary
        sets_arr = np.repeat(np.arange(count, dtype=np.int32), self._sizes)
        counts = np.bincount(tokens_arr, minlength=total)
        self._token_ptr = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(counts, out=self._token_ptr[1:])
        # Group by token with set ids ascending inside every slice: an
        # in-place sort of the packed (token, set) key is far cheaper
        # than a stable argsort + gather.  All three packing ops mutate
        # tokens_arr in place rather than allocating temporaries.
        composite = tokens_arr
        composite <<= 32
        composite |= sets_arr
        composite.sort()
        composite &= 0xFFFFFFFF
        self._postings_arr = composite.astype(np.int32)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sizes)

    def size_of(self, set_id: int) -> int:
        """Cardinality of the indexed set ``set_id``."""
        return int(self._sizes[set_id])

    @property
    def sizes(self) -> np.ndarray:
        """Cardinalities of all indexed sets (int64, read-only view)."""
        return self._sizes

    @property
    def vocabulary(self) -> Dict[str, int]:
        """Token -> token id mapping (treat as read-only).

        Ids are sparse: each is the flat position of the token's first
        occurrence, so they index ``token_ptr`` but skip values.
        """
        return self._vocabulary

    @property
    def vocabulary_size(self) -> int:
        return len(self._vocabulary)

    @property
    def token_ptr(self) -> np.ndarray:
        """CSR pointer array: token ``t`` owns ``postings[ptr[t]:ptr[t+1]]``."""
        return self._token_ptr

    @property
    def postings(self) -> np.ndarray:
        """Concatenated posting lists (int32 set ids, CSR order)."""
        return self._postings_arr

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The index as named immutable arrays (kernel/shared-memory form).

        This is the exact payload :mod:`repro.core.parallel` publishes to
        worker processes and :mod:`repro.sparse.kernels` consumes.
        """
        return {
            "token_ptr": self._token_ptr,
            "postings": self._postings_arr,
            "sizes": self._sizes,
        }

    def run_kernel(
        self,
        consumer: str,
        queries: Sequence[FrozenSet[str]],
        workers: Optional[int] = None,
        **params,
    ):
        """Shard ``queries`` over a named kernel consumer.

        Returns the ordered per-shard :class:`~repro.core.parallel.
        ShardResult` list; consumers are the reduction kernels of
        :mod:`repro.sparse.kernels` (``count`` / ``materialize`` /
        ``epsilon`` / ``knn``).
        """
        qt = query_tokens(self._vocabulary, queries)
        workers = resolve_workers(workers)
        return run_sharded(
            {**self.arrays(), **qt.as_arrays()},
            {"consumer": consumer, **params},
            query_shards(len(queries), workers),
            workers=workers,
        )

    def batch_overlaps(
        self,
        queries: Sequence[FrozenSet[str]],
        workers: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact overlaps of every query with every indexed set, batched.

        Returns a CSR triple ``(query_ptr, set_ids, counts)``: query ``q``
        overlaps indexed set ``set_ids[r]`` on ``counts[r]`` tokens for
        every row ``r`` in ``query_ptr[q]:query_ptr[q + 1]``.  Within a
        query the set ids are ascending; sets sharing no token are absent
        (overlap 0).  Empty and fully out-of-vocabulary queries yield
        empty slices.

        ``workers`` shards the query axis across processes
        (:mod:`repro.core.parallel`); the output is byte-identical for
        every worker count.  Note the full triple is the *materializing*
        consumer — callers that only need a reduction (counts, a
        threshold selection, top-k) should use :meth:`count_overlaps` or
        the join kernels, which never build the flat row universe.
        """
        num_queries = len(queries)
        query_ptr = np.zeros(num_queries + 1, dtype=np.int64)
        if len(self._sizes) == 0 or num_queries == 0:
            empty = np.zeros(0, dtype=np.int64)
            return query_ptr, empty, empty
        results = self.run_kernel("materialize", queries, workers)
        id_parts: List[np.ndarray] = []
        count_parts: List[np.ndarray] = []
        offset = 0
        for shard in results:
            local_ptr, set_ids, counts = shard.value
            query_ptr[shard.lo + 1 : shard.hi + 1] = local_ptr[1:] + offset
            offset += int(local_ptr[-1])
            id_parts.append(set_ids)
            count_parts.append(counts)
        return (
            query_ptr,
            np.concatenate(id_parts),
            np.concatenate(count_parts),
        )

    def count_overlaps(
        self,
        queries: Sequence[FrozenSet[str]],
        workers: Optional[int] = None,
    ) -> np.ndarray:
        """Number of overlapping indexed sets per query (int64 array).

        The counting-only consumer: equivalent to
        ``np.diff(batch_overlaps(queries)[0])`` but never materializes
        the overlap rows, making it memory-bound-proof on dense data.
        """
        out = np.zeros(len(queries), dtype=np.int64)
        if len(self._sizes) == 0 or len(queries) == 0:
            return out
        for shard in self.run_kernel("count", queries, workers):
            out[shard.lo : shard.hi] = shard.value
        return out

    def probe(self, query: Iterable[str]) -> Tuple[np.ndarray, np.ndarray]:
        """One query's exact overlaps ``(set_ids, counts)``, in process.

        Byte-identical to ``batch_overlaps([query])[1:]`` (int64, set ids
        ascending) without the batch path's vocabulary packing and
        sharding: a one-token query is its posting slice, a longer one
        counts its concatenated slices with one ``np.bincount``.  The
        cost is the postings the query touches.
        """
        vocabulary = self._vocabulary
        ptr = self._token_ptr
        slices = [
            self._postings_arr[ptr[token_id] : ptr[token_id + 1]]
            for token_id in map(vocabulary.get, query)
            if token_id is not None
        ]
        if not slices:
            return _EMPTY, _EMPTY
        if len(slices) == 1:
            set_ids = slices[0].astype(np.int64)
            return set_ids, np.ones(len(set_ids), dtype=np.int64)
        dense = np.bincount(np.concatenate(slices))
        set_ids = np.flatnonzero(dense)
        return set_ids, dense[set_ids]

    def overlaps(self, query: FrozenSet[str]) -> Dict[int, int]:
        """Exact overlap of ``query`` with every indexed set sharing a token.

        Sets sharing no token are absent from the result (overlap 0).
        Thin dict wrapper over :meth:`probe`.
        """
        set_ids, counts = self.probe(query)
        return dict(zip(set_ids.tolist(), counts.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScanCountIndex(sets={len(self)}, "
            f"vocabulary={self.vocabulary_size}, "
            f"postings={len(self._postings_arr)}, layout=csr)"
        )


class DynamicPostings:
    """A mutable ScanCount index: CSR snapshot + delta dict + tombstones.

    Sets are addressed by caller-assigned *slots* (monotonic, never
    reused).  New sets land in a plain token -> postings dict (the
    *delta*); removals only tombstone (the slot disappears from the live
    map, its postings stay physically present).  When the dead plus delta
    postings outgrow ``compaction_ratio`` times the live postings, the
    structure lazily compacts: the live sets are rebuilt into one
    :class:`ScanCountIndex` snapshot and the delta and tombstones are
    purged.

    A query merges the snapshot's :meth:`ScanCountIndex.probe` counts
    with the delta postings counted by offset from the watermark, and
    masks tombstoned slots from both against the sorted live slots; the
    two parts are disjoint by construction (a slot lives in the snapshot
    *or* the delta, never both).  ``add``/``remove`` keep the live slots
    and their sizes current, so a query never walks the live set in
    Python: its cost is the postings it touches.
    """

    def __init__(self, compaction_ratio: float = 0.5) -> None:
        if compaction_ratio <= 0.0:
            raise ValueError(
                f"compaction_ratio must be positive, got {compaction_ratio}"
            )
        self.compaction_ratio = compaction_ratio
        self.compactions = 0
        self._csr: Optional[ScanCountIndex] = None
        self._csr_slots = np.zeros(0, dtype=np.int64)  # CSR set id -> slot
        self._watermark = 0  # slots below this live in the CSR snapshot
        self._high_water = 0  # strictly above every slot ever added
        self._delta: Dict[str, List[int]] = {}
        self._delta_postings = 0
        self._dead_postings = 0
        self._live: Dict[int, FrozenSet[str]] = {}
        self._live_postings = 0
        # Live slots (ascending) and their sizes in the first len(_live)
        # entries of two capacity-doubling buffers, updated on every
        # add/remove: the vectorized liveness mask of the query path.
        self._slot_buffer = np.zeros(0, dtype=np.int64)
        self._size_buffer = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._live)

    def size_of(self, slot: int) -> int:
        """Cardinality of the live set at ``slot``."""
        return len(self._live[slot])

    def add(self, slot: int, tokens: FrozenSet[str]) -> None:
        """Insert ``tokens`` under ``slot`` (slots must be fresh, ascending).

        Reuse is rejected outright: a tombstoned slot's postings may still
        sit in the delta lists (masked only by liveness), so re-adding the
        slot would resurrect them.
        """
        if slot < self._high_water:
            raise ValueError(f"slot {slot} was already used")
        self._high_water = slot + 1
        count = len(self._live)
        if count == len(self._slot_buffer):
            # Double the capacity, so a bulk load stays linear.
            spare = np.empty(max(16, count), dtype=np.int64)
            self._slot_buffer = np.concatenate((self._slot_buffer, spare))
            self._size_buffer = np.concatenate((self._size_buffer, spare))
        # Slots ascend, so appending keeps the live slots sorted.
        self._slot_buffer[count] = slot
        self._size_buffer[count] = len(tokens)
        self._live[slot] = tokens
        self._live_postings += len(tokens)
        for token in tokens:
            self._delta.setdefault(token, []).append(slot)
        self._delta_postings += len(tokens)
        self._maybe_compact()

    def remove(self, slot: int) -> None:
        """Tombstone ``slot`` (``KeyError`` when not live)."""
        tokens = self._live.pop(slot)
        count = len(self._live)
        position = int(np.searchsorted(self._slot_buffer[: count + 1], slot))
        for buffer in (self._slot_buffer, self._size_buffer):
            buffer[position:count] = buffer[position + 1 : count + 1]
        self._live_postings -= len(tokens)
        self._dead_postings += len(tokens)
        self._maybe_compact()

    def _live_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted live slots and their set sizes (views, current on write)."""
        count = len(self._live)
        return self._slot_buffer[:count], self._size_buffer[:count]

    def overlap_arrays(
        self, query: FrozenSet[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact overlaps of ``query`` with every live set, as flat arrays.

        Returns ``(slots, overlaps, sizes)`` — overlapping live slots (in
        unspecified but deterministic order), their token overlap with the
        query, and their set cardinalities.  This is the vectorized
        serving-path kernel: the CSR snapshot contributes through
        :meth:`ScanCountIndex.probe`, the delta dict through one
        ``np.bincount`` of its slots' offsets from the watermark, and
        tombstones are masked with a single ``searchsorted`` against the
        sorted live slots.  The two contributions are disjoint by
        construction (a slot lives in the snapshot *or* the delta, never
        both).
        """
        if not self._live:
            return _EMPTY, _EMPTY, _EMPTY
        set_ids = csr_counts = _EMPTY
        if self._csr is not None:
            set_ids, csr_counts = self._csr.probe(query)
        return self._merge_live(query, set_ids, csr_counts)

    def batch_overlap_arrays(
        self, queries: Sequence[FrozenSet[str]]
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-query :meth:`overlap_arrays`, batched through the CSR kernels.

        The snapshot contribution of the *whole* probe batch runs as one
        :meth:`ScanCountIndex.batch_overlaps` call (the chunked
        ``materialize`` kernel of :mod:`repro.sparse.kernels`), so the
        per-query Python overhead collapses to the delta merge and the
        liveness mask.  Row-for-row equal to calling
        :meth:`overlap_arrays` per query.
        """
        if not self._live:
            return [(_EMPTY, _EMPTY, _EMPTY) for __ in queries]
        if self._csr is not None and len(self._csr):
            query_ptr, set_ids, csr_counts = self._csr.batch_overlaps(
                list(queries)
            )
        else:
            query_ptr = np.zeros(len(queries) + 1, dtype=np.int64)
            set_ids = csr_counts = _EMPTY
        bounds = query_ptr.tolist()
        return [
            self._merge_live(
                query,
                set_ids[bounds[position] : bounds[position + 1]],
                csr_counts[bounds[position] : bounds[position + 1]],
            )
            for position, query in enumerate(queries)
        ]

    def _merge_live(
        self,
        query: FrozenSet[str],
        set_ids: np.ndarray,
        csr_counts: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One query's live ``(slots, overlaps, sizes)``: the merge step.

        ``(set_ids, csr_counts)`` are the query's CSR snapshot overlaps;
        the delta postings are counted with one ``np.bincount`` of their
        offsets from the watermark (every delta slot is at or above it)
        and tombstoned slots are masked out of both parts.
        """
        live_slots, live_sizes = self._live_index()
        slot_parts: List[np.ndarray] = []
        count_parts: List[np.ndarray] = []
        if len(set_ids):
            slot_parts.append(self._csr_slots[set_ids])
            count_parts.append(csr_counts)
        delta = self._delta
        delta_lists = [delta[token] for token in query if token in delta]
        if delta_lists:
            merged = np.fromiter(
                chain.from_iterable(delta_lists), dtype=np.int64
            )
            merged -= self._watermark
            dense = np.bincount(merged)
            offsets = np.flatnonzero(dense)
            slot_parts.append(offsets + self._watermark)
            count_parts.append(dense[offsets])
        if not slot_parts:
            return _EMPTY, _EMPTY, _EMPTY
        slots = np.concatenate(slot_parts)
        overlaps = np.concatenate(count_parts)
        positions = np.searchsorted(live_slots, slots)
        positions = np.minimum(positions, len(live_slots) - 1)
        alive = live_slots[positions] == slots
        positions = positions[alive]
        return slots[alive], overlaps[alive], live_sizes[positions]

    def stats(self) -> Dict[str, int]:
        """Structural gauges: live/delta/dead postings and compactions."""
        return {
            "live_postings": self._live_postings,
            "delta_postings": self._delta_postings,
            "dead_postings": self._dead_postings,
            "compactions": self.compactions,
            "csr_sets": len(self._csr) if self._csr is not None else 0,
        }

    # ------------------------------------------------------------------
    # Lazy compaction.
    # ------------------------------------------------------------------

    def _maybe_compact(self) -> None:
        stale = self._dead_postings + self._delta_postings
        if stale <= max(64, self.compaction_ratio * self._live_postings):
            return
        self.compact()

    def compact(self) -> None:
        """Rebuild the CSR snapshot from the live sets; purge everything else."""
        slots = sorted(self._live)
        self._csr = ScanCountIndex([self._live[slot] for slot in slots])
        self._csr_slots = np.asarray(slots, dtype=np.int64)
        self._watermark = slots[-1] + 1 if slots else self._watermark
        self._delta = {}
        self._delta_postings = 0
        self._dead_postings = 0
        self.compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicPostings(live={len(self)}, "
            f"delta={self._delta_postings}, dead={self._dead_postings}, "
            f"compactions={self.compactions})"
        )


def _check_mode(threshold: Optional[float], k: Optional[int]) -> None:
    """Reject an out-of-range ε or k (constructor and per-call overrides)."""
    if threshold is not None and not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if k is not None and k < 1:
        raise ValueError(f"k must be positive, got {k}")


class IncrementalScanCountFilter(IncrementalIndex):
    """Streaming set-similarity filter over :class:`DynamicPostings`.

    The serving form of the sparse NN family: ``add``/``remove`` maintain
    the mutable postings, ``query`` answers either a range join
    (``threshold`` — similarity >= ε, the :class:`EpsilonJoin` semantics)
    or a cardinality join (``k`` — the k highest *distinct* similarity
    values with ties kept, the :class:`KNNJoin` semantics).  Exactly one
    of ``threshold``/``k`` configures the default mode; per-call
    ``query(entity, eps=...)`` / ``query(entity, k=...)`` overrides it.
    """

    name = "inc-scancount"

    def __init__(
        self,
        threshold: Optional[float] = None,
        k: Optional[int] = None,
        model: str = "T1G",
        measure: str = "cosine",
        cleaning: bool = False,
        attribute: Optional[str] = None,
        compaction_ratio: float = 0.5,
    ) -> None:
        if (threshold is None) == (k is None):
            raise ValueError("configure exactly one of threshold (ε) or k")
        _check_mode(threshold, k)
        super().__init__(attribute=attribute)
        self.threshold = threshold
        self.k = k
        self.model = RepresentationModel(model)
        self.measure_name = measure.lower()
        self.vector_measure = vector_similarity_function(measure)
        self.cleaning = cleaning
        self._cleaner = TextCleaner()
        self._postings = DynamicPostings(compaction_ratio)

    def _tokens(self, profile: EntityProfile) -> FrozenSet[str]:
        text = self.text_of(profile)
        if self.cleaning:
            text = self._cleaner.clean(text)
        return self.model.tokens(text)

    def _add(self, slot: int, profile: EntityProfile) -> None:
        self._postings.add(slot, self._tokens(profile))

    def _remove(self, slot: int, profile: EntityProfile) -> None:
        self._postings.remove(slot)

    def _mode(
        self, eps: Optional[float], k: Optional[int]
    ) -> Tuple[Optional[float], Optional[int]]:
        if eps is not None and k is not None:
            raise ValueError("pass at most one of eps / k per query")
        if eps is None and k is None:
            return self.threshold, self.k
        _check_mode(eps, k)
        return eps, k

    def _select(
        self,
        query_size: int,
        slots: np.ndarray,
        overlaps: np.ndarray,
        sizes: np.ndarray,
        eps: Optional[float],
        k: Optional[int],
    ) -> List[int]:
        """Apply the ε / kNN selection rule to one query's overlap rows."""
        if len(slots) == 0:
            return []
        query_sizes = np.full(len(slots), query_size, dtype=np.int64)
        similarities = self.vector_measure(sizes, query_sizes, overlaps)
        if eps is not None:
            keep = similarities >= float(eps)
        else:
            # The kNN-Join tie rule: keep every set whose similarity is
            # among the k highest *distinct* values.
            keep = similarities >= kth_distinct_cutoff(similarities, int(k))
        return slots[keep].tolist()

    def _query(
        self,
        profile: EntityProfile,
        eps: Optional[float] = None,
        k: Optional[int] = None,
    ) -> Iterable[int]:
        eps, k = self._mode(eps, k)
        tokens = self._tokens(profile)
        slots, overlaps, sizes = self._postings.overlap_arrays(tokens)
        return self._select(len(tokens), slots, overlaps, sizes, eps, k)

    def _query_many_results(
        self,
        entities: Sequence[EntityProfile],
        eps: Optional[float] = None,
        k: Optional[int] = None,
    ) -> List[Tuple[str, ...]]:
        """Batched query path: one chunked-CSR kernel pass for the batch.

        Parity with per-call :meth:`_query` is pinned by the test suite;
        the speedup comes from amortizing the snapshot scan
        (:meth:`DynamicPostings.batch_overlap_arrays`) over the batch.
        """
        eps, k = self._mode(eps, k)
        token_sets = [self._tokens(profile) for profile in entities]
        per_query = self._postings.batch_overlap_arrays(token_sets)
        results: List[Tuple[str, ...]] = []
        for tokens, (slots, overlaps, sizes) in zip(token_sets, per_query):
            selected = self._select(
                len(tokens), slots, overlaps, sizes, eps, k
            )
            results.append(
                tuple(
                    sorted(
                        self._profile_of_slot[slot].uid for slot in selected
                    )
                )
            )
        return results

    def compact(self) -> bool:
        """Force a postings compaction (CSR snapshot rebuild)."""
        self._postings.compact()
        return True

    def index_stats(self) -> Dict[str, object]:
        stats = super().index_stats()
        stats.update(self._postings.stats())
        return stats

    def describe(self) -> str:
        mode = (
            f"eps={self.threshold:.2f}"
            if self.threshold is not None
            else f"k={self.k}"
        )
        flags = " [clean]" if self.cleaning else ""
        return (
            f"{self.name}({self.model.code},{self.measure_name},{mode})"
            f"{flags}"
        )
