"""Chunked, candidate-masked ScanCount counting kernels.

The CSR ScanCount rewrite (PR 2) vectorized the *per-element* work of the
overlap pass but still materialized every overlap row — ``(query, set,
count)`` triples — before any join logic ran.  On ER-shaped data that
intermediate is enormous: the 5k x 5k benchmark corpus produces ~19M
overlap rows (76% of all pairs share a token), so the batch was memory-
bound on an array nobody needed in full.  This module replaces that
design with one *counting kernel* and several *consumers* that reduce
each query's dense count vector in place, so the flat row universe is
never materialized unless a caller explicitly asks for it:

``count``
    Overlapping-set cardinality per query (the full-scan benchmark row).
``epsilon``
    The range join: per distinct query size, the similarities of the
    ``(set size, overlap)`` classes give every set size its *exact*
    minimum overlap (each measure is non-decreasing in the overlap), so
    a query's answer is the mask ``counts >= required`` — no similarity
    is computed per set.
``knn``
    The cardinality join: per distinct query size, the classes get
    dense ranks by distinct similarity; a query maps its counts onto
    class ranks, one ``np.bincount`` of those finds its k-th best rank
    present, and every set at or above it survives — the paper's tie
    rule without scoring or ranking a single set.
``materialize``
    The historical ``batch_overlaps`` CSR triple, for callers that need
    every overlap count: the sparse tuners fill their dense
    ``(queries x sets)`` count matrix from it.

All kernels operate on plain arrays — the index's CSR triple
``(token_ptr, postings, sizes)`` plus a query-token CSR
(:func:`query_tokens`) — never on index *objects*, so the exact same
code runs in-process and inside :mod:`repro.core.parallel` workers over
``multiprocessing.shared_memory`` views.  Every consumer is
deterministic and shard-oblivious: running queries ``[lo, hi)`` yields
the identical rows the full run would produce for those queries, which
is what makes the parallel merge byte-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Dict, FrozenSet, List, Mapping, Sequence, Tuple

import numpy as np

from .similarity import vector_similarity_function

__all__ = [
    "QueryTokens",
    "query_tokens",
    "count_overlaps_kernel",
    "materialize_kernel",
    "epsilon_kernel",
    "knn_kernel",
    "kth_distinct_cutoff",
    "run_consumer",
    "CONSUMERS",
]

@dataclass(frozen=True)
class QueryTokens:
    """CSR view of a query batch: token ids per query, plus true sizes.

    ``ptr``/``token_ids`` delimit each query's in-vocabulary token ids
    (ascending within a query); ``sizes`` is the *true* token-set
    cardinality including out-of-vocabulary tokens, which is what the
    similarity measures are defined over.
    """

    ptr: np.ndarray  # int64, len == num_queries + 1
    token_ids: np.ndarray  # int64, flat
    sizes: np.ndarray  # int64, len == num_queries

    def __len__(self) -> int:
        return len(self.sizes)

    def as_arrays(self) -> Dict[str, np.ndarray]:
        """The triple as a named-array dict (shared-memory publishing)."""
        return {
            "qt_ptr": self.ptr,
            "qt_ids": self.token_ids,
            "qt_sizes": self.sizes,
        }


def query_tokens(
    vocabulary: Mapping[str, int], queries: Sequence[FrozenSet[str]]
) -> QueryTokens:
    """Map a query batch onto the index vocabulary, once.

    One C-level pass looks every query token up (``-1`` for misses), the
    misses are dropped, and one in-place sort of the packed
    ``(query << 32) | id`` key orders the ids within each query — the
    same construction :class:`ScanCountIndex` builds its postings with.
    The result is a picklable/shareable array triple rather than Python
    sets.
    """
    lengths = list(map(len, queries))
    sizes = np.array(lengths, dtype=np.int64)
    ids = np.fromiter(
        map(vocabulary.get, chain.from_iterable(queries), repeat(-1)),
        dtype=np.int64,
        count=sum(lengths),
    )
    # Query q's packed keys live in [bases[q], bases[q + 1]).
    bases = np.arange(
        0, (len(queries) + 1) << 32, 1 << 32, dtype=np.int64
    )
    keys = np.repeat(bases[:-1], sizes)
    keys |= ids
    keys = keys[ids >= 0]
    keys.sort()
    ptr = np.searchsorted(keys, bases)
    keys &= 0xFFFFFFFF
    return QueryTokens(ptr=ptr, token_ids=keys, sizes=sizes)


# ----------------------------------------------------------------------
# The shared counting loop.
# ----------------------------------------------------------------------
#
# Every consumer walks the same structure: for each query, gather its
# posting slices and (for multi-token queries) count them with one
# ``np.bincount`` over the touched slots.  Single-token queries skip the
# count entirely — a posting slice *is* the sorted list of overlapping
# sets, all with overlap 1.  Slice bounds are pre-resolved to Python
# ints (``tolist``) so the hot loop never pays NumPy scalar-indexing
# overhead.


def _slice_bounds(
    token_ptr: np.ndarray,
    qt_ptr: np.ndarray,
    qt_ids: np.ndarray,
    lo: int,
    hi: int,
) -> Tuple[List[int], List[int], List[int], int]:
    """Posting-slice bounds of queries ``[lo, hi)`` as Python ints."""
    tlo = int(qt_ptr[lo])
    thi = int(qt_ptr[hi])
    ids = qt_ids[tlo:thi]
    starts = token_ptr[ids].tolist()
    ends = token_ptr[ids + 1].tolist()
    qptr = (qt_ptr[lo : hi + 1] - tlo).tolist()
    return starts, ends, qptr, thi - tlo


def count_overlaps_kernel(
    token_ptr: np.ndarray,
    postings: np.ndarray,
    sizes: np.ndarray,
    qt_ptr: np.ndarray,
    qt_ids: np.ndarray,
    qt_sizes: np.ndarray,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Number of overlapping indexed sets per query in ``[lo, hi)``.

    The counting-only consumer: no row ids, no counts, no output arrays
    beyond one integer per query.
    """
    num_sets = len(sizes)
    out = np.zeros(hi - lo, dtype=np.int64)
    if num_sets == 0:
        return out
    starts, ends, qptr, _total = _slice_bounds(token_ptr, qt_ptr, qt_ids, lo, hi)
    bincount = np.bincount
    count_nonzero = np.count_nonzero
    concatenate = np.concatenate
    for position in range(hi - lo):
        a, b = qptr[position], qptr[position + 1]
        if a == b:
            continue
        if b - a == 1:
            out[position] = ends[a] - starts[a]
            continue
        merged = concatenate(
            [postings[starts[t] : ends[t]] for t in range(a, b)]
        )
        out[position] = count_nonzero(bincount(merged, minlength=num_sets))
    return out


def materialize_kernel(
    token_ptr: np.ndarray,
    postings: np.ndarray,
    sizes: np.ndarray,
    qt_ptr: np.ndarray,
    qt_ids: np.ndarray,
    qt_sizes: np.ndarray,
    lo: int,
    hi: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full CSR overlap triple for queries ``[lo, hi)``.

    Byte-compatible with the historical ``batch_overlaps`` output
    (int64 ``(query_ptr, set_ids, counts)``, set ids ascending within a
    query); ``query_ptr`` is local to the range.
    """
    num_sets = len(sizes)
    lengths = np.zeros(hi - lo, dtype=np.int64)
    id_parts: List[np.ndarray] = []
    count_parts: List[np.ndarray] = []
    if num_sets:
        starts, ends, qptr, _t = _slice_bounds(token_ptr, qt_ptr, qt_ids, lo, hi)
        bincount = np.bincount
        flatnonzero = np.flatnonzero
        concatenate = np.concatenate
        for position in range(hi - lo):
            a, b = qptr[position], qptr[position + 1]
            if a == b:
                continue
            if b - a == 1:
                ids = postings[starts[a] : ends[a]].astype(np.int64)
                counts = np.ones(len(ids), dtype=np.int64)
            else:
                merged = concatenate(
                    [postings[starts[t] : ends[t]] for t in range(a, b)]
                )
                dense = bincount(merged, minlength=num_sets)
                ids = flatnonzero(dense)
                counts = dense[ids]
            lengths[position] = len(ids)
            id_parts.append(ids)
            count_parts.append(counts)
    query_ptr = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(lengths))
    )
    if id_parts:
        return query_ptr, np.concatenate(id_parts), np.concatenate(count_parts)
    return (
        query_ptr,
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Join consumers: scoring (set size, overlap) classes.
# ----------------------------------------------------------------------
#
# A similarity depends on three integers only: the indexed set's size
# ``a``, the query's size ``b`` and their overlap ``c``.  An index holds
# few distinct set sizes, so per distinct query size the join consumers
# score each reachable class ``(a, c)``, ``1 <= c <= min(a, b)``, once
# with the same array measure (the float every set of that class would
# get), and read each query's answer off its count vector through that
# class table.  Every query of a range is walked grouped by size, so one
# table is alive at a time; the parts are emitted in query order.


def _size_groups(
    qt_sizes: np.ndarray, lo: int, hi: int
) -> List[Tuple[int, List[int]]]:
    """``(query size, positions)`` of queries ``[lo, hi)``, sizes ascending.

    Positions are local to the range and ascend within a group.
    """
    local = qt_sizes[lo:hi]
    order = np.argsort(local, kind="stable")
    bounds = np.flatnonzero(np.diff(local[order])) + 1
    return [
        (int(local[group[0]]), group.tolist())
        for group in np.split(order, bounds)
    ]


def _scored_classes(
    distinct: np.ndarray, query_size: int, vector_measure: Callable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reachable classes of one query size, and their similarities.

    Returns ``(rank, overlap, similarity)``: class ``i`` is the sets of
    size ``distinct[rank[i]]`` overlapping the query on ``overlap[i]``
    tokens.  Classes ascend by size rank, then overlap.
    """
    reach = np.minimum(distinct, query_size)
    rank = np.repeat(np.arange(len(distinct), dtype=np.int64), reach)
    first = np.cumsum(reach) - reach
    overlap = np.arange(1, len(rank) + 1, dtype=np.int64) - first[rank]
    similarity = vector_measure(
        distinct[rank],
        np.full(len(rank), query_size, dtype=np.int64),
        overlap,
    )
    return rank, overlap, similarity


def _emit(
    parts: List[np.ndarray], lo: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-query set-id parts (query order) as global ``(query, set)``."""
    lengths = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
    query_ids = np.repeat(
        np.arange(lo, lo + len(parts), dtype=np.int64), lengths
    )
    return query_ids, np.concatenate(parts)


def epsilon_kernel(
    token_ptr: np.ndarray,
    postings: np.ndarray,
    sizes: np.ndarray,
    qt_ptr: np.ndarray,
    qt_ids: np.ndarray,
    qt_sizes: np.ndarray,
    lo: int,
    hi: int,
    threshold: float,
    measure: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Range-join pairs ``(query_id, set_id)`` for queries ``[lo, hi)``.

    Every measure is non-decreasing in the overlap for fixed sizes, so
    per query size the classes give each set size its exact minimum
    overlap (``min(a, b) + 1`` when none qualifies), and a query keeps
    the sets whose count reaches it — no similarity is computed per
    set.  Query ids are global (``lo`` offset applied); set ids ascend
    within a query.  The selected pair set is identical to filtering
    the materialized rows with ``similarity >= threshold``.
    """
    num_sets = len(sizes)
    empty = np.zeros(0, dtype=np.int64)
    if num_sets == 0 or hi <= lo:
        return empty, empty
    vector_measure = vector_similarity_function(measure)
    distinct, size_rank = np.unique(sizes, return_inverse=True)
    starts, ends, qptr, _t = _slice_bounds(token_ptr, qt_ptr, qt_ids, lo, hi)
    parts: List[np.ndarray] = [empty] * (hi - lo)
    bincount = np.bincount
    concatenate = np.concatenate
    for query_size, positions in _size_groups(qt_sizes, lo, hi):
        rank, _overlap, similarity = _scored_classes(
            distinct, query_size, vector_measure
        )
        # Classes below the threshold form a prefix of each size's
        # overlaps, so their number is the minimum overlap minus one.
        below = bincount(rank[similarity < threshold], minlength=len(distinct))
        required = (below + 1)[size_rank]
        for position in positions:
            a, b = qptr[position], qptr[position + 1]
            if a == b:
                continue
            if b - a == 1:
                candidates = postings[starts[a] : ends[a]].astype(np.int64)
                parts[position] = candidates[required[candidates] <= 1]
            else:
                merged = concatenate(
                    [postings[starts[t] : ends[t]] for t in range(a, b)]
                )
                dense = bincount(merged, minlength=num_sets)
                parts[position] = (dense >= required).nonzero()[0]
    return _emit(parts, lo)


def kth_distinct_cutoff(similarities: np.ndarray, k: int) -> float:
    """The k-th largest *distinct* value of a non-empty array (``k >= 1``).

    When fewer than ``k`` distinct values exist, the smallest value is
    returned.  ``similarities >= cutoff`` is then exactly the paper's
    kNN tie rule: every row among the k highest distinct values, ties
    kept.  ``np.partition`` moves the top ``4k`` values to the tail, and
    when those hold at least ``k`` distinct values the answer is among
    them — every value above the slice minimum is in the slice.  Only
    heavily tied inputs fall back to a full ``np.unique``.
    """
    total = len(similarities)
    head = 4 * k
    if total > head:
        tail = np.partition(similarities, total - head)[total - head :]
        top = np.unique(tail)
        if len(top) >= k:
            return top[-k]
    distinct = np.unique(similarities)
    return distinct[max(0, len(distinct) - k)]


def knn_kernel(
    token_ptr: np.ndarray,
    postings: np.ndarray,
    sizes: np.ndarray,
    qt_ptr: np.ndarray,
    qt_ids: np.ndarray,
    qt_sizes: np.ndarray,
    lo: int,
    hi: int,
    k: int,
    measure: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """kNN-join pairs ``(query_id, set_id)`` for queries ``[lo, hi)``.

    Per query size, the reachable classes get dense ranks by distinct
    similarity (rank 0 the highest; every overlap-0 class shares the
    sentinel rank past the last).  A query maps its count vector onto
    class ranks, finds the k-th smallest rank present among its
    overlapping sets, and keeps every set at or below it — the paper's
    tie rule exactly, with no similarity computed per set.  Query ids
    are global (``lo`` offset applied); set ids ascend within a query.
    """
    num_sets = len(sizes)
    empty = np.zeros(0, dtype=np.int64)
    if num_sets == 0 or hi <= lo:
        return empty, empty
    vector_measure = vector_similarity_function(measure)
    distinct, size_rank = np.unique(sizes, return_inverse=True)
    # Class (a, c) lives at offsets[rank of a] + c, overlaps 0..a.
    offsets = np.cumsum(distinct + 1) - (distinct + 1)
    set_offset = offsets[size_rank]
    class_rank = np.empty(int(distinct.sum()) + len(distinct), dtype=np.int64)
    starts, ends, qptr, _t = _slice_bounds(token_ptr, qt_ptr, qt_ids, lo, hi)
    parts: List[np.ndarray] = [empty] * (hi - lo)
    bincount = np.bincount
    concatenate = np.concatenate
    for query_size, positions in _size_groups(qt_sizes, lo, hi):
        rank, overlap, similarity = _scored_classes(
            distinct, query_size, vector_measure
        )
        values, inverse = np.unique(similarity, return_inverse=True)
        sentinel = len(values)
        class_rank[offsets] = sentinel
        class_rank[offsets[rank] + overlap] = sentinel - 1 - inverse
        for position in positions:
            a, b = qptr[position], qptr[position + 1]
            if a == b:
                continue
            if b - a == 1:
                candidates = postings[starts[a] : ends[a]].astype(np.int64)
                ranks = class_rank[set_offset[candidates] + 1]
            else:
                merged = concatenate(
                    [postings[starts[t] : ends[t]] for t in range(a, b)]
                )
                dense = bincount(merged, minlength=num_sets)
                dense += set_offset
                ranks = class_rank.take(dense)
                candidates = None
            present = bincount(ranks, minlength=sentinel + 1)[:-1].nonzero()[0]
            if len(present) == 0:
                continue
            keep = ranks <= present[min(k, len(present)) - 1]
            parts[position] = (
                keep.nonzero()[0] if candidates is None else candidates[keep]
            )
    return _emit(parts, lo)


# ----------------------------------------------------------------------
# Worker dispatch.
# ----------------------------------------------------------------------

#: Consumer name -> kernel.  The parallel layer addresses kernels by
#: name (strings survive pickling under every start method); each kernel
#: receives the shared arrays plus its query range and keyword params.
CONSUMERS: Dict[str, Callable] = {
    "count": count_overlaps_kernel,
    "materialize": materialize_kernel,
    "epsilon": epsilon_kernel,
    "knn": knn_kernel,
}


def run_consumer(
    arrays: Mapping[str, np.ndarray],
    lo: int,
    hi: int,
    params: Mapping[str, object],
):
    """Entry point executed by parallel workers (and usable in-process).

    ``arrays`` holds the index CSR triple and the query-token CSR under
    their canonical names; ``params`` carries ``consumer`` plus the
    kernel's keyword arguments.  ``_inject_fail`` is a fault-injection
    hook for the crash-cleanup tests: it raises inside the worker after
    attach, exercising the pool's failure path end to end.
    """
    params = dict(params)
    name = str(params.pop("consumer"))
    if params.pop("_inject_fail", False):
        raise RuntimeError(f"injected worker failure in consumer {name!r}")
    kernel = CONSUMERS[name]
    return kernel(
        arrays["token_ptr"],
        arrays["postings"],
        arrays["sizes"],
        arrays["qt_ptr"],
        arrays["qt_ids"],
        arrays["qt_sizes"],
        int(lo),
        int(hi),
        **params,
    )
