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
    The range join: a per-query candidate mask ``counts >= min_overlap``
    (a loose integer bound derived from the similarity threshold — the
    prefix-filter trick transplanted to ScanCount) cuts the rows that
    reach the exact similarity check by orders of magnitude.
``knn``
    The cardinality join: per query, the k-th largest *distinct*
    similarity (:func:`kth_distinct_cutoff`, an ``np.partition`` onto
    the top ``4k`` values) is the cutoff, and every row at or above it
    survives — the paper's tie rule without ranking a single row.
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
    "min_overlap_bounds",
    "run_consumer",
    "CONSUMERS",
]

#: Safety factor applied to the integer overlap bounds: the bound is
#: only a *pre-filter* (an exact similarity check follows), so it is
#: loosened by one part in 1e9 to make float rounding incapable of
#: excluding a row the exact check would keep.
_BOUND_SLACK = 1.0 - 1e-9


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
# Join consumers.
# ----------------------------------------------------------------------


def min_overlap_bounds(
    measure: str, threshold: float, sizes: np.ndarray, query_size: int
) -> np.ndarray:
    """Loose integer lower bound on the overlap a candidate pair needs.

    For every indexed-set size ``a`` in ``sizes`` and a query of size
    ``query_size``, any pair with similarity >= ``threshold`` must have
    overlap >= the returned bound — the ScanCount analogue of the prefix
    filter.  The bound is *necessary, not sufficient*: survivors still
    go through the exact vectorized similarity check, so float rounding
    in the bound can only cost work, never correctness (and the
    ``_BOUND_SLACK`` factor makes even that one-sided).
    """
    a = sizes.astype(np.float64)
    b = float(query_size)
    if measure == "cosine":
        exact = threshold * np.sqrt(a * b)
    elif measure == "dice":
        exact = threshold * (a + b) / 2.0
    elif measure == "jaccard":
        exact = threshold * (a + b) / (1.0 + threshold)
    else:  # pragma: no cover - similarity module validates measures
        raise ValueError(f"unknown measure {measure!r}")
    return np.maximum(1, np.floor(exact * _BOUND_SLACK).astype(np.int64))


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

    Each query's dense count vector is masked with the per-size overlap
    bound before the exact similarity check, so only genuine candidates
    ever leave the counting loop.  Query ids are global (``lo`` offset
    applied).  The selected pair *set* is identical to filtering the
    materialized rows with ``similarity >= threshold``.
    """
    num_sets = len(sizes)
    empty = np.zeros(0, dtype=np.int64)
    if num_sets == 0 or hi <= lo:
        return empty, empty
    vector_measure = vector_similarity_function(measure)
    starts, ends, qptr, _t = _slice_bounds(token_ptr, qt_ptr, qt_ids, lo, hi)
    query_sizes = qt_sizes[lo:hi].tolist()
    bounds_by_size: Dict[int, np.ndarray] = {}
    query_parts: List[np.ndarray] = []
    set_parts: List[np.ndarray] = []
    bincount = np.bincount
    flatnonzero = np.flatnonzero
    concatenate = np.concatenate
    for position in range(hi - lo):
        a, b = qptr[position], qptr[position + 1]
        if a == b:
            continue
        size = query_sizes[position]
        required = bounds_by_size.get(size)
        if required is None:
            required = min_overlap_bounds(measure, threshold, sizes, size)
            bounds_by_size[size] = required
        if b - a == 1:
            candidates = postings[starts[a] : ends[a]].astype(np.int64)
            candidates = candidates[required[candidates] <= 1]
            overlaps = np.ones(len(candidates), dtype=np.int64)
        else:
            merged = concatenate(
                [postings[starts[t] : ends[t]] for t in range(a, b)]
            )
            dense = bincount(merged, minlength=num_sets)
            candidates = flatnonzero(dense >= required)
            overlaps = dense[candidates]
        if len(candidates) == 0:
            continue
        similarities = vector_measure(
            sizes[candidates],
            np.full(len(candidates), size, dtype=np.int64),
            overlaps,
        )
        keep = candidates[similarities >= threshold]
        if len(keep):
            set_parts.append(keep)
            query_parts.append(
                np.full(len(keep), lo + position, dtype=np.int64)
            )
    if not query_parts:
        return empty, empty
    return np.concatenate(query_parts), np.concatenate(set_parts)


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

    One fused pass per query, shaped like :func:`epsilon_kernel`: count,
    score the overlapping sets, and keep those at or above the query's
    :func:`kth_distinct_cutoff`.  No row is ranked, and no rows outlive
    their query.  Query ids are global (``lo`` offset applied); set ids
    ascend within a query.
    """
    num_sets = len(sizes)
    empty = np.zeros(0, dtype=np.int64)
    if num_sets == 0 or hi <= lo:
        return empty, empty
    vector_measure = vector_similarity_function(measure)
    starts, ends, qptr, _t = _slice_bounds(token_ptr, qt_ptr, qt_ids, lo, hi)
    query_sizes = qt_sizes[lo:hi].tolist()
    query_parts: List[np.ndarray] = []
    set_parts: List[np.ndarray] = []
    bincount = np.bincount
    flatnonzero = np.flatnonzero
    concatenate = np.concatenate
    for position in range(hi - lo):
        a, b = qptr[position], qptr[position + 1]
        if a == b:
            continue
        if b - a == 1:
            candidates = postings[starts[a] : ends[a]].astype(np.int64)
            overlaps = np.ones(len(candidates), dtype=np.int64)
        else:
            merged = concatenate(
                [postings[starts[t] : ends[t]] for t in range(a, b)]
            )
            dense = bincount(merged, minlength=num_sets)
            candidates = flatnonzero(dense)
            overlaps = dense[candidates]
        if len(candidates) == 0:
            continue
        similarities = vector_measure(
            sizes[candidates],
            np.full(len(candidates), query_sizes[position], dtype=np.int64),
            overlaps,
        )
        keep = candidates[similarities >= kth_distinct_cutoff(similarities, k)]
        set_parts.append(keep)
        query_parts.append(np.full(len(keep), lo + position, dtype=np.int64))
    if not query_parts:
        return empty, empty
    return np.concatenate(query_parts), np.concatenate(set_parts)


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
