"""Data series behind the paper's figures.

* Figure 3 — per-dataset attribute coverage, vocabulary size and overall
  character length across schema settings and cleaning.
* Figures 4-6 — distributions of the ranking position of duplicate pairs
  under a syntactic representation (multiset character 5-grams + cosine,
  the DkNN configuration) versus a semantic one (embeddings + Euclidean
  distance on the brute-force index), for both query directions and both
  schema settings.

The renderers return plain data structures plus an ASCII rendition, so
benchmark output can be inspected without plotting libraries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.generator import ERDataset
from ..datasets.registry import load_dataset
from ..datasets.stats import select_best_attribute, text_volume
from ..dense.embeddings import HashedNGramEmbedder
from ..dense.flat_index import FlatIndex
from ..sparse.base import batch_similarities
from ..sparse.scancount import ScanCountIndex
from ..text.memo import tokenize_collection

__all__ = [
    "figure03_dataset_stats",
    "duplicate_rank_distribution",
    "rank_histogram",
    "figure04_06_series",
]


def figure03_dataset_stats(dataset_names: Sequence[str]) -> str:
    """Figure 3's three panels as one ASCII table."""
    lines = [
        "Figure 3 - coverage / vocabulary / character length",
        f"{'':5s} {'attr':8s} {'cov':>6s} {'gtcov':>6s} "
        f"{'voc_a':>7s} {'voc_a+cl':>8s} {'voc_b':>7s} {'voc_b+cl':>8s} "
        f"{'chr_a':>8s} {'chr_a+cl':>8s} {'chr_b':>8s} {'chr_b+cl':>8s}",
    ]
    for name in dataset_names:
        ds = load_dataset(name)
        attribute = select_best_attribute(ds)
        total = len(ds.left) + len(ds.right)
        covered = sum(
            1
            for collection in (ds.left, ds.right)
            for profile in collection
            if profile.has_value(attribute)
        )
        volume = text_volume(ds, attribute)
        lines.append(
            f"{name:5s} {attribute:8s} {covered / total:6.2f} "
            f"{ds.groundtruth_coverage(attribute):6.2f} "
            f"{volume.vocabulary_agnostic:7d} "
            f"{volume.vocabulary_agnostic_clean:8d} "
            f"{volume.vocabulary_based:7d} "
            f"{volume.vocabulary_based_clean:8d} "
            f"{volume.characters_agnostic:8d} "
            f"{volume.characters_agnostic_clean:8d} "
            f"{volume.characters_based:8d} "
            f"{volume.characters_based_clean:8d}"
        )
    return "\n".join(lines)


def duplicate_rank_distribution(
    dataset: ERDataset,
    representation: str,
    attribute: Optional[str] = None,
    reverse: bool = False,
    max_rank: int = 200,
) -> List[int]:
    """Rank of each duplicate's true match in its query's candidate list.

    ``representation`` is ``"syntactic"`` (C5GM + cosine similarity via
    ScanCount) or ``"semantic"`` (hashed-n-gram embeddings + Euclidean
    distance via the flat index).  Rank 0 means the duplicate tops the
    list; duplicates ranked beyond ``max_rank`` (or absent entirely, for
    the syntactic case with zero overlap) are reported as ``max_rank``.
    """
    if representation not in ("syntactic", "semantic"):
        raise ValueError(f"unknown representation {representation!r}")
    if reverse:
        indexed_texts = dataset.right.texts(attribute)
        query_texts = dataset.left.texts(attribute)
        pairs = [(j, i) for i, j in dataset.groundtruth]
    else:
        indexed_texts = dataset.left.texts(attribute)
        query_texts = dataset.right.texts(attribute)
        pairs = list(dataset.groundtruth)
    by_query: Dict[int, List[int]] = {}
    for indexed_id, query_id in pairs:
        by_query.setdefault(query_id, []).append(indexed_id)

    ranks: List[int] = []
    if representation == "syntactic":
        indexed_sets = tokenize_collection(indexed_texts, "C5GM", True)
        query_sets = tokenize_collection(query_texts, "C5GM", True)
        index = ScanCountIndex(indexed_sets)
        query_order = list(by_query)
        queries = [query_sets[query_id] for query_id in query_order]
        query_ptr, set_ids, counts = index.batch_overlaps(queries)
        similarities = batch_similarities(
            index, queries, query_ptr, set_ids, counts, "cosine"
        )
        for position, query_id in enumerate(query_order):
            start, stop = query_ptr[position], query_ptr[position + 1]
            ids_slice = set_ids[start:stop]
            sims_slice = similarities[start:stop]
            for match in by_query[query_id]:
                # Rank under the (-similarity, id) sort without sorting:
                # strictly-better rows plus equal-similarity rows with a
                # smaller id.  Set ids are ascending within a slice.
                row = int(np.searchsorted(ids_slice, match))
                if row == len(ids_slice) or ids_slice[row] != match:
                    ranks.append(max_rank)
                    continue
                better = int(np.count_nonzero(sims_slice > sims_slice[row]))
                tied = int(
                    np.count_nonzero(
                        (sims_slice == sims_slice[row]) & (ids_slice < match)
                    )
                )
                ranks.append(min(better + tied, max_rank))
    else:
        embedder = HashedNGramEmbedder()
        indexed_vectors = embedder.embed_texts(indexed_texts)
        query_vectors = embedder.embed_texts(query_texts)
        index = FlatIndex(indexed_vectors, metric="l2")
        k = min(max_rank, len(indexed_vectors))
        query_ids = sorted(by_query)
        ids, __ = index.search(query_vectors[query_ids], k)
        for row, query_id in zip(ids, query_ids):
            position = {int(i): rank for rank, i in enumerate(row)}
            for match in by_query[query_id]:
                ranks.append(min(position.get(match, max_rank), max_rank))
    return ranks


def rank_histogram(
    ranks: Sequence[int], bins: Sequence[int] = (1, 2, 5, 10, 25, 50, 100, 200)
) -> List[Tuple[str, int]]:
    """Histogram of rank positions over logarithmic-ish bins."""
    edges = [0] + list(bins)
    labels = []
    counts = []
    array = np.asarray(list(ranks))
    for low, high in zip(edges[:-1], edges[1:]):
        labels.append(f"[{low},{high})")
        counts.append(int(np.sum((array >= low) & (array < high))))
    labels.append(f">={edges[-1]}")
    counts.append(int(np.sum(array >= edges[-1])))
    return list(zip(labels, counts))


@dataclass(frozen=True)
class RankSeries:
    """One curve of Figures 4-6."""

    dataset: str
    setting: str  # "a" or "b"
    reverse: bool
    representation: str
    histogram: List[Tuple[str, int]]
    top1_fraction: float


def figure04_06_series(
    dataset_names: Sequence[str],
    settings: Sequence[str] = ("a",),
    reverses: Sequence[bool] = (False,),
) -> List[RankSeries]:
    """All requested rank-distribution curves (Figures 4, 5 and 6)."""
    series = []
    for name in dataset_names:
        dataset = load_dataset(name)
        for setting in settings:
            attribute = dataset.key_attribute if setting == "b" else None
            for reverse in reverses:
                for representation in ("syntactic", "semantic"):
                    ranks = duplicate_rank_distribution(
                        dataset, representation, attribute, reverse
                    )
                    top1 = (
                        sum(1 for r in ranks if r == 0) / len(ranks)
                        if ranks
                        else 0.0
                    )
                    series.append(
                        RankSeries(
                            dataset=name,
                            setting=setting,
                            reverse=reverse,
                            representation=representation,
                            histogram=rank_histogram(ranks),
                            top1_fraction=top1,
                        )
                    )
    return series
