"""Microbenchmark: the chunked CSR ScanCount kernels.

Dependency-free (stdlib + numpy + the repro package): generates a
synthetic Clean-Clean ER dataset, then times

* the CSR inverted-index build,
* the full overlap pass over all queries (the counting-only consumer
  ``ScanCountIndex.count_overlaps``) — repeated per entry of
  ``--workers`` to chart the multicore scaling curve, with the per-query
  counts asserted bit-identical across worker settings,
* complete ε-Join and kNN-Join passes (the threshold-pushdown /
  top-k-distinct cutoff kernels of :mod:`repro.sparse.kernels`),
* the flat-row ε-Join threshold sweep (one vectorized similarity array
  over every materialized overlap row, masked per threshold),
* one public fast-profile ``KNNJoinTuner.tune`` (``knn_tuner_sweep``,
  capped at :data:`TUNER_SWEEP_SIZE` entities per side, token memos
  warmed and the overlap memo cleared so the row times the overlap
  passes and sweeps rather than the text work or memo hits;
  its ``peak_mb`` is the tune's ``tracemalloc`` peak),
* a seeded mixed add/remove/query stream over the incremental ScanCount
  filter (``incremental_mixed_ops`` — the serving path),
* the text substrate: cleaning plus tokenizing both sides over the
  fast-profile (cleaning x model) grid from cold memos
  (``tokenize_grid``; independent of ``--model``, hence its
  ``-fast-grid`` dataset label), and encoding the right side onto the
  index vocabulary (``query_encode``),
* the kNN-Join result as a ``CandidateSet``: built from its fastpairs
  keys by ``keys_to_candidate_set``, then evaluated for PC/PQ against
  the groundtruth (``candidate_set``; its ``bytes_per_pair`` is what
  the set retains per pair under ``tracemalloc``).

Above :data:`MATERIALIZE_LIMIT` entities per side the materializing
sweep and the serving stream are skipped — the pushdown kernels are the
only paths that remain tractable there, which is exactly the claim the
large row exists to document.

Each row is ``{kernel, dataset, workers, wall_s, candidates, runs}``:
``wall_s`` the median over ``--repeats`` runs, ``runs`` how many runs
back it.  ``write_rows`` *aggregates* by (kernel, dataset, workers) —
re-running the bench folds new timings into the existing row via a
run-count-weighted median and rewrites ``BENCH_sparse.json`` atomically,
instead of appending duplicate rows.

Usage::

    PYTHONPATH=src python benchmarks/bench_sparse_kernel.py \
        [--size 5000] [--model T1G] [--repeats 3] [--workers 1,2,4,8] \
        [--out BENCH_sparse.json]
"""

from __future__ import annotations

import argparse
import json
import os
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fastpairs import (
    encode_pairs,
    keys_to_candidate_set,
    unique_keys,
)
from repro.core.groundtruth import GroundTruth
from repro.core.incremental import random_operations
from repro.core.metrics import evaluate_candidates
from repro.datasets.generator import DatasetSpec, ERDataset, generate
from repro.datasets.noise import NoiseProfile
from repro.sparse.base import batch_similarities
from repro.sparse.kernels import query_tokens
from repro.sparse.scancount import IncrementalScanCountFilter, ScanCountIndex
from repro.text.memo import clear_tokenize_cache, tokenize_collection
from repro.text.tokenizers import RepresentationModel
from repro.tuning.sparse import KNNJoinTuner, clear_overlap_cache
from repro.tuning.spaces import representation_models

MEASURES = ("cosine", "jaccard")
#: Tuner-style threshold grid (ascending), used for the sweep benches.
THRESHOLDS = [round(t, 2) for t in np.arange(0.05, 1.0, 0.05)]
#: Entities per side above which the materializing sweep and the serving
#: stream are skipped; the pushdown kernels carry on alone.
MATERIALIZE_LIMIT = 20000
#: Entities per side the ``knn_tuner_sweep`` row is capped at.  The sweep
#: keeps one int32 count matrix per model (4 B per pair) alive across the
#: RVS passes, and the flat-row tuner it replaced held ~48 B per
#: overlapping pair, too much to record beside it at 5k.
TUNER_SWEEP_SIZE = 2000


def timed(function: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


def timed_median(
    function: Callable[[], object], repeats: int
) -> Tuple[float, object, int]:
    """Median wall time over ``repeats`` runs; first run's result."""
    repeats = max(1, int(repeats))
    walls: List[float] = []
    result: object = None
    for attempt in range(repeats):
        wall, value = timed(function)
        walls.append(wall)
        if attempt == 0:
            result = value
    walls.sort()
    middle = len(walls) // 2
    if len(walls) % 2:
        median = walls[middle]
    else:
        median = (walls[middle - 1] + walls[middle]) / 2.0
    return median, result, repeats


def make_dataset(size: int, seed: int) -> ERDataset:
    """The synthetic size x size Clean-Clean benchmark dataset."""
    spec = DatasetSpec(
        name=f"bench-{size}x{size}",
        domain="product",
        size1=size,
        size2=size,
        duplicates=size // 2,
        seed=seed,
        noise1=NoiseProfile(typo_rate=0.08, token_drop_rate=0.08),
        noise2=NoiseProfile(typo_rate=0.12, token_drop_rate=0.08),
    )
    return generate(spec)


def make_token_sets(
    size: int, model: str, seed: int
) -> Tuple[str, List[FrozenSet[str]], List[FrozenSet[str]]]:
    """Token sets of both sides of a generated size x size dataset."""
    dataset = make_dataset(size, seed)
    representation = RepresentationModel(model)
    left = [representation.tokens(t) for t in dataset.left.texts(None)]
    right = [representation.tokens(t) for t in dataset.right.texts(None)]
    return dataset.spec.name, left, right


# ----------------------------------------------------------------------
# CSR kernel paths.
# ----------------------------------------------------------------------


def csr_full_scan(
    index: ScanCountIndex,
    queries: Sequence[FrozenSet[str]],
    workers: int = 1,
) -> np.ndarray:
    """Per-query overlapping-set counts via the counting-only consumer."""
    return index.count_overlaps(queries, workers=workers)


def csr_epsilon_join(
    index: ScanCountIndex,
    queries: Sequence[FrozenSet[str]],
    threshold: float,
    measure: str,
    workers: int = 1,
) -> int:
    """Pair count via the threshold-pushdown epsilon kernel."""
    shards = index.run_kernel(
        "epsilon", queries, workers, threshold=threshold, measure=measure
    )
    return sum(len(shard.value[0]) for shard in shards)


def csr_knn_join(
    index: ScanCountIndex,
    queries: Sequence[FrozenSet[str]],
    k: int,
    measure: str,
    workers: int = 1,
) -> int:
    """Pair count via the per-query top-k-distinct cutoff kNN kernel."""
    shards = index.run_kernel("knn", queries, workers, k=k, measure=measure)
    return sum(len(shard.value[0]) for shard in shards)


def csr_tuner_sweep(
    index: ScanCountIndex, queries: Sequence[FrozenSet[str]]
) -> Dict[str, List[int]]:
    """Candidate counts per (measure, threshold): one similarity array
    per measure over every overlap row, masked per grid point.

    The flat-row form of the ε-Join sweep, on the materializing
    ``batch_overlaps`` kernel.  The tuner itself counts on a dense
    overlap matrix filled from the same triple (``tuning/sparse.py``);
    this row keeps the per-row cost comparable across commits.
    """
    query_ptr, set_ids, overlap_counts = index.batch_overlaps(queries)
    results: Dict[str, List[int]] = {}
    for measure in MEASURES:
        similarities = batch_similarities(
            index, queries, query_ptr, set_ids, overlap_counts, measure
        )
        ordered = np.sort(similarities)
        total = len(ordered)
        results[measure] = [
            int(total - np.searchsorted(ordered, threshold, side="left"))
            for threshold in THRESHOLDS
        ]
    return results


def knn_join_keys(
    index: ScanCountIndex,
    queries: Sequence[FrozenSet[str]],
    k: int,
    measure: str,
    width: int,
) -> np.ndarray:
    """The kNN-Join pairs as sorted unique ``set * width + query`` keys."""
    shards = index.run_kernel("knn", queries, 1, k=k, measure=measure)
    query_ids = np.concatenate([shard.value[0] for shard in shards])
    set_ids = np.concatenate([shard.value[1] for shard in shards])
    return unique_keys(encode_pairs(set_ids, query_ids, width))


def candidate_set_build(
    keys: np.ndarray, width: int, groundtruth: GroundTruth
) -> int:
    """Build the CandidateSet of ``keys`` and evaluate its PC/PQ."""
    candidates = keys_to_candidate_set(keys, width)
    evaluate_candidates(candidates, groundtruth, width, width)
    return len(candidates)


def retained_bytes_per_pair(keys: np.ndarray, width: int) -> float:
    """Bytes the CandidateSet of ``keys`` keeps alive, per pair."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        candidates = keys_to_candidate_set(keys, width)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / max(1, len(candidates))


def knn_tuner_sweep(dataset: ERDataset) -> int:
    """One public fast-profile kNN-Join tune; the winner's |C|.

    The overlap memo is cleared first (the token memos stay warm), so
    every run pays its own overlap passes instead of reading the
    previous run's matrices.
    """
    clear_overlap_cache()
    return KNNJoinTuner(profile="fast").tune(dataset).candidates


def peak_traced_mb(function: Callable[[], object]) -> float:
    """Peak MiB ``tracemalloc`` sees allocated while ``function`` runs."""
    tracemalloc.start()
    try:
        function()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def tokenize_grid(left_texts: Sequence[str], right_texts: Sequence[str]) -> int:
    """Total token count over the fast-profile (cleaning x model) grid.

    The memos are cleared first, so every run pays what one tuning pass
    over a fresh dataset pays.
    """
    clear_tokenize_cache()
    total = 0
    for cleaning in (False, True):
        for model in representation_models("fast"):
            for texts in (left_texts, right_texts):
                sets = tokenize_collection(texts, model, cleaning)
                total += sum(map(len, sets))
    return total


# ----------------------------------------------------------------------
# Harness.
# ----------------------------------------------------------------------


def run_benchmarks(
    size: int,
    model: str = "T1G",
    seed: int = 42,
    repeats: int = 1,
    workers_list: Sequence[int] = (1,),
) -> List[Dict[str, object]]:
    """All kernel timings as BENCH_sparse.json rows (one row per kernel).

    ``repeats`` runs each kernel that many times and records the median;
    ``workers_list`` adds one ``batch_query_csr`` / ``ejoin_csr`` row per
    worker count (per-query results asserted identical across counts).
    The materializing sweep and the serving stream only run up to
    :data:`MATERIALIZE_LIMIT` entities — beyond it their quadratic row
    universe is the very thing the kernels exist to avoid.
    """
    dataset = make_dataset(size, seed)
    representation = RepresentationModel(model)
    left = [representation.tokens(t) for t in dataset.left.texts(None)]
    right = [representation.tokens(t) for t in dataset.right.texts(None)]
    dataset_label = f"{dataset.spec.name}-{model}"
    full = size <= MATERIALIZE_LIMIT
    workers_list = sorted({1, *(int(w) for w in workers_list)})
    rows: List[Dict[str, object]] = []

    def record(
        kernel: str,
        wall_s: float,
        candidates: int,
        runs: int,
        workers: int = 1,
        dataset: str = dataset_label,
        **metrics: float,
    ) -> None:
        rows.append(
            {
                "kernel": kernel,
                "dataset": dataset,
                "workers": int(workers),
                "wall_s": round(wall_s, 6),
                "candidates": int(candidates),
                "runs": int(runs),
                **{name: round(value, 3) for name, value in metrics.items()},
            }
        )

    left_texts = dataset.left.texts(None)
    right_texts = dataset.right.texts(None)
    grid_s, grid_tokens, runs = timed_median(
        lambda: tokenize_grid(left_texts, right_texts), repeats
    )
    clear_tokenize_cache()  # free the memos before the kernel rows
    record(
        "tokenize_grid", grid_s, grid_tokens, runs,
        dataset=f"{dataset.spec.name}-fast-grid",
    )

    build_csr_s, csr, runs = timed_median(
        lambda: ScanCountIndex(left), repeats
    )
    record("index_build_csr", build_csr_s, 0, runs)

    encode_s, encoded, runs = timed_median(
        lambda: query_tokens(csr.vocabulary, right), repeats
    )
    record("query_encode", encode_s, len(encoded.token_ids), runs)

    base_counts: Optional[np.ndarray] = None
    for workers in workers_list:
        scan_csr_s, counts, runs = timed_median(
            lambda workers=workers: csr_full_scan(csr, right, workers),
            repeats,
        )
        if base_counts is None:
            base_counts = counts
        else:
            assert np.array_equal(base_counts, counts), (
                f"per-query counts diverged at workers={workers}"
            )
        record(
            "batch_query_csr", scan_csr_s, int(counts.sum()), runs, workers
        )

    threshold = 0.5
    base_pairs: Optional[int] = None
    for workers in workers_list:
        ejoin_csr_s, csr_pairs, runs = timed_median(
            lambda workers=workers: csr_epsilon_join(
                csr, right, threshold, "cosine", workers
            ),
            repeats,
        )
        if base_pairs is None:
            base_pairs = csr_pairs
        else:
            assert base_pairs == csr_pairs, (
                f"e-join pair counts diverged at workers={workers}"
            )
        record("ejoin_csr", ejoin_csr_s, csr_pairs, runs, workers)

    knn_csr_s, knn_csr_pairs, runs = timed_median(
        lambda: csr_knn_join(csr, right, 5, "cosine"), repeats
    )
    record("knn_csr", knn_csr_s, knn_csr_pairs, runs)

    width = len(dataset.right)
    knn_keys = knn_join_keys(csr, right, 5, "cosine", width)
    set_s, set_pairs, runs = timed_median(
        lambda: candidate_set_build(knn_keys, width, dataset.groundtruth),
        repeats,
    )
    record(
        "candidate_set", set_s, set_pairs, runs,
        bytes_per_pair=retained_bytes_per_pair(knn_keys, width),
    )

    if full:
        sweep_csr_s, sweep_csr, runs = timed_median(
            lambda: csr_tuner_sweep(csr, right), repeats
        )
        record(
            "ejoin_tuner_sweep_csr", sweep_csr_s, sum(sweep_csr["cosine"]), runs
        )

    # Streaming serving path: a seeded mixed add/remove/query stream over
    # the incremental ScanCount filter (same ε-join semantics as above).
    def run_incremental() -> int:
        index = IncrementalScanCountFilter(threshold=threshold, model=model)
        operations = random_operations(
            list(dataset.left),
            np.random.default_rng(seed + 1),
            2 * len(dataset.left),
        )
        matches = 0
        for operation in operations:
            if operation.kind == "add":
                index.add(operation.profile)
            elif operation.kind == "remove":
                index.remove(operation.uid)
            else:
                matches += len(index.query(operation.profile))
        return matches

    if full:
        incremental_s, incremental_matches, runs = timed_median(
            run_incremental, repeats
        )
        record("incremental_mixed_ops", incremental_s, incremental_matches, runs)

    tuner_dataset = (
        dataset
        if size <= TUNER_SWEEP_SIZE
        else make_dataset(TUNER_SWEEP_SIZE, seed)
    )
    tokenize_grid(
        tuner_dataset.left.texts(None), tuner_dataset.right.texts(None)
    )
    sweep_s, sweep_candidates, runs = timed_median(
        lambda: knn_tuner_sweep(tuner_dataset), repeats
    )
    record(
        "knn_tuner_sweep", sweep_s, sweep_candidates, runs,
        dataset=f"{tuner_dataset.spec.name}-fast-grid",
        peak_mb=peak_traced_mb(lambda: knn_tuner_sweep(tuner_dataset)),
    )
    clear_overlap_cache()
    clear_tokenize_cache()

    return rows


# ----------------------------------------------------------------------
# Trajectory file: aggregate repeats, rewrite atomically.
# ----------------------------------------------------------------------


#: Optional per-row metric fields (floats) that ride along with the core
#: schema when present: the estimator bench (``bench_estimator.py``)
#: records its pruned fraction, the serving bench (``bench_serving.py``)
#: its throughput and latency quantiles, the ``candidate_set`` row its
#: retained bytes per pair, the ``knn_tuner_sweep`` row its traced peak
#: MiB; ``qerror`` keeps the recorded q-error rows of the retired
#: estimate mode intact on rewrite.
OPTIONAL_METRICS = (
    "qerror", "pruned_frac", "ops_per_s", "p50_ms", "p99_ms",
    "bytes_per_pair", "peak_mb",
)


def _normalize_row(row: Dict[str, object]) -> Dict[str, object]:
    """Coerce a (possibly old-schema) row to the current field set."""
    normalized = {
        "kernel": str(row["kernel"]),
        "dataset": str(row["dataset"]),
        "workers": int(row.get("workers", 1)),
        "wall_s": float(row["wall_s"]),
        "candidates": int(row["candidates"]),
        "runs": int(row.get("runs", 1)),
    }
    for metric in OPTIONAL_METRICS:
        if row.get(metric) is not None:
            normalized[metric] = float(row[metric])
    return normalized


def _row_key(row: Dict[str, object]) -> Tuple[str, str, int]:
    return (str(row["kernel"]), str(row["dataset"]), int(row["workers"]))


def _combine_rows(
    old: Dict[str, object], new: Dict[str, object]
) -> Dict[str, object]:
    """Fold a fresh measurement into an existing aggregated row.

    ``wall_s`` becomes the run-count-weighted median of the two recorded
    medians and ``runs`` accumulates.  A candidate-count mismatch means
    the workload itself changed (different seed/data semantics), so the
    fresh row replaces the stale aggregate outright.  Optional metric
    fields (q-error, pruned fraction) are deterministic recomputations,
    so the fresh row's values win.
    """
    if int(old["candidates"]) != int(new["candidates"]):
        return dict(new)
    points = sorted(
        [
            (float(old["wall_s"]), int(old["runs"])),
            (float(new["wall_s"]), int(new["runs"])),
        ]
    )
    total = sum(weight for __, weight in points)
    accumulated = 0
    combined = points[-1][0]
    for wall, weight in points:
        accumulated += weight
        if 2 * accumulated >= total:
            combined = wall
            break
    merged = dict(new)
    merged["wall_s"] = round(combined, 6)
    merged["runs"] = int(old["runs"]) + int(new["runs"])
    return merged


def write_rows(rows: Sequence[Dict[str, object]], path: Path) -> None:
    """Merge ``rows`` into the trajectory file and rewrite it atomically.

    Rows are keyed by (kernel, dataset, workers): repeated benchmark runs
    aggregate into one row per key (see :func:`_combine_rows`) instead of
    appending duplicates.  The file is replaced via an adjacent temp file
    + ``os.replace`` so a crash mid-write can never truncate it.
    """
    path = Path(path)
    existing: List[Dict[str, object]] = []
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            existing = []
    merged: Dict[Tuple[str, str, int], Dict[str, object]] = {}
    for raw in list(existing) + list(rows):
        try:
            row = _normalize_row(raw)
        except (KeyError, TypeError, ValueError):
            continue  # drop malformed rows rather than poison the file
        key = _row_key(row)
        merged[key] = (
            _combine_rows(merged[key], row) if key in merged else row
        )
    payload = json.dumps(list(merged.values()), indent=2) + "\n"
    temp_path = path.with_name(path.name + ".tmp")
    temp_path.write_text(payload)
    os.replace(temp_path, path)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=5000,
                        help="entities per collection (size x size dataset)")
    parser.add_argument("--model", default="T1G",
                        help="representation model (T1G ... C5GM)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per kernel; the median is recorded")
    parser.add_argument("--workers", default="1",
                        help="comma-separated worker counts for the"
                        " scaling rows (e.g. 1,2,4,8)")
    parser.add_argument("--out", default="BENCH_sparse.json",
                        help="output JSON path (rows are aggregated by"
                        " kernel/dataset/workers and rewritten atomically)")
    args = parser.parse_args(argv)
    workers_list = [int(w) for w in str(args.workers).split(",") if w.strip()]

    rows = run_benchmarks(
        args.size,
        model=args.model,
        seed=args.seed,
        repeats=args.repeats,
        workers_list=workers_list or (1,),
    )
    write_rows(rows, Path(args.out))
    for row in rows:
        print(
            f"{row['kernel']:>26} w{row['workers']}  {row['wall_s']:9.4f}s  "
            f"candidates={row['candidates']}  runs={row['runs']}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
