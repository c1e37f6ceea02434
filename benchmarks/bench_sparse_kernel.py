"""Microbenchmark: chunked CSR ScanCount kernels vs the legacy dict path.

Dependency-free (stdlib + numpy + the repro package): generates a
synthetic Clean-Clean ER dataset, then times

* inverted-index build (dict-of-lists vs CSR arrays),
* the full overlap pass over all queries (per-query dict merge vs the
  counting-only consumer ``ScanCountIndex.count_overlaps``) — repeated
  per entry of ``--workers`` to chart the multicore scaling curve, with
  the per-query counts asserted bit-identical across worker settings,
* complete ε-Join and kNN-Join passes (per-query Python loops vs the
  threshold-pushdown / top-k-distinct cutoff kernels of
  :mod:`repro.sparse.kernels`),
* the ε-Join tuner sweep (per-row scalar similarity + threshold binning
  vs one vectorized similarity array masked per threshold) — the pass
  ``tuning/sparse.py`` runs once per (cleaning, model) grid point,
* a seeded mixed add/remove/query stream over the incremental ScanCount
  filter (``incremental_mixed_ops`` — the serving path; absolute wall
  time, no legacy twin).

Above ``--legacy-limit`` entities (default 20k) the quadratic legacy
twins, the materializing sweep and the serving stream are skipped — the
pushdown kernels are the only paths that remain tractable there, which
is exactly the claim the large row exists to document.

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
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.incremental import random_operations
from repro.datasets.generator import DatasetSpec, ERDataset, generate
from repro.datasets.noise import NoiseProfile
from repro.sparse.base import batch_similarities
from repro.sparse.scancount import (
    IncrementalScanCountFilter,
    LegacyScanCountIndex,
    ScanCountIndex,
)
from repro.sparse.similarity import similarity_function
from repro.text.tokenizers import RepresentationModel

MEASURES = ("cosine", "jaccard")
#: Tuner-style threshold grid (ascending), used for the sweep benches.
THRESHOLDS = [round(t, 2) for t in np.arange(0.05, 1.0, 0.05)]
#: Entities per side above which the quadratic legacy twins (and the
#: materializing sweep) are skipped; the kernels carry on alone.
DEFAULT_LEGACY_LIMIT = 20000


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
# Legacy reference paths (the pre-CSR per-query Python loops).
# ----------------------------------------------------------------------


def legacy_full_scan(
    index: LegacyScanCountIndex, queries: Sequence[FrozenSet[str]]
) -> int:
    """One overlap pass over every query; returns total overlap rows."""
    rows = 0
    for query in queries:
        rows += len(index.overlaps(query))
    return rows


def legacy_epsilon_join(
    index: LegacyScanCountIndex,
    queries: Sequence[FrozenSet[str]],
    threshold: float,
    measure: str,
) -> int:
    func = similarity_function(measure)
    pairs = 0
    for query in queries:
        query_size = len(query)
        for i, overlap in index.overlaps(query).items():
            if func(index.size_of(i), query_size, overlap) >= threshold:
                pairs += 1
    return pairs


def legacy_knn_join(
    index: LegacyScanCountIndex,
    queries: Sequence[FrozenSet[str]],
    k: int,
    measure: str,
) -> int:
    func = similarity_function(measure)
    pairs = 0
    for query in queries:
        query_size = len(query)
        scored = [
            (func(index.size_of(i), query_size, overlap), i)
            for i, overlap in index.overlaps(query).items()
        ]
        scored.sort(key=lambda item: (-item[0], item[1]))
        distinct_values = 0
        previous = None
        for similarity, __ in scored:
            if similarity != previous:
                if distinct_values == k:
                    break
                distinct_values += 1
                previous = similarity
            pairs += 1
    return pairs


def legacy_tuner_sweep(
    index: LegacyScanCountIndex, queries: Sequence[FrozenSet[str]]
) -> Dict[str, List[int]]:
    """Candidate counts per (measure, threshold), the legacy way.

    Mirrors the original ``EpsilonJoinTuner`` counting pass: one Python
    loop over every (query, overlapping set) row, scalar similarity per
    measure, counts binned per threshold.
    """
    functions = {m: similarity_function(m) for m in MEASURES}
    grid = np.asarray(THRESHOLDS)
    histograms = {m: [0] * (len(THRESHOLDS) + 1) for m in MEASURES}
    for query in queries:
        query_size = len(query)
        for i, overlap in index.overlaps(query).items():
            indexed_size = index.size_of(i)
            for measure in MEASURES:
                similarity = functions[measure](
                    indexed_size, query_size, overlap
                )
                # Number of grid thresholds <= similarity.
                histograms[measure][
                    int(np.searchsorted(grid, similarity, side="right"))
                ] += 1
    counts: Dict[str, List[int]] = {}
    for measure in MEASURES:
        suffix = np.cumsum(histograms[measure][::-1])[::-1]
        counts[measure] = [int(c) for c in suffix[1:]]
    return counts


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
    """The batched equivalent: similarity arrays once, masks per point.

    This is the one consumer that genuinely needs every overlap row
    (thresholds are decided after the pass), so it rides the
    materializing ``batch_overlaps`` kernel.
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


# ----------------------------------------------------------------------
# Harness.
# ----------------------------------------------------------------------


def run_benchmarks(
    size: int,
    model: str = "T1G",
    seed: int = 42,
    repeats: int = 1,
    workers_list: Sequence[int] = (1,),
    legacy_limit: int = DEFAULT_LEGACY_LIMIT,
) -> List[Dict[str, object]]:
    """All kernel timings as BENCH_sparse.json rows (one row per kernel).

    ``repeats`` runs each kernel that many times and records the median;
    ``workers_list`` adds one ``batch_query_csr`` / ``ejoin_csr`` row per
    worker count (per-query results asserted identical across counts).
    Legacy twins, the materializing sweep and the serving stream only run
    up to ``legacy_limit`` entities — beyond it their quadratic row
    universe is the very thing the kernels exist to avoid.
    """
    dataset = make_dataset(size, seed)
    representation = RepresentationModel(model)
    left = [representation.tokens(t) for t in dataset.left.texts(None)]
    right = [representation.tokens(t) for t in dataset.right.texts(None)]
    dataset_label = f"{dataset.spec.name}-{model}"
    full = size <= legacy_limit
    workers_list = sorted({1, *(int(w) for w in workers_list)})
    rows: List[Dict[str, object]] = []

    def record(
        kernel: str,
        wall_s: float,
        candidates: int,
        runs: int,
        workers: int = 1,
    ) -> None:
        rows.append(
            {
                "kernel": kernel,
                "dataset": dataset_label,
                "workers": int(workers),
                "wall_s": round(wall_s, 6),
                "candidates": int(candidates),
                "runs": int(runs),
            }
        )

    legacy: Optional[LegacyScanCountIndex] = None
    if full:
        build_legacy_s, legacy, runs = timed_median(
            lambda: LegacyScanCountIndex(left), repeats
        )
        record("index_build_legacy", build_legacy_s, 0, runs)
    build_csr_s, csr, runs = timed_median(
        lambda: ScanCountIndex(left), repeats
    )
    record("index_build_csr", build_csr_s, 0, runs)

    legacy_rows = None
    if legacy is not None:
        scan_legacy_s, legacy_rows, runs = timed_median(
            lambda: legacy_full_scan(legacy, right), repeats
        )
        record("batch_query_legacy", scan_legacy_s, legacy_rows, runs)
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
    if legacy_rows is not None:
        assert legacy_rows == int(base_counts.sum()), (
            "overlap row counts diverged"
        )

    threshold = 0.5
    if legacy is not None:
        ejoin_legacy_s, legacy_pairs, runs = timed_median(
            lambda: legacy_epsilon_join(legacy, right, threshold, "cosine"),
            repeats,
        )
        record("ejoin_legacy", ejoin_legacy_s, legacy_pairs, runs)
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
    if legacy is not None:
        assert legacy_pairs == base_pairs, "e-join candidate counts diverged"

    k = 5
    if legacy is not None:
        knn_legacy_s, knn_legacy_pairs, runs = timed_median(
            lambda: legacy_knn_join(legacy, right, k, "cosine"), repeats
        )
        record("knn_legacy", knn_legacy_s, knn_legacy_pairs, runs)
    knn_csr_s, knn_csr_pairs, runs = timed_median(
        lambda: csr_knn_join(csr, right, k, "cosine"), repeats
    )
    record("knn_csr", knn_csr_s, knn_csr_pairs, runs)
    if legacy is not None:
        assert knn_legacy_pairs == knn_csr_pairs, (
            "kNN candidate counts diverged"
        )

    if full:
        sweep_legacy_s, sweep_legacy, runs = timed_median(
            lambda: legacy_tuner_sweep(legacy, right), repeats
        )
        record(
            "ejoin_tuner_sweep_legacy",
            sweep_legacy_s,
            sum(sweep_legacy["cosine"]),
            runs,
        )
        sweep_csr_s, sweep_csr, runs = timed_median(
            lambda: csr_tuner_sweep(csr, right), repeats
        )
        record(
            "ejoin_tuner_sweep_csr", sweep_csr_s, sum(sweep_csr["cosine"]), runs
        )
        assert sweep_legacy == sweep_csr, "tuner sweep counts diverged"

    # Streaming serving path: a seeded mixed add/remove/query stream over
    # the incremental ScanCount filter (same ε-join semantics as above).
    # One row, no legacy twin — the trajectory tracks absolute wall time.
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

    return rows


def speedup(
    rows: Sequence[Dict[str, object]], stage: str, workers: int = 1
) -> float:
    """legacy / csr wall-clock ratio for one benchmark stage."""
    legacy = csr = None
    for row in rows:
        if int(row.get("workers", 1)) != 1 and row["kernel"].endswith("_csr"):
            if int(row.get("workers", 1)) != workers:
                continue
        if row["kernel"] == f"{stage}_legacy":
            legacy = float(row["wall_s"])
        elif row["kernel"] == f"{stage}_csr":
            if int(row.get("workers", 1)) == workers:
                csr = float(row["wall_s"])
    if legacy is None or csr is None:
        raise KeyError(f"stage {stage!r} lacks a legacy/csr twin")
    return legacy / csr if csr > 0 else float("inf")


# ----------------------------------------------------------------------
# Trajectory file: aggregate repeats, rewrite atomically.
# ----------------------------------------------------------------------


#: Optional per-row metric fields (floats) that ride along with the core
#: schema when present: the estimator bench (``bench_estimator.py``)
#: records its q-error and pruned-fraction rows, the serving bench
#: (``bench_serving.py``) its throughput and latency quantiles.
OPTIONAL_METRICS = ("qerror", "pruned_frac", "ops_per_s", "p50_ms", "p99_ms")


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
    parser.add_argument("--legacy-limit", type=int,
                        default=DEFAULT_LEGACY_LIMIT,
                        help="skip the quadratic legacy twins above this"
                        " many entities per side")
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
        legacy_limit=args.legacy_limit,
    )
    write_rows(rows, Path(args.out))
    for row in rows:
        print(
            f"{row['kernel']:>26} w{row['workers']}  {row['wall_s']:9.4f}s  "
            f"candidates={row['candidates']}  runs={row['runs']}"
        )
    for stage in ("index_build", "batch_query", "ejoin", "knn",
                  "ejoin_tuner_sweep"):
        try:
            print(f"{stage:>26}  speedup x{speedup(rows, stage):.1f}")
        except KeyError:
            print(f"{stage:>26}  (no legacy twin at this scale)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
