"""Perf smoke test: kernel ratio ceilings and the bench's row contract.

A tiny-budget run of ``benchmarks/bench_sparse_kernel.py`` (1000
entities per side) checking its row schema, ceilings on the kNN / ε-Join
and kNN / count-only kernel ratios and the CNP / WNP pruning ratio (the
machine's speed cancels out of all three), an incremental query latency budget, a ceiling on
how much a serving query slows when the live set grows 20x, memory
ceilings per candidate pair and per sparse-tuner overlap cell, plus the
aggregation contract of the trajectory file.  Run just this guard with
``pytest -m perf_smoke``; the wall-clock checks are skipped on
known-slow CI boxes (``CI=slow-box``) where they are noise.  The memory
checks count bytes, so they always run.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf_smoke

_BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "bench_sparse_kernel.py"
)

ROW_SCHEMA = {"kernel", "dataset", "workers", "wall_s", "candidates", "runs"}


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_sparse_kernel", _BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_rows_follow_schema():
    bench = _load_bench()
    rows = bench.run_benchmarks(1000, model="T1G", seed=7)
    assert all(ROW_SCHEMA <= set(row) for row in rows)
    # The serving-path row rides along in the same trajectory.
    kernels = {row["kernel"] for row in rows}
    assert "incremental_mixed_ops" in kernels


#: Ceiling on the knn_csr / ejoin_csr wall ratio at the 1k scale.  Both
#: kernels share the counting loop, so the ratio cancels the machine's
#: speed: on a 2-core Xeon VM the class-scored kernel measures
#: 1.5-1.7x and the per-query cutoff kernel before it 2.2-2.6x, while
#: ranking every overlap row (a lexsort per query block) measured
#: 3.4-4.4x.
KNN_OVER_EJOIN_MAX = 3.2


@pytest.mark.skipif(
    os.environ.get("CI") == "slow-box",
    reason="wall-clock comparisons are unreliable on the slow CI box",
)
def test_knn_stays_within_bound_of_ejoin():
    from repro.sparse.scancount import ScanCountIndex

    bench = _load_bench()
    __, left, right = bench.make_token_sets(1000, "T1G", seed=7)
    index = ScanCountIndex(left)
    knn, ejoin = [], []
    # Interleaved runs and per-kernel minima keep a burst of load on a
    # shared machine from landing on one kernel only.
    for __ in range(5):
        knn.append(
            bench.timed(
                lambda: bench.csr_knn_join(index, right, 5, "cosine")
            )[0]
        )
        ejoin.append(
            bench.timed(
                lambda: bench.csr_epsilon_join(index, right, 0.5, "cosine")
            )[0]
        )
    ratio = min(knn) / min(ejoin)
    assert ratio < KNN_OVER_EJOIN_MAX, (
        f"knn_csr is {ratio:.2f}x ejoin_csr at 1k"
        f" (bound {KNN_OVER_EJOIN_MAX}x)"
    )


#: Ceiling on the knn_csr / batch_query_csr wall ratio at the 1k scale:
#: the kNN kernel over the count-only kernel it shares its counting
#: loop with.  On a 2-core Xeon VM scoring (set size, overlap) classes
#: measures 1.8-2.0x, while scoring every overlapping set measured
#: 4.6-6.6x.
KNN_OVER_COUNT_MAX = 3.5


@pytest.mark.skipif(
    os.environ.get("CI") == "slow-box",
    reason="wall-clock comparisons are unreliable on the slow CI box",
)
def test_knn_stays_within_bound_of_count():
    from repro.sparse.scancount import ScanCountIndex

    bench = _load_bench()
    __, left, right = bench.make_token_sets(1000, "T1G", seed=7)
    index = ScanCountIndex(left)
    knn, count = [], []
    # Interleaved runs and per-kernel minima, as for ε-Join above.
    for __ in range(5):
        knn.append(
            bench.timed(
                lambda: bench.csr_knn_join(index, right, 5, "cosine")
            )[0]
        )
        count.append(bench.timed(lambda: bench.csr_full_scan(index, right))[0])
    ratio = min(knn) / min(count)
    assert ratio < KNN_OVER_COUNT_MAX, (
        f"knn_csr is {ratio:.2f}x batch_query_csr at 1k"
        f" (bound {KNN_OVER_COUNT_MAX}x)"
    )


#: Ceiling on the prune_mask CNP / WNP wall ratio on the d2 q-grams graph.
#: WNP is two bincounts, so the ratio cancels the machine's speed: on a
#: 2-core Xeon VM the rank-once cutoff measures 4.0-4.6x, while ranking
#: every row per entity (two lexsorts per call) measured 20-23x.
CNP_OVER_WNP_MAX = 10.0


@pytest.mark.skipif(
    os.environ.get("CI") == "slow-box",
    reason="wall-clock comparisons are unreliable on the slow CI box",
)
def test_cnp_stays_within_bound_of_wnp():
    from repro.blocking.building import QGramsBlocking
    from repro.blocking.metablocking import PairGraph, prune_mask
    from repro.datasets.registry import load_dataset

    bench = _load_bench()
    dataset = load_dataset("d2")
    graph = PairGraph(QGramsBlocking(3).build(dataset.left, dataset.right))
    weights = graph.weights("JS")

    def three_calls(algorithm):
        return lambda: [prune_mask(graph, weights, algorithm) for __ in range(3)]

    cnp, wnp = [], []
    # Interleaved runs and per-algorithm minima, as for the kernels above.
    for __ in range(5):
        cnp.append(bench.timed(three_calls("CNP"))[0])
        wnp.append(bench.timed(three_calls("WNP"))[0])
    ratio = min(cnp) / min(wnp)
    assert ratio < CNP_OVER_WNP_MAX, (
        f"CNP pruning is {ratio:.2f}x WNP on a {len(graph)}-edge graph"
        f" (bound {CNP_OVER_WNP_MAX}x)"
    )


def test_write_rows_aggregates_instead_of_duplicating(tmp_path):
    bench = _load_bench()
    rows = [
        {
            "kernel": "batch_query_csr",
            "dataset": "bench-1000x1000-T1G",
            "workers": 1,
            "wall_s": 0.5,
            "candidates": 123,
            "runs": 3,
        },
        {
            "kernel": "batch_query_csr",
            "dataset": "bench-1000x1000-T1G",
            "workers": 2,
            "wall_s": 0.4,
            "candidates": 123,
            "runs": 3,
        },
    ]
    out = tmp_path / "BENCH_sparse.json"
    bench.write_rows(rows, out)
    bench.write_rows(rows, out)  # aggregates, never appends duplicates
    recorded = json.loads(out.read_text())
    assert len(recorded) == len(rows)
    by_key = {(r["kernel"], r["workers"]): r for r in recorded}
    assert by_key[("batch_query_csr", 1)]["runs"] == 6
    assert by_key[("batch_query_csr", 1)]["wall_s"] == pytest.approx(0.5)
    assert ROW_SCHEMA <= set(recorded[0])
    # No temp file left behind (the rewrite is tmp + os.replace).
    assert list(tmp_path.iterdir()) == [out]


def test_write_rows_weighted_median_and_workload_reset(tmp_path):
    bench = _load_bench()
    out = tmp_path / "BENCH_sparse.json"
    base = {
        "kernel": "ejoin_csr",
        "dataset": "bench-1000x1000-T1G",
        "workers": 1,
        "candidates": 99,
    }
    bench.write_rows([dict(base, wall_s=1.0, runs=5)], out)
    bench.write_rows([dict(base, wall_s=9.0, runs=1)], out)
    row = json.loads(out.read_text())[0]
    # 5-run median dominates the 1-run outlier.
    assert row["wall_s"] == pytest.approx(1.0)
    assert row["runs"] == 6
    # A changed candidate count means a changed workload: stats restart.
    bench.write_rows([dict(base, wall_s=2.0, runs=2, candidates=77)], out)
    row = json.loads(out.read_text())[0]
    assert row["runs"] == 2 and row["candidates"] == 77
    assert row["wall_s"] == pytest.approx(2.0)


def test_write_rows_upgrades_old_schema_rows(tmp_path):
    bench = _load_bench()
    out = tmp_path / "BENCH_sparse.json"
    out.write_text(json.dumps([
        {"kernel": "knn_csr", "dataset": "d", "wall_s": 1.5, "candidates": 7},
        {"malformed": True},
    ]))
    bench.write_rows([], out)
    recorded = json.loads(out.read_text())
    assert len(recorded) == 1
    assert recorded[0]["workers"] == 1 and recorded[0]["runs"] == 1


#: Per-call budget for one incremental query against a 1000-entity
#: catalog.  The vectorized serving path answers a probe in ~0.2ms; a
#: single streamed lookup blowing a 5ms budget means it degenerated to
#: per-candidate Python scoring (or a full rebuild).
QUERY_BUDGET_S = 0.005


@pytest.mark.skipif(
    os.environ.get("CI") == "slow-box",
    reason="wall-clock comparisons are unreliable on the slow CI box",
)
def test_incremental_query_latency_budget():
    import time

    from repro.sparse.scancount import IncrementalScanCountFilter

    bench = _load_bench()
    dataset = bench.make_dataset(1000, seed=7)
    index = IncrementalScanCountFilter(threshold=0.5, model="T1G")
    for profile in dataset.left:
        index.add(profile)
    # Churn a third of the catalog so queries cross tombstoned state.
    removed = list(dataset.left)[::3]
    for profile in removed:
        index.remove(profile.uid)
    for profile in removed:
        index.add(profile)
    probes = list(dataset.right)[:50]
    index.query(probes[0])  # warm-up: first call may compact
    start = time.perf_counter()
    for probe in probes:
        index.query(probe)
    mean_latency = (time.perf_counter() - start) / len(probes)
    assert mean_latency < QUERY_BUDGET_S, (
        f"incremental query averaged {mean_latency * 1e3:.2f}ms "
        f"against a {len(index)}-entity catalog "
        f"(budget {QUERY_BUDGET_S * 1e3:.0f}ms)"
    )


#: Ceiling on the median query time of a 20k-set ``DynamicPostings``
#: over that of a 1k-set one when both probes touch the same postings.
#: Measured on a 2-core VM: 1.0-1.1x with the live arrays kept current
#: on write, 10-11x when every write forced a rebuild of the live set.
LIVE_SET_SCALING_MAX = 4.0


@pytest.mark.skipif(
    os.environ.get("CI") == "slow-box",
    reason="wall-clock comparisons are unreliable on the slow CI box",
)
def test_serving_query_cost_does_not_grow_with_live_set():
    import statistics
    import time

    import numpy as np

    from repro.sparse.scancount import DynamicPostings

    rng = np.random.default_rng(5)
    vocabulary = [f"s{i}" for i in range(200)]

    def shared_set():
        return frozenset(rng.choice(vocabulary, size=5, replace=False).tolist())

    # 1k sets over the shared vocabulary in both; the large index adds
    # 19k sets on tokens of their own, which no query touches.
    shared = [shared_set() for __ in range(1000)]
    small, large = DynamicPostings(100.0), DynamicPostings(100.0)
    for slot, tokens in enumerate(shared):
        small.add(slot, tokens)
        large.add(slot, tokens)
    for slot in range(1000, 20000):
        large.add(slot, frozenset({f"x{slot}", f"y{slot}"}))
    small.compact()
    large.compact()
    # New sets take the next slot of each index, so both count their
    # delta over the same offsets from the watermark.
    live = list(range(1000))
    next_slot = 1000

    def large_slot(slot):
        return slot if slot < 1000 else slot + 19000

    times = {small: [], large: []}
    # One identical write to both before each query, and the two
    # indexes' queries interleaved, taking turns at going first, so
    # host noise and warm caches favour neither.
    for step in range(300):
        if step % 2:
            tokens = shared_set()
            small.add(next_slot, tokens)
            large.add(large_slot(next_slot), tokens)
            live.append(next_slot)
            next_slot += 1
        else:
            slot = live.pop(int(rng.integers(len(live))))
            small.remove(slot)
            large.remove(large_slot(slot))
        query = shared_set()
        for postings in (small, large)[:: 1 if step % 4 < 2 else -1]:
            start = time.perf_counter()
            postings.overlap_arrays(query)
            times[postings].append(time.perf_counter() - start)
    ratio = statistics.median(times[large]) / statistics.median(times[small])
    assert ratio <= LIVE_SET_SCALING_MAX, (
        f"a query against 20k live sets took {ratio:.1f}x one against 1k"
        f" (ceiling {LIVE_SET_SCALING_MAX}x): it walks the live set"
    )


#: Bytes a CandidateSet may retain per pair: its key is 8.
RETAINED_BYTES_PER_PAIR = 16
#: Bytes ``keys_to_candidate_set`` may hold at its peak per pair.  Its
#: id arrays and re-packed keys measure 32; one Python 2-tuple alone is
#: 56 or more, and the tuple set this guard replaced measured ~143.
PEAK_BYTES_PER_PAIR = 48


def test_candidate_set_memory_per_pair():
    import tracemalloc

    import numpy as np

    from repro.core.fastpairs import keys_to_candidate_set

    width = 4000
    keys = np.arange(0, 100_000 * 160, 160, dtype=np.int64)  # ~100k pairs
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        candidates = keys_to_candidate_set(keys, width)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(candidates) == len(keys)
    per_pair = (retained - before) / len(keys)
    peak_per_pair = (peak - before) / len(keys)
    assert per_pair <= RETAINED_BYTES_PER_PAIR, (
        f"a CandidateSet retains {per_pair:.1f} B per pair"
        f" (ceiling {RETAINED_BYTES_PER_PAIR} B)"
    )
    assert peak_per_pair <= PEAK_BYTES_PER_PAIR, (
        f"keys_to_candidate_set peaks at {peak_per_pair:.1f} B per pair"
        f" (ceiling {PEAK_BYTES_PER_PAIR} B): it builds Python objects"
    )


#: Bytes the sparse tuners' overlap state may retain per (query, set)
#: cell: its int32 count.  The flat overlap rows it replaced held ~48 B
#: per overlapping pair, over 14 B per cell once 30% of pairs overlap.
RETAINED_BYTES_PER_CELL = 4
#: Bytes it may retain per query and per set on top: one int64 size
#: each, the groundtruth ids and array headers.
RETAINED_BYTES_PER_ENTITY = 64


def test_overlap_matrix_memory_per_cell():
    import tracemalloc

    import numpy as np

    from repro.text.memo import tokenize_collection
    from repro.tuning.sparse import (
        _OverlapMatrix,
        clear_overlap_cache,
        overlap_counts,
    )

    dataset = _load_bench().make_dataset(400, seed=7)
    left_texts = dataset.left.texts(None)
    right_texts = dataset.right.texts(None)
    # Token memos warm, overlap memo cold: what is measured is one
    # cell's overlap state, memo entry included, and nothing else.
    left = tokenize_collection(left_texts, "T1G", False)
    right = tokenize_collection(right_texts, "T1G", False)
    gt_pairs = [(entity, entity) for entity in range(200)]
    clear_overlap_cache()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matrix = _OverlapMatrix(
            overlap_counts(left_texts, right_texts, "T1G", False), gt_pairs
        )
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        clear_overlap_cache()
    cells = len(left) * len(right)
    assert np.count_nonzero(matrix.counts) >= 0.3 * cells
    budget = (
        RETAINED_BYTES_PER_CELL * cells
        + RETAINED_BYTES_PER_ENTITY * (len(left) + len(right))
    )
    assert retained <= budget, (
        f"the overlap state retains {retained / cells:.1f} B per cell"
        f" (ceiling {RETAINED_BYTES_PER_CELL} B plus"
        f" {RETAINED_BYTES_PER_ENTITY} B per entity)"
    )
