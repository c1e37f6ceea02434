"""Parallel execution: determinism across worker counts + crash hygiene.

The contract of :mod:`repro.core.parallel` is that ``workers=N`` is an
execution detail, never a semantic one: for any worker count the merged
output is byte-identical to the serial run, and no shared-memory segment
survives a run — not even one whose worker raised or died outright.
"""

import os

import numpy as np
import pytest

from repro.core import registry
from repro.core.fastpairs import encode_pairs, unique_keys
from repro.core.parallel import (
    default_workers,
    last_run_segments,
    query_shards,
    resolve_workers,
    run_sharded,
    segment_exists,
    set_default_workers,
)
from repro.core.stages import QUERY
from repro.datasets.generator import DatasetSpec, generate
from repro.sparse.epsilon_join import EpsilonJoin
from repro.sparse.kernels import query_tokens
from repro.sparse.knn_join import KNNJoin
from repro.sparse.scancount import ScanCountIndex
from repro.text.store import encode_sets
from repro.tuning import sparse as sparse_tuning
from repro.tuning.sparse import KNNJoinTuner, clear_overlap_cache

WORKER_COUNTS = (1, 2, 4)

#: Any value larger than every right-side id works as the pair-key width.
KEY_WIDTH = 1 << 20


@pytest.fixture(scope="module")
def er_dataset():
    return generate(
        DatasetSpec(
            name="parallel-determinism",
            domain="product",
            size1=220,
            size2=220,
            duplicates=80,
            seed=11,
        )
    )


def candidate_keys(candidates) -> bytes:
    """Canonical fastpairs-key encoding of a candidate set, as bytes."""
    pairs = sorted(candidates.as_frozenset())
    if not pairs:
        return b""
    array = np.asarray(pairs, dtype=np.int64)
    return unique_keys(
        encode_pairs(array[:, 0], array[:, 1], KEY_WIDTH)
    ).tobytes()


def random_token_sets(rng, count, alphabet=60, max_size=9):
    universe = [f"tok{i}" for i in range(alphabet)]
    sets = []
    for _ in range(count):
        size = int(rng.integers(0, max_size + 1))
        sets.append(frozenset(rng.choice(universe, size=size, replace=False)))
    return sets


# ----------------------------------------------------------------------
# Byte-identical results across worker counts.
# ----------------------------------------------------------------------


class TestJoinDeterminism:
    def test_epsilon_join_identical_across_workers(self, er_dataset):
        reference = None
        for workers in WORKER_COUNTS:
            join = EpsilonJoin(threshold=0.4, model="T1G", workers=workers)
            keys = candidate_keys(
                join.candidates(er_dataset.left, er_dataset.right)
            )
            if reference is None:
                reference = keys
                assert keys  # non-degenerate workload
            else:
                assert keys == reference, f"workers={workers} diverged"

    def test_knn_join_identical_across_workers(self, er_dataset):
        reference = None
        for workers in WORKER_COUNTS:
            join = KNNJoin(k=3, model="T1G", workers=workers)
            keys = candidate_keys(
                join.candidates(er_dataset.left, er_dataset.right)
            )
            if reference is None:
                reference = keys
                assert keys
            else:
                assert keys == reference, f"workers={workers} diverged"

    def test_batch_query_identical_across_workers(self):
        rng = np.random.default_rng(5)
        index = ScanCountIndex(random_token_sets(rng, 150))
        queries = random_token_sets(rng, 97)
        reference = None
        for workers in WORKER_COUNTS:
            ptr, ids, counts = index.batch_overlaps(queries, workers=workers)
            single_counts = index.count_overlaps(queries, workers=workers)
            blob = ptr.tobytes() + ids.tobytes() + counts.tobytes()
            if reference is None:
                reference = (blob, single_counts.tobytes())
                assert len(ids)
            else:
                assert blob == reference[0], f"workers={workers} diverged"
                assert single_counts.tobytes() == reference[1]

    def test_knn_tune_on_memo_filled_at_one_worker(self, er_dataset):
        # The overlap memo's key leaves out the worker count, so a
        # workers=2 tune reading counts a workers=1 pass filled must
        # select exactly what a cold workers=2 tune selects.
        def tune(workers):
            result = KNNJoinTuner(
                profile="fast", workers=workers, prune=False
            ).tune(er_dataset)
            return (
                result.params, result.pc, result.pq, result.candidates,
                result.feasible, result.configurations_tried,
            )

        clear_overlap_cache()
        try:
            cold = tune(2)
            clear_overlap_cache()
            filled = tune(1)
            entries = list(sparse_tuning._overlap_memo.values())
            assert len(entries) == 10  # 2 cleanings x 5 models
            warm = tune(2)
            # Every matrix was read from the memo, none recomputed.
            assert set(map(id, sparse_tuning._overlap_memo.values())) == set(
                map(id, entries)
            )
        finally:
            clear_overlap_cache()
        assert warm == cold == filled

    def test_parallel_run_records_shard_traces(self, er_dataset):
        join = EpsilonJoin(threshold=0.4, model="T1G", workers=2)
        join.candidates(er_dataset.left, er_dataset.right)
        record = join.trace.record(QUERY)
        shard_names = [
            name for name in record.children if name.startswith("shard-")
        ]
        assert shard_names == ["shard-0", "shard-1"]
        for name in shard_names:
            child = record.children[name]
            assert child.seconds >= 0.0
            assert child.input_size is not None

    def test_serial_run_records_no_shard_traces(self, er_dataset):
        join = EpsilonJoin(threshold=0.4, model="T1G", workers=1)
        join.candidates(er_dataset.left, er_dataset.right)
        record = join.trace.record(QUERY)
        assert not any(name.startswith("shard-") for name in record.children)


# ----------------------------------------------------------------------
# Shared-memory hygiene, including on the crash paths.
# ----------------------------------------------------------------------


def _kernel_arrays():
    rng = np.random.default_rng(23)
    index = ScanCountIndex(random_token_sets(rng, 80))
    queries = random_token_sets(rng, 40)
    tokens = query_tokens(index.vocabulary, encode_sets(queries))
    return {**index.arrays(), **tokens.as_arrays()}, len(queries)


class TestSharedMemoryCleanup:
    def test_successful_run_unlinks_segments(self):
        arrays, num_queries = _kernel_arrays()
        shards = query_shards(num_queries, 2)
        results = run_sharded(arrays, {"consumer": "count"}, shards, workers=2)
        assert [(r.lo, r.hi) for r in results] == shards
        segments = last_run_segments()
        assert segments, "pool run should have published segments"
        assert not any(segment_exists(name) for name in segments)

    def test_worker_exception_unlinks_segments(self):
        arrays, num_queries = _kernel_arrays()
        shards = query_shards(num_queries, 2)
        with pytest.raises(RuntimeError, match="parallel worker failed"):
            run_sharded(
                arrays,
                {"consumer": "count", "_inject_fail": True},
                shards,
                workers=2,
            )
        segments = last_run_segments()
        assert segments
        assert not any(segment_exists(name) for name in segments)

    def test_worker_hard_crash_unlinks_segments(self):
        arrays, num_queries = _kernel_arrays()
        shards = query_shards(num_queries, 2)
        with pytest.raises(RuntimeError, match="died without a result"):
            run_sharded(
                arrays,
                {"consumer": "count", "_inject_hard_crash": True},
                shards,
                workers=2,
            )
        segments = last_run_segments()
        assert segments
        assert not any(segment_exists(name) for name in segments)

    def test_parallel_matches_serial_payloads(self):
        arrays, num_queries = _kernel_arrays()
        serial = run_sharded(
            arrays, {"consumer": "count"}, [(0, num_queries)], workers=1
        )
        parallel = run_sharded(
            arrays,
            {"consumer": "count"},
            query_shards(num_queries, 3),
            workers=3,
        )
        merged = np.concatenate([shard.value for shard in parallel])
        np.testing.assert_array_equal(serial[0].value, merged)


# ----------------------------------------------------------------------
# Policy units: resolve_workers / query_shards / process-wide default.
# ----------------------------------------------------------------------


class TestWorkerPolicy:
    def teardown_method(self):
        set_default_workers(None)

    def test_resolve_explicit(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_resolve_zero_means_cpu_count(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_resolve_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            resolve_workers(-1)

    def test_resolve_none_uses_process_default(self):
        set_default_workers(5)
        assert resolve_workers(None) == 5

    def test_default_seeded_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        set_default_workers(None)  # drop the cached value
        assert default_workers() == 4

    def test_bad_environment_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        set_default_workers(None)
        with pytest.raises(ValueError, match="integer"):
            default_workers()
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        set_default_workers(None)
        with pytest.raises(ValueError, match=">= 0"):
            default_workers()


class TestQueryShards:
    def test_partition_in_order(self):
        shards = query_shards(10, 3)
        assert shards == [(0, 4), (4, 7), (7, 10)]

    def test_balanced_sizes(self):
        for queries, workers in [(100, 7), (13, 4), (5, 5), (9, 2)]:
            shards = query_shards(queries, workers)
            sizes = [hi - lo for lo, hi in shards]
            assert sum(sizes) == queries
            assert max(sizes) - min(sizes) <= 1
            assert shards[0][0] == 0 and shards[-1][1] == queries
            assert all(
                shards[i][1] == shards[i + 1][0]
                for i in range(len(shards) - 1)
            )

    def test_more_workers_than_queries(self):
        assert query_shards(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_no_queries(self):
        assert query_shards(0, 4) == []


class TestRegistryParallelSupport:
    def test_parallel_codes(self):
        assert registry.parallel_codes() == ("EJ", "kNNJ")

    def test_supports_workers_flags(self):
        for code in registry.parallel_codes():
            assert registry.get(code).supports_workers
        assert not registry.get("SBW").supports_workers
