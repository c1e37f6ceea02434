"""Exact pin of the batch LSH filters' bucket join.

MinHash, Hyperplane and Cross-Polytope LSH join their bucket keys with
:func:`repro.dense.base.bucket_join`.  The reference classes below keep
the per-entity dict-bucket loops the filters used before, so every
fast-grid configuration can be checked for identical candidates and
identical stage cardinalities.  Cross-Polytope LSH has no streaming
twin, so this is the only oracle over its candidates.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateSet
from repro.core.stages import INDEX, PREPROCESS, QUERY
from repro.datasets.generator import DatasetSpec, generate
from repro.datasets.noise import NoiseProfile
from repro.datasets.registry import load_dataset
from repro.dense.base import bucket_join
from repro.dense.crosspolytope import CrossPolytopeLSH, _next_power_of_two
from repro.dense.embeddings import HashedNGramEmbedder
from repro.dense.hyperplane import HyperplaneLSH, probe_sequence
from repro.dense.minhash import MinHashLSH
from repro.tuning import spaces

SEEDS = (0, 7)


# ----------------------------------------------------------------------
# Reference: dict buckets, one Python probe per query, a set of tuples.
# ----------------------------------------------------------------------


class DictBucketMinHash(MinHashLSH):
    def _run(self, left, right, attribute):
        with self.trace.stage(PREPROCESS, input_size=len(left) + len(right)):
            a, b = self._hash_family()
            left_signatures = [
                self._signature(s, a, b)
                for s in self._shingle_sets(left, attribute)
            ]
            right_signatures = [
                self._signature(s, a, b)
                for s in self._shingle_sets(right, attribute)
            ]
        with self.trace.stage(INDEX, input_size=len(left_signatures)):
            buckets: Dict[Tuple[int, bytes], List[int]] = {}
            for entity, signature in enumerate(left_signatures):
                if signature is None:
                    continue
                for band in range(self.bands):
                    chunk = signature[band * self.rows : (band + 1) * self.rows]
                    buckets.setdefault((band, chunk.tobytes()), []).append(entity)
        with self.trace.stage(QUERY, input_size=len(right_signatures)) as query:
            pairs: List[Tuple[int, int]] = []
            for entity, signature in enumerate(right_signatures):
                if signature is None:
                    continue
                for band in range(self.bands):
                    chunk = signature[band * self.rows : (band + 1) * self.rows]
                    matches = buckets.get((band, chunk.tobytes()), ())
                    pairs.extend((match, entity) for match in matches)
            candidates = CandidateSet(pairs)
            query.output_size = len(candidates)
        return candidates


class PairTupleRun:
    """The dense run that re-packs a tuple of (indexed, query) pairs."""

    def _run(self, left, right, attribute):
        entities = len(left) + len(right)
        with self.trace.stage(PREPROCESS, input_size=entities) as preprocess:
            left_vectors = self._embed(left, attribute)
            right_vectors = self._embed(right, attribute)
            preprocess.output_size = entities
        pairs = self._index_and_query(left_vectors, right_vectors)
        indexed_ids, query_ids = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        return CandidateSet.from_ids(indexed_ids, query_ids)


class DictBucketHyperplane(PairTupleRun, HyperplaneLSH):
    @staticmethod
    def _keys(signs):
        bits = (signs > 0).astype(np.int64)
        keys = np.zeros(bits.shape[0], dtype=np.int64)
        for column in range(bits.shape[1]):
            keys = (keys << 1) | bits[:, column]
        return keys

    def _index_and_query(self, indexed, queries):
        pairs = set()
        with self.trace.stage(INDEX, input_size=indexed.shape[0]):
            projections = self._projections(indexed.shape[1])
            tables: List[Dict[int, List[int]]] = []
            for projection in projections:
                buckets: Dict[int, List[int]] = {}
                for entity, key in enumerate(self._keys(indexed @ projection)):
                    buckets.setdefault(int(key), []).append(entity)
                tables.append(buckets)
        with self.trace.stage(QUERY, input_size=queries.shape[0]) as query:
            per_table_probes = max(1, self.probes // self.tables)
            for projection, buckets in zip(projections, tables):
                scores = queries @ projection
                keys = self._keys(scores)
                margins = np.abs(scores)
                for query_id in range(queries.shape[0]):
                    for flips in probe_sequence(
                        margins[query_id], per_table_probes
                    ):
                        key = int(keys[query_id])
                        for bit in flips:
                            key ^= 1 << (self.hashes - 1 - bit)
                        for entity in buckets.get(key, ()):
                            pairs.add((entity, query_id))
            query.output_size = len(pairs)
        return tuple(pairs)


class DictBucketCrossPolytope(PairTupleRun, CrossPolytopeLSH):
    def _index_and_query(self, indexed, queries):
        padded_dim = _next_power_of_two(indexed.shape[1])
        pairs = set()
        with self.trace.stage(INDEX, input_size=indexed.shape[0]):
            rotations = self._rotations(padded_dim)
            tables: List[Dict[int, List[int]]] = []
            for table in range(self.tables):
                keys, __ = self._bucket_keys(indexed, rotations, table)
                buckets: Dict[int, List[int]] = {}
                for entity, key in enumerate(keys):
                    buckets.setdefault(int(key), []).append(entity)
                tables.append(buckets)
        with self.trace.stage(QUERY, input_size=queries.shape[0]) as query:
            for table, buckets in enumerate(tables):
                keys, alternatives = self._bucket_keys(queries, rotations, table)
                for query_id in range(queries.shape[0]):
                    probed = [keys[query_id]]
                    if self.probes > self.tables:
                        probed.append(alternatives[query_id])
                    for key in probed:
                        for entity in buckets.get(int(key), ()):
                            pairs.add((entity, query_id))
            query.output_size = len(pairs)
        return tuple(pairs)


# ----------------------------------------------------------------------
# Datasets and grids.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=["generated", "d1"])
def dataset(request):
    if request.param == "d1":
        return load_dataset("d1")
    return generate(
        DatasetSpec(
            name="lsh-parity",
            domain="product",
            size1=90,
            size2=110,
            duplicates=40,
            seed=5,
            noise1=NoiseProfile(typo_rate=0.08),
            noise2=NoiseProfile(typo_rate=0.1),
        )
    )


@pytest.fixture(scope="module")
def embedder():
    return HashedNGramEmbedder()


def assert_same_run(batch, reference, dataset):
    candidates = batch.candidates(dataset.left, dataset.right)
    expected = reference.candidates(dataset.left, dataset.right)
    assert candidates == expected
    assert batch.trace.cardinalities() == reference.trace.cardinalities()
    return len(candidates)


@pytest.mark.parametrize("seed", SEEDS)
def test_minhash_matches_dict_buckets(dataset, seed):
    sizes = [
        assert_same_run(
            MinHashLSH(**params, seed=seed),
            DictBucketMinHash(**params, seed=seed),
            dataset,
        )
        for params in spaces.minhash_grid("fast")
    ]
    assert max(sizes) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_hyperplane_matches_dict_buckets(dataset, embedder, seed):
    sizes = [
        assert_same_run(
            HyperplaneLSH(**params, seed=seed, embedder=embedder),
            DictBucketHyperplane(**params, seed=seed, embedder=embedder),
            dataset,
        )
        for params in spaces.hyperplane_grid("fast")
    ]
    assert max(sizes) > 0


@pytest.fixture()
def shared_cp_hashes(monkeypatch):
    """Hash each distinct (vectors, table rotation) input once per test.

    Hashing is keyed by its inputs, so the join under test sees exactly
    the keys it would compute itself.  The grid's configurations repeat
    those inputs: ``probes`` never enters hashing, and the rotations are
    drawn table by table, so 8 tables hash like the first 8 of 32.
    """
    computed = {}
    bucket_keys = CrossPolytopeLSH._bucket_keys

    def shared(self, vectors, rotations, table):
        digest = hashlib.blake2b(vectors.tobytes())
        digest.update(rotations[table].tobytes())
        key = (
            digest.hexdigest(),
            vectors.shape,
            rotations[table].shape,
            self.last_cp_dimension,
        )
        if key not in computed:
            computed[key] = bucket_keys(self, vectors, rotations, table)
        return computed[key]

    monkeypatch.setattr(CrossPolytopeLSH, "_bucket_keys", shared)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.usefixtures("shared_cp_hashes")
def test_crosspolytope_matches_dict_buckets(dataset, embedder, seed):
    sizes = [
        assert_same_run(
            CrossPolytopeLSH(**params, seed=seed, embedder=embedder),
            DictBucketCrossPolytope(**params, seed=seed, embedder=embedder),
            dataset,
        )
        for params in spaces.crosspolytope_grid("fast")
    ]
    assert max(sizes) > 0


def test_hyperplane_keys_match_shift_or_packing():
    signs = np.random.default_rng(3).standard_normal((50, 62))
    for hashes in (1, 12, 62):
        np.testing.assert_array_equal(
            HyperplaneLSH._keys(signs[:, :hashes]),
            DictBucketHyperplane._keys(signs[:, :hashes]),
        )


# ----------------------------------------------------------------------
# bucket_join against a nested-loop equi-join.
# ----------------------------------------------------------------------


def nested_loop_join(index_keys, query_keys):
    return sorted(
        (i, q)
        for q, query_key in enumerate(query_keys)
        for i, index_key in enumerate(index_keys)
        if index_key == query_key
    )


@settings(max_examples=200, deadline=None)
@given(
    index_keys=st.lists(st.integers(-4, 4), max_size=12),
    query_keys=st.lists(st.integers(-4, 4), max_size=12),
)
def test_bucket_join_is_the_equi_join(index_keys, query_keys):
    index_pos, query_pos = bucket_join(
        np.array(index_keys, dtype=np.int64),
        np.array(query_keys, dtype=np.int64),
    )
    assert index_pos.dtype == query_pos.dtype == np.int64
    assert sorted(zip(index_pos.tolist(), query_pos.tolist())) == (
        nested_loop_join(index_keys, query_keys)
    )


def test_bucket_join_edge_cases():
    empty = np.zeros(0, dtype=np.int64)
    keys = np.array([3, 1, 3], dtype=np.int64)
    for index_keys, query_keys in ((empty, empty), (keys, empty), (empty, keys)):
        index_pos, query_pos = bucket_join(index_keys, query_keys)
        assert len(index_pos) == len(query_pos) == 0
    # No key in common.
    assert len(bucket_join(keys, np.array([2, 4, 0]))[0]) == 0
    # Duplicates on both sides: every index copy meets every query copy.
    index_pos, query_pos = bucket_join(keys, np.array([3, 3], dtype=np.int64))
    assert sorted(zip(index_pos.tolist(), query_pos.tolist())) == [
        (0, 0), (0, 1), (2, 0), (2, 1)
    ]
