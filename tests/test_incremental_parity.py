"""Differential batch-vs-stream parity for the incremental filtering service.

Three layers of evidence that the mutable indexes answer exactly like
their batch counterparts:

* **Randomized differential replay** — 200 seeded random add/remove/query
  sequences per incremental family, every query checked byte-for-byte
  (fastpairs keys) against a from-scratch rebuild of the live entities.
* **Metamorphic properties** — add+remove is an identity on query
  results, re-adding restores them, and the uniform mutation semantics
  (duplicate add, unknown remove) hold for every family.
* **Adapter parity** — bulk add + bulk query through
  :class:`IncrementalFilterAdapter` reproduces the batch filters'
  candidate sets exactly.
"""

import numpy as np
import pytest

from repro.blocking import (
    IncrementalBlockIndex,
    StandardBlocking,
    build_blocks_from_keys,
)
from repro.core import registry
from repro.core.candidates import pack_ids
from repro.core.fastpairs import encode_pairs, unique_keys
from repro.core.incremental import (
    IncrementalFilterAdapter,
    IncrementalIndex,
    Operation,
    _smoke_pool,
    answer_keys,
    random_operations,
    replay_check,
)
from repro.core.profile import EntityProfile
from repro.datasets.generator import DatasetSpec, generate
from repro.datasets.noise import NoiseProfile
from repro.dense import (
    HashedNGramEmbedder,
    HyperplaneLSH,
    IncrementalHyperplaneLSH,
    IncrementalMinHashLSH,
    MinHashLSH,
)
from repro.sparse import (
    DynamicPostings,
    EpsilonJoin,
    IncrementalScanCountFilter,
    KNNJoin,
    ScanCountIndex,
)

# ----------------------------------------------------------------------
# One factory per incremental family, smallest configurations that still
# produce non-trivial candidate sets on the smoke pool.
# ----------------------------------------------------------------------

FAMILIES = {
    "scancount-eps": lambda: IncrementalScanCountFilter(
        threshold=0.3, model="T1G", measure="cosine"
    ),
    "scancount-knn": lambda: IncrementalScanCountFilter(
        k=3, model="T1G", measure="cosine"
    ),
    "minhash-lsh": lambda: IncrementalMinHashLSH(
        bands=8, rows=2, shingle_k=2, seed=3
    ),
    "hyperplane-lsh": lambda: IncrementalHyperplaneLSH(
        tables=2, hashes=6, seed=3, embedder=HashedNGramEmbedder(dim=32)
    ),
    "blocks": lambda: IncrementalBlockIndex(builder=StandardBlocking()),
}

FAMILY_NAMES = tuple(FAMILIES)

#: Acceptance floor: randomized operation sequences per family.
SEQUENCE_CASES = 200


def family(name):
    return FAMILIES[name]()


@pytest.fixture(scope="module")
def dataset():
    spec = DatasetSpec(
        name="inc-parity",
        domain="product",
        size1=120,
        size2=120,
        duplicates=40,
        seed=3,
        noise1=NoiseProfile(typo_rate=0.08),
        noise2=NoiseProfile(typo_rate=0.1),
    )
    return generate(spec)


def candidate_keys(candidates, width):
    pairs = sorted(candidates.as_frozenset())
    if not pairs:
        return np.zeros(0, dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    return unique_keys(encode_pairs(arr[:, 0], arr[:, 1], width))


# ----------------------------------------------------------------------
# Satellite 1: randomized differential replay against the batch oracle.
# ----------------------------------------------------------------------


class TestDifferentialReplay:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_random_sequences_match_batch_oracle(self, name):
        factory = FAMILIES[name]
        queries_checked = 0
        for case in range(SEQUENCE_CASES):
            pool = _smoke_pool(10, seed=case)
            rng = np.random.default_rng(10_000 + case)
            operations = random_operations(pool, rng, 20)
            if not any(op.kind == "query" for op in operations):
                operations.append(Operation("query", profile=pool[0]))
            queries_checked += replay_check(factory, operations)
        # Every family must have answered a substantial number of
        # checked queries, not just survived empty streams.
        assert queries_checked >= SEQUENCE_CASES

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_heavy_churn_exercises_tombstones(self, name):
        # Removal-heavy streams maximize tombstoned state between
        # queries; ScanCount additionally crosses compaction here.
        factory = FAMILIES[name]
        pool = _smoke_pool(14, seed=77)
        rng = np.random.default_rng(78)
        operations = random_operations(
            pool, rng, 160, add_weight=0.4, remove_weight=0.35
        )
        assert replay_check(factory, operations) > 0

    def test_scancount_replay_crosses_compaction(self):
        factory = lambda: IncrementalScanCountFilter(
            threshold=0.3, compaction_ratio=0.1
        )
        pool = _smoke_pool(14, seed=5)
        rng = np.random.default_rng(6)
        operations = random_operations(
            pool, rng, 200, add_weight=0.4, remove_weight=0.35
        )
        index = factory()
        for op in operations:
            if op.kind == "add":
                index.add(op.profile)
            elif op.kind == "remove":
                index.remove(op.uid)
            else:
                index.query(op.profile)
        assert index._postings.compactions > 0
        # The identical stream is differentially correct.
        assert replay_check(factory, operations) > 0

    def test_answer_keys_are_candidate_keys_of_stable_uid_ids(self):
        # Ids are handed out in first-seen order and shared across calls,
        # so two answers compare as the same candidate-key arrays.
        uid_ids = {}
        first = answer_keys(["b", "a", "b"], uid_ids)
        second = answer_keys(["a", "c"], uid_ids)
        assert uid_ids == {"b": 0, "a": 1, "c": 2}
        np.testing.assert_array_equal(first, pack_ids([0, 0], [0, 1]))
        np.testing.assert_array_equal(second, pack_ids([0, 0], [1, 2]))
        assert len(answer_keys([], uid_ids)) == 0

    def test_replay_check_detects_divergence(self):
        # A broken index (never forgets removals) must be caught.
        class LeakyBlocks(IncrementalBlockIndex):
            def _remove(self, slot, profile):
                pass  # tombstone leak: stays queryable

        pool = _smoke_pool(8, seed=1)
        operations = [
            Operation("add", profile=pool[0]),
            Operation("add", profile=pool[1]),
            Operation("remove", uid=pool[0].uid),
            Operation("query", profile=pool[0]),
        ]
        with pytest.raises((AssertionError, KeyError)):
            replay_check(lambda: LeakyBlocks(), operations)


# ----------------------------------------------------------------------
# Satellite 2: metamorphic properties, uniform across families.
# ----------------------------------------------------------------------


class TestMetamorphic:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_add_remove_is_identity(self, name):
        pool = _smoke_pool(12, seed=9)
        index = family(name)
        for profile in pool[:8]:
            index.add(profile)
        probe = pool[10]
        before = index.query(probe)
        index.add(pool[9])
        index.remove(pool[9].uid)
        assert index.query(probe) == before

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_re_add_restores_results(self, name):
        pool = _smoke_pool(12, seed=9)
        index = family(name)
        for profile in pool[:8]:
            index.add(profile)
        probe = pool[10]
        with_all = index.query(probe)
        index.remove(pool[3].uid)
        index.add(pool[3])
        assert index.query(probe) == with_all

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_remove_unknown_uid_raises_keyerror(self, name):
        index = family(name)
        with pytest.raises(KeyError):
            index.remove("never-added")
        index.add(_smoke_pool(1, seed=0)[0])
        with pytest.raises(KeyError):
            index.remove("still-unknown")

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_duplicate_add_raises_valueerror(self, name):
        index = family(name)
        profile = _smoke_pool(1, seed=0)[0]
        index.add(profile)
        with pytest.raises(ValueError, match="duplicate uid"):
            index.add(profile)
        # A failed add must not corrupt the catalog.
        assert len(index) == 1
        index.remove(profile.uid)
        index.add(profile)  # removable and re-addable afterwards
        assert len(index) == 1

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_len_and_contains_track_live_entities(self, name):
        pool = _smoke_pool(6, seed=2)
        index = family(name)
        assert len(index) == 0
        for position, profile in enumerate(pool):
            index.add(profile)
            assert len(index) == position + 1
            assert profile.uid in index
        index.remove(pool[2].uid)
        assert len(index) == 5
        assert pool[2].uid not in index
        assert index.profiles() == tuple(
            p for p in pool if p.uid != pool[2].uid
        )

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_query_returns_sorted_uids(self, name):
        pool = _smoke_pool(12, seed=4)
        index = family(name)
        for profile in pool:
            index.add(profile)
        result = index.query(pool[0])
        assert result == tuple(sorted(result))
        assert all(uid in index for uid in result)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_stage_trace_records_service_calls(self, name):
        pool = _smoke_pool(4, seed=3)
        index = family(name)
        for profile in pool:
            index.add(profile)
        index.remove(pool[0].uid)
        index.query(pool[1])
        entries = {
            stage: record.entries
            for stage, record in index.trace._records.items()
        }
        assert entries.get("add") == 4
        assert entries.get("remove") == 1
        assert entries.get("query") == 1


class TestScanCountInternals:
    def test_exactly_one_of_threshold_and_k(self):
        with pytest.raises(ValueError):
            IncrementalScanCountFilter()
        with pytest.raises(ValueError):
            IncrementalScanCountFilter(threshold=0.5, k=3)

    def test_per_call_override_rejects_both_modes(self):
        index = IncrementalScanCountFilter(threshold=0.5)
        index.add(_smoke_pool(1, seed=0)[0])
        with pytest.raises(ValueError):
            index.query(_smoke_pool(2, seed=0)[1], eps=0.2, k=2)

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"k": 0}, "k must be positive"),
            ({"k": -2}, "k must be positive"),
            ({"eps": 1.5}, r"threshold must be in \[0, 1\]"),
            ({"eps": -0.1}, r"threshold must be in \[0, 1\]"),
        ],
        ids=["k=0", "k=-2", "eps=1.5", "eps=-0.1"],
    )
    def test_per_call_override_is_validated(self, override, message):
        pool = _smoke_pool(12, seed=4)
        index = IncrementalScanCountFilter(k=3)
        for profile in pool:
            index.add(profile)
        with pytest.raises(ValueError, match=message):
            index.query(pool[0], **override)
        with pytest.raises(ValueError, match=message):
            index.query_many(pool[:3], **override)
        # Valid overrides still answer, including the indexed twin.
        assert pool[0].uid in index.query(pool[0], k=1)
        assert index.query(pool[0], eps=1.0) == (pool[0].uid,)

    def test_dynamic_postings_slot_reuse_rejected(self):
        postings = DynamicPostings()
        postings.add(0, frozenset({"a", "b"}))
        with pytest.raises(ValueError):
            postings.add(0, frozenset({"c"}))
        postings.remove(0)
        with pytest.raises(ValueError):  # slots are never reused
            postings.add(0, frozenset({"c"}))
        with pytest.raises(KeyError):
            postings.remove(7)

    def test_dynamic_postings_compaction_preserves_overlaps(self):
        postings = DynamicPostings(compaction_ratio=0.1)
        sets = {
            slot: frozenset({f"t{slot % 5}", f"u{slot % 3}", f"v{slot}"})
            for slot in range(40)
        }
        for slot, tokens in sets.items():
            postings.add(slot, tokens)
        for slot in range(0, 40, 2):
            postings.remove(slot)
        assert postings.compactions > 0
        live = {s: t for s, t in sets.items() if s % 2 == 1}
        query = frozenset({"t1", "u2", "v3"})
        expected = {
            slot: len(tokens & query)
            for slot, tokens in live.items()
            if tokens & query
        }
        slots, overlaps, __ = postings.overlap_arrays(query)
        assert dict(zip(slots.tolist(), overlaps.tolist())) == expected


# ----------------------------------------------------------------------
# DynamicPostings under seeded churn, checked after every operation
# against a brute force over its live sets.
# ----------------------------------------------------------------------

CHURN_VOCABULARY = [f"t{i}" for i in range(12)]

#: Probes asked after every operation, besides one random query: empty,
#: all out-of-vocabulary, single-token (also after dropping an unknown
#: token) and multi-token.
CHURN_PROBES = (
    frozenset(),
    frozenset({"zz1", "zz2"}),
    frozenset({"t0"}),
    frozenset({"t1", "zz1"}),
    frozenset({"t2", "t3", "t4"}),
    frozenset(CHURN_VOCABULARY),
)


def assert_probe_matches_batch(index, query):
    """``probe`` rows are byte-identical to ``batch_overlaps([q])[1:]``."""
    __, batch_ids, batch_counts = index.batch_overlaps([query])
    for mine, batch in zip(index.probe(query), (batch_ids, batch_counts)):
        assert mine.dtype == batch.dtype
        assert mine.tobytes() == batch.tobytes()


def assert_postings_match_live(postings, queries):
    """Check ``postings`` against its live sets; returns (snapshot, delta)
    row counts of the answers."""
    live = postings._live
    live_slots, live_sizes = postings._live_index()
    assert live_slots.tolist() == sorted(live)
    assert live_sizes.tolist() == [len(live[slot]) for slot in sorted(live)]
    snapshot_rows = delta_rows = 0
    for query in queries:
        slots, overlaps, sizes = postings.overlap_arrays(query)
        got = dict(zip(slots.tolist(), zip(overlaps.tolist(), sizes.tolist())))
        assert len(got) == len(slots)  # no slot answered twice
        assert got == {
            slot: (len(tokens & query), len(tokens))
            for slot, tokens in live.items()
            if tokens & query
        }
        in_snapshot = int(np.count_nonzero(slots < postings._watermark))
        snapshot_rows += in_snapshot
        delta_rows += len(slots) - in_snapshot
        if postings._csr is not None:
            assert_probe_matches_batch(postings._csr, query)
    return snapshot_rows, delta_rows


class TestDynamicPostingsChurn:
    @pytest.mark.parametrize("ratio", [0.05, 100.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_churn_matches_brute_force(self, ratio, seed):
        rng = np.random.default_rng(seed)

        def random_set(low, high):
            size = int(rng.integers(low, high))
            chosen = rng.choice(CHURN_VOCABULARY, size=size, replace=False)
            return frozenset(chosen.tolist())

        postings = DynamicPostings(compaction_ratio=ratio)
        next_slot = 0
        drained = 0
        rows = np.zeros(2, dtype=np.int64)
        for __ in range(250):
            live = sorted(postings._live)
            roll = rng.random()
            if roll < 0.5 or not live:
                postings.add(next_slot, random_set(0, 6))
                next_slot += 1
            elif roll < 0.75:
                postings.remove(int(rng.choice(live)))
            elif roll < 0.88:
                postings.remove(live[-1])  # the newest slot
            elif roll < 0.96:
                postings.compact()
            else:  # compaction down to zero live sets
                for slot in live:
                    postings.remove(slot)
                postings.compact()
                assert postings.stats()["csr_sets"] == 0
                drained += 1
            query = random_set(1, 5) | {"zz1"}
            rows += assert_postings_match_live(
                postings, CHURN_PROBES + (query,)
            )
        assert postings.compactions > 0 and drained > 0
        assert rows.min() > 0, "both snapshot and delta rows must occur"

    def test_probe_on_degenerate_indexes(self):
        for token_sets in ([], [frozenset()], [frozenset({"t1"}), frozenset()]):
            index = ScanCountIndex(token_sets)
            for query in CHURN_PROBES:
                assert_probe_matches_batch(index, query)
        assert index.overlaps(frozenset({"t1", "zz1"})) == {0: 1}


# ----------------------------------------------------------------------
# Satellite: batch mode delegates to bulk add + bulk query — the adapter
# must reproduce the batch filters byte-for-byte.
# ----------------------------------------------------------------------


class TestAdapterBatchParity:
    def test_epsilon_join(self, dataset):
        width = len(dataset.right)
        batch = EpsilonJoin(
            threshold=0.4, model="T1G", measure="cosine"
        ).candidates(dataset.left, dataset.right)
        streamed = IncrementalFilterAdapter(
            lambda: IncrementalScanCountFilter(
                threshold=0.4, model="T1G", measure="cosine"
            )
        ).candidates(dataset.left, dataset.right)
        assert len(batch) > 0
        assert np.array_equal(
            candidate_keys(batch, width), candidate_keys(streamed, width)
        )

    def test_knn_join(self, dataset):
        width = len(dataset.right)
        batch = KNNJoin(k=3, model="T1G", measure="cosine").candidates(
            dataset.left, dataset.right
        )
        streamed = IncrementalFilterAdapter(
            lambda: IncrementalScanCountFilter(
                k=3, model="T1G", measure="cosine"
            )
        ).candidates(dataset.left, dataset.right)
        assert len(batch) > 0
        assert np.array_equal(
            candidate_keys(batch, width), candidate_keys(streamed, width)
        )

    def test_minhash_lsh(self, dataset):
        width = len(dataset.right)
        batch = MinHashLSH(bands=8, rows=4, shingle_k=3, seed=11).candidates(
            dataset.left, dataset.right
        )
        streamed = IncrementalFilterAdapter(
            lambda: IncrementalMinHashLSH(
                bands=8, rows=4, shingle_k=3, seed=11
            )
        ).candidates(dataset.left, dataset.right)
        assert len(batch) > 0
        assert np.array_equal(
            candidate_keys(batch, width), candidate_keys(streamed, width)
        )

    def test_hyperplane_lsh(self, dataset):
        width = len(dataset.right)
        embedder = HashedNGramEmbedder(dim=64)
        batch = HyperplaneLSH(
            tables=4, hashes=8, seed=5, embedder=embedder
        ).candidates(dataset.left, dataset.right)
        streamed = IncrementalFilterAdapter(
            lambda: IncrementalHyperplaneLSH(
                tables=4, hashes=8, seed=5, embedder=embedder
            )
        ).candidates(dataset.left, dataset.right)
        assert len(batch) > 0
        assert np.array_equal(
            candidate_keys(batch, width), candidate_keys(streamed, width)
        )

    def test_standard_blocking(self, dataset):
        width = len(dataset.right)
        builder = StandardBlocking()
        left_keys = [builder.keys(t) for t in dataset.left.texts(None)]
        right_keys = [builder.keys(t) for t in dataset.right.texts(None)]
        batch = build_blocks_from_keys(left_keys, right_keys).distinct_pairs()
        streamed = IncrementalFilterAdapter(
            lambda: IncrementalBlockIndex(builder=StandardBlocking())
        ).candidates(dataset.left, dataset.right)
        assert len(batch) > 0
        assert np.array_equal(
            candidate_keys(batch, width), candidate_keys(streamed, width)
        )

    def test_adapter_keeps_last_index_live(self, dataset):
        adapter = IncrementalFilterAdapter(
            lambda: IncrementalScanCountFilter(threshold=0.4)
        )
        adapter.candidates(dataset.left, dataset.right)
        index = adapter.last_index
        assert isinstance(index, IncrementalIndex)
        assert len(index) == len(dataset.left)
        # Streaming continues where the batch run left off.
        extra = EntityProfile(
            uid="fresh", attributes={"title": "acme usb cable 101"}
        )
        index.add(extra)
        index.remove(extra.uid)
        assert len(index) == len(dataset.left)


# ----------------------------------------------------------------------
# Satellite: registry capability surface.
# ----------------------------------------------------------------------


class TestRegistryCapability:
    def test_incremental_codes(self):
        assert registry.incremental_codes() == (
            "SBW", "QBW", "EQBW", "SABW", "ESABW",
            "EJ", "kNNJ",
            "MH-LSH", "HP-LSH",
        )

    def test_build_incremental_returns_incremental_indexes(self):
        for code in registry.incremental_codes():
            spec = registry.get(code)
            assert spec.supports_incremental
            index = spec.build_incremental()
            assert isinstance(index, IncrementalIndex)

    def test_non_incremental_spec_refuses_to_build(self):
        spec = registry.get("CP-LSH")
        assert not spec.supports_incremental
        with pytest.raises(ValueError):
            spec.build_incremental()

    def test_build_incremental_threads_params(self):
        index = registry.get("EJ").build_incremental(
            {"threshold": 0.7, "measure": "jaccard"}
        )
        assert index.threshold == 0.7
        assert "jaccard" in index.describe()
        knn = registry.get("kNNJ").build_incremental({"k": 9})
        assert knn.k == 9
        blocks = registry.get("QBW").build_incremental({"q": 4})
        assert blocks.builder.q == 4


# ----------------------------------------------------------------------
# Satellite: query_many parity — a batch of probes answers exactly like
# per-probe query(), across all families, ScanCount's CSR snapshot plus
# delta included.
# ----------------------------------------------------------------------


class TestQueryManyParity:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_query_many_matches_sequential_queries(self, name):
        for case in range(10):
            pool = _smoke_pool(12, seed=500 + case)
            index = FAMILIES[name]()
            for profile in pool[:8]:
                index.add(profile)
            probes = pool  # live and never-seen probes alike
            batched = index.query_many(probes)
            assert batched == tuple(index.query(p) for p in probes)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_query_many_after_churn(self, name):
        pool = _smoke_pool(14, seed=61)
        rng = np.random.default_rng(62)
        index = FAMILIES[name]()
        for op in random_operations(pool, rng, 120, add_weight=0.45,
                                    remove_weight=0.3):
            if op.kind == "add":
                index.add(op.profile)
            elif op.kind == "remove":
                index.remove(op.uid)
        batched = index.query_many(pool)
        assert batched == tuple(index.query(p) for p in pool)

    def test_query_many_empty_batch(self):
        index = FAMILIES["scancount-eps"]()
        assert index.query_many([]) == ()

    def test_scancount_query_many_crosses_csr_kernels(self):
        # Force a compaction so the postings hold a materialized CSR
        # snapshot plus deltas: every probe of the batch must merge both.
        index = IncrementalScanCountFilter(threshold=0.3, compaction_ratio=0.1)
        pool = _smoke_pool(14, seed=63)
        rng = np.random.default_rng(64)
        for op in random_operations(pool, rng, 160, add_weight=0.4,
                                    remove_weight=0.35):
            if op.kind == "add":
                index.add(op.profile)
            elif op.kind == "remove":
                index.remove(op.uid)
        for profile in pool:
            if profile.uid not in index:
                index.add(profile)
        assert index._postings.compactions > 0
        assert index._postings._csr is not None
        assert index.query_many(pool) == tuple(index.query(p) for p in pool)

    def test_scancount_query_many_honours_overrides(self):
        index = IncrementalScanCountFilter(threshold=0.3)
        pool = _smoke_pool(10, seed=65)
        for profile in pool[:7]:
            index.add(profile)
        assert index.query_many(pool, eps=0.6) == tuple(
            index.query(p, eps=0.6) for p in pool
        )
        assert index.query_many(pool, k=2) == tuple(
            index.query(p, k=2) for p in pool
        )
        with pytest.raises(ValueError):
            index.query_many(pool, eps=0.5, k=2)

    def test_overlap_arrays_masks_tombstones_on_both_sides(self):
        # Slots removed after the snapshot and slots removed from the
        # delta must both vanish from every query's rows.
        postings = DynamicPostings(compaction_ratio=100.0)
        sets = {
            slot: frozenset({f"t{slot % 4}", f"u{slot % 3}", f"v{slot}"})
            for slot in range(16)
        }
        for slot in range(10):
            postings.add(slot, sets[slot])
        postings.compact()
        for slot in range(10, 16):
            postings.add(slot, sets[slot])
        for slot in (1, 4, 11, 14):  # two snapshot, two delta slots
            postings.remove(slot)
        live = {s: t for s, t in sets.items() if s not in (1, 4, 11, 14)}
        queries = [
            frozenset({"t0", "u1"}),
            frozenset({"v4", "v11", "t2"}),
            frozenset({"zz"}),
            frozenset({"t1", "u2", "v14", "v15"}),
        ]
        for query in queries:
            slots, overlaps, sizes = postings.overlap_arrays(query)
            expected = {
                slot: (len(tokens & query), len(tokens))
                for slot, tokens in live.items()
                if tokens & query
            }
            got = dict(
                zip(slots.tolist(), zip(overlaps.tolist(), sizes.tolist()))
            )
            assert got == expected
