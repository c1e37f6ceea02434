"""Occupancy gauges of the bucket-store incremental indexes.

Token blocking and both LSH twins share one bucket store
(:class:`~repro.core.incremental.BucketIndex`): key -> live slots with
eager removal.  After any add/remove churn, ``index_stats()`` must read
exactly what a fresh rebuild over the live entities reads — so no empty
bucket survives a removal — and the blocking family's ``suppressed_keys``
must count exactly the live keys over its ``b_max`` cap.
"""

from collections import Counter

import numpy as np
import pytest

from repro.blocking import IncrementalBlockIndex, StandardBlocking
from repro.core.incremental import BucketIndex, _smoke_pool, random_operations
from repro.dense import (
    HashedNGramEmbedder,
    IncrementalHyperplaneLSH,
    IncrementalMinHashLSH,
)

BUCKET_FAMILIES = {
    "blocks": lambda: IncrementalBlockIndex(builder=StandardBlocking()),
    "capped-blocks": lambda: IncrementalBlockIndex(
        builder=StandardBlocking(), max_block_size=3
    ),
    "minhash-lsh": lambda: IncrementalMinHashLSH(
        bands=8, rows=2, shingle_k=2, seed=3
    ),
    "hyperplane-lsh": lambda: IncrementalHyperplaneLSH(
        tables=2, hashes=6, seed=3, embedder=HashedNGramEmbedder(dim=32)
    ),
}

BASE_GAUGES = {"live", "slots", "buckets", "max_bucket"}


def churned(factory, seed):
    """``(index, live profiles)`` after a seeded add/remove stream."""
    pool = _smoke_pool(24, seed=seed)
    rng = np.random.default_rng(seed + 1)
    index = factory()
    live = {}
    for op in random_operations(pool, rng, 160, add_weight=0.4,
                                remove_weight=0.35):
        if op.kind == "add":
            index.add(op.profile)
            live[op.profile.uid] = op.profile
        elif op.kind == "remove":
            index.remove(op.uid)
            del live[op.uid]
    return index, list(live.values())


def rebuilt(factory, profiles):
    index = factory()
    for profile in profiles:
        index.add(profile)
    return index


@pytest.mark.parametrize("name", sorted(BUCKET_FAMILIES))
@pytest.mark.parametrize("seed", [5, 17, 29])
def test_stats_after_churn_equal_a_rebuild(name, seed):
    factory = BUCKET_FAMILIES[name]
    index, live = churned(factory, seed)
    assert isinstance(index, BucketIndex)
    stats = index.index_stats()
    fresh = rebuilt(factory, live).index_stats()
    # Slots are never reused, so only the slot high-water mark differs.
    assert stats.pop("slots") >= fresh.pop("slots") == len(live)
    assert stats == fresh
    assert stats["live"] == len(live) > 0
    assert all(index._buckets.values())


@pytest.mark.parametrize("name", sorted(BUCKET_FAMILIES))
def test_gauge_names(name):
    index, __ = churned(BUCKET_FAMILIES[name], seed=5)
    expected = set(BASE_GAUGES)
    if isinstance(index, IncrementalBlockIndex):
        expected.add("suppressed_keys")
    assert set(index.index_stats()) == expected


def test_emptied_index_reads_zero_buckets():
    for factory in BUCKET_FAMILIES.values():
        index = factory()
        for profile in _smoke_pool(6, seed=2):
            index.add(profile)
            index.remove(profile.uid)
        stats = index.index_stats()
        assert (stats["live"], stats["buckets"], stats["max_bucket"]) == (
            0, 0, 0,
        )


@pytest.mark.parametrize("seed", [5, 17, 29])
def test_suppressed_keys_count_the_oversized_live_keys(seed):
    cap = 3
    factory = BUCKET_FAMILIES["capped-blocks"]
    index, live = churned(factory, seed)
    builder = index.builder
    members = Counter(
        key
        for profile in live
        for key in set(builder.keys(index.text_of(profile)))
    )
    oversized = sum(count > cap for count in members.values())
    stats = index.index_stats()
    assert oversized > 0
    assert stats["suppressed_keys"] == oversized
    assert stats["buckets"] == len(members)
    assert stats["max_bucket"] == max(members.values())
    uncapped, __ = churned(BUCKET_FAMILIES["blocks"], seed)
    assert uncapped.index_stats()["suppressed_keys"] == 0
