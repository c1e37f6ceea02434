"""Tests for the token-statistics layer behind cost-based tuning."""

from __future__ import annotations

import json

import pytest

from repro.core.groundtruth import GroundTruth
from repro.core.profile import EntityCollection, EntityProfile
from repro.datasets import stats as stats_module
from repro.datasets.generator import DatasetSpec, ERDataset
from repro.datasets.stats import (
    TokenStats,
    TokenStatsCache,
    attribute_stats,
    compute_token_stats,
    select_best_attribute,
)
from repro.text.cleaning import clean_text
from repro.text.tokenizers import character_qgrams, word_tokens
from repro.tuning.auto import AutoKNNConfigurator


def make_dataset(name, left_attrs, right_attrs, gt_pairs):
    """A hand-built ERDataset from per-entity attribute dicts."""
    left = EntityCollection(
        [EntityProfile(f"a{i}", attrs) for i, attrs in enumerate(left_attrs)],
        name="left",
    )
    right = EntityCollection(
        [EntityProfile(f"b{i}", attrs) for i, attrs in enumerate(right_attrs)],
        name="right",
    )
    spec = DatasetSpec(
        name=name,
        domain="product",
        size1=len(left_attrs),
        size2=len(right_attrs),
        duplicates=len(gt_pairs),
        seed=1,
    )
    return ERDataset(
        spec=spec, left=left, right=right, groundtruth=GroundTruth(gt_pairs)
    )


class TestAttributeSelection:
    def test_score_tie_breaks_alphabetically(self):
        # "alpha" and "beta" carry identical values on every profile, so
        # coverage and distinctiveness tie exactly; the sort's secondary
        # key must make the selection deterministic.
        dataset = make_dataset(
            "",
            [{"alpha": "x1", "beta": "x1"}, {"alpha": "y2", "beta": "y2"}],
            [{"alpha": "x1", "beta": "x1"}],
            [(0, 0)],
        )
        ranked = attribute_stats(dataset)
        assert ranked[0].score == ranked[1].score
        assert select_best_attribute(dataset) == "alpha"

    def test_fully_missing_attribute_scores_zero(self):
        # "ghost" appears in the schema of one entity only, with no
        # usable coverage elsewhere; a populated attribute must win.
        dataset = make_dataset(
            "",
            [{"title": "sonacore laptop", "ghost": ""},
             {"title": "veltron mouse"}],
            [{"title": "sonacore laptop"}],
            [(0, 0)],
        )
        by_name = {s.attribute: s for s in attribute_stats(dataset)}
        assert by_name["ghost"].score < by_name["title"].score
        assert select_best_attribute(dataset) == "title"

    def test_no_attributes_raises(self):
        dataset = make_dataset("", [{}], [{}], [])
        with pytest.raises(ValueError):
            select_best_attribute(dataset)


class TestComputeTokenStats:
    def test_empty_collections(self):
        stats = compute_token_stats([], [], [], model="T1G")
        assert stats.left_covered == 0 and stats.right_covered == 0
        assert stats.mean_key_length == 0.0
        assert stats.gt_overlapping == 0
        assert stats.top_keys == ()

    def test_all_empty_texts(self):
        stats = compute_token_stats(["", ""], [""], [(0, 0)], model="T1G")
        assert stats.top_keys == ()
        assert stats.key_occurrences == 0
        assert stats.covered_queries(reverse=False) == 0
        assert stats.gt_overlapping == 0

    def test_groundtruth_triples_match_token_sets(self):
        left = ["red apple pie", "blue car"]
        right = ["red apple tart", "green bike"]
        stats = compute_token_stats(
            left, right, [(0, 0), (1, 1)], model="T1G"
        )
        assert stats.gt_sizes_left == (3, 2)
        assert stats.gt_sizes_right == (3, 2)
        assert stats.gt_overlaps == (2, 0)
        assert stats.gt_overlapping == 1

    @pytest.mark.parametrize("model", ["T1G", "C3GM"])
    def test_cleaned_key_length_comes_from_cleaned_texts(self, model):
        left = ["The running dogs of the houses", "connected printers"]
        right = ["a running dog", "the printer is connecting"]
        stats = compute_token_stats(
            left, right, [(0, 0)], model=model, cleaning=True
        )
        lengths = []
        for text in left + right:
            cleaned = clean_text(text)
            keys = (
                word_tokens(cleaned)
                if model == "T1G"
                else character_qgrams(cleaned, 3)
            )
            lengths.extend(len(key) for key in keys)
        assert stats.key_occurrences == len(lengths)
        assert stats.mean_key_length == sum(lengths) / len(lengths)

    def test_json_roundtrip_is_lossless(self):
        stats = compute_token_stats(
            ["alpha beta", "beta gamma"],
            ["beta delta"],
            [(0, 0)],
            model="T1G",
            dataset="tiny",
            attribute="title",
        )
        payload = json.loads(json.dumps(stats.to_payload()))
        assert TokenStats.from_payload(payload) == stats

    def test_from_payload_ignores_unknown_keys(self):
        # Caches written before a field was retired (e.g.
        # ``log_disjoint_mass``) must still load.
        stats = compute_token_stats(
            ["alpha beta"], ["beta delta"], [(0, 0)], model="T1G"
        )
        payload = json.loads(json.dumps(stats.to_payload()))
        payload["log_disjoint_mass"] = 1.5
        assert TokenStats.from_payload(payload) == stats

    def test_from_payload_rejects_garbage(self):
        assert TokenStats.from_payload(None) is None
        assert TokenStats.from_payload({"dataset": "x"}) is None


class TestTokenStatsCache:
    def _dataset(self, name="cache-ds", duplicates=2):
        pairs = [(0, 0), (1, 1)][:duplicates]
        return make_dataset(
            name,
            [{"title": "sonacore ultra laptop"},
             {"title": "veltron compact mouse"}],
            [{"title": "sonacore ultra laptop pro"},
             {"title": "veltron compact mouse"}],
            pairs,
        )

    def test_disk_roundtrip(self, tmp_path, monkeypatch):
        path = tmp_path / "token_stats.json"
        first = TokenStatsCache(path)
        original = first.for_dataset(self._dataset(), "title", model="T1G")
        assert path.exists()

        # A fresh cache instance must serve the entry from disk without
        # recomputing anything.
        monkeypatch.setattr(
            stats_module,
            "compute_token_stats",
            lambda *a, **k: pytest.fail("disk entry was not reused"),
        )
        second = TokenStatsCache(path)
        assert second.for_dataset(self._dataset(), "title", model="T1G") == (
            original
        )

    def test_fingerprint_invalidation(self, tmp_path):
        path = tmp_path / "token_stats.json"
        cache = TokenStatsCache(path)
        full = cache.for_dataset(self._dataset(), "title", model="T1G")
        # Same name/attribute/model but a drifted groundtruth: the
        # content fingerprint must force a recomputation instead of
        # serving the stale entry.
        drifted = TokenStatsCache(path).for_dataset(
            self._dataset(duplicates=1), "title", model="T1G"
        )
        assert len(full.gt_overlaps) == 2
        assert len(drifted.gt_overlaps) == 1

    def test_same_sizes_different_texts_recompute(self, tmp_path):
        # Same name and same collection/groundtruth sizes, different
        # texts: a size-only fingerprint would serve the stale overlaps.
        path = tmp_path / "token_stats.json"
        TokenStatsCache(path).for_texts(
            ["apple pie", "banana"], ["apple", "cherry"], [(0, 0)],
            model="T1G", dataset="x",
        )
        fresh = TokenStatsCache(path).for_texts(
            ["kiwi", "banana"], ["apple", "cherry"], [(0, 0)],
            model="T1G", dataset="x",
        )
        assert fresh.gt_overlaps == (0,)
        assert fresh.left_covered == 0

    def test_corrupt_file_is_ignored(self, tmp_path):
        path = tmp_path / "token_stats.json"
        path.write_text("{ not json")
        cache = TokenStatsCache(path)
        stats = cache.for_dataset(self._dataset(), "title", model="T1G")
        assert stats.gt_overlaps == (3, 3)
        cache.save()
        assert json.loads(path.read_text())["schema"] == (
            TokenStatsCache.SCHEMA
        )

    def test_stale_schema_entries_are_dropped(self, tmp_path, monkeypatch):
        path = tmp_path / "token_stats.json"
        cache = TokenStatsCache(path)
        cache.for_dataset(self._dataset(), "title", model="T1G")
        cache.save()
        payload = json.loads(path.read_text())
        payload["schema"] = TokenStatsCache.SCHEMA - 1
        path.write_text(json.dumps(payload))
        recomputed = []
        original = stats_module.compute_token_stats

        def counting(*args, **kwargs):
            recomputed.append(kwargs.get("model"))
            return original(*args, **kwargs)

        monkeypatch.setattr(stats_module, "compute_token_stats", counting)
        TokenStatsCache(path).for_dataset(self._dataset(), "title", model="T1G")
        assert recomputed == ["T1G"]

    def test_adhoc_collections_stay_off_disk(self, tmp_path):
        path = tmp_path / "token_stats.json"
        cache = TokenStatsCache(path)
        cache.for_texts(["a b"], ["a c"], [], model="T1G")
        assert not path.exists()


class TestAutoConfiguratorRegression:
    """Satellite check: choose_model now rides the shared statistics."""

    def test_mean_matches_inline_tokenization(self, small_generated):
        for attribute in (None, small_generated.key_attribute):
            lengths = []
            for collection in (small_generated.left, small_generated.right):
                for text in collection.texts(attribute):
                    lengths.extend(len(t) for t in word_tokens(text))
            expected = sum(lengths) / len(lengths)
            stats = stats_module.shared_stats_cache().for_texts(
                small_generated.left.texts(attribute),
                small_generated.right.texts(attribute),
                gt_pairs=(),
                model="T1G",
                cleaning=False,
            )
            assert stats.mean_key_length == expected

    def test_choose_model_matches_old_rule(self, small_generated):
        lengths = []
        for collection in (small_generated.left, small_generated.right):
            for text in collection.texts(None):
                lengths.extend(len(t) for t in word_tokens(text))
        mean = sum(lengths) / len(lengths)
        if mean >= 8.0:
            expected = "T1GM"
        elif mean >= 6.0:
            expected = "C5GM"
        else:
            expected = "C3GM"
        assert AutoKNNConfigurator.choose_model(
            small_generated.left, small_generated.right
        ) == expected
