"""Tests for the token statistics behind the kNN-Join's prune rule."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core.groundtruth import GroundTruth
from repro.core.profile import EntityCollection, EntityProfile
from repro.datasets import stats as stats_module
from repro.datasets.generator import DatasetSpec, ERDataset
from repro.datasets.registry import load_dataset
from repro.datasets.stats import (
    TokenStats,
    attribute_stats,
    clear_token_stats_cache,
    compute_token_stats,
    select_best_attribute,
    token_stats,
)
from repro.text.cleaning import clean_text
from repro.text.tokenizers import REPRESENTATION_MODELS, tokenize, word_tokens
from repro.tuning import tune_method
from repro.tuning.auto import AutoKNNConfigurator

SRC = Path(__file__).resolve().parents[1] / "src"


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


def reference_stats(left_texts, right_texts, gt_pairs, model, cleaning):
    """:class:`TokenStats` from per-text frozensets, one text at a time."""

    def sets(texts):
        return [
            tokenize(clean_text(text) if cleaning else text, model)
            for text in texts
        ]

    left, right = sets(left_texts), sets(right_texts)
    left_tokens = frozenset().union(*left)
    right_tokens = frozenset().union(*right)
    return TokenStats(
        left_covered=sum(1 for keys in left if keys & right_tokens),
        right_covered=sum(1 for keys in right if keys & left_tokens),
        gt_overlapping=sum(1 for a, b in gt_pairs if left[a] & right[b]),
    )


class TestComputeTokenStats:
    def test_empty_collections(self):
        stats = compute_token_stats([], [], [], model="T1G")
        assert stats == TokenStats(0, 0, 0)

    def test_all_empty_texts(self):
        stats = compute_token_stats(["", ""], [""], [(0, 0)], model="T1G")
        assert stats.covered_queries(reverse=False) == 0
        assert stats == TokenStats(0, 0, 0)

    def test_out_of_vocabulary_sides(self):
        # No token is shared: nothing is covered, no duplicate overlaps.
        left = ["alpha beta", "gamma"]
        right = ["delta", "epsilon zeta", ""]
        pairs = [(0, 0), (1, 1), (1, 2)]
        stats = compute_token_stats(left, right, pairs, model="T1G")
        assert stats == TokenStats(0, 0, 0)
        # One side empty altogether.
        assert compute_token_stats(left, [], [], model="C3G") == (
            TokenStats(0, 0, 0)
        )

    def test_gt_overlapping_matches_token_sets(self):
        left = ["red apple pie", "blue car"]
        right = ["red apple tart", "green bike"]
        stats = compute_token_stats(
            left, right, [(0, 0), (1, 1)], model="T1G"
        )
        assert stats == TokenStats(
            left_covered=1, right_covered=1, gt_overlapping=1
        )

    @pytest.mark.parametrize("cleaning", [False, True])
    @pytest.mark.parametrize("model", REPRESENTATION_MODELS)
    @pytest.mark.parametrize("name", ["d1", "d2"])
    def test_matches_frozenset_reference(self, name, model, cleaning):
        dataset = load_dataset(name)
        args = (
            dataset.left.texts(),
            dataset.right.texts(),
            list(dataset.groundtruth),
            model,
            cleaning,
        )
        stats = compute_token_stats(*args)
        assert stats == reference_stats(*args)
        assert stats.gt_overlapping > 0

    @pytest.mark.parametrize("model", ["T1G", "C3GM"])
    def test_cleaned_stats_come_from_cleaned_texts(self, model):
        left = [
            "The running dogs of the houses", "connected printers", "of the"
        ]
        right = ["a running dog", "the printer is connecting", "other"]
        pairs = [(0, 0), (1, 1), (2, 2)]
        cleaned = compute_token_stats(
            left, right, pairs, model=model, cleaning=True
        )
        precleaned = compute_token_stats(
            [clean_text(text) for text in left],
            [clean_text(text) for text in right],
            pairs,
            model=model,
        )
        assert cleaned == precleaned
        assert cleaned != compute_token_stats(left, right, pairs, model=model)


class TestTokenStatsMemo:
    ARGS = (["alpha beta", "gamma"], ["beta delta", "gamma"], [(0, 0), (1, 1)])

    def test_equal_inputs_share_one_object(self):
        clear_token_stats_cache()
        first = token_stats(*self.ARGS, model="T1G")
        assert token_stats(*self.ARGS, model="T1G") is first
        assert first == compute_token_stats(*self.ARGS, model="T1G")

    def test_clear_drops_memoized_stats(self):
        first = token_stats(*self.ARGS, model="T1G")
        clear_token_stats_cache()
        again = token_stats(*self.ARGS, model="T1G")
        assert again is not first
        assert again == first

    def test_same_sizes_different_texts_recompute(self):
        # Same collection and groundtruth sizes, different texts: the
        # memo key must tell them apart instead of serving stale overlaps.
        token_stats(
            ["apple pie", "banana"], ["apple", "cherry"], [(0, 0)],
            model="T1G",
        )
        fresh = token_stats(
            ["kiwi", "banana"], ["apple", "cherry"], [(0, 0)], model="T1G"
        )
        assert fresh.gt_overlapping == 0
        assert fresh.left_covered == 0

    def test_each_key_space_computed_once_across_sparse_tuners(
        self, small_generated, monkeypatch
    ):
        computed = Counter()
        original = stats_module.compute_token_stats

        def counting(*args, **kwargs):
            computed[(kwargs["model"], kwargs["cleaning"])] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(stats_module, "compute_token_stats", counting)
        clear_token_stats_cache()
        try:
            # The ε-Join tuner has no prune rule and reads no statistics.
            tune_method("EJ", small_generated, profile="fast", prune=True)
            assert not computed
            tune_method("kNNJ", small_generated, profile="fast", prune=True)
            after_first = dict(computed)
            tune_method("kNNJ", small_generated, profile="fast", prune=True)
        finally:
            clear_token_stats_cache()
        assert after_first
        assert dict(computed) == after_first
        assert set(computed.values()) == {1}

    def test_pruned_tunes_write_no_file(self, tmp_path):
        # A fresh process, so nothing is served from an in-process memo.
        script = (
            "from repro.datasets.registry import load_dataset\n"
            "from repro.tuning import tune_method\n"
            "dataset = load_dataset('d1')\n"
            "for method in ('EJ', 'kNNJ', 'SBW'):\n"
            "    tune_method(method, dataset, profile='fast', prune=True)\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONDONTWRITEBYTECODE="1",
            REPRO_BENCH_CACHE=str(tmp_path),
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert list(tmp_path.rglob("*")) == []


def old_rule(dataset, attribute):
    """choose_model's rule, computed inline from raw ``word_tokens``."""
    lengths = []
    for collection in (dataset.left, dataset.right):
        for text in collection.texts(attribute):
            lengths.extend(len(t) for t in word_tokens(text))
    mean = sum(lengths) / len(lengths)
    if mean >= 8.0:
        return "T1GM"
    if mean >= 6.0:
        return "C5GM"
    return "C3GM"


class TestAutoConfiguratorRegression:
    """choose_model's mean token length, pinned against the inline rule."""

    def test_choose_model_matches_old_rule(self, small_generated):
        assert AutoKNNConfigurator.choose_model(
            small_generated.left, small_generated.right
        ) == old_rule(small_generated, None)

    def test_choose_model_reads_the_given_attribute(self, small_generated):
        attribute = small_generated.key_attribute
        assert AutoKNNConfigurator.choose_model(
            small_generated.left, small_generated.right, attribute
        ) == old_rule(small_generated, attribute)

    def test_choose_model_without_tokens_defaults_to_c5gm(self):
        dataset = make_dataset("", [{"title": ""}], [{"title": "  "}], [])
        assert AutoKNNConfigurator.choose_model(
            dataset.left, dataset.right
        ) == "C5GM"
