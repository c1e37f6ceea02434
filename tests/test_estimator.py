"""Soundness tests for the facts the pruning tuners rely on.

Each fact is checked against the filter it bounds, on seeded synthetic
datasets: the MCV candidate floor never exceeds the ε-Join's |C|, the
covered-query count never exceeds the kNN-Join's |C| at k = 1, and the
groundtruth key coverage never undercounts the duplicates a tuned
blocking or MinHash winner finds.  Violating any of them could change a
tuner's selected configuration under ``--prune``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import registry
from repro.core.optimizer import DEFAULT_RECALL_TARGET
from repro.datasets.generator import DatasetSpec, generate
from repro.datasets.noise import NoiseProfile
from repro.tuning import tune_method
from repro.tuning.blocking import WORKFLOW_NAMES
from repro.tuning.estimator import (
    BlockingEstimator,
    MinHashEstimator,
    SparseJoinEstimator,
    coverage_prunable,
    feasible_threshold,
    prune_enabled,
    snap_down,
)
from repro.tuning.result import TunedResult

SEEDS = (3, 11)

#: Builder parameters of a blocking workflow's tuned ``params``.
BUILDER_PARAMS = ("q", "t", "l_min", "b_max")


@pytest.fixture(scope="module", params=SEEDS)
def seeded_dataset(request):
    spec = DatasetSpec(
        name=f"est-prop-{request.param}",
        domain="product",
        size1=50,
        size2=60,
        duplicates=30,
        seed=request.param,
        noise1=NoiseProfile(typo_rate=0.1, token_drop_rate=0.1),
        noise2=NoiseProfile(typo_rate=0.15, token_drop_rate=0.1),
    )
    return generate(spec)


def candidates(code, params, dataset):
    filter_ = registry.build_filter(code, params)
    return filter_.candidates(dataset.left, dataset.right, None)


def duplicates_found(candidate_set, dataset):
    return sum(1 for pair in dataset.groundtruth if pair in candidate_set)


class TestSparseJoinFacts:
    def test_candidate_floor_never_exceeds_epsilon_join(self, seeded_dataset):
        estimator = SparseJoinEstimator(seeded_dataset)
        floors = []
        for model in ("T1G", "C3GM"):
            for cleaning in (False, True):
                for measure in ("cosine", "jaccard"):
                    for threshold in (0.05, 0.3, 0.7):
                        floor = estimator.candidate_floor(
                            model, cleaning, measure, threshold
                        )
                        params = {
                            "model": model,
                            "cleaning": cleaning,
                            "measure": measure,
                            "threshold": threshold,
                        }
                        actual = len(candidates("EJ", params, seeded_dataset))
                        assert floor <= actual
                        floors.append(floor)
        assert max(floors) > 0  # the rule fires somewhere

    def test_covered_queries_never_exceed_knn_join(self, seeded_dataset):
        estimator = SparseJoinEstimator(seeded_dataset)
        for model in ("T1G", "C3GM"):
            for cleaning in (False, True):
                stats = estimator.stats(model, cleaning)
                for reverse in (False, True):
                    params = {
                        "model": model,
                        "cleaning": cleaning,
                        "measure": "cosine",
                        "k": 1,
                        "reverse": reverse,
                    }
                    covered = stats.covered_queries(reverse)
                    assert covered > 0
                    actual = len(candidates("kNNJ", params, seeded_dataset))
                    assert covered <= actual


class TestCoverageFacts:
    @pytest.mark.parametrize("code", ["SBW", "QBW"])
    def test_coverage_bounds_blocking_winner(self, code, seeded_dataset):
        winner = tune_method(code, seeded_dataset, profile="fast", prune=False)
        if not winner.params:
            pytest.skip("all configurations infeasible on this seed")
        builder_params = {
            name: winner.params[name]
            for name in BUILDER_PARAMS
            if name in winner.params
        }
        stats = BlockingEstimator(seeded_dataset).key_stats(
            WORKFLOW_NAMES[code], builder_params
        )
        found = duplicates_found(
            candidates(code, winner.params, seeded_dataset), seeded_dataset
        )
        assert found > 0
        assert stats.gt_overlapping >= found

    def test_coverage_bounds_minhash_winner(self, seeded_dataset):
        winner = tune_method(
            "MH-LSH", seeded_dataset, profile="fast", prune=False
        )
        stats = MinHashEstimator(seeded_dataset).key_stats(winner.params)
        filter_ = registry.build_filter("MH-LSH", winner.params)
        for repetition in range(3):
            filter_.reseed(repetition)
            found = duplicates_found(
                filter_.candidates(
                    seeded_dataset.left, seeded_dataset.right, None
                ),
                seeded_dataset,
            )
            assert found > 0
            assert stats.gt_overlapping >= found


class TestSharedRules:
    @pytest.mark.parametrize(
        "gt_overlapping, needed, expected",
        [(4, 5, True), (5, 5, False), (9, 5, False), (0, 0, False)],
    )
    def test_coverage_cap_against_feasible_incumbent(
        self, gt_overlapping, needed, expected
    ):
        best = TunedResult(method="EJ", pc=0.95, feasible=True)
        assert coverage_prunable(gt_overlapping, needed, 10, best) is expected

    @pytest.mark.parametrize(
        "gt_overlapping, total, best_pc, expected",
        [(3, 10, 0.3, True), (3, 10, 0.5, True), (4, 10, 0.3, False),
         (0, 0, 0.0, True)],
    )
    def test_coverage_cap_against_infeasible_incumbent(
        self, gt_overlapping, total, best_pc, expected
    ):
        best = TunedResult(method="EJ", pc=best_pc, feasible=False)
        needed = math.ceil(0.9 * total)
        assert (
            coverage_prunable(gt_overlapping, needed, total, best) is expected
        )

    @pytest.mark.parametrize(
        "similarities, needed, expected",
        [
            ([0.2, 0.955, 0.5], 0, 1.0),
            ([0.2, 0.955, 0.5], 2, 0.5),
            ([0.2, 0.955, 0.5], 4, None),
            ([0.0, 0.7, 0.0], 2, None),
        ],
    )
    def test_feasible_threshold(self, similarities, needed, expected):
        threshold = feasible_threshold(np.asarray(similarities), needed)
        if expected is None:
            assert threshold is None
        else:
            assert threshold == pytest.approx(expected)

    def test_feasible_threshold_is_epsilon_join_choice(self, seeded_dataset):
        winner = tune_method("EJ", seeded_dataset, profile="fast", prune=False)
        assert winner.feasible
        params = winner.params
        needed = math.ceil(
            DEFAULT_RECALL_TARGET * len(seeded_dataset.groundtruth)
        )
        estimator = SparseJoinEstimator(seeded_dataset)
        similarities = estimator.duplicate_similarities(
            params["model"], params["cleaning"], params["measure"]
        )
        assert feasible_threshold(similarities, needed) == params["threshold"]


class TestKnobs:
    def test_prune_enabled_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_TUNING_PRUNE", raising=False)
        assert prune_enabled(None) is False
        assert prune_enabled(True) is True
        monkeypatch.setenv("REPRO_TUNING_PRUNE", "yes")
        assert prune_enabled(None) is True
        assert prune_enabled(False) is False
        monkeypatch.setenv("REPRO_TUNING_PRUNE", "off")
        assert prune_enabled(None) is False

    def test_snap_down(self):
        assert snap_down(0.905) == pytest.approx(0.90)
        assert snap_down(1.0) == pytest.approx(1.0)
        assert snap_down(0.004) == pytest.approx(0.01)
