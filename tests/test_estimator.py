"""Soundness tests for the facts the kNN-Join's prune rule relies on.

Each fact is checked against the filter it bounds, on seeded synthetic
datasets: the covered-query count never exceeds the kNN-Join's |C| at
k = 1, the duplicates it finds never exceed those sharing a token, and
the coverage cap never vetoes a configuration that could
strictly beat the incumbent.  Violating either could change the tuner's
selected configuration under ``--prune``.  The ε-Join's threshold rule
(:func:`feasible_threshold`), which the same module holds, is checked
against the tuner's choice.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import registry
from repro.core.optimizer import DEFAULT_RECALL_TARGET
from repro.datasets.generator import DatasetSpec, generate
from repro.datasets.noise import NoiseProfile
from repro.datasets.stats import token_stats
from repro.tuning import tune_method
from repro.tuning.result import TunedResult
from repro.tuning.sparse import (
    _OverlapMatrix,
    coverage_prunable,
    feasible_threshold,
    overlap_counts,
    snap_down,
)

SEEDS = (3, 11)


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


class TestSparseJoinFacts:
    def test_covered_queries_never_exceed_knn_join(self, seeded_dataset):
        for model in ("T1G", "C3GM"):
            for cleaning in (False, True):
                stats = token_stats(
                    seeded_dataset.left.texts(),
                    seeded_dataset.right.texts(),
                    seeded_dataset.groundtruth,
                    model,
                    cleaning,
                )
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
                    actual = candidates("kNNJ", params, seeded_dataset)
                    assert covered <= len(actual)
                    # Token-disjoint duplicates never share a row.
                    found = sum(
                        1 for pair in seeded_dataset.groundtruth
                        if pair in actual
                    )
                    assert found <= stats.gt_overlapping


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
        matrix = _OverlapMatrix(
            overlap_counts(
                seeded_dataset.left.texts(),
                seeded_dataset.right.texts(),
                params["model"],
                params["cleaning"],
            ),
            list(seeded_dataset.groundtruth),
        )
        similarities = matrix.duplicate_similarities(params["measure"])
        assert feasible_threshold(similarities, needed) == params["threshold"]


class TestKnobs:
    @pytest.mark.parametrize("code", ["kNNJ"])
    def test_registry_tuner_carries_prune(self, code):
        # ``prune`` is the only switch, and it is off unless passed.
        assert registry.make_tuner(code).prune is False
        assert registry.make_tuner(code, prune=True).prune is True
        assert registry.get(code).make_tuner(prune=True).prune is True

    def test_snap_down(self):
        assert snap_down(0.905) == pytest.approx(0.90)
        assert snap_down(1.0) == pytest.approx(1.0)
        assert snap_down(0.004) == pytest.approx(0.01)
