"""Property tests for the cardinality-estimation layer.

The contract under test is the one the pruning tuners rely on:
``estimate_candidates`` never undercounts the true
candidate set of any configuration, and ``pc_upper_bound`` never
undercounts the achievable pair completeness.  Violating either could
change a tuner's selected configuration under ``--prune``.
"""

from __future__ import annotations

import pytest

from repro.core import registry
from repro.datasets.generator import DatasetSpec, generate
from repro.datasets.noise import NoiseProfile
from repro.tuning import tune_method
from repro.tuning.estimator import prune_enabled, snap_down

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


def actual_candidates(code, params, dataset):
    filter_ = registry.build_filter(code, params)
    return len(filter_.candidates(dataset.left, dataset.right, None))


def bound_estimator(code, dataset):
    estimator = registry.build_estimator(code)
    estimator.prepare(dataset, None)
    return estimator


class TestSparseBounds:
    def test_epsilon_join_bound_never_undercounts(self, seeded_dataset):
        estimator = bound_estimator("EJ", seeded_dataset)
        for model in ("T1G", "C3GM"):
            for cleaning in (False, True):
                for measure in ("cosine", "jaccard"):
                    for threshold in (0.3, 0.7):
                        params = {
                            "model": model,
                            "cleaning": cleaning,
                            "measure": measure,
                            "threshold": threshold,
                        }
                        actual = actual_candidates(
                            "EJ", params, seeded_dataset
                        )
                        assert estimator.estimate_candidates(params) >= actual

    def test_knn_join_bound_never_undercounts(self, seeded_dataset):
        estimator = bound_estimator("kNNJ", seeded_dataset)
        for k in (1, 3):
            for reverse in (False, True):
                params = {
                    "model": "T1G",
                    "cleaning": True,
                    "measure": "cosine",
                    "k": k,
                    "reverse": reverse,
                }
                actual = actual_candidates("kNNJ", params, seeded_dataset)
                assert estimator.estimate_candidates(params) >= actual

    def test_ej_pc_bound_never_undercounts(self, seeded_dataset):
        estimator = bound_estimator("EJ", seeded_dataset)
        duplicates = len(seeded_dataset.groundtruth)
        for threshold in (0.3, 0.7):
            params = {
                "model": "T1G",
                "cleaning": False,
                "measure": "cosine",
                "threshold": threshold,
            }
            filter_ = registry.build_filter("EJ", params)
            candidates = filter_.candidates(
                seeded_dataset.left, seeded_dataset.right, None
            )
            found = sum(
                1 for pair in seeded_dataset.groundtruth if pair in candidates
            )
            actual_pc = found / duplicates
            assert estimator.pc_upper_bound(params) >= actual_pc - 1e-12


class TestBlockingBounds:
    @pytest.mark.parametrize("code", ["SBW", "QBW"])
    def test_workflow_bound_covers_winner(self, code, seeded_dataset):
        winner = tune_method(
            code, seeded_dataset, profile="fast", prune=False
        )
        if not winner.params:
            pytest.skip("all configurations infeasible on this seed")
        estimator = bound_estimator(code, seeded_dataset)
        actual = actual_candidates(code, winner.params, seeded_dataset)
        assert estimator.estimate_candidates(winner.params) >= actual
        assert estimator.pc_upper_bound(winner.params) >= winner.pc - 1e-12


class TestMinHashBounds:
    def test_bound_covers_repeated_runs(self, seeded_dataset):
        estimator = bound_estimator("MH-LSH", seeded_dataset)
        params = {
            "bands": 64,
            "rows": 4,
            "shingle_k": 3,
            "cleaning": False,
        }
        bound = estimator.estimate_candidates(params)
        filter_ = registry.build_filter("MH-LSH", params)
        for repetition in range(3):
            filter_.reseed(repetition)
            actual = len(
                filter_.candidates(
                    seeded_dataset.left, seeded_dataset.right, None
                )
            )
            assert bound >= actual


class TestDenseEstimators:
    def test_knn_closed_form_is_exact(self, seeded_dataset):
        queries = len(seeded_dataset.right)
        indexed = len(seeded_dataset.left)
        estimator = registry.build_estimator("FAISS")
        estimator.prepare(seeded_dataset, None)
        assert estimator.estimate_candidates({"k": 5}) == (
            queries * min(5, indexed)
        )

    def test_lsh_bound_is_comparison_space(self, seeded_dataset):
        estimator = registry.build_estimator("HP-LSH")
        estimator.prepare(seeded_dataset, None)
        space = len(seeded_dataset.left) * len(seeded_dataset.right)
        assert estimator.estimate_candidates(
            {"tables": 4, "hashes": 8, "probes": 4}
        ) == space


class TestRegistrySurface:
    def test_every_spec_with_estimator_roundtrips(self):
        codes = registry.estimator_codes()
        assert "EJ" in codes and "SBW" in codes and "MH-LSH" in codes
        for code in codes:
            estimator = registry.build_estimator(code)
            assert estimator.describe() == {
                "code": code,
                "estimator": type(estimator).__name__,
            }

    def test_check_consistency_covers_estimators(self):
        registry.check_consistency()

    def test_unprepared_estimator_raises(self):
        estimator = registry.build_estimator("EJ")
        with pytest.raises(RuntimeError):
            estimator.estimate_candidates(
                {"model": "T1G", "cleaning": False, "threshold": 0.5}
            )


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
