"""Tests for configuration optimization: optimizer, tuners, baselines."""

import pytest

from repro.core.optimizer import GridSearchOptimizer
from repro.sparse.epsilon_join import EpsilonJoin
from repro.tuning import (
    BASELINES,
    FINE_TUNED_METHODS,
    evaluate_baseline,
    make_baseline,
    tune_method,
)
from repro.tuning.blocking import BlockingWorkflowTuner, make_builder
from repro.tuning.dense import EmbeddingCache, KNNSearchTuner, LSHTuner
from repro.tuning.result import TunedResult, better
from repro.tuning.sparse import EpsilonJoinTuner, KNNJoinTuner
from repro.tuning import spaces


class TestTunedResult:
    def test_better_prefers_feasible(self):
        feasible = TunedResult("m", pc=0.91, pq=0.1, feasible=True)
        infeasible = TunedResult("m", pc=0.99, pq=0.9, feasible=False)
        assert better(feasible, infeasible) is feasible
        assert better(infeasible, feasible) is feasible

    def test_better_prefers_higher_pq_among_feasible(self):
        low = TunedResult("m", pc=0.95, pq=0.2, feasible=True)
        high = TunedResult("m", pc=0.91, pq=0.5, feasible=True)
        assert better(low, high) is high

    def test_better_prefers_higher_pc_among_infeasible(self):
        low = TunedResult("m", pc=0.5, pq=0.9, feasible=False)
        high = TunedResult("m", pc=0.8, pq=0.1, feasible=False)
        assert better(low, high) is high

    def test_better_with_none(self):
        result = TunedResult("m", feasible=False)
        assert better(None, result) is result

    def test_describe_params(self):
        result = TunedResult("m", params={"k": 3, "a": True})
        assert result.describe_params() == "a=True, k=3"


class TestGridSearchOptimizer:
    def test_validates_target(self):
        with pytest.raises(ValueError):
            GridSearchOptimizer(target_recall=0.0)
        with pytest.raises(ValueError):
            GridSearchOptimizer(repetitions=0)

    def test_search_picks_feasible_max_pq(self, tiny_dataset):
        optimizer = GridSearchOptimizer(target_recall=0.9)
        result = optimizer.search(
            [{"threshold": t} for t in (0.9, 0.5, 0.2)],
            lambda threshold: EpsilonJoin(threshold, model="C3G"),
            tiny_dataset,
        )
        assert result.feasible
        assert result.configurations_tried == 3
        assert result.runtime > 0.0

    def test_search_empty_grid_raises(self, tiny_dataset):
        optimizer = GridSearchOptimizer()
        with pytest.raises(ValueError, match="empty"):
            optimizer.search([], lambda: None, tiny_dataset)

    def test_evaluate_deterministic_filter_single_run(self, tiny_dataset):
        optimizer = GridSearchOptimizer(repetitions=5)
        join = EpsilonJoin(0.3, model="C3G")
        a = optimizer.evaluate(join, tiny_dataset)
        b = optimizer.evaluate(join, tiny_dataset)
        assert a == b


class TestSpaces:
    def test_profile_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_TUNING_PROFILE", raising=False)
        assert spaces.active_profile() == "fast"
        monkeypatch.setenv("REPRO_TUNING_PROFILE", "full")
        assert spaces.active_profile() == "full"
        assert spaces.active_profile("fast") == "fast"

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            spaces.active_profile("medium")

    def test_full_grids_superset_sizes(self):
        assert len(spaces.block_filtering_ratios("full")) > len(
            spaces.block_filtering_ratios("fast")
        )
        assert len(spaces.epsilon_thresholds("full")) > len(
            spaces.epsilon_thresholds("fast")
        )
        assert len(spaces.dense_k_values("full")) > len(
            spaces.dense_k_values("fast")
        )

    def test_builder_grids(self):
        assert spaces.builder_grid("standard") == [{}]
        assert all("q" in c for c in spaces.builder_grid("qgrams"))
        assert all(
            {"l_min", "b_max"} <= set(c)
            for c in spaces.builder_grid("suffix-arrays")
        )
        with pytest.raises(ValueError):
            spaces.builder_grid("nope")

    def test_minhash_full_grid_products(self):
        for config in spaces.minhash_grid("full"):
            assert config["bands"] * config["rows"] in (128, 256, 512)

    def test_make_builder_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_builder("nope")


class TestBlockingTuner:
    def test_finds_feasible_config(self, small_generated):
        tuner = BlockingWorkflowTuner("SBW")
        result = tuner.tune(small_generated)
        assert result.feasible
        assert result.pc >= 0.9
        assert result.configurations_tried > 10

    def test_build_workflow_reproduces_result(self, small_generated):
        tuner = BlockingWorkflowTuner("SBW")
        result = tuner.tune(small_generated)
        workflow = tuner.build_filter(result.params)
        candidates = workflow.candidates(
            small_generated.left, small_generated.right
        )
        from repro.core.metrics import evaluate_candidates

        evaluation = evaluate_candidates(
            candidates,
            small_generated.groundtruth,
            len(small_generated.left),
            len(small_generated.right),
        )
        assert evaluation.pc == pytest.approx(result.pc, abs=1e-9)
        assert evaluation.candidates == result.candidates

    def test_proactive_workflow_skips_block_cleaning(self, small_generated):
        tuner = BlockingWorkflowTuner("SABW")
        result = tuner.tune(small_generated)
        assert result.params.get("purging", False) is False
        assert result.params.get("ratio", 1.0) == 1.0

    def test_unknown_workflow(self):
        with pytest.raises(ValueError):
            BlockingWorkflowTuner("XYZ")


class TestSparseTuners:
    def test_epsilon_tuner_feasible(self, small_generated):
        result = EpsilonJoinTuner().tune(small_generated)
        assert result.feasible
        assert 0.0 < result.params["threshold"] <= 1.0

    def test_epsilon_build_filter_reproduces(self, small_generated):
        tuner = EpsilonJoinTuner()
        result = tuner.tune(small_generated)
        filter_ = tuner.build_filter(result.params)
        candidates = filter_.candidates(
            small_generated.left, small_generated.right
        )
        from repro.core.metrics import pair_completeness

        assert pair_completeness(
            candidates, small_generated.groundtruth
        ) == pytest.approx(result.pc, abs=1e-9)

    def test_knn_tuner_feasible_and_small_k(self, small_generated):
        result = KNNJoinTuner().tune(small_generated)
        assert result.feasible
        assert result.params["k"] <= 10  # cardinality thresholds stay small

    def test_knn_build_filter_reproduces(self, small_generated):
        tuner = KNNJoinTuner()
        result = tuner.tune(small_generated)
        filter_ = tuner.build_filter(result.params)
        candidates = filter_.candidates(
            small_generated.left, small_generated.right
        )
        assert len(candidates) == result.candidates


class TestDenseTuners:
    def test_faiss_tuner(self, small_generated):
        result = KNNSearchTuner("faiss").tune(small_generated)
        assert result.feasible
        assert result.candidates == pytest.approx(
            result.params["k"] * min(len(small_generated.left),
                                     len(small_generated.right)),
            rel=0.5,
        ) or result.candidates > 0

    def test_embedding_cache_reused(self, small_generated):
        cache = EmbeddingCache()
        KNNSearchTuner("faiss", cache=cache).tune(small_generated)
        first_entries = len(cache._cache)
        KNNSearchTuner("scann", cache=cache).tune(small_generated)
        assert len(cache._cache) == first_entries  # same matrices reused

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            KNNSearchTuner("annoy")
        with pytest.raises(ValueError):
            LSHTuner("slsh")

    def test_lsh_tuner_runs(self, small_generated):
        result = LSHTuner("mh-lsh", repetitions=1).tune(small_generated)
        assert result.configurations_tried == len(spaces.minhash_grid("fast"))
        assert result.candidates > 0


class TestBaselines:
    @pytest.mark.parametrize("name", BASELINES)
    def test_factory(self, name):
        filter_ = make_baseline(name)
        assert filter_ is not None

    def test_unknown_baseline(self):
        with pytest.raises(ValueError):
            make_baseline("XXX")

    def test_evaluate_baseline(self, small_generated):
        result = evaluate_baseline("PBW", small_generated, repetitions=1)
        assert result.method == "PBW"
        assert result.pc >= 0.9
        assert result.runtime > 0.0

    def test_tune_method_dispatch(self, small_generated):
        for method in ("SBW", "EJ", "kNNJ", "FAISS"):
            assert method in FINE_TUNED_METHODS
            result = tune_method(method, small_generated)
            assert result.pc > 0.0

    def test_tune_method_unknown(self, small_generated):
        with pytest.raises(ValueError):
            tune_method("XYZ", small_generated)
