"""Round-trip consistency of the dense kNN tuners.

The sweep-based tuner derives PC/PQ/|C| analytically from one ranked
search through the filter that ``build_filter`` returns (same index,
seed and training schedule); materializing the winning configuration
must reproduce the same numbers: exactly for the deterministic methods,
and for DeepBlocker in the evaluation averaged over the tuner's own
training seeds 0-2.
"""

import pytest

from repro.core.metrics import evaluate_candidates
from repro.core.optimizer import GridSearchOptimizer
from repro.datasets.registry import load_dataset
from repro.tuning.dense import KNNSearchTuner


@pytest.mark.parametrize("method", ["faiss", "scann"])
def test_tuned_config_reproduces_reported_metrics(small_generated, method):
    tuner = KNNSearchTuner(method)
    result = tuner.tune(small_generated)
    filter_ = tuner.build_filter(result.params)
    candidates = filter_.candidates(
        small_generated.left, small_generated.right
    )
    evaluation = evaluate_candidates(
        candidates,
        small_generated.groundtruth,
        len(small_generated.left),
        len(small_generated.right),
    )
    assert evaluation.candidates == result.candidates
    assert evaluation.pc == pytest.approx(result.pc, abs=1e-9)
    assert evaluation.pq == pytest.approx(result.pq, abs=1e-9)


def test_deepblocker_tuner_returns_valid_result(small_generated):
    tuner = KNNSearchTuner("deepblocker", repetitions=1)
    result = tuner.tune(small_generated)
    assert 0.0 <= result.pc <= 1.0
    assert result.params["k"] >= 1
    # The materialized filter runs and produces the expected count shape.
    filter_ = tuner.build_filter(result.params)
    candidates = filter_.candidates(
        small_generated.left, small_generated.right
    )
    queries = (
        len(small_generated.left)
        if result.params["reverse"]
        else len(small_generated.right)
    )
    assert len(candidates) == int(result.params["k"]) * queries


def test_scann_winner_reproduces_on_rebuild():
    dataset = load_dataset("d1")
    tuner = KNNSearchTuner("scann", profile="fast")
    tuned = tuner.tune(dataset)
    candidates = tuner.build_filter(tuned.params).candidates(
        dataset.left, dataset.right, None
    )
    built = evaluate_candidates(
        candidates, dataset.groundtruth, len(dataset.left), len(dataset.right)
    )
    assert built.candidates == tuned.candidates
    assert built.pc == tuned.pc
    assert built.pq == tuned.pq


def test_deepblocker_winner_matches_seed_averaged_evaluation():
    dataset = load_dataset("d1")
    tuner = KNNSearchTuner("deepblocker", profile="fast", repetitions=3)
    tuned = tuner.tune(dataset)
    built = GridSearchOptimizer(repetitions=3).evaluate(
        tuner.build_filter(tuned.params), dataset
    )
    assert built.pc == pytest.approx(tuned.pc, abs=1e-9)
    assert built.pq == pytest.approx(tuned.pq, abs=1e-9)
