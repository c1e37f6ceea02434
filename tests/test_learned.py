"""Tests for the learned meta-blocking family (repro.learned + SMB)."""

import numpy as np
import pytest

from repro.blocking.building import StandardBlocking
from repro.blocking.metablocking import WEIGHTING_SCHEMES, PairGraph
from repro.core import registry
from repro.core.fastpairs import encode_pairs, groundtruth_keys
from repro.core.stages import LEARNED_STAGES
from repro.learned import (
    FEATURE_NAMES,
    LogisticModel,
    StumpEnsemble,
    SupervisedMetaBlocking,
    deserialize_model,
    edge_features,
    sample_labeled_edges,
    serialize_model,
    train_model,
)
from repro.tuning.learned import SMB_SEED, SupervisedMetaBlockingTuner


def _candidate_keys(candidates, width):
    """Sorted fastpairs keys of a CandidateSet (the byte-comparison form)."""
    pairs = sorted(candidates.as_frozenset())
    if not pairs:
        return np.zeros(0, dtype=np.int64)
    array = np.asarray(pairs, dtype=np.int64)
    return array[:, 0] * width + array[:, 1]


def _separable_sample(n=400, seed=3):
    """A linearly separable 2-feature toy problem."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 2))
    labels = (features[:, 0] + features[:, 1] > 0).astype(np.float64)
    return features, labels


class TestModels:
    @pytest.mark.parametrize("kind", ["logistic", "stumps"])
    def test_fit_separates_toy_problem(self, kind):
        features, labels = _separable_sample()
        model = train_model(kind, features, labels, seed=0)
        predictions = model.predict_proba(features) >= 0.5
        accuracy = float(np.mean(predictions == labels.astype(bool)))
        assert accuracy > 0.9

    @pytest.mark.parametrize("kind", ["logistic", "stumps"])
    def test_fit_is_deterministic(self, kind):
        features, labels = _separable_sample()
        one = train_model(kind, features, labels, seed=0)
        two = train_model(kind, features, labels, seed=0)
        assert serialize_model(one) == serialize_model(two)

    @pytest.mark.parametrize("kind", ["logistic", "stumps"])
    def test_serialization_roundtrip_scores_identically(self, kind):
        features, labels = _separable_sample()
        model = train_model(kind, features, labels, seed=0)
        rebuilt = deserialize_model(serialize_model(model))
        assert type(rebuilt) is type(model)
        probe = np.random.default_rng(1).normal(size=(50, 2))
        assert np.array_equal(
            model.predict_proba(probe), rebuilt.predict_proba(probe)
        )

    def test_empty_sample_yields_neutral_logistic(self):
        model = LogisticModel.fit(np.zeros((0, 4)), np.zeros(0))
        scores = model.predict_proba(np.ones((3, 4)))
        assert np.allclose(scores, 0.5)
        assert np.all(np.isfinite(scores))

    def test_empty_sample_yields_finite_stumps(self):
        model = StumpEnsemble.fit(np.zeros((0, 4)), np.zeros(0))
        assert np.all(np.isfinite(model.predict_proba(np.ones((3, 4)))))

    def test_single_class_sample_stays_finite(self):
        features = np.random.default_rng(0).normal(size=(30, 3))
        for kind in ("logistic", "stumps"):
            model = train_model(kind, features, np.zeros(30), seed=0)
            assert np.all(np.isfinite(model.predict_proba(features)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            train_model("forest", np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="unknown model kind"):
            deserialize_model('{"kind": "forest"}')


class TestSampling:
    def test_stratified_and_deterministic(self):
        keys = np.arange(100, dtype=np.int64)
        gt = np.arange(0, 100, 10, dtype=np.int64)  # 10 positives
        one = sample_labeled_edges(keys, gt, 40, seed=5)
        two = sample_labeled_edges(keys, gt, 40, seed=5)
        assert np.array_equal(one[0], two[0])
        assert np.array_equal(one[1], two[1])
        indices, labels = one
        assert len(indices) == 40
        assert labels.sum() == 10  # every positive fits in half the budget
        assert np.all(np.diff(indices) > 0)  # sorted, unique

    def test_budget_respected(self):
        keys = np.arange(1000, dtype=np.int64)
        indices, __ = sample_labeled_edges(
            keys, np.zeros(0, dtype=np.int64), 64, seed=0
        )
        assert len(indices) == 64

    def test_empty_graph(self):
        indices, labels = sample_labeled_edges(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 10, 0
        )
        assert len(indices) == 0 and len(labels) == 0


class TestFeatures:
    def test_matrix_matches_weighting_schemes(self, small_generated):
        blocks = StandardBlocking().build(
            small_generated.left, small_generated.right, None
        )
        graph = PairGraph(blocks)
        matrix = edge_features(graph)
        assert matrix.shape == (len(graph), len(FEATURE_NAMES))
        for column, scheme in enumerate(WEIGHTING_SCHEMES):
            assert np.array_equal(matrix[:, column], graph.weights(scheme))
        assert np.all(np.isfinite(matrix))

    def test_empty_graph_yields_empty_matrix(self):
        from repro.blocking.blocks import BlockCollection

        matrix = edge_features(PairGraph(BlockCollection()))
        assert matrix.shape == (0, len(FEATURE_NAMES))


class TestFilter:
    def test_requires_weights_or_oracle(self):
        with pytest.raises(ValueError, match="weights.*oracle"):
            SupervisedMetaBlocking()

    def test_rejects_unknown_pruning(self, small_generated):
        with pytest.raises(ValueError, match="pruning"):
            SupervisedMetaBlocking(
                oracle=small_generated.groundtruth, pruning="BLAST"
            )

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_k_below_one(self, small_generated, k):
        # CEP with such a k would silently keep no candidate.
        with pytest.raises(ValueError, match="k must be >= 1"):
            SupervisedMetaBlocking(
                oracle=small_generated.groundtruth, pruning="CEP", k=k
            )

    def test_training_is_deterministic_byte_identical_keys(
        self, small_generated
    ):
        """Acceptance criterion: two oracle-trained runs produce
        byte-identical fastpairs keys."""
        width = len(small_generated.right)
        runs = []
        for __ in range(2):
            f = SupervisedMetaBlocking(
                oracle=small_generated.groundtruth, seed=11
            )
            candidates = f.candidates(
                small_generated.left, small_generated.right, None
            )
            runs.append(_candidate_keys(candidates, width))
        assert runs[0].tobytes() == runs[1].tobytes()

    def test_oracle_run_enters_train_stage(self, small_generated):
        f = SupervisedMetaBlocking(oracle=small_generated.groundtruth)
        f.candidates(small_generated.left, small_generated.right, None)
        assert f.stages == LEARNED_STAGES
        assert "train" in f.trace.as_dict()

    def test_pretrained_run_skips_train_stage(self, small_generated):
        weights = serialize_model(
            LogisticModel.fit(
                np.random.default_rng(0).normal(
                    size=(60, len(FEATURE_NAMES))
                ),
                np.random.default_rng(1).integers(0, 2, 60).astype(float),
            )
        )
        f = SupervisedMetaBlocking(weights=weights)
        f.candidates(small_generated.left, small_generated.right, None)
        trace = f.trace.as_dict()
        assert "train" not in trace
        for stage in ("build", "features", "score", "prune"):
            assert stage in trace

    @pytest.mark.parametrize("pruning", ["WEP", "CEP"])
    def test_progressive_emission_matches_batch(
        self, small_generated, pruning
    ):
        f = SupervisedMetaBlocking(
            oracle=small_generated.groundtruth, pruning=pruning, k=3
        )
        batch = f.candidates(
            small_generated.left, small_generated.right, None
        )
        emitted = list(f.emit_progressive())
        scores = [score for __, score in emitted]
        assert scores == sorted(scores, reverse=True)
        assert len(emitted) == len(batch)
        assert {pair for pair, __ in emitted} == batch.as_frozenset()

    def test_progressive_requires_prior_run(self, small_generated):
        f = SupervisedMetaBlocking(oracle=small_generated.groundtruth)
        with pytest.raises(RuntimeError, match="candidates"):
            next(f.emit_progressive())

    def test_cep_respects_per_entity_k(self, small_generated):
        f = SupervisedMetaBlocking(
            oracle=small_generated.groundtruth, pruning="CEP", k=1
        )
        candidates = f.candidates(
            small_generated.left, small_generated.right, None
        )
        # k=1 on both sides: each pair kept is the argmax of one side,
        # so the candidate count is bounded by #left + #right entities.
        assert len(candidates) <= len(small_generated.left) + len(
            small_generated.right
        )


class TestTuner:
    def test_tune_and_rebuild_byte_identical(self, small_generated):
        tuner = SupervisedMetaBlockingTuner()
        result = tuner.tune(small_generated)
        assert result.configurations_tried > 0
        assert result.params["seed"] == SMB_SEED
        assert isinstance(result.params["weights"], str)
        width = len(small_generated.right)
        keys = []
        for __ in range(2):
            rebuilt = registry.build_filter("SMB", result.params)
            candidates = rebuilt.candidates(
                small_generated.left, small_generated.right, None
            )
            assert len(candidates) == result.candidates
            keys.append(_candidate_keys(candidates, width))
        assert keys[0].tobytes() == keys[1].tobytes()

    def test_tuned_result_reaches_recall_target(self, small_generated):
        result = SupervisedMetaBlockingTuner().tune(small_generated)
        assert result.feasible
        assert result.pc >= 0.9
        assert result.runtime > 0

    def test_cached_params_survive_json_roundtrip(self, small_generated):
        """The weights blob is a plain string, so the harness cache's
        scalar-only serialization preserves it exactly."""
        import json

        result = SupervisedMetaBlockingTuner().tune(small_generated)
        thawed = json.loads(json.dumps(result.params))
        rebuilt = registry.build_filter("SMB", thawed)
        candidates = rebuilt.candidates(
            small_generated.left, small_generated.right, None
        )
        assert len(candidates) == result.candidates

    def test_smb_registered_with_learned_stages(self):
        spec = registry.get("SMB")
        assert spec.family == "blocking"
        assert spec.stages == LEARNED_STAGES
        assert not spec.is_baseline
