"""Blocking-tuner parity: the shared-work search equals a plain grid loop.

The blocking tuners evaluate each distinct block collection once (a Block
Purging pass that drops no block re-offers the unpurged sweep) and score
every pruning mask by counting rows (:class:`MaskEvaluator`).  The
reference search here does neither: it rebuilds every (builder, purging,
ratio) collection, graph and weight vector, and scores every
(scheme, pruning) point with ``evaluate_keys(graph_keys[mask], ...)``.
Both must select the same configuration with the same PC, PQ, |C|,
feasibility and grid counters.

d1 is a dataset where Block Purging drops blocks, d5 one where it drops
none, so both branches of the tuner are covered.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blocking.building import BlockBuilder, StandardBlocking
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.metablocking import PairGraph, prune_mask
from repro.core.candidates import pack_ids
from repro.core.fastpairs import MaskEvaluator, evaluate_keys
from repro.core.optimizer import DEFAULT_RECALL_TARGET
from repro.datasets.registry import load_dataset
from repro.learned.features import edge_features
from repro.learned.models import serialize_model, train_model
from repro.learned.sampling import sample_labeled_edges
from repro.tuning import spaces
from repro.tuning.blocking import (
    MAX_GRAPH_COMPARISONS,
    WORKFLOW_NAMES,
    BlockingWorkflowTuner,
    make_builder,
)
from repro.tuning.learned import SMB_SEED, SupervisedMetaBlockingTuner
from repro.tuning.result import Incumbent, TunedResult

DATASETS = ("d1", "d5")


def reference_blocking(workflow: str, dataset) -> Incumbent:
    """Every grid point of one workflow, built and scored from scratch."""
    builder_name = WORKFLOW_NAMES[workflow]
    proactive = builder_name in ("suffix-arrays", "extended-suffix-arrays")
    gt_keys = dataset.groundtruth.keys
    size1, size2 = len(dataset.left), len(dataset.right)
    incumbent = Incumbent(workflow, DEFAULT_RECALL_TARGET)
    for builder_params in spaces.builder_grid(builder_name, "fast"):
        incumbent.enumerated += 1
        builder = make_builder(builder_name, **builder_params)
        if proactive:
            base = builder.cap(
                BlockBuilder.build(builder, dataset.left, dataset.right)
            )
        else:
            base = builder.build(dataset.left, dataset.right)
        for purging in (False,) if proactive else (False, True):
            blocks = (
                BlockPurging().clean(base, size1 + size2) if purging else base
            )
            ratios = [1.0] if proactive else spaces.block_filtering_ratios("fast")
            for ratio in sorted(ratios, reverse=True):
                filtered = (
                    BlockFiltering(ratio).clean(blocks) if ratio < 1.0 else blocks
                )
                if filtered.total_comparisons > MAX_GRAPH_COMPARISONS:
                    continue
                graph = PairGraph(filtered)
                graph_keys = pack_ids(graph.lefts, graph.rights)
                params = {**builder_params, "purging": purging, "ratio": ratio}
                upper = evaluate_keys(graph_keys, gt_keys, size1, size2)
                incumbent.offer(
                    {**params, "cleaner": "CP"},
                    upper.pc, upper.pq, upper.candidates,
                )
                if upper.pc < DEFAULT_RECALL_TARGET:
                    break
                for scheme in spaces.weighting_schemes("fast"):
                    weights = graph.weights(scheme)
                    for algorithm in spaces.pruning_algorithms("fast"):
                        mask = prune_mask(graph, weights, algorithm)
                        evaluation = evaluate_keys(
                            graph_keys[mask], gt_keys, size1, size2
                        )
                        incumbent.offer(
                            {**params, "cleaner": f"{scheme}+{algorithm}"},
                            evaluation.pc, evaluation.pq, evaluation.candidates,
                        )
    return incumbent


def reference_smb(dataset) -> Incumbent:
    """Every SMB grid point, each mask scored on its masked keys."""
    gt_keys = dataset.groundtruth.keys
    size1, size2 = len(dataset.left), len(dataset.right)
    graph = PairGraph(StandardBlocking().build(dataset.left, dataset.right))
    matrix = edge_features(graph)
    keys = pack_ids(graph.lefts, graph.rights)
    incumbent = Incumbent("SMB", DEFAULT_RECALL_TARGET)
    for model_kind in spaces.smb_models("fast"):
        for sample_size in spaces.smb_sample_sizes("fast"):
            indices, labels = sample_labeled_edges(
                keys, gt_keys, sample_size, SMB_SEED
            )
            model = train_model(model_kind, matrix[indices], labels, seed=SMB_SEED)
            scores = model.predict_proba(matrix)
            params = {
                "model": model_kind,
                "sample_size": int(sample_size),
                "seed": SMB_SEED,
                "weights": serialize_model(model),
            }
            masks = [
                ({"pruning": "WEP", "threshold": float(t)}, scores >= t)
                for t in spaces.smb_thresholds("fast")
            ]
            for k in spaces.smb_topk("fast"):
                top_left, top_right = graph.node_ranking(scores).tops(k)
                masks.append(({"pruning": "CEP", "k": int(k)}, top_left | top_right))
            incumbent.enumerated += len(masks)
            for prune_params, mask in masks:
                evaluation = evaluate_keys(keys[mask], gt_keys, size1, size2)
                incumbent.offer(
                    {**params, **prune_params},
                    evaluation.pc, evaluation.pq, evaluation.candidates,
                )
    return incumbent


def assert_same_selection(result: TunedResult, reference: Incumbent) -> None:
    best = reference.best
    assert best is not None
    assert result.params == best.params
    assert list(result.params) == list(best.params)  # same key order
    assert (result.pc, result.pq, result.candidates, result.feasible) == (
        best.pc, best.pq, best.candidates, best.feasible,
    )
    assert result.configurations_tried == reference.tried
    assert result.configurations_enumerated == reference.enumerated
    assert result.configurations_pruned == reference.pruned == 0


@pytest.fixture(scope="module", params=DATASETS)
def dataset(request):
    return load_dataset(request.param)


@pytest.mark.parametrize("workflow", tuple(WORKFLOW_NAMES))
def test_workflow_tuner_matches_reference(workflow, dataset):
    result = BlockingWorkflowTuner(workflow, profile="fast").tune(dataset)
    assert_same_selection(result, reference_blocking(workflow, dataset))


def test_smb_tuner_matches_reference(dataset):
    result = SupervisedMetaBlockingTuner(profile="fast").tune(dataset)
    assert_same_selection(result, reference_smb(dataset))


@pytest.mark.parametrize("name, drops", [("d1", True), ("d5", False)])
def test_reference_datasets_cover_both_purging_branches(name, drops):
    dataset = load_dataset(name)
    blocks = StandardBlocking().build(dataset.left, dataset.right)
    purged = BlockPurging().clean(blocks, len(dataset.left) + len(dataset.right))
    assert (len(purged) < len(blocks)) == drops


# ----------------------------------------------------------------------
# The count helper.
# ----------------------------------------------------------------------


def _sorted_unique(rng, n: int, high: int) -> np.ndarray:
    return np.unique(rng.integers(0, high, size=n)).astype(np.int64)


@pytest.mark.parametrize("seed", range(5))
def test_mask_evaluator_matches_evaluate_keys(seed):
    rng = np.random.default_rng(seed)
    keys = _sorted_unique(rng, 400, 2000)
    # Groundtruth keys inside and outside the key array.
    gt_keys = np.unique(
        np.concatenate([rng.choice(keys, 30), _sorted_unique(rng, 30, 4000)])
    )
    evaluator = MaskEvaluator(keys, gt_keys, 50, 60)
    masks = [
        rng.random(len(keys)) < 0.3,
        np.zeros(len(keys), dtype=bool),
        np.ones(len(keys), dtype=bool),
    ]
    for mask in masks:
        assert evaluator.evaluate(mask) == evaluate_keys(
            keys[mask], gt_keys, 50, 60
        )


def test_mask_evaluator_empty_groundtruth_and_keys():
    keys = np.array([3, 5, 9], dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    mask = np.array([True, False, True])
    no_rows = np.zeros(0, dtype=bool)
    assert MaskEvaluator(keys, empty, 4, 4).evaluate(mask) == evaluate_keys(
        keys[mask], empty, 4, 4
    )
    assert MaskEvaluator(empty, keys, 4, 4).evaluate(no_rows) == evaluate_keys(
        empty, keys, 4, 4
    )
    assert MaskEvaluator(empty, empty, 0, 0).evaluate(no_rows) == evaluate_keys(
        empty, empty, 0, 0
    )
