"""Ablation benchmarks for the design choices DESIGN.md calls out.

* Holistic vs step-by-step configuration optimization (Section II): the
  joint grid finds a configuration at least as good as tuning each
  workflow step greedily.
* Block Filtering ratio sweep: precision/recall trade-off is monotone.
* Weighting schemes: frequency-discounting schemes vs raw counts.
* Representation models: character q-grams vs whole tokens under typos.
* Cleaning: stop-word removal + stemming shrinks the index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blocking.building import QGramsBlocking, StandardBlocking
from repro.blocking.cleaning import BlockFiltering
from repro.blocking.metablocking import MetaBlocking, PairGraph, prune_mask
from repro.blocking.workflow import BlockingWorkflow
from repro.core.fastpairs import evaluate_keys, groundtruth_keys
from repro.core.metrics import evaluate_candidates
from repro.datasets.registry import load_dataset
from repro.sparse.knn_join import KNNJoin
from repro.sparse.scancount import ScanCountIndex
from repro.text.memo import tokenize_collection
from repro.tuning.blocking import BlockingWorkflowTuner


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("d3")


def _evaluate(filter_, dataset, attribute=None):
    candidates = filter_.candidates(dataset.left, dataset.right, attribute)
    return evaluate_candidates(
        candidates, dataset.groundtruth, len(dataset.left), len(dataset.right)
    )


def test_holistic_beats_stepwise_tuning(dataset, benchmark):
    """Tune BFr first (greedy), then the cleaner — and compare with the
    joint search.  The holistic winner is never worse (Section II)."""
    target = 0.9
    width = len(dataset.right)
    gt = groundtruth_keys(dataset.groundtruth, width)

    # Step-by-step: greedily pick the smallest feasible filtering ratio...
    best_ratio = 1.0
    for ratio in (0.8, 0.6, 0.4, 0.2):
        blocks = StandardBlocking().build(dataset.left, dataset.right)
        filtered = BlockFiltering(ratio).clean(blocks)
        upper = evaluate_keys(
            filtered.pair_keys(width), gt, len(dataset.left), len(dataset.right)
        )
        if upper.pc < target:
            break
        best_ratio = ratio
    # ... then pick the best cleaner for that frozen ratio.
    stepwise_pq = 0.0
    blocks = StandardBlocking().build(dataset.left, dataset.right)
    filtered = BlockFiltering(best_ratio).clean(blocks)
    graph = PairGraph(filtered)
    for scheme in ("ARCS", "CBS", "JS"):
        weights = graph.weights(scheme)
        for algorithm in ("WEP", "BLAST", "RCNP"):
            mask = prune_mask(graph, weights, algorithm)
            keys = np.sort(graph.lefts[mask] * width + graph.rights[mask])
            ev = evaluate_keys(keys, gt, len(dataset.left), len(dataset.right))
            if ev.pc >= target:
                stepwise_pq = max(stepwise_pq, ev.pq)

    holistic = benchmark.pedantic(
        BlockingWorkflowTuner("SBW").tune, args=(dataset,), rounds=1,
        iterations=1,
    )
    assert holistic.feasible
    assert holistic.pq >= stepwise_pq


def test_block_filtering_ratio_monotone(dataset):
    """Smaller ratios monotonically shrink the candidate set."""
    blocks = StandardBlocking().build(dataset.left, dataset.right)
    sizes = []
    for ratio in (1.0, 0.8, 0.6, 0.4, 0.2):
        filtered = BlockFiltering(ratio).clean(blocks) if ratio < 1 else blocks
        sizes.append(len(filtered.pair_keys(len(dataset.right))))
    assert sizes == sorted(sizes, reverse=True)


def test_frequency_discounting_schemes_help(dataset, benchmark):
    """ECBS (frequency-discounted) prunes better than raw CBS with the
    same pruning algorithm, measured at equal recall feasibility."""
    def run(scheme):
        workflow = BlockingWorkflow(
            StandardBlocking(), cleaner=MetaBlocking(scheme, "BLAST")
        )
        return _evaluate(workflow, dataset)

    cbs = run("CBS")
    ecbs = benchmark.pedantic(run, args=("ECBS",), rounds=1, iterations=1)
    assert ecbs.f1 >= cbs.f1 * 0.8  # never catastrophically worse


def test_qgrams_tolerate_typos_better_than_tokens(dataset):
    """On the noisy d3 dataset, q-gram blocks retain more duplicates than
    token blocks before any cleaning."""
    token_blocks = StandardBlocking().build(dataset.left, dataset.right)
    qgram_blocks = QGramsBlocking(3).build(dataset.left, dataset.right)
    width = len(dataset.right)
    gt = groundtruth_keys(dataset.groundtruth, width)
    token_pc = evaluate_keys(
        token_blocks.pair_keys(width), gt, len(dataset.left), len(dataset.right)
    ).pc
    qgram_pc = evaluate_keys(
        qgram_blocks.pair_keys(width), gt, len(dataset.left), len(dataset.right)
    ).pc
    assert qgram_pc >= token_pc


def test_multiset_model_distinguishes_repetition(dataset, benchmark):
    """C3GM never produces fewer tokens than C3G (its set projection)."""
    texts = dataset.left.texts()[:100]
    plain = tokenize_collection(texts, "C3G", False)
    multi = benchmark.pedantic(
        tokenize_collection, args=(texts, "C3GM", False), rounds=1,
        iterations=1,
    )
    assert all(len(m) >= len(p) for m, p in zip(multi, plain))


def test_cleaning_shrinks_index(dataset):
    """Stop-word removal + stemming reduces the inverted index vocabulary."""
    plain = ScanCountIndex(
        tokenize_collection(dataset.left.texts(), "T1G", False)
    )
    cleaned = ScanCountIndex(
        tokenize_collection(dataset.left.texts(), "T1G", True)
    )
    assert cleaned.vocabulary_size <= plain.vocabulary_size


def test_reversing_join_direction_changes_cost(dataset, benchmark):
    """Indexing the larger side and querying with the smaller one changes
    the candidate count for cardinality joins (the paper's RVS knob)."""
    forward = KNNJoin(k=2, model="C3G").candidates(
        dataset.left, dataset.right
    )
    reverse = benchmark.pedantic(
        KNNJoin(k=2, model="C3G", reverse=True).candidates,
        args=(dataset.left, dataset.right),
        rounds=1,
        iterations=1,
    )
    assert len(forward) != len(reverse)
