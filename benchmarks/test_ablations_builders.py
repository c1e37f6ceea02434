"""Ablation: extension block builders vs the benchmarked ones.

Three builders from the blocking literature that the paper mentions or
excludes — Attribute Clustering (schema-based-incompatible), Sorted
Neighborhood (consistently dominated) and Canopy Clustering (stochastic,
similarity-driven) — measured under the same protocol on one dataset.
"""

from __future__ import annotations

import pytest

from repro.blocking.attribute_clustering import AttributeClusteringBlocking
from repro.blocking.building import SortedNeighborhoodBlocking, StandardBlocking
from repro.blocking.canopy import CanopyClusteringBlocking
from repro.core.fastpairs import evaluate_keys
from repro.datasets.registry import load_dataset

from conftest import write_artifact


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("d2")


def _evaluate_blocks(blocks, dataset):
    return evaluate_keys(
        blocks.distinct_pairs().keys,
        dataset.groundtruth.keys,
        len(dataset.left),
        len(dataset.right),
    )


BUILDERS = {
    "standard": lambda: StandardBlocking(),
    "attribute-clustering": lambda: AttributeClusteringBlocking(),
    "sorted-neighborhood": lambda: SortedNeighborhoodBlocking(window=8),
    "canopy": lambda: CanopyClusteringBlocking(t_loose=0.2, t_tight=0.6,
                                               model="C3G"),
}


def test_render_builder_comparison(dataset, results_dir):
    lines = ["extension block builders on d2 (raw blocks, no cleaning)"]
    for name, factory in BUILDERS.items():
        blocks = factory().build(dataset.left, dataset.right)
        evaluation = _evaluate_blocks(blocks, dataset)
        lines.append(
            f"{name:22s} PC={evaluation.pc:.3f} PQ={evaluation.pq:.4f} "
            f"|C|={evaluation.candidates:7d} blocks={len(blocks)}"
        )
    write_artifact(results_dir, "ablation_builders.txt", "\n".join(lines))


def test_attribute_clustering_never_more_candidates(dataset):
    """Cluster-qualified tokens are a refinement of plain tokens."""
    standard = StandardBlocking().build(dataset.left, dataset.right)
    clustered = AttributeClusteringBlocking().build(
        dataset.left, dataset.right
    )
    assert (
        _evaluate_blocks(clustered, dataset).candidates
        <= _evaluate_blocks(standard, dataset).candidates
    )


def test_sorted_neighborhood_resists_refinement(dataset):
    """The paper's reason for excluding Sorted Neighborhood: its window
    blocks do not profit from comparison cleaning the way signature
    blocks do, so the refined Standard workflow dominates the refined SN
    workflow."""
    from repro.blocking.metablocking import MetaBlocking
    from repro.blocking.workflow import BlockingWorkflow
    from repro.core.metrics import evaluate_candidates

    def run(builder):
        workflow = BlockingWorkflow(
            builder, cleaner=MetaBlocking("ARCS", "RCNP")
        )
        candidates = workflow.candidates(dataset.left, dataset.right)
        return evaluate_candidates(
            candidates, dataset.groundtruth,
            len(dataset.left), len(dataset.right),
        )

    standard = run(StandardBlocking())
    sorted_neighborhood = run(SortedNeighborhoodBlocking(window=8))
    assert standard.f1 >= sorted_neighborhood.f1


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_benchmark_builders(dataset, benchmark, name):
    builder = BUILDERS[name]()
    benchmark.pedantic(
        builder.build, args=(dataset.left, dataset.right), rounds=1,
        iterations=1,
    )
