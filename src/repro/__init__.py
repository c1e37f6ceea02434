"""repro — filtering techniques for entity resolution.

A from-scratch Python reproduction of "Benchmarking Filtering Techniques
for Entity Resolution" (Papadakis et al., ICDE 2023): blocking workflows,
sparse (set-similarity join) and dense (LSH / kNN-search) nearest-neighbor
filters, a configuration-optimization harness, synthetic benchmark
datasets and the full evaluation suite.

Quickstart::

    from repro import datasets, blocking, metrics

    ds = datasets.load_dataset("d2")
    workflow = blocking.parameter_free_workflow()
    candidates = workflow.candidates(ds.left, ds.right)
    print(metrics.pair_completeness(candidates, ds.groundtruth))
"""

from . import blocking, core, datasets, dense, sparse, text, tuning
from .core import (
    CandidateSet,
    EntityCollection,
    EntityProfile,
    Filter,
    FilterEvaluation,
    GroundTruth,
    evaluate_candidates,
    metrics,
    pair_completeness,
    pairs_quality,
)

__version__ = "1.0.0"

__all__ = [
    "CandidateSet",
    "EntityCollection",
    "EntityProfile",
    "Filter",
    "FilterEvaluation",
    "GroundTruth",
    "blocking",
    "core",
    "datasets",
    "dense",
    "evaluate_candidates",
    "metrics",
    "pair_completeness",
    "pairs_quality",
    "sparse",
    "text",
    "tuning",
]
