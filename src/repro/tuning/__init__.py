"""Configuration optimization (Problem 1) per method family.

The entry point for benchmark code is :func:`tune_method`, which resolves
the paper's method acronyms through the central
:mod:`repro.core.registry`:

========  =============================================
acronym   method
========  =============================================
SBW       Standard Blocking workflow
QBW       Q-Grams Blocking workflow
EQBW      Extended Q-Grams Blocking workflow
SABW      Suffix Arrays Blocking workflow
ESABW     Extended Suffix Arrays Blocking workflow
EJ        ε-Join (range join)
kNNJ      kNN-Join
MH-LSH    MinHash LSH
HP-LSH    Hyperplane LSH
CP-LSH    Cross-Polytope LSH
FAISS     exact kNN search (Flat index)
SCANN     partitioned kNN search
DB        DeepBlocker (autoencoder tuple embeddings)
SMB       Supervised Meta-blocking (learned edge pruning)
========  =============================================

Baselines (PBW, DBW, DkNN, DDB) are evaluated — not tuned — through
:func:`repro.tuning.baselines.evaluate_baseline`.

Importing this package registers every method's
:class:`~repro.core.registry.FilterSpec`: the family tuner modules
(:mod:`.blocking`, :mod:`.sparse`, :mod:`.dense`) and the baselines
module (:mod:`.baselines`) each register their own specs at import time.
"""

from __future__ import annotations

from typing import Optional

from ..core import registry, stages
from ..core.optimizer import DEFAULT_RECALL_TARGET
from ..datasets.generator import ERDataset
from .baselines import BASELINES, evaluate_baseline, make_baseline
from .blocking import WORKFLOW_NAMES, BlockingWorkflowTuner, make_builder
from .dense import EmbeddingCache, KNNSearchTuner, LSHTuner
from .estimator import CardinalityEstimator, prune_enabled
from .learned import SupervisedMetaBlockingTuner
from .result import TunedResult, better
from .sparse import EpsilonJoinTuner, KNNJoinTuner

__all__ = [
    "BASELINES",
    "FINE_TUNED_METHODS",
    "BlockingWorkflowTuner",
    "CardinalityEstimator",
    "EmbeddingCache",
    "EpsilonJoinTuner",
    "KNNJoinTuner",
    "KNNSearchTuner",
    "LSHTuner",
    "SupervisedMetaBlockingTuner",
    "TunedResult",
    "WORKFLOW_NAMES",
    "better",
    "evaluate_baseline",
    "make_baseline",
    "make_builder",
    "prune_enabled",
    "tune_method",
]

#: The 13 fine-tuned methods of Table VII, in the paper's row order
#: (derived from the registry the tuner modules populated above).
FINE_TUNED_METHODS = registry.fine_tuned_codes()


def tune_method(
    method: str,
    dataset: ERDataset,
    attribute: Optional[str] = None,
    target_recall: float = DEFAULT_RECALL_TARGET,
    profile: str = "",
    cache: Optional[EmbeddingCache] = None,
    prune: Optional[bool] = None,
) -> TunedResult:
    """Run Problem-1 optimization for one method on one dataset/setting.

    The whole optimization runs inside a synthetic ``tune/<method>``
    stage boundary, so the resilience layer's cooperative deadline
    checks fire at least once per cell and the fault injector
    (:class:`repro.bench.resilience.FaultInjector`) can target one
    method's tuning pass by name.

    ``prune=True`` enables the cost-based estimate -> prune -> execute
    pipeline (:mod:`repro.tuning.estimator`): dominated grid
    configurations are discarded from cardinality bounds before any
    filter runs, without ever changing the selected configuration.
    ``None`` defers to the ``REPRO_TUNING_PRUNE`` environment knob.
    """
    tuner = registry.make_tuner(
        method,
        target_recall=target_recall,
        profile=profile,
        cache=cache,
        prune=prune,
    )
    boundary = f"tune/{method}"
    stages.fire_stage_hooks("enter", boundary)
    try:
        result = tuner.tune(dataset, attribute)
    finally:
        stages.fire_stage_hooks("exit", boundary)
    return result
