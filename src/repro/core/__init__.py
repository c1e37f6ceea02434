"""Core types: entity model, candidate sets, metrics, filter interface,
the method registry and the stage-trace layer."""

from . import registry
from .candidates import CandidateSet
from .filters import Filter
from .groundtruth import GroundTruth
from .incremental import IncrementalFilterAdapter, IncrementalIndex
from .registry import FilterSpec
from .stages import (
    BLOCKING_STAGES,
    INCREMENTAL_STAGES,
    NN_STAGES,
    Stage,
    StageRecord,
    StageTrace,
)
from .metrics import (
    FilterEvaluation,
    evaluate_candidates,
    f_measure,
    pair_completeness,
    pairs_quality,
    reduction_ratio,
    timed,
)
from .profile import EntityCollection, EntityProfile

__all__ = [
    "BLOCKING_STAGES",
    "INCREMENTAL_STAGES",
    "NN_STAGES",
    "CandidateSet",
    "EntityCollection",
    "EntityProfile",
    "Filter",
    "FilterEvaluation",
    "FilterSpec",
    "GroundTruth",
    "IncrementalFilterAdapter",
    "IncrementalIndex",
    "Stage",
    "StageRecord",
    "StageTrace",
    "registry",
    "evaluate_candidates",
    "f_measure",
    "pair_completeness",
    "pairs_quality",
    "reduction_ratio",
    "timed",
]
