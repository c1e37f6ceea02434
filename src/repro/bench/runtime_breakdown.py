"""Run-time decomposition per filtering method (Figures 7, 8 and 9).

Blocking workflows decompose into block building, purging, filtering and
comparison cleaning; NN methods into preprocessing, indexing and querying.
The breakdown runs each method once at a given (usually tuned)
configuration and reads the per-phase timings its filter recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import registry
from ..core.filters import Filter
from ..core.stages import BLOCKING_STAGES, NN_STAGES
from ..datasets.generator import ERDataset
from ..datasets.registry import load_dataset
from .harness import ExperimentMatrix

__all__ = ["PhaseBreakdown", "breakdown_filter", "breakdown_from_matrix"]

#: Phase orderings per family, derived from the canonical stage schemas.
BLOCKING_PHASES = tuple(stage.name for stage in BLOCKING_STAGES)
NN_PHASES = tuple(stage.name for stage in NN_STAGES)


@dataclass(frozen=True)
class PhaseBreakdown:
    """Per-phase run-time of one method on one dataset/setting."""

    method: str
    dataset: str
    setting: str
    phases: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def fraction(self, phase: str) -> float:
        total = self.total
        return self.phases.get(phase, 0.0) / total if total else 0.0

    def render(self) -> str:
        parts = ", ".join(
            f"{name}={seconds * 1000:.0f}ms ({self.fraction(name):.0%})"
            for name, seconds in self.phases.items()
        )
        return f"{self.method} on D{self.setting}{self.dataset[1:]}: {parts}"


def breakdown_filter(
    filter_: Filter,
    dataset: ERDataset,
    method: str,
    setting: str,
    attribute: Optional[str] = None,
) -> PhaseBreakdown:
    """Run ``filter_`` once and read its stage trace."""
    filter_.candidates(dataset.left, dataset.right, attribute)
    return PhaseBreakdown(
        method=method,
        dataset=dataset.name,
        setting=setting,
        phases=filter_.trace.as_dict(),
    )


def breakdown_from_matrix(
    matrix: ExperimentMatrix,
    methods: Sequence[str],
    dataset_name: str,
    setting: str,
) -> List[PhaseBreakdown]:
    """Breakdowns for all ``methods`` at their tuned configurations."""
    dataset = load_dataset(dataset_name)
    attribute = dataset.key_attribute if setting == "b" else None
    breakdowns = []
    for method in methods:
        cell = matrix.get(method, dataset_name, setting)
        if cell is None:
            continue
        filter_ = registry.build_filter(method, cell.params)
        breakdowns.append(
            breakdown_filter(filter_, dataset, method, setting, attribute)
        )
    return breakdowns
