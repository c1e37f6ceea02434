"""The common interface implemented by every filtering method.

Blocking workflows, sparse NN and dense NN methods all receive the same
input (two entity collections plus the schema setting) and produce the same
output (a :class:`~repro.core.candidates.CandidateSet`), which is what makes
the paper's cross-family comparison possible.

Filters declare their execution stages (:data:`~repro.core.stages.BLOCKING_STAGES`
or :data:`~repro.core.stages.NN_STAGES`) and record a structured per-stage
trace (:class:`~repro.core.stages.StageTrace`), used to regenerate
Figures 7-9 of the paper.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

from .candidates import CandidateSet
from .profile import EntityCollection
from .stages import Stage, StageTrace

__all__ = ["Filter"]


class Filter(abc.ABC):
    """Abstract filtering method.

    Subclasses implement :meth:`_run`; :meth:`candidates` wraps it so that
    the stage trace is reset on every invocation.  ``attribute=None`` selects
    schema-agnostic settings (all values concatenated); a named attribute
    selects schema-based settings.
    """

    #: Human-readable method name, used in benchmark tables.
    name: str = "filter"

    #: The declared stage schema of this method's family (see
    #: :mod:`repro.core.stages`); empty for filters that do not trace.
    stages: Tuple[Stage, ...] = ()

    def __init__(self) -> None:
        self.trace = StageTrace()

    def candidates(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str] = None,
    ) -> CandidateSet:
        """Produce the candidate pairs between ``left`` (E1) and ``right`` (E2)."""
        self.trace.reset()
        return self._run(left, right, attribute)

    @abc.abstractmethod
    def _run(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str],
    ) -> CandidateSet:
        """Method-specific candidate generation."""

    @property
    def is_stochastic(self) -> bool:
        """True for methods whose output varies across runs (Table II)."""
        return False

    def reseed(self, seed: int) -> None:
        """Re-seed the filter's randomness before a repeated run.

        A no-op for deterministic filters; stochastic ones (Table II)
        override it so :class:`~repro.core.optimizer.GridSearchOptimizer`
        can average repeated runs under distinct seeds.
        """

    def describe(self) -> str:
        """One-line description of the configured method."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"
