"""The output of configuration optimization (Problem 1).

:class:`Incumbent` is the one place that decides how an evaluated
configuration becomes a Problem-1 winner and what the tuned cell
reports; every tuner and :meth:`GridSearchOptimizer.search` fold their
configurations into one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..core.filters import Filter
from ..core.optimizer import GridSearchOptimizer
from ..datasets.generator import ERDataset

__all__ = ["Incumbent", "TunedResult", "better"]


@dataclass
class TunedResult:
    """Best configuration of one method on one dataset/setting.

    Attributes
    ----------
    method:
        Canonical method name (e.g. ``"SBW"``, ``"kNNJ"``).
    params:
        The winning parameter assignment.
    pc / pq:
        Pair completeness and pairs quality at the winning configuration.
    candidates:
        Size of the candidate set.
    runtime:
        End-to-end run-time (seconds) of one filter invocation at the
        winning configuration, measured after the search.
    feasible:
        True when PC reached the recall target; when no configuration is
        feasible the result holds the highest-PC configuration instead,
        mirroring the paper's red-marked entries.
    configurations_tried:
        Number of configurations the grid search evaluated.
    configurations_enumerated:
        Number of grid decision points the search enumerated (executed
        plus pruned).  0 for tuners predating cost-based pruning.
    configurations_pruned:
        Decision points a prune rule discarded without executing a
        filter (0 when pruning is disabled).
    """

    method: str
    params: Dict[str, object] = field(default_factory=dict)
    pc: float = 0.0
    pq: float = 0.0
    candidates: int = 0
    runtime: float = 0.0
    feasible: bool = False
    configurations_tried: int = 0
    configurations_enumerated: int = 0
    configurations_pruned: int = 0

    def describe_params(self) -> str:
        """Short ``key=value`` rendering of the winning parameters."""
        return ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))


def better(
    current: Optional[TunedResult],
    challenger: TunedResult,
) -> TunedResult:
    """Pick the better of two results under Problem 1's objective.

    A feasible result beats an infeasible one; among feasible results the
    higher PQ wins; among infeasible ones the higher PC wins (so the
    reported fallback is the closest miss).
    """
    if current is None:
        return challenger
    if challenger.feasible != current.feasible:
        return challenger if challenger.feasible else current
    if challenger.feasible:
        return challenger if challenger.pq > current.pq else current
    return challenger if challenger.pc > current.pc else current


class Incumbent:
    """The running Problem-1 winner of one search, with its counters.

    ``tried`` counts executed configurations (:meth:`offer` adds them);
    ``enumerated`` (grid decision points visited, executed plus pruned)
    and ``pruned`` (decision points a prune rule discarded unexecuted)
    are counted by the search itself, since only it knows its decision
    points.
    """

    def __init__(self, method: str, target_recall: float) -> None:
        self.method = method
        self.target_recall = target_recall
        self.best: Optional[TunedResult] = None
        self.tried = 0
        self.enumerated = 0
        self.pruned = 0

    def offer(
        self,
        params: Dict[str, object],
        pc: float,
        pq: float,
        candidates: int,
        tried: int = 1,
    ) -> None:
        """Fold one evaluated configuration into the record.

        ``tried`` is the number of grid configurations the offer stands
        for (a sweep offers its pick once).  The challenger replaces the
        incumbent only when ``better()`` strictly prefers it, so with
        offers in enumeration order the first maximal configuration wins.
        """
        self.tried += tried
        challenger = TunedResult(
            method=self.method,
            params=params,
            pc=pc,
            pq=pq,
            candidates=candidates,
            feasible=pc >= self.target_recall,
        )
        self.best = better(self.best, challenger)

    def finish(
        self,
        build: Callable[[Dict[str, object]], Filter],
        dataset: ERDataset,
        attribute: Optional[str] = None,
    ) -> TunedResult:
        """The search's result, counters stamped and RT measured.

        The winner's RT is one cold invocation of ``build(params)`` on
        the whole dataset.  When nothing was offered the result is an
        empty infeasible one with RT 0.
        """
        result = self.best or TunedResult(method=self.method, feasible=False)
        result.configurations_tried = self.tried
        result.configurations_enumerated = self.enumerated
        result.configurations_pruned = self.pruned
        if self.best is not None:
            result.runtime = GridSearchOptimizer.measure_runtime(
                build(result.params), dataset, attribute
            )
        return result
