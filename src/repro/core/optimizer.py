"""Generic configuration optimization (Problem 1, Section III).

Given a recall target τ, the optimizer fine-tunes a filter's parameters so
that the candidate set maximizes PQ subject to PC >= τ.  This module holds
the *generic* grid-search engine, which simply runs a filter per
configuration; the method-specific tuners in :mod:`repro.tuning` add the
paper's early-termination rules and share expensive intermediate state
(blocks, similarity lists, embeddings) across configurations.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Optional

from ..datasets.generator import ERDataset
from .filters import Filter
from .metrics import FilterEvaluation, evaluate_candidates

__all__ = ["GridSearchOptimizer", "DEFAULT_RECALL_TARGET"]

#: The paper's recall target: τ = 0.9.
DEFAULT_RECALL_TARGET = 0.9


class GridSearchOptimizer:
    """Exhaustive grid search under a recall constraint.

    Parameters
    ----------
    target_recall:
        The τ of Problem 1.
    repetitions:
        Runs averaged per configuration for stochastic filters (the paper
        uses 10; benchmarks here default to fewer for time).
    """

    def __init__(
        self, target_recall: float = DEFAULT_RECALL_TARGET, repetitions: int = 3
    ) -> None:
        if not 0.0 < target_recall <= 1.0:
            raise ValueError(
                f"target_recall must be in (0, 1], got {target_recall}"
            )
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        self.target_recall = target_recall
        self.repetitions = repetitions

    def evaluate(
        self,
        filter_: Filter,
        dataset: ERDataset,
        attribute: Optional[str] = None,
    ) -> FilterEvaluation:
        """Average evaluation of one configured filter.

        Deterministic filters run once; stochastic ones are re-seeded and
        averaged over ``repetitions`` runs (Section V: their performance is
        reported as the average of repeated runs).
        """
        runs = self.repetitions if filter_.is_stochastic else 1
        total_pc = total_pq = total_rr = 0.0
        total_candidates = total_found = 0
        for repetition in range(runs):
            if filter_.is_stochastic:
                filter_.reseed(repetition)
            candidates = filter_.candidates(
                dataset.left, dataset.right, attribute
            )
            evaluation = evaluate_candidates(
                candidates,
                dataset.groundtruth,
                len(dataset.left),
                len(dataset.right),
            )
            total_pc += evaluation.pc
            total_pq += evaluation.pq
            total_rr += evaluation.rr
            total_candidates += evaluation.candidates
            total_found += evaluation.duplicates_found
        # Counts are averaged to the nearest integer; floor division
        # would bias the reported |C| and duplicate counts downward.
        return FilterEvaluation(
            pc=total_pc / runs,
            pq=total_pq / runs,
            rr=total_rr / runs,
            candidates=round(total_candidates / runs),
            duplicates_found=round(total_found / runs),
        )

    @staticmethod
    def measure_runtime(
        filter_: Filter,
        dataset: ERDataset,
        attribute: Optional[str] = None,
        repetitions: int = 1,
    ) -> float:
        """Mean wall-clock seconds of one filter invocation."""
        elapsed = 0.0
        for __ in range(max(1, repetitions)):
            start = time.perf_counter()
            filter_.candidates(dataset.left, dataset.right, attribute)
            elapsed += time.perf_counter() - start
        return elapsed / max(1, repetitions)

    def search(
        self,
        configurations: Iterable[Dict[str, object]],
        factory: Callable[..., Filter],
        dataset: ERDataset,
        attribute: Optional[str] = None,
    ):
        """Run the grid; return the Problem-1 winner as a ``TunedResult``.

        ``factory(**config)`` must build a configured filter.  The grid is
        evaluated in enumeration order, so on an exact quality tie the
        first maximal configuration wins.  When no configuration reaches
        the target, the highest-PC configuration is returned with
        ``feasible=False``.
        """
        from ..tuning.result import Incumbent

        configurations = list(configurations)
        if not configurations:
            raise ValueError("empty configuration grid")
        incumbent = Incumbent("", self.target_recall)
        for config in configurations:
            incumbent.enumerated += 1
            filter_ = factory(**config)
            incumbent.method = filter_.name
            evaluation = self.evaluate(filter_, dataset, attribute)
            incumbent.offer(
                dict(config),
                evaluation.pc,
                evaluation.pq,
                evaluation.candidates,
            )
        return incumbent.finish(
            lambda params: factory(**params), dataset, attribute
        )
