"""Effectiveness and efficiency measures for filtering (Section III).

* Pair Completeness (PC) — recall of filtering: the portion of groundtruth
  duplicates present in the candidate set.
* Pairs Quality (PQ) — precision of filtering: the portion of candidates
  that are true duplicates.
* Reduction Ratio (RR) — the portion of the Cartesian product pruned away.
* CSSR (candidate set size ratio) — |C| relative to |E1|x|E2|.

All measures live in [0, 1]; higher PC/PQ/RR is better.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Tuple, TypeVar

from .candidates import CandidateSet
from .groundtruth import GroundTruth

__all__ = [
    "pair_completeness",
    "pairs_quality",
    "reduction_ratio",
    "f_measure",
    "FilterEvaluation",
    "evaluate_candidates",
    "timed",
]

T = TypeVar("T")


def pair_completeness(candidates: CandidateSet, groundtruth: GroundTruth) -> float:
    """PC = |D(C)| / |D(E1 x E2)|; defined as 0 for an empty groundtruth."""
    if len(groundtruth) == 0:
        return 0.0
    return groundtruth.duplicates_in(candidates) / len(groundtruth)


def pairs_quality(candidates: CandidateSet, groundtruth: GroundTruth) -> float:
    """PQ = |D(C)| / |C|; defined as 0 for an empty candidate set."""
    if len(candidates) == 0:
        return 0.0
    return groundtruth.duplicates_in(candidates) / len(candidates)


def reduction_ratio(candidates: CandidateSet, size1: int, size2: int) -> float:
    """RR = 1 - |C| / (|E1| * |E2|), clipped to [0, 1]."""
    total = size1 * size2
    if total == 0:
        return 0.0
    return max(0.0, min(1.0, 1.0 - len(candidates) / total))


def f_measure(pc: float, pq: float) -> float:
    """Harmonic mean of PC and PQ (used to break ties between configs)."""
    if pc + pq == 0.0:
        return 0.0
    return 2.0 * pc * pq / (pc + pq)


@dataclass(frozen=True)
class FilterEvaluation:
    """All effectiveness measures of one candidate set, plus its size."""

    pc: float
    pq: float
    rr: float
    candidates: int
    duplicates_found: int

    @property
    def f1(self) -> float:
        return f_measure(self.pc, self.pq)

    def meets_recall(self, target: float) -> bool:
        """True when PC reaches the Problem-1 recall target."""
        return self.pc >= target


def evaluate_candidates(
    candidates: CandidateSet,
    groundtruth: GroundTruth,
    size1: int,
    size2: int,
) -> FilterEvaluation:
    """Compute PC, PQ and RR of a candidate set in one pass over its keys."""
    from .fastpairs import evaluate_keys  # fastpairs imports this module

    return evaluate_keys(candidates.keys, groundtruth.keys, size1, size2)


def timed(func: Callable[[], T]) -> Tuple[T, float]:
    """Run ``func`` and return ``(result, elapsed_seconds)``.

    Uses ``time.perf_counter`` — the paper's RT excludes data loading, which
    callers achieve by timing only the filter invocation.
    """
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start
