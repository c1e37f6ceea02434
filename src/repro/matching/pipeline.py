"""End-to-end ER: filtering -> verification -> (optional) clustering.

Ties the whole library together into the Filtering-Verification framework
of Section I and makes the paper's recall argument measurable: duplicates
the filter misses can never be recovered downstream, so end-to-end recall
is bounded by filtering PC — the reason Problem 1 demands PC >= 0.9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.candidates import CandidateSet
from ..core.filters import Filter
from ..core.groundtruth import GroundTruth
from ..core.profile import EntityCollection
from .clustering import unique_mapping
from .matchers import ScoredPair, SimilarityMatcher

__all__ = ["ERResult", "ERPipeline"]


@dataclass(frozen=True)
class ERResult:
    """The outcome of one end-to-end ER run."""

    candidates: int
    matches: List[ScoredPair]

    def match_pairs(self) -> CandidateSet:
        return CandidateSet((left, right) for left, right, __ in self.matches)

    def recall(self, groundtruth: GroundTruth) -> float:
        if not len(groundtruth):
            return 0.0
        return groundtruth.duplicates_in(self.match_pairs()) / len(groundtruth)

    def precision(self, groundtruth: GroundTruth) -> float:
        pairs = self.match_pairs()
        if not len(pairs):
            return 0.0
        return groundtruth.duplicates_in(pairs) / len(pairs)

    def f1(self, groundtruth: GroundTruth) -> float:
        precision = self.precision(groundtruth)
        recall = self.recall(groundtruth)
        if precision + recall == 0.0:
            return 0.0
        return 2 * precision * recall / (precision + recall)


class ERPipeline:
    """filter -> matcher -> unique-mapping clustering (optional)."""

    def __init__(
        self,
        filter_: Filter,
        matcher: Optional[SimilarityMatcher] = None,
        one_to_one: bool = True,
    ) -> None:
        self.filter = filter_
        self.matcher = matcher or SimilarityMatcher()
        self.one_to_one = one_to_one

    def run(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str] = None,
    ) -> ERResult:
        candidates = self.filter.candidates(left, right, attribute)
        matches = self.matcher.match(candidates, left, right)
        if self.one_to_one:
            matches = unique_mapping(matches)
        return ERResult(candidates=len(candidates), matches=matches)
