"""Holistic configuration optimization of blocking workflows.

Unlike the step-by-step tuning of prior work, all steps of a workflow are
fine-tuned *simultaneously* (Section II): every combination of block
building parameters, Block Purging on/off, Block Filtering ratio and
comparison cleaning configuration is a point of one joint grid.

The search shares expensive intermediates across the grid: blocks are
built once per builder configuration, the blocking graph once per block
collection — its rows are also the distinct pairs that Comparison
Propagation and the recall bound evaluate — the pair weights once per
weighting scheme, and each weight vector's node ranking (dense rank,
sorted per-side keys, per-entity means) once for all pruning algorithms
that read it.  Only pruning runs per configuration, on arrays.

Early termination mirrors the paper: Block Purging / Filtering bound the
recall of everything downstream, so as soon as the distinct pairs of the
cleaned blocks fall below the recall target, smaller filtering ratios are
skipped.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..blocking.building import (
    BlockBuilder,
    ExtendedQGramsBlocking,
    ExtendedSuffixArraysBlocking,
    QGramsBlocking,
    StandardBlocking,
    SuffixArraysBlocking,
)
from ..blocking.cleaning import BlockFiltering, BlockPurging
from ..blocking.metablocking import PairGraph, prune_mask
from ..blocking.workflow import BlockingWorkflow, ComparisonPropagation, MetaBlocking
from ..core.fastpairs import encode_pairs, evaluate_keys, groundtruth_keys
from ..core.optimizer import DEFAULT_RECALL_TARGET, GridSearchOptimizer
from ..core.stages import fire_stage_hooks
from ..datasets.generator import ERDataset
from . import spaces
from .estimator import BlockingEstimator, coverage_prunable, prune_enabled
from .result import TunedResult, better

__all__ = ["BlockingWorkflowTuner", "WORKFLOW_NAMES", "make_builder"]

#: Canonical workflow names, paper order: SBW, QBW, EQBW, SABW, ESABW.
WORKFLOW_NAMES: Dict[str, str] = {
    "SBW": "standard",
    "QBW": "qgrams",
    "EQBW": "extended-qgrams",
    "SABW": "suffix-arrays",
    "ESABW": "extended-suffix-arrays",
}

#: The proactive builders are not combined with block cleaning (Table III).
_PROACTIVE = ("suffix-arrays", "extended-suffix-arrays")

#: Skip configurations whose blocks induce more comparisons than this —
#: a memory guard for the pathological corner of the grid (tiny q on the
#: largest datasets); such configurations could never win on precision.
MAX_GRAPH_COMPARISONS = 20_000_000


def make_builder(builder: str, **params) -> BlockBuilder:
    """Instantiate a block builder by canonical name."""
    if builder == "standard":
        return StandardBlocking()
    if builder == "qgrams":
        return QGramsBlocking(**params)
    if builder == "extended-qgrams":
        return ExtendedQGramsBlocking(**params)
    if builder == "suffix-arrays":
        return SuffixArraysBlocking(**params)
    if builder == "extended-suffix-arrays":
        return ExtendedSuffixArraysBlocking(**params)
    raise ValueError(f"unknown builder {builder!r}")


class BlockingWorkflowTuner:
    """Problem-1 tuner for one blocking workflow family."""

    def __init__(
        self,
        workflow: str,
        target_recall: float = DEFAULT_RECALL_TARGET,
        profile: str = "",
        prune: Optional[bool] = None,
    ) -> None:
        workflow = workflow.upper()
        if workflow not in WORKFLOW_NAMES:
            raise ValueError(
                f"workflow must be one of {tuple(WORKFLOW_NAMES)}, got {workflow!r}"
            )
        self.workflow = workflow
        self.builder_name = WORKFLOW_NAMES[workflow]
        self.target_recall = target_recall
        self.profile = spaces.active_profile(profile)
        self.prune = prune_enabled(prune)

    def _builder_prunable(
        self,
        estimator: BlockingEstimator,
        builder_params: Dict[str, object],
        needed: int,
        total_duplicates: int,
        best: Optional[TunedResult],
    ) -> bool:
        """Can this builder configuration's whole subtree beat ``best``?

        Purging, filtering, the proactive ``b_max`` cap and comparison
        cleaning only ever *remove* pairs from the key-sharing set, so
        the groundtruth key coverage of the builder caps PC for every
        downstream configuration.  A subtree whose cap cannot strictly
        beat the incumbent under ``better()`` is skipped before any
        block is built.
        """
        if best is None:
            return False
        fire_stage_hooks("enter", "estimate")
        try:
            stats = estimator.key_stats(self.builder_name, builder_params)
            return coverage_prunable(
                stats.gt_overlapping, needed, total_duplicates, best
            )
        finally:
            fire_stage_hooks("exit", "estimate")

    # ------------------------------------------------------------------
    # Search.
    # ------------------------------------------------------------------

    def tune(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> TunedResult:
        width = len(dataset.right)
        gt_keys = groundtruth_keys(dataset.groundtruth, width)
        size1, size2 = len(dataset.left), len(dataset.right)
        proactive = self.builder_name in _PROACTIVE
        best: Optional[TunedResult] = None
        tried = 0
        enumerated = 0
        pruned = 0
        total_duplicates = len(dataset.groundtruth)
        needed = math.ceil(self.target_recall * total_duplicates)
        estimator: Optional[BlockingEstimator] = None
        if self.prune:
            estimator = BlockingEstimator(dataset, attribute)

        for builder_params in spaces.builder_grid(self.builder_name, self.profile):
            enumerated += 1
            if estimator is not None and self._builder_prunable(
                estimator, builder_params, needed, total_duplicates, best
            ):
                pruned += 1
                continue
            builder = make_builder(self.builder_name, **builder_params)
            base_blocks = builder.build(dataset.left, dataset.right, attribute)
            purging_options = (False,) if proactive else (False, True)
            for purging in purging_options:
                if purging:
                    blocks = BlockPurging().clean(base_blocks, size1 + size2)
                else:
                    blocks = base_blocks
                ratios = (
                    [1.0]
                    if proactive
                    else spaces.block_filtering_ratios(self.profile)
                )
                for ratio in sorted(ratios, reverse=True):
                    if ratio < 1.0:
                        filtered = BlockFiltering(ratio).clean(blocks)
                    else:
                        filtered = blocks
                    if filtered.total_comparisons > MAX_GRAPH_COMPARISONS:
                        continue
                    graph = PairGraph(filtered)
                    # The graph's rows are the distinct pairs, (left,
                    # right)-sorted: their keys are sorted-unique, and so
                    # are the keys under any mask — no re-sort needed.
                    graph_keys = encode_pairs(graph.lefts, graph.rights, width)
                    upper = evaluate_keys(graph_keys, gt_keys, size1, size2)
                    base_params = dict(builder_params)
                    base_params.update({"purging": purging, "ratio": ratio})
                    if upper.pc < self.target_recall:
                        # Recall is already out of reach; record the
                        # closest miss (the paper's red cells report the
                        # best-recall configuration) and terminate this
                        # sweep — smaller ratios only shrink the
                        # candidate set (the paper's early stop).
                        tried += 1
                        best = better(
                            best,
                            TunedResult(
                                method=self.workflow,
                                params={**base_params, "cleaner": "CP"},
                                pc=upper.pc,
                                pq=upper.pq,
                                candidates=upper.candidates,
                                feasible=False,
                            ),
                        )
                        break
                    # Comparison Propagation: the distinct pairs themselves.
                    tried += 1
                    best = better(
                        best,
                        TunedResult(
                            method=self.workflow,
                            params={**base_params, "cleaner": "CP"},
                            pc=upper.pc,
                            pq=upper.pq,
                            candidates=upper.candidates,
                            feasible=upper.pc >= self.target_recall,
                        ),
                    )
                    # Meta-blocking: one graph, six weightings, seven prunings.
                    for scheme in spaces.weighting_schemes(self.profile):
                        weights = graph.weights(scheme)
                        for algorithm in spaces.pruning_algorithms(self.profile):
                            mask = prune_mask(graph, weights, algorithm)
                            evaluation = evaluate_keys(
                                graph_keys[mask], gt_keys, size1, size2
                            )
                            tried += 1
                            best = better(
                                best,
                                TunedResult(
                                    method=self.workflow,
                                    params={
                                        **base_params,
                                        "cleaner": f"{scheme}+{algorithm}",
                                    },
                                    pc=evaluation.pc,
                                    pq=evaluation.pq,
                                    candidates=evaluation.candidates,
                                    feasible=evaluation.pc
                                    >= self.target_recall,
                                ),
                            )
        if best is None:
            best = TunedResult(method=self.workflow, feasible=False)
        best.configurations_tried = tried
        best.configurations_enumerated = enumerated
        best.configurations_pruned = pruned
        if tried:
            best.runtime = GridSearchOptimizer(
                self.target_recall
            ).measure_runtime(
                self.build_filter(best.params), dataset, attribute
            )
        return best

    # ------------------------------------------------------------------
    # Materialization.
    # ------------------------------------------------------------------

    def build_filter(self, params: Dict[str, object]) -> BlockingWorkflow:
        """A runnable workflow configured with a tuner-produced params dict."""
        builder_params = {
            key: value
            for key, value in params.items()
            if key in ("q", "t", "l_min", "b_max")
        }
        cleaner_code = str(params.get("cleaner", "CP"))
        if cleaner_code == "CP":
            cleaner = ComparisonPropagation()
        else:
            scheme, algorithm = cleaner_code.split("+")
            cleaner = MetaBlocking(scheme=scheme, pruning=algorithm)
        ratio = float(params.get("ratio", 1.0))
        return BlockingWorkflow(
            builder=make_builder(self.builder_name, **builder_params),
            purging=bool(params.get("purging", False)),
            filtering_ratio=ratio if ratio < 1.0 else None,
            cleaner=cleaner,
        )


# ----------------------------------------------------------------------
# Registry entries (Table VII rows 1-5).
# ----------------------------------------------------------------------


def _build_incremental(builder_name: str, params: Dict[str, object]):
    """The streaming form of one blocking family: a mutable block index.

    Only the *building* stage has a streaming counterpart (purging,
    filtering and comparison cleaning are whole-collection decisions);
    the builder is configured from the tuner's parameter vocabulary and
    the proactive families' ``b_max`` cap carries over as the index's
    ``max_block_size``.
    """
    from ..blocking.blocks import IncrementalBlockIndex

    builder_params = {
        key: value
        for key, value in params.items()
        if key in ("q", "t", "l_min", "b_max")
    }
    builder = make_builder(builder_name, **builder_params)
    return IncrementalBlockIndex(
        builder=builder, max_block_size=getattr(builder, "b_max", None)
    )


def _register() -> None:
    from ..core import registry, stages

    for order, code in enumerate(WORKFLOW_NAMES):
        registry.register(
            registry.FilterSpec(
                code=code,
                family="blocking",
                order=order,
                stages=stages.BLOCKING_STAGES,
                filter_factory=lambda params, code=code: (
                    BlockingWorkflowTuner(code).build_filter(params)
                ),
                tuner_factory=lambda recall, profile, cache, prune=None, code=code: (
                    BlockingWorkflowTuner(
                        code, target_recall=recall, profile=profile, prune=prune
                    )
                ),
                incremental_factory=lambda params, name=WORKFLOW_NAMES[code]: (
                    _build_incremental(name, params)
                ),
            )
        )


_register()
