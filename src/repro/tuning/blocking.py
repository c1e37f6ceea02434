"""Holistic configuration optimization of blocking workflows.

Unlike the step-by-step tuning of prior work, all steps of a workflow are
fine-tuned *simultaneously* (Section II): every combination of block
building parameters, Block Purging on/off, Block Filtering ratio and
comparison cleaning configuration is a point of one joint grid.

The search shares expensive intermediates across the grid: blocks are
built once per builder configuration — once per ``l_min`` for the
proactive builders, whose ``b_max`` only caps block sizes and is applied
as a mask — the blocking graph once per block
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

from typing import Dict, Optional

from ..blocking.blocks import BlockCollection
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
from ..core.candidates import pack_ids
from ..core.fastpairs import evaluate_keys
from ..core.optimizer import DEFAULT_RECALL_TARGET
from ..datasets.generator import ERDataset
from . import spaces
from .result import Incumbent, TunedResult

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

    # ------------------------------------------------------------------
    # Search.
    # ------------------------------------------------------------------

    def tune(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> TunedResult:
        gt_keys = dataset.groundtruth.keys
        size1, size2 = len(dataset.left), len(dataset.right)
        proactive = self.builder_name in _PROACTIVE
        incumbent = Incumbent(self.workflow, self.target_recall)
        # A proactive builder's uncapped blocks and the parameters (all but
        # ``b_max``) they were built with; the grid lists every ``b_max``
        # of one ``l_min`` in a row.
        uncapped_for: Optional[Dict[str, object]] = None
        uncapped: Optional[BlockCollection] = None

        for builder_params in spaces.builder_grid(self.builder_name, self.profile):
            incumbent.enumerated += 1
            builder = make_builder(self.builder_name, **builder_params)
            if proactive:
                shared = {
                    k: v for k, v in builder_params.items() if k != "b_max"
                }
                if shared != uncapped_for:
                    uncapped_for = shared
                    uncapped = BlockBuilder.build(
                        builder, dataset.left, dataset.right, attribute
                    )
                base_blocks = builder.cap(uncapped)
            else:
                base_blocks = builder.build(
                    dataset.left, dataset.right, attribute
                )
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
                    graph_keys = pack_ids(graph.lefts, graph.rights)
                    upper = evaluate_keys(graph_keys, gt_keys, size1, size2)
                    base_params = dict(builder_params)
                    base_params.update({"purging": purging, "ratio": ratio})
                    # Comparison Propagation: the distinct pairs themselves.
                    incumbent.offer(
                        {**base_params, "cleaner": "CP"},
                        upper.pc,
                        upper.pq,
                        upper.candidates,
                    )
                    if upper.pc < self.target_recall:
                        # Recall is already out of reach: CP recorded the
                        # closest miss (the paper's red cells report the
                        # best-recall configuration); smaller ratios only
                        # shrink the candidate set (the paper's early stop).
                        break
                    # Meta-blocking: one graph, six weightings, seven prunings.
                    for scheme in spaces.weighting_schemes(self.profile):
                        weights = graph.weights(scheme)
                        for algorithm in spaces.pruning_algorithms(self.profile):
                            mask = prune_mask(graph, weights, algorithm)
                            evaluation = evaluate_keys(
                                graph_keys[mask], gt_keys, size1, size2
                            )
                            incumbent.offer(
                                {
                                    **base_params,
                                    "cleaner": f"{scheme}+{algorithm}",
                                },
                                evaluation.pc,
                                evaluation.pq,
                                evaluation.candidates,
                            )
        return incumbent.finish(self.build_filter, dataset, attribute)

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
                tuner_factory=lambda recall, profile, cache, prune, code=code: (
                    BlockingWorkflowTuner(
                        code, target_recall=recall, profile=profile
                    )
                ),
                incremental_factory=lambda params, name=WORKFLOW_NAMES[code]: (
                    _build_incremental(name, params)
                ),
            )
        )


_register()
