"""Problem-1 tuning of the learned meta-blocking family (``SMB``).

The grid is (model kind x labeled-sample size x pruning configuration).
As with the unsupervised workflows, the expensive intermediates are
shared aggressively: blocks are built once, the blocking graph and its
feature matrix are computed once, each (model, sample size) pair is
trained once, and every pruning configuration then reduces to one
vectorized mask + key evaluation over the pre-computed scores.

The winning parameter dict carries the *serialized trained model* (a
JSON string under ``"weights"``), so rebuilding the filter from tuned
parameters — directly or through the experiment-matrix cache, whose
parameter serialization only keeps scalars — yields an inference-only
filter that scores edges bit-identically to the tuning pass.  The
reported runtime is measured on an oracle-trained filter instead, so RT
honestly includes feature extraction *and* training.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..blocking.building import StandardBlocking
from ..blocking.metablocking import PairGraph
from ..core.fastpairs import encode_pairs, evaluate_keys, groundtruth_keys
from ..core.optimizer import DEFAULT_RECALL_TARGET, GridSearchOptimizer
from ..datasets.generator import ERDataset
from ..learned.features import edge_features
from ..learned.filter import SupervisedMetaBlocking
from ..learned.models import serialize_model, train_model
from ..learned.sampling import sample_labeled_edges
from . import spaces
from .result import TunedResult, better

__all__ = ["SMB_SEED", "SupervisedMetaBlockingTuner"]

#: The fixed training seed of the benchmark protocol.  One seed — not a
#: grid dimension — because the determinism contract ("byte-identical
#: keys given a fixed seed") is part of the family's definition.
SMB_SEED = 7


class SupervisedMetaBlockingTuner:
    """Problem-1 tuner for supervised meta-blocking."""

    method = "SMB"

    def __init__(
        self,
        target_recall: float = DEFAULT_RECALL_TARGET,
        profile: str = "",
    ) -> None:
        self.target_recall = target_recall
        self.profile = spaces.active_profile(profile)

    # ------------------------------------------------------------------
    # Search.
    # ------------------------------------------------------------------

    def tune(
        self, dataset: ERDataset, attribute: Optional[str] = None
    ) -> TunedResult:
        width = len(dataset.right)
        size1, size2 = len(dataset.left), len(dataset.right)
        gt_keys = groundtruth_keys(dataset.groundtruth, width)
        blocks = StandardBlocking().build(
            dataset.left, dataset.right, attribute
        )
        graph = PairGraph(blocks)
        matrix = edge_features(graph)
        keys = encode_pairs(graph.lefts, graph.rights, width)
        best: Optional[TunedResult] = None
        tried = 0
        for model_kind in spaces.smb_models(self.profile):
            for sample_size in spaces.smb_sample_sizes(self.profile):
                indices, labels = sample_labeled_edges(
                    keys, gt_keys, sample_size, SMB_SEED
                )
                model = train_model(
                    model_kind, matrix[indices], labels, seed=SMB_SEED
                )
                scores = model.predict_proba(matrix)
                weights_json = serialize_model(model)
                base_params: Dict[str, object] = {
                    "model": model_kind,
                    "sample_size": int(sample_size),
                    "seed": SMB_SEED,
                    "weights": weights_json,
                }
                masks: List[Tuple[Dict[str, object], np.ndarray]] = []
                for threshold in spaces.smb_thresholds(self.profile):
                    masks.append((
                        {"pruning": "WEP", "threshold": float(threshold)},
                        scores >= threshold,
                    ))
                ranking = graph.node_ranking(scores)
                for k in spaces.smb_topk(self.profile):
                    top_left, top_right = ranking.tops(k)
                    masks.append((
                        {"pruning": "CEP", "k": int(k)}, top_left | top_right
                    ))
                for prune_params, mask in masks:
                    # The graph's rows are (left, right)-sorted, so the
                    # masked keys stay sorted-unique — no re-sort needed.
                    evaluation = evaluate_keys(
                        keys[mask], gt_keys, size1, size2
                    )
                    tried += 1
                    best = better(
                        best,
                        TunedResult(
                            method=self.method,
                            params={**base_params, **prune_params},
                            pc=evaluation.pc,
                            pq=evaluation.pq,
                            candidates=evaluation.candidates,
                            feasible=evaluation.pc >= self.target_recall,
                        ),
                    )
        if best is None:
            best = TunedResult(method=self.method, feasible=False)
        best.configurations_tried = tried
        best.configurations_enumerated = tried
        if tried:
            # Honest end-to-end runtime: an oracle-trained filter, so the
            # measurement covers build + features + training + scoring +
            # pruning (the inference-only rebuild would hide training).
            best.runtime = GridSearchOptimizer(
                self.target_recall
            ).measure_runtime(
                self._oracle_filter(best.params, dataset),
                dataset,
                attribute,
            )
        return best

    # ------------------------------------------------------------------
    # Materialization.
    # ------------------------------------------------------------------

    def build_filter(self, params: Dict[str, object]) -> SupervisedMetaBlocking:
        """An inference-only filter from a tuner-produced params dict."""
        return SupervisedMetaBlocking(
            weights=params["weights"],
            pruning=str(params.get("pruning", "WEP")),
            threshold=float(params.get("threshold", 0.5)),
            k=int(params.get("k", 5)),
            seed=int(params.get("seed", SMB_SEED)),
        )

    def _oracle_filter(
        self, params: Dict[str, object], dataset: ERDataset
    ) -> SupervisedMetaBlocking:
        """The same configuration, but trained in-run from groundtruth."""
        return SupervisedMetaBlocking(
            oracle=dataset.groundtruth,
            model_kind=str(params.get("model", "logistic")),
            sample_size=int(params.get("sample_size", 500)),
            pruning=str(params.get("pruning", "WEP")),
            threshold=float(params.get("threshold", 0.5)),
            k=int(params.get("k", 5)),
            seed=int(params.get("seed", SMB_SEED)),
        )


# ----------------------------------------------------------------------
# Registry entry (the Table VII row beyond the paper's matrix).
# ----------------------------------------------------------------------


def _register() -> None:
    from ..core import registry, stages

    registry.register(
        registry.FilterSpec(
            code="SMB",
            family="blocking",
            order=17,
            stages=stages.LEARNED_STAGES,
            filter_factory=lambda params: (
                SupervisedMetaBlockingTuner().build_filter(params)
            ),
            tuner_factory=lambda recall, profile, cache, prune=None: (
                SupervisedMetaBlockingTuner(
                    target_recall=recall, profile=profile
                )
            ),
        )
    )


_register()
