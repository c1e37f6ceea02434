"""The ``SMB`` filter: supervised meta-blocking with progressive emission.

The pipeline is Standard Blocking -> blocking graph -> per-edge feature
matrix -> classifier scores -> pruning, traced under
:data:`~repro.core.stages.LEARNED_STAGES`.  Two pruning modes mirror the
unsupervised family's vocabulary:

* ``WEP`` — keep every edge whose match probability reaches a global
  ``threshold`` (weight-edge pruning with a calibrated score);
* ``CEP`` — keep each entity's ``k`` highest-scoring edges on either
  side (cardinality-node pruning with a learned weight).

A filter is constructed in one of two modes.  With ``oracle`` (a
:class:`~repro.core.groundtruth.GroundTruth`) it trains its own model
inside the ``TRAIN`` stage on every run — the honest end-to-end
configuration whose runtime includes training.  With ``weights`` (the
JSON string of :func:`~repro.learned.models.serialize_model`) it is
inference-only and never enters ``TRAIN`` — the form a tuned parameter
dict rebuilds, cache round-trips included.

After a batch run, :meth:`emit_progressive` yields the *same* surviving
candidates one at a time in non-increasing score order (ties broken by
ascending pair key), so an anytime matcher can consume the likeliest
pairs first and stop whenever its budget runs out.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..blocking.building import StandardBlocking
from ..blocking.metablocking import PairGraph
from ..core.candidates import KEY_WIDTH, CandidateSet, pack_ids
from ..core.filters import Filter
from ..core.groundtruth import GroundTruth
from ..core.profile import EntityCollection
from ..core.stages import BUILD, FEATURES, LEARNED_STAGES, PRUNE, SCORE, TRAIN
from .features import edge_features
from .models import deserialize_model, train_model
from .sampling import sample_labeled_edges

__all__ = ["SupervisedMetaBlocking", "SMB_PRUNING_MODES"]

#: Supported pruning modes (a subset of the unsupervised vocabulary).
SMB_PRUNING_MODES: Tuple[str, ...] = ("WEP", "CEP")


class SupervisedMetaBlocking(Filter):
    """Score blocking-graph edges with a trained classifier, then prune.

    Parameters
    ----------
    weights:
        Serialized trained model (JSON string or dict) for inference-only
        operation.  Mutually exclusive with ``oracle``.
    oracle:
        Groundtruth used to draw the labeled training sample; the model
        is (re)trained on every run inside the ``TRAIN`` stage.
    model_kind:
        ``"logistic"`` or ``"stumps"`` — only used with ``oracle``.
    sample_size:
        Labeled-sample budget — only used with ``oracle``.
    pruning:
        ``"WEP"`` (global probability threshold) or ``"CEP"``
        (per-entity top-k on both sides).
    threshold:
        Match-probability cutoff for ``WEP``.
    k:
        Per-entity retention count for ``CEP``.
    seed:
        Seed of the training sample; fixed seed -> byte-identical output.
    """

    stages = LEARNED_STAGES

    def __init__(
        self,
        weights: Optional[object] = None,
        oracle: Optional[GroundTruth] = None,
        model_kind: str = "logistic",
        sample_size: int = 500,
        pruning: str = "WEP",
        threshold: float = 0.5,
        k: int = 5,
        seed: int = 7,
    ) -> None:
        super().__init__()
        pruning = pruning.upper()
        if pruning not in SMB_PRUNING_MODES:
            raise ValueError(
                f"pruning must be one of {SMB_PRUNING_MODES}, got {pruning!r}"
            )
        if int(k) < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if weights is None and oracle is None:
            raise ValueError(
                "SupervisedMetaBlocking needs either trained `weights` or a "
                "groundtruth `oracle` to train from"
            )
        self.model = deserialize_model(weights) if weights is not None else None
        self.oracle = oracle
        self.model_kind = model_kind
        self.sample_size = int(sample_size)
        self.pruning = pruning
        self.threshold = float(threshold)
        self.k = int(k)
        self.seed = int(seed)
        self.builder = StandardBlocking()
        # Batch-run leftovers consumed by progressive emission.
        self._kept_keys: Optional[np.ndarray] = None
        self._kept_scores: Optional[np.ndarray] = None
        self.name = f"learned[{self.describe()}]"

    # ------------------------------------------------------------------
    # Batch path.
    # ------------------------------------------------------------------

    def _run(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str],
    ) -> CandidateSet:
        self._kept_keys = None
        self._kept_scores = None
        entities = len(left) + len(right)
        with self.trace.stage(BUILD, input_size=entities) as build:
            blocks = self.builder.build(left, right, attribute)
            build.output_size = len(blocks)
        with self.trace.stage(FEATURES, input_size=len(blocks)) as features:
            graph = PairGraph(blocks)
            matrix = edge_features(graph)
            # Rows of the graph are sorted by (left, right), so these
            # keys come out sorted-unique, and so do masked ones.
            keys = pack_ids(graph.lefts, graph.rights)
            features.output_size = len(graph)
        model = self.model
        if model is None:
            with self.trace.stage(TRAIN, input_size=len(graph)) as train:
                gt_keys = self.oracle.keys
                indices, labels = sample_labeled_edges(
                    keys, gt_keys, self.sample_size, self.seed
                )
                model = train_model(
                    self.model_kind, matrix[indices], labels, seed=self.seed
                )
                train.output_size = len(indices)
        with self.trace.stage(SCORE, input_size=len(graph)):
            scores = model.predict_proba(matrix)
        with self.trace.stage(PRUNE, input_size=len(graph)) as prune:
            if self.pruning == "WEP":
                mask = scores >= self.threshold
            else:  # CEP: per-entity top-k, kept when best on either side.
                top_left, top_right = graph.node_ranking(scores).tops(self.k)
                mask = top_left | top_right
            self._kept_keys = keys[mask]
            self._kept_scores = scores[mask]
            candidates = CandidateSet.from_keys(self._kept_keys)
            prune.output_size = len(candidates)
        return candidates

    # ------------------------------------------------------------------
    # Progressive path.
    # ------------------------------------------------------------------

    def emit_progressive(self) -> Iterator[Tuple[Tuple[int, int], float]]:
        """Yield ``((left, right), score)`` in non-increasing score order.

        Consumes the most recent batch run; exhausting the iterator
        yields exactly the batch candidate set (ties broken by ascending
        pair key, so the order is deterministic).
        """
        if self._kept_keys is None or self._kept_scores is None:
            raise RuntimeError(
                "emit_progressive() needs a prior candidates() run"
            )
        order = np.lexsort((self._kept_keys, -self._kept_scores))
        for index in order:
            pair = divmod(int(self._kept_keys[index]), KEY_WIDTH)
            yield pair, float(self._kept_scores[index])

    def describe(self) -> str:
        mode = (
            f"WEP@{self.threshold:g}"
            if self.pruning == "WEP"
            else f"CEP@k={self.k}"
        )
        kind = self.model.kind if self.model is not None else self.model_kind
        trained = "pretrained" if self.model is not None else (
            f"train(n={self.sample_size},seed={self.seed})"
        )
        return f"standard -> {kind}[{trained}] -> {mode}"
