"""Microbenchmark: the learned family's training and inference latency.

Times the ``SMB`` filter (:class:`repro.learned.SupervisedMetaBlocking`)
on one synthetic Clean-Clean cell (default 5k x 5k, the same generator
cell the sparse-kernel bench uses):

* ``learned_train`` — the oracle-trained configuration: blocking, the
  feature pass, drawing the labeled sample, fitting the model and
  pruning, i.e. the honest end-to-end wall time a tuner pays per
  (model, sample-size) grid point;
* ``learned_infer`` — the pretrained configuration rebuilt from the
  serialized model, i.e. the deployment path: blocking + features +
  scoring + pruning with no ``TRAIN`` stage.

Both runs are asserted to produce byte-identical candidate keys (the
family's determinism contract: a fixed seed makes training reproducible,
so the trained and rebuilt models must agree edge for edge).

Rows use the shared schema ``{kernel, dataset, workers, wall_s,
candidates, runs}`` and are merged into ``BENCH_sparse.json`` through
the same run-count-weighted keyed-median writer as the kernel bench.

Usage::

    PYTHONPATH=src python benchmarks/bench_learned.py \
        [--size 5000] [--repeats 3] [--model-kind logistic] \
        [--sample-size 1000] [--out BENCH_sparse.json]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_sparse_kernel import make_dataset, timed_median, write_rows

from repro.blocking.building import StandardBlocking
from repro.blocking.metablocking import PairGraph
from repro.core.candidates import pack_ids
from repro.datasets.generator import ERDataset
from repro.learned import (
    SupervisedMetaBlocking,
    edge_features,
    sample_labeled_edges,
    serialize_model,
    train_model,
)


def _candidate_keys(filter_: SupervisedMetaBlocking) -> np.ndarray:
    """Sorted-unique int64 keys of the filter's last kept candidates."""
    order = np.argsort(filter_._kept_keys)
    return filter_._kept_keys[order]


def train_weights(
    dataset: ERDataset, model_kind: str, sample_size: int, seed: int = 7
) -> str:
    """Serialized model trained exactly as the oracle filter trains it.

    The oracle configuration deliberately retrains inside ``TRAIN`` on
    every run and keeps no model on the instance, so the bench replays
    the same deterministic pipeline once to obtain the weights the
    inference row rebuilds from.
    """
    blocks = StandardBlocking().build(dataset.left, dataset.right, None)
    graph = PairGraph(blocks)
    matrix = edge_features(graph)
    keys = pack_ids(graph.lefts, graph.rights)
    gt_keys = dataset.groundtruth.keys
    indices, labels = sample_labeled_edges(keys, gt_keys, sample_size, seed)
    model = train_model(model_kind, matrix[indices], labels, seed=seed)
    return serialize_model(model)


def run_benchmarks(
    size: int,
    seed: int = 42,
    repeats: int = 3,
    model_kind: str = "logistic",
    sample_size: int = 1000,
    threshold: float = 0.5,
) -> List[Dict[str, object]]:
    """Train/infer timings of SMB on one cell as BENCH_sparse.json rows."""
    dataset = make_dataset(size, seed)
    dataset_label = f"{dataset.spec.name}-SMB-{model_kind}"

    def run_train() -> SupervisedMetaBlocking:
        filter_ = SupervisedMetaBlocking(
            oracle=dataset.groundtruth,
            model_kind=model_kind,
            sample_size=sample_size,
            pruning="WEP",
            threshold=threshold,
        )
        filter_.candidates(dataset.left, dataset.right, None)
        return filter_

    train_s, trained, runs_train = timed_median(run_train, repeats)
    train_keys = _candidate_keys(trained)
    weights = train_weights(dataset, model_kind, sample_size)

    def run_infer() -> SupervisedMetaBlocking:
        filter_ = SupervisedMetaBlocking(
            weights=weights, pruning="WEP", threshold=threshold
        )
        filter_.candidates(dataset.left, dataset.right, None)
        return filter_

    infer_s, inferred, runs_infer = timed_median(run_infer, repeats)
    infer_keys = _candidate_keys(inferred)
    assert train_keys.tobytes() == infer_keys.tobytes(), (
        "trained and rebuilt models disagree on the kept candidates"
    )

    return [
        {
            "kernel": "learned_train",
            "dataset": dataset_label,
            "workers": 1,
            "wall_s": round(train_s, 6),
            "candidates": int(len(train_keys)),
            "runs": int(runs_train),
        },
        {
            "kernel": "learned_infer",
            "dataset": dataset_label,
            "workers": 1,
            "wall_s": round(infer_s, 6),
            "candidates": int(len(infer_keys)),
            "runs": int(runs_infer),
        },
    ]


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=5000,
                        help="entities per collection (size x size dataset)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per configuration; the median is recorded")
    parser.add_argument("--model-kind", default="logistic",
                        choices=("logistic", "stumps"))
    parser.add_argument("--sample-size", type=int, default=1000,
                        help="labeled-sample budget for training")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="WEP probability cutoff")
    parser.add_argument("--out", default="BENCH_sparse.json",
                        help="output JSON path (rows are keyed by"
                        " kernel/dataset/workers and rewritten atomically)")
    args = parser.parse_args(argv)

    rows = run_benchmarks(
        args.size,
        seed=args.seed,
        repeats=args.repeats,
        model_kind=args.model_kind,
        sample_size=args.sample_size,
        threshold=args.threshold,
    )
    write_rows(rows, Path(args.out))
    for row in rows:
        print(
            f"{row['kernel']:>26} w{row['workers']}  {row['wall_s']:9.4f}s  "
            f"candidates={row['candidates']}  runs={row['runs']}"
        )
    train = next(r for r in rows if r["kernel"] == "learned_train")
    infer = next(r for r in rows if r["kernel"] == "learned_infer")
    overhead = float(train["wall_s"]) - float(infer["wall_s"])
    print(f"{'training overhead':>26}  {overhead:9.4f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
