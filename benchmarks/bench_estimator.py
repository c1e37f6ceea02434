"""Microbenchmark: Problem-1 tuning time per cell, with and without pruning.

Dependency-free (stdlib + numpy + the repro package): for each
(dataset, setting, method) cell it times the method's Problem-1 tuner.
A tuner that takes ``prune`` (kNN-Join, the one tuner with a prune
rule) runs twice — without and with cost-based pruning — asserting the
selected configuration is identical (the layer's hard invariant) and
recording both wall times plus the pruned fraction of the enumerated
grid.  Any other tuner (the blocking workflows, SMB, ...) runs once per
repeat and records one row.

Rows share BENCH_sparse.json with the kernel bench and ride its
row helpers (keyed merge where a fresh row replaces the recorded one,
atomic rewrite).  Row kinds (``dataset`` is ``<name>[@<attribute>]:<method>``):

* ``{kernel: "tune_noprune", wall_s, candidates: |C| of the winner}``
* ``{kernel: "tune_prune", wall_s, candidates, pruned_frac}``
* ``{kernel: "tune", wall_s, candidates}`` for a tuner without ``prune``

Every timed tune is cold: the overlap, tokenize and token-statistics
memos (process-wide, filled by any earlier tune of the same texts) are
cleared before each run, outside the timed region, so neither the
order of the pruned and unpruned runs nor the repeat count favours one
of them.  Nothing but ``--out`` is written.

Usage::

    PYTHONPATH=src python benchmarks/bench_estimator.py \
        [--datasets d1,d5] [--methods kNNJ,SBW] [--repeats 1] \
        [--key-attribute] [--out BENCH_sparse.json]
"""

from __future__ import annotations

import argparse
import inspect
import statistics
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_sparse_kernel import timed, write_rows  # noqa: E402

from repro.core import registry  # noqa: E402
from repro.datasets.registry import DATASET_NAMES, load_dataset  # noqa: E402
from repro.datasets.stats import clear_token_stats_cache  # noqa: E402
from repro.text.memo import clear_tokenize_cache  # noqa: E402
from repro.tuning import TunedResult, tune_method  # noqa: E402
from repro.tuning.sparse import clear_overlap_cache  # noqa: E402

#: The method with a prune rule: kNN-Join skips whole (cleaning, RVS,
#: model) combinations from their token coverage.
DEFAULT_METHODS = ("kNNJ",)
#: d1 is clean (little to prune), d5 misplaces the key attribute (heavy
#: infeasibility pruning) — together they chart both regimes.
DEFAULT_DATASETS = ("d1", "d5")


def cold_median(
    tune: Callable[[], TunedResult], repeats: int
) -> Tuple[float, TunedResult, int]:
    """Median wall time of ``repeats`` cold tunes; the first run's result."""
    repeats = max(1, int(repeats))
    walls: List[float] = []
    first: Optional[TunedResult] = None
    for _ in range(repeats):
        clear_overlap_cache()
        clear_tokenize_cache()
        clear_token_stats_cache()
        wall, result = timed(tune)
        walls.append(wall)
        if first is None:
            first = result
    return statistics.median(walls), first, repeats


def takes_prune(method: str) -> bool:
    """True when the method's tuner class has a ``prune`` parameter."""
    tuner = registry.make_tuner(method)
    return "prune" in inspect.signature(type(tuner)).parameters


def bench_cell(
    dataset_name: str,
    method: str,
    attribute: Optional[str],
    repeats: int,
) -> List[Dict[str, object]]:
    """The benchmark rows of one (dataset, setting, method) cell."""
    dataset = load_dataset(dataset_name)
    attr = dataset.key_attribute if attribute == "key" else attribute
    label = f"{dataset_name}@{attr}:{method}" if attr else (
        f"{dataset_name}:{method}"
    )

    plain_s, plain, runs = cold_median(
        lambda: tune_method(method, dataset, attr, prune=False), repeats
    )
    plain_row = {
        "dataset": label,
        "workers": 1,
        "wall_s": round(plain_s, 6),
        "candidates": int(plain.candidates),
        "runs": runs,
    }
    if not takes_prune(method):
        return [{"kernel": "tune", **plain_row}]

    pruned_s, pruned, runs = cold_median(
        lambda: tune_method(method, dataset, attr, prune=True), repeats
    )
    assert pruned.params == plain.params, (
        f"{label}: pruning changed the selected configuration"
        f" ({plain.params} -> {pruned.params})"
    )
    enumerated = max(1, pruned.configurations_enumerated)
    pruned_frac = pruned.configurations_pruned / enumerated

    return [
        {"kernel": "tune_noprune", **plain_row},
        {
            "kernel": "tune_prune",
            "dataset": label,
            "workers": 1,
            "wall_s": round(pruned_s, 6),
            "candidates": int(pruned.candidates),
            "runs": runs,
            "pruned_frac": round(pruned_frac, 4),
        },
    ]


def run_benchmarks(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    methods: Sequence[str] = DEFAULT_METHODS,
    repeats: int = 1,
    key_attribute: bool = False,
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    settings: Tuple[Optional[str], ...] = (
        (None, "key") if key_attribute else (None,)
    )
    for dataset_name in datasets:
        for attribute in settings:
            for method in methods:
                rows.extend(
                    bench_cell(dataset_name, method, attribute, repeats)
                )
    return rows


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--datasets", default=",".join(DEFAULT_DATASETS),
                        help="comma-separated dataset names (d1..d10)")
    parser.add_argument("--methods", default=",".join(DEFAULT_METHODS),
                        help="comma-separated method acronyms")
    parser.add_argument("--repeats", type=int, default=1,
                        help="tuner runs per cell; the median is recorded")
    parser.add_argument("--key-attribute", action="store_true",
                        help="additionally bench the schema-based setting"
                        " (the dataset's key attribute)")
    parser.add_argument("--out", default="BENCH_sparse.json",
                        help="trajectory file shared with the kernel bench")
    args = parser.parse_args(argv)

    datasets = [d for d in str(args.datasets).split(",") if d.strip()]
    unknown = [d for d in datasets if d not in DATASET_NAMES]
    if unknown:
        parser.error(f"unknown dataset(s): {', '.join(unknown)}")
    methods = [m for m in str(args.methods).split(",") if m.strip()]

    rows = run_benchmarks(
        datasets,
        methods,
        repeats=args.repeats,
        key_attribute=args.key_attribute,
    )
    write_rows(rows, Path(args.out))
    for row in rows:
        extras = (
            f"  pruned_frac={row['pruned_frac']}" if "pruned_frac" in row else ""
        )
        print(
            f"{row['kernel']:>16}  {row['dataset']:<24}"
            f" {row['wall_s']:9.4f}s  candidates={row['candidates']}{extras}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
