"""Microbenchmark: cost-based grid pruning.

Dependency-free (stdlib + numpy + the repro package): for each
(dataset, setting, method) cell it runs the Problem-1 tuner twice —
without and with cost-based pruning — asserting the selected
configuration is identical (the layer's hard invariant) and recording
both wall times plus the pruned fraction of the enumerated grid.  The
kNN-Join tuner is the only one with a prune rule, so it is the default
and only meaningful method; any other accepts ``prune`` and ignores it.

Rows share BENCH_sparse.json with the kernel bench and ride its
row helpers (keyed merge where a fresh row replaces the recorded one,
atomic rewrite).  Row kinds (``dataset`` is ``<name>[@<attribute>]:<method>``):

* ``{kernel: "tune_noprune", wall_s, candidates: |C| of the winner}``
* ``{kernel: "tune_prune", wall_s, candidates, pruned_frac}``

The tokenization memo and the token-statistics memo
(:func:`repro.datasets.stats.token_stats`) live in this process only:
the first pruned repeat of a cell counts its combinations, later repeats
read them back, so the pruned/unpruned wall-clock comparison is
run-order fair only after the first repeat; the headline metrics
(parity, pruned fraction) are deterministic either way.  Nothing but
``--out`` is written.

Usage::

    PYTHONPATH=src python benchmarks/bench_estimator.py \
        [--datasets d1,d5] [--methods kNNJ] [--repeats 1] \
        [--key-attribute] [--out BENCH_sparse.json]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_sparse_kernel import timed_median, write_rows  # noqa: E402

from repro.datasets.registry import DATASET_NAMES, load_dataset  # noqa: E402
from repro.tuning import tune_method  # noqa: E402

#: The methods with a prune rule: kNN-Join skips whole (cleaning, RVS,
#: model) combinations from their token coverage.
DEFAULT_METHODS = ("kNNJ",)
#: d1 is clean (little to prune), d5 misplaces the key attribute (heavy
#: infeasibility pruning) — together they chart both regimes.
DEFAULT_DATASETS = ("d1", "d5")


def bench_cell(
    dataset_name: str,
    method: str,
    attribute: Optional[str],
    repeats: int,
) -> List[Dict[str, object]]:
    """The two benchmark rows of one (dataset, setting, method) cell."""
    dataset = load_dataset(dataset_name)
    attr = dataset.key_attribute if attribute == "key" else attribute
    label = f"{dataset_name}@{attr}:{method}" if attr else (
        f"{dataset_name}:{method}"
    )

    plain_s, plain, runs = timed_median(
        lambda: tune_method(method, dataset, attr, prune=False), repeats
    )
    pruned_s, pruned, runs = timed_median(
        lambda: tune_method(method, dataset, attr, prune=True), repeats
    )
    assert pruned.params == plain.params, (
        f"{label}: pruning changed the selected configuration"
        f" ({plain.params} -> {pruned.params})"
    )
    enumerated = max(1, pruned.configurations_enumerated)
    pruned_frac = pruned.configurations_pruned / enumerated

    return [
        {
            "kernel": "tune_noprune",
            "dataset": label,
            "workers": 1,
            "wall_s": round(plain_s, 6),
            "candidates": int(plain.candidates),
            "runs": runs,
        },
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
