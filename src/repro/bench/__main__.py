"""Command-line entry point: run the experiment matrix and print tables.

Usage::

    python -m repro.bench                 # all datasets, fast profile
    python -m repro.bench d1 d2           # a subset
    python -m repro.bench --profile full  # the paper's full grids
    python -m repro.bench --timeout 900   # 15-minute budget per cell
    python -m repro.bench --workers 4     # shard sparse queries over 4 processes

A run resumes from ``.bench_cache/matrix.json`` automatically: finished
cells (including failed ones) are skipped, so an interrupted run picks
up where it left off.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from ..datasets.registry import DATASET_NAMES
from .harness import ExperimentMatrix
from .resilience import ExecutionPolicy
from .tables import (
    table06_datasets,
    table07_effectiveness,
    table08_blocking_configs,
    table09_sparse_configs,
    table10_dense_configs,
    table11_candidates,
)
from .figures import figure03_dataset_stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the filtering benchmark and print every table.",
    )
    parser.add_argument(
        "datasets",
        nargs="*",
        metavar="dataset",
        help="datasets to include (default: all ten)",
    )
    parser.add_argument(
        "--profile",
        choices=("fast", "full"),
        default="fast",
        help="tuning grid size (default: fast)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell; a cell that exceeds it is"
        " recorded as 'timeout' and rendered as '-' (default: none)",
    )
    parser.add_argument(
        "--memory-budget",
        type=float,
        default=None,
        metavar="MB",
        help="RSS budget per cell in MiB; exceeding it records the cell"
        " as 'oom' (default: none)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries (with exponential backoff) for transient errors"
        " before a cell is recorded as 'error' (default: 2)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="re-raise cell failures instead of recording them as"
        " '-' cells (the pre-resilience behaviour)",
    )
    parser.add_argument(
        "--save-every",
        type=int,
        default=ExperimentMatrix.DEFAULT_SAVE_EVERY,
        metavar="N",
        help="flush the result cache every N fresh cells"
        f" (default: {ExperimentMatrix.DEFAULT_SAVE_EVERY})",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard the query phase of supporting methods over N worker"
        " processes (0 = one per CPU; default: the REPRO_WORKERS"
        " environment variable, else 1); results are byte-identical"
        " for every worker count",
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help="cost-based tuning: the kNN-Join tuner skips (cleaning,"
        " RVS, model) combinations whose token coverage cannot beat the"
        " incumbent before their overlap pass runs (never changes the"
        " selected configuration; other tuners ignore it; default: off)",
    )
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse and validate arguments; exits with a clear message on error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    unknown = [name for name in args.datasets if name not in DATASET_NAMES]
    if unknown:
        parser.error(
            f"unknown dataset(s): {', '.join(unknown)}"
            f" — valid names are: {', '.join(DATASET_NAMES)}"
        )
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be a positive number of seconds")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.save_every < 1:
        parser.error("--save-every must be >= 1")
    if args.workers is not None and args.workers < 0:
        parser.error("--workers must be >= 0 (0 = one per CPU)")
    return args


def policy_from_args(args: argparse.Namespace) -> ExecutionPolicy:
    return ExecutionPolicy(
        timeout=args.timeout,
        memory_budget_mb=args.memory_budget,
        max_retries=args.max_retries,
        strict=args.strict,
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    args = parse_args(argv)
    datasets = args.datasets or None

    if args.workers is not None:
        # The knob is process-wide: every workers=None filter/tuner in
        # the matrix resolves to this default (repro.core.parallel).
        from ..core.parallel import set_default_workers

        set_default_workers(args.workers)

    matrix = ExperimentMatrix(
        datasets=datasets,
        profile=args.profile,
        policy=policy_from_args(args),
        save_every=args.save_every,
        prune=args.prune,
    )
    matrix.run_all()

    print()
    print(table06_datasets(matrix.datasets))
    print()
    print(figure03_dataset_stats(matrix.datasets))
    print()
    print(table07_effectiveness(matrix))
    print()
    print(table08_blocking_configs(matrix))
    print()
    print(table09_sparse_configs(matrix))
    print()
    print(table10_dense_configs(matrix))
    print()
    print(table11_candidates(matrix))


if __name__ == "__main__":
    main()
