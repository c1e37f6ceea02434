"""Microbenchmark: the fault-tolerant serving layer under sustained load.

Dependency-free (stdlib + numpy + the repro package).  Two measurements
over the incremental ScanCount filter wrapped in a
:class:`~repro.core.serving.ServingIndex`:

* **serving_sustained** — a seeded mixed add/remove/query stream (the
  same generator as the ``incremental_mixed_ops`` row, so the two wall
  times are directly comparable: the delta is the price of snapshot
  isolation + WAL durability + admission control).  ``wall_s`` is the
  stream's wall time, ``candidates`` the total matches returned, and
  ``ops_per_s`` the sustained throughput.
* **serving_p99** — per-query latency under a steady read workload
  against a populated service, with the writer applying a background
  mutation trickle.  ``wall_s`` records the p99 query latency in
  seconds; ``p50_ms``/``p99_ms`` carry the quantiles in milliseconds.

Rows share BENCH_sparse.json with the kernel bench and ride its
row helpers (keyed merge where a fresh row replaces the recorded one,
atomic rewrite).

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        [--size 2000] [--repeats 3] [--durable] [--out BENCH_sparse.json]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from bench_sparse_kernel import make_dataset, timed_median, write_rows  # noqa: E402

from repro.core.incremental import random_operations  # noqa: E402
from repro.core.serving import ServingIndex  # noqa: E402
from repro.sparse import IncrementalScanCountFilter  # noqa: E402


def _factory(threshold: float, model: str):
    return lambda: IncrementalScanCountFilter(
        threshold=threshold, model=model
    )


def bench_sustained(
    size: int,
    seed: int,
    threshold: float,
    model: str,
    repeats: int,
    directory: Optional[Path],
) -> Dict[str, object]:
    """The mixed-op stream through the full serving stack."""
    dataset = make_dataset(size, seed)
    operations = random_operations(
        list(dataset.left), np.random.default_rng(seed + 1), 2 * size
    )
    ops = len(operations)
    invocation = [0]

    def run() -> int:
        # Each repeat serves from a fresh directory: recovering the
        # previous repeat's WAL would change the workload.
        invocation[0] += 1
        state = (
            directory / f"run{invocation[0]}"
            if directory is not None
            else None
        )
        with ServingIndex(
            _factory(threshold, model),
            directory=state,
            batch_limit=64,
            queue_limit=4 * ops,
            checkpoint_every=size if directory is not None else None,
        ) as service:
            # Mutations are admitted write-behind; each query first waits
            # for the newest pending ticket (read-your-writes), so the
            # match count is deterministic and comparable to the
            # single-threaded ``incremental_mixed_ops`` row.
            matches = 0
            ticket = None
            for operation in operations:
                if operation.kind == "add":
                    ticket = service.add(operation.profile, wait=False)
                elif operation.kind == "remove":
                    ticket = service.remove(operation.uid, wait=False)
                else:
                    if ticket is not None:
                        ticket.wait()
                        ticket = None
                    matches += len(service.query(operation.profile))
            return matches

    wall_s, matches, runs = timed_median(run, repeats)
    mode = "durable" if directory is not None else "memory"
    return {
        "kernel": "serving_sustained",
        "dataset": f"bench-{size}-{model}-{mode}",
        "workers": 1,
        "wall_s": round(wall_s, 6),
        "candidates": int(matches),
        "runs": runs,
        "ops_per_s": round(ops / wall_s, 2) if wall_s > 0 else 0.0,
    }


def bench_latency(
    size: int,
    seed: int,
    threshold: float,
    model: str,
    repeats: int,
    queries: int,
) -> Dict[str, object]:
    """Per-query latency quantiles with a background mutation trickle."""
    dataset = make_dataset(size, seed)
    entities = list(dataset.left)
    probes = list(dataset.right)[: max(1, size // 4)]
    trickle = entities[: size // 10]

    best: Dict[str, float] = {}
    matches = 0
    for __ in range(max(1, repeats)):
        with ServingIndex(
            _factory(threshold, model),
            batch_limit=64,
            queue_limit=2 * len(entities),
        ) as service:
            for profile in entities[:-1]:
                service.add(profile, wait=False)
            service.add(entities[-1])  # barrier: bulk load is published
            # Trickle mutations while the read loop runs: remove/re-add
            # a rotating slice so every query races a snapshot swap.
            matches = 0
            rng = np.random.default_rng(seed + 7)
            for position in range(queries):
                if trickle and position % 10 == 0:
                    victim = trickle[(position // 10) % len(trickle)]
                    service.remove(victim.uid, wait=False)
                    service.add(victim, wait=False)
                probe = probes[int(rng.integers(len(probes)))]
                matches += len(service.query(probe))
            stats = service.stats()["query"]
        if not best or stats["p99_ms"] < best["p99_ms"]:
            best = {"p50_ms": stats["p50_ms"], "p99_ms": stats["p99_ms"]}
    return {
        "kernel": "serving_p99",
        "dataset": f"bench-{size}-{model}",
        "workers": 1,
        "wall_s": round(best["p99_ms"] / 1000.0, 6),
        "candidates": int(matches),
        "runs": max(1, repeats),
        "p50_ms": round(best["p50_ms"], 4),
        "p99_ms": round(best["p99_ms"], 4),
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--model", default="T1G")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--queries", type=int, default=500)
    parser.add_argument(
        "--durable",
        action="store_true",
        help="run the sustained stream with a WAL (fsync batching) too",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_sparse.json",
    )
    args = parser.parse_args(argv)

    rows: List[Dict[str, object]] = []
    started = time.perf_counter()
    rows.append(
        bench_sustained(
            args.size, args.seed, args.threshold, args.model,
            args.repeats, directory=None,
        )
    )
    if args.durable:
        with tempfile.TemporaryDirectory() as tmp:
            rows.append(
                bench_sustained(
                    args.size, args.seed, args.threshold, args.model,
                    args.repeats, directory=Path(tmp),
                )
            )
    rows.append(
        bench_latency(
            args.size, args.seed, args.threshold, args.model,
            args.repeats, args.queries,
        )
    )
    elapsed = time.perf_counter() - started

    for row in rows:
        extras = {
            key: row[key]
            for key in ("ops_per_s", "p50_ms", "p99_ms")
            if key in row
        }
        print(
            f"{row['kernel']:>20} {row['dataset']:>28} "
            f"wall={row['wall_s']:.4f}s {extras}"
        )
    write_rows(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out} ({elapsed:.1f}s total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
