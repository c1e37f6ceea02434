"""Smoke tests of the end-to-end benchmark.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e``.  Every run uses the ``--smoke`` sizes (d1/d2 cells, a
1k execute cell, 2k serving requests) and one second of measurement, so
the module takes well under a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in DECLARED["workloads"])


def bench(*args, env=None):
    return subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seconds", "1", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(process) -> dict:
    return json.loads(process.stdout.strip().splitlines()[-1])


def cache_snapshot():
    cache = ROOT / ".bench_cache"
    if not cache.exists():
        return None
    return {
        path.name: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(cache.iterdir())
    }


@pytest.fixture(scope="module")
def declared():
    return {
        0: {m["name"]: m["unit"] for m in DECLARED["end_to_end"]},
        1: {m["name"]: m["unit"] for m in DECLARED["per_layer"]},
    }


@pytest.fixture(scope="module")
def runs():
    """Every workload, untraced and traced, plus the cache before/after."""
    before = cache_snapshot()
    results = {
        (name, trace): bench("--workload", name, "--trace", str(trace))
        for name in WORKLOADS
        for trace in (0, 1)
    }
    return results, before, cache_snapshot()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(
    runs, declared, name, trace
):
    process = runs[0][(name, trace)]
    assert process.returncode == 0, process.stderr
    result = last_json(process)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {m: record["unit"] for m, record in result["metrics"].items()}
    assert emitted == declared[trace]
    for metric, unit in emitted.items():
        # The human-readable report names every metric with its unit.
        assert any(
            line.split()[:1] == [metric] and unit in line.split()
            for line in process.stdout.splitlines()
        ), metric
    if trace == 0:
        assert all(r["value"] > 0 for r in result["metrics"].values())


def test_repository_bench_cache_is_untouched(runs):
    _results, before, after = runs
    assert before == after


def test_corrupted_expected_output_fails_the_run(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    cell = expected["tune-sparse"]["smoke"]["110"]["EJ|a"]
    cell["candidates"] += 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    process = bench("--workload", "tune-sparse", "--expected", str(corrupted))
    assert process.returncode == 1
    result = last_json(process)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "differs from expected.json" in process.stdout


def test_parent_repro_variables_do_not_reach_the_children():
    env = dict(os.environ, REPRO_TUNING_PRUNE="1", REPRO_WORKERS="2")
    process = bench("--workload", "tune-sparse", env=env)
    assert process.returncode == 0, process.stderr
    assert last_json(process)["correct"]


def _write_set(path: Path, walls, seeds):
    runs = [
        {
            "seed": seed,
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {"wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 100.0},
        }
        for seed, wall in zip(seeds, walls)
    ]
    path.write_text(json.dumps({"workloads": {"tune-sparse": {"runs": runs}}}))


def test_compare_passes_identical_sets_and_flags_a_regression(tmp_path):
    bound = next(
        m["bound"] for m in DECLARED["end_to_end"] if m["name"] == "wall_s"
    )
    seeds = [110, 111, 112, 113, 114]
    walls = [3.00, 3.01, 3.02, 3.03, 3.04]
    base, same, slow = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    _write_set(base, walls, seeds)
    _write_set(same, walls, seeds)
    # Five points beyond the declared bound.
    _write_set(slow, [(1.05 + bound) * w for w in walls], seeds)

    def compare(other):
        return subprocess.run(
            [sys.executable, str(RUN), "compare", str(base), str(other)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )

    identical = compare(same)
    assert identical.returncode == 0, identical.stdout
    assert "regressed" not in identical.stdout
    assert "unresolved" not in identical.stdout
    regressed = compare(slow)
    assert regressed.returncode == 1
    wall_row = next(
        line for line in regressed.stdout.splitlines() if " wall_s " in line
    )
    assert "regressed" in wall_row
    assert "B wins 0/5 pairs" in wall_row
