#!/usr/bin/env python3
"""End-to-end benchmark: tune, execute and serve, with per-layer times.

Run from the repository root; nothing needs installing::

    python3 benchmarks/e2e/run.py --workload tune-sparse --seed 110 \\
        --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --runs 5 --out set1.json    # all four
    python3 benchmarks/e2e/run.py --workload serve-churn --trace 1
    python3 benchmarks/e2e/run.py compare set1.json set2.json
    python3 benchmarks/e2e/run.py --record-expected

One run of a workload spawns fresh child interpreters one at a time,
so every unit of work pays cold in-process caches (tokenize memo,
dataset memo) as a ``python -m repro.bench`` user does.  A batch
workload runs one unit per child and keeps spawning until ``--seconds``
have passed (at least three children); ``serve-churn`` runs three
sessions of ``--seconds / 3`` each.  Each child times its own set-up
(interpreter start, imports, input generation, opening the service).

Children get a clean environment: every ``REPRO_*`` variable is removed,
``REPRO_BENCH_CACHE`` and ``TMPDIR`` point into a per-run directory
(the repository's ``.bench_cache/`` is never read or written),
``PYTHONPATH`` is the checkout's ``src`` and BLAS/OpenMP pools are
pinned to one thread.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a run that spends a third of ``--seconds``
untraced and the rest with the recorder of ``tracer.py`` installed, and
writes the spans to ``--spans DIR``.  Outputs are checked after the
measured phase (see ``workloads.py``); the last line of standard output
is one JSON object ``{correct, attempted, failed, metrics}`` and the exit
code is 1 when any operation failed or returned a wrong result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = ROOT / ".e2e_bench"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

DEFAULT_SECONDS = 20
#: Children spawned per batch run at least (set-up is reported as their
#: median) and sessions per serving run.
MIN_CHILDREN = 3
#: A run spawns no further child after this many seconds, and kills a
#: child still running at the hard limit.
SPAWN_DEADLINE_S = 120
HARD_LIMIT_S = 170

class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def p99(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


# ----------------------------------------------------------------------
# Children.
# ----------------------------------------------------------------------


def child_env(cache_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_BENCH_CACHE"] = str(cache_dir)
    env["TMPDIR"] = str(cache_dir.parent)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pool] = "1"
    return env


class Run:
    """One run of one workload: its children and their outputs."""

    def __init__(self, workload, seed: int, profile: str, started: float):
        self.workload = workload
        self.seed = seed
        self.profile = profile
        self.started = started
        self.directory = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.untraced: List[Dict[str, object]] = []
        self.traced: List[Dict[str, object]] = []

    def spawn(self, window: float, traced: bool) -> None:
        index = len(self.untraced) + len(self.traced)
        directory = self.directory / f"child{index}"
        directory.mkdir()
        config = {
            "workload": self.workload.name,
            "profile": self.profile,
            "seed": self.seed,
            "window": window,
            "traced": traced,
            "workdir": str(directory),
            "out": str(directory / "out.json"),
            "spans": str(directory / "spans.jsonl"),
        }
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchmarkError("run exceeded its time limit")
        config_path = directory / "config.json"
        config["spawned_at"] = time.monotonic()
        config_path.write_text(json.dumps(config))
        try:
            process = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "_child", str(config_path)],
                cwd=directory,
                env=child_env(directory / "cache"),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchmarkError(
                f"{self.workload.name} child timed out after {remaining:.0f}s"
            ) from error
        if process.returncode != 0:
            raise BenchmarkError(
                f"{self.workload.name} child exited {process.returncode}:\n"
                + process.stderr[-4000:]
            )
        output = json.loads(Path(config["out"]).read_text())
        output["spans_path"] = config["spans"]
        (self.traced if traced else self.untraced).append(output)

    def measure(self, seconds: float, trace: bool) -> None:
        if self.workload.kind == "session":
            if trace:
                self.spawn(seconds / 3, traced=False)
                self.spawn(2 * seconds / 3, traced=True)
            else:
                for _ in range(MIN_CHILDREN):
                    self.spawn(seconds / MIN_CHILDREN, traced=False)
            return
        phases = (
            [(False, seconds / 3, 1), (True, seconds, 2)]
            if trace
            else [(False, seconds, MIN_CHILDREN)]
        )
        for traced, until, minimum in phases:
            spawned = self.traced if traced else self.untraced
            while len(spawned) < minimum or (
                self.elapsed() < until and self.elapsed() < SPAWN_DEADLINE_S
            ):
                self.spawn(0.0, traced)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# One run: measure, check, report.
# ----------------------------------------------------------------------


def load_expected(path: Path) -> Dict[str, object]:
    return json.loads(path.read_text()) if path.exists() else {}


def run_once(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    profile: str,
    expected: Dict[str, object],
    spans_dir: Optional[Path],
) -> Dict[str, object]:
    """Measure and check one run; returns the contract's result object
    plus the samples behind each metric."""
    run = Run(workload, seed, profile, time.monotonic())
    try:
        run.measure(seconds, trace)
        outputs = run.untraced + run.traced
        leaked = sorted(
            {k for o in outputs for k in o["repro_env"]} - {"REPRO_BENCH_CACHE"}
        )
        if leaked:
            raise BenchmarkError(f"REPRO_* variables reached a child: {leaked}")
        reference = expected.get(workload.name, {}).get(profile, {}).get(str(seed))
        attempted, failed, notes = workload.verify(
            outputs, profile, seed, reference
        )
        broken = [e for o in run.traced for e in o["completeness"]]
        if broken:
            raise BenchmarkError(f"{workload.name} trace is incomplete: {broken}")
        samples = layer_samples(run) if trace else end_to_end_samples(run)
        latency = serving_latency(run.untraced)
        if trace and spans_dir is not None:
            write_spans(workload.name, run.traced, samples, latency, spans_dir)
    finally:
        run.close()
    metrics = {
        name: {"value": statistics.median(values), "unit": unit}
        for name, (unit, values) in samples.items()
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {name: values for name, (_u, values) in samples.items()},
        "latency": latency,
        "notes": notes,
    }


def end_to_end_samples(run: Run):
    walls = [wall for o in run.untraced for wall in o["walls"]]
    return {
        "wall_s": ("s", walls),
        "setup_s": ("s", [o["setup_s"] for o in run.untraced]),
        "peak_rss_mb": ("MiB", [o["peak_rss_mb"] for o in run.untraced]),
    }


def layer_samples(run: Run):
    import tracer

    samples = {
        metric: (unit, [o["layers"].get(metric, 0.0) for o in run.traced])
        for metric, unit in tracer.LAYER_METRICS
    }
    untraced = statistics.median(w for o in run.untraced for w in o["walls"])
    traced = statistics.median(w for o in run.traced for w in o["walls"])
    samples["trace_overhead_s"] = ("s", [traced - untraced])
    return samples


def serving_latency(outputs) -> Dict[str, Dict[str, float]]:
    """Client-side request latency quantiles (ms) of untraced sessions.

    Reported, not gated: single runs of the tail spread wider than any
    bound the host allows, and in a closed loop with one client their
    sum is already carried end to end by ``wall_s``.
    """
    pooled: Dict[str, List[float]] = {}
    for output in outputs:
        for kind, values in output.get("latency_ms", {}).items():
            pooled.setdefault(kind, []).extend(values)
    latency = {}
    for kind, values in pooled.items():
        if len(values) > 1:
            latency[f"core.serving.{kind}_p50_ms"] = {
                "value": statistics.median(values), "n": len(values)
            }
            latency[f"core.serving.{kind}_p99_ms"] = {
                "value": p99(values), "n": len(values)
            }
    return latency


def write_spans(name: str, traced, samples, latency, spans_dir: Path) -> None:
    spans_dir.mkdir(parents=True, exist_ok=True)
    with open(spans_dir / f"{name}.spans.jsonl", "w", encoding="utf-8") as out:
        for child, output in enumerate(traced):
            with open(output["spans_path"], encoding="utf-8") as spans:
                for line in spans:
                    span = json.loads(line)
                    span["trace"] = f"c{child}:{span['trace']}"
                    out.write(json.dumps(span, separators=(",", ":")) + "\n")
    summary = {
        "workload": name,
        "layers": {
            metric: {"unit": unit, "median": statistics.median(values)}
            for metric, (unit, values) in samples.items()
        },
        "latency_ms": latency,
    }
    (spans_dir / f"{name}.summary.json").write_text(
        json.dumps(summary, indent=1) + "\n"
    )


def print_run(name: str, seed: int, result: Dict[str, object]) -> None:
    print(
        f"{name} seed={seed}: attempted={result['attempted']}"
        f" failed={result['failed']}"
        f" fail_frac={result['failed'] / max(1, result['attempted']):.4f}"
    )
    for metric, record in result["metrics"].items():
        q1, median, q3 = quartiles(result["samples"][metric])
        print(
            f"  {metric:<50} {median:>12.6g} {record['unit']:<8}"
            f" q1={q1:.6g} q3={q3:.6g} n={len(result['samples'][metric])}"
        )
    for metric, record in result["latency"].items():
        print(
            f"  {metric:<50} {record['value']:>12.6g} {'ms':<8}"
            f" n={record['n']} (reported, not gated)"
        )
    for note in result["notes"][:20]:
        print(f"  ! {note}")


# ----------------------------------------------------------------------
# compare A.json B.json
# ----------------------------------------------------------------------


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], bound: float, lower: bool):
    """``ok`` / ``regressed`` / ``unresolved`` for one (metric, workload).

    A change worse than ``bound`` is a regression; where either side's
    run-to-run spread exceeds the bound the comparison is unresolved
    unless every run of B beats every run of A.
    """
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    if max(spread(a), spread(b)) > bound:
        beats = max(b) < min(a) if lower else min(b) > max(a)
        return ("ok" if beats else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def describe(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(path_a: str, path_b: str) -> int:
    """Print one verdict per (workload, metric) of two ``--out`` files;
    exit 1 unless every verdict is ``ok``."""
    a_doc = json.loads(Path(path_a).read_text())
    b_doc = json.loads(Path(path_b).read_text())
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    rows = [(
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "bound", "verdict",
    )]
    for name in sorted(set(a_doc["workloads"]) & set(b_doc["workloads"])):
        a_runs = a_doc["workloads"][name]["runs"]
        b_runs = b_doc["workloads"][name]["runs"]
        paired = [r["seed"] for r in a_runs] == [r["seed"] for r in b_runs]
        for metric, declared in bounds.items():
            a = [r["metrics"][metric] for r in a_runs]
            b = [r["metrics"][metric] for r in b_runs]
            lower = declared["better"] == "lower"
            result, worse = verdict(a, b, declared["bound"], lower)
            if paired:
                wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
                result += f" (B wins {wins}/{len(a)} pairs)"
            rows.append((
                name, metric, describe(a), describe(b),
                f"{worse:+.1%}", f"{declared['bound']:.0%}", result,
            ))
        fail_frac = [
            sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
            for runs in (a_runs, b_runs)
        ]
        rows.append((
            name, "fail_frac", f"{fail_frac[0]:.4f}", f"{fail_frac[1]:.4f}",
            "", "B<=A", "ok" if fail_frac[1] <= fail_frac[0] else "regressed",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0 if all(row[-1].startswith("ok") for row in rows[1:]) else 1


# ----------------------------------------------------------------------
# --record-expected
# ----------------------------------------------------------------------


def record_expected(path: Path, names: Sequence[str]) -> int:
    """Regenerate the recorded outputs for the default and held-out
    seeds of each workload, in both size profiles.

    A change that claims a performance gain must never run this: the
    recorded outputs are what proves its results did not change.
    """
    import workloads

    document = load_expected(path)
    for name in names:
        workload = workloads.WORKLOADS[name]
        for profile in (workloads.FULL, workloads.SMOKE):
            for seed in (workload.default_seed, workload.held_out_seed):
                run = Run(workload, seed, profile, time.monotonic())
                try:
                    run.spawn(0.0, traced=False)
                    _, failed, notes = workload.verify(
                        run.untraced, profile, seed, None
                    )
                    if failed:
                        raise BenchmarkError(
                            f"{name}/{profile}/{seed} fails its oracle: {notes}"
                        )
                    entry = workload.expected_entry(run.untraced, profile, seed)
                finally:
                    run.close()
                document.setdefault(name, {}).setdefault(profile, {})[
                    str(seed)
                ] = entry
                print(f"recorded {name} {profile} seed={seed}", flush=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


# ----------------------------------------------------------------------
# Command line.
# ----------------------------------------------------------------------


def parse(argv: Sequence[str]) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md).",
        epilog="Also: run.py compare A.json B.json",
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(workloads.WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument(
        "--seed", type=int,
        help="input seed (default: the workload's); run i uses seed + i",
    )
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write every run's metrics here")
    parser.add_argument(
        "--spans", type=Path, default=WORK / "spans",
        help="where --trace 1 writes <workload>.spans.jsonl and .summary.json",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--expected", type=Path, default=EXPECTED)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(workloads.WORKLOADS)
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs and --seconds must be positive")
    return args


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["_child"]:
        import workloads

        return workloads.child_main(argv[1])
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    # A terminated runner unwinds through subprocess.run, which kills and
    # reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The parent checks outputs with the library too; it must see the
    # same clean environment as the children.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    args = parse(argv)
    os.environ["REPRO_BENCH_CACHE"] = str(WORK / "parent-cache")
    try:
        if args.record_expected:
            return record_expected(args.expected, args.workload)
        return run_all(args)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK / "parent-cache", ignore_errors=True)


def run_all(args: argparse.Namespace) -> int:
    import workloads

    profile = workloads.SMOKE if args.smoke else workloads.FULL
    expected = load_expected(args.expected)
    document = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    results = []
    for name in args.workload:
        workload = workloads.WORKLOADS[name]
        first = workload.default_seed if args.seed is None else args.seed
        runs = document["workloads"].setdefault(name, {"runs": []})["runs"]
        for offset in range(args.runs):
            seed = first + offset
            result = run_once(
                workload, seed, args.seconds, bool(args.trace), profile,
                expected, args.spans if args.trace else None,
            )
            print_run(name, seed, result)
            runs.append(
                {
                    "seed": seed,
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {m: r["value"] for m, r in result["metrics"].items()},
                    "latency_ms": {
                        m: r["value"] for m, r in result["latency"].items()
                    },
                }
            )
            results.append((name, result))
    units = {
        metric: record["unit"]
        for _name, result in results
        for metric, record in result["metrics"].items()
    }
    document["summary"] = summarize(document)
    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    if len(results) == 1:
        result = results[0][1]
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        print_summary(document["summary"], units)
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                f"{name}.{metric}": {"value": stats["median"], "unit": units[metric]}
                for name, per_metric in document["summary"].items()
                for metric, stats in per_metric.items()
                if metric in units
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def summarize(document: Dict[str, object]) -> Dict[str, object]:
    """Median, quartiles and n over runs for every (workload, metric)."""
    summary = {}
    for name, info in document["workloads"].items():
        runs = info["runs"]
        per_metric = summary[name] = {}
        for metric in runs[0]["metrics"]:
            q1, median, q3 = quartiles([r["metrics"][metric] for r in runs])
            per_metric[metric] = {
                "median": median, "q1": q1, "q3": q3, "n": len(runs)
            }
        attempted = sum(r["attempted"] for r in runs)
        per_metric["fail_frac"] = {
            "median": sum(r["failed"] for r in runs) / max(1, attempted),
            "attempted": attempted,
        }
    return summary


def print_summary(summary: Dict[str, object], units: Dict[str, str]) -> None:
    print("summary over runs (median [q1, q3] n):")
    for name, per_metric in summary.items():
        print(f"  {name}: fail_frac={per_metric['fail_frac']['median']:.4f}")
        for metric, stats in per_metric.items():
            if metric in units:
                print(
                    f"    {metric:<50} {stats['median']:>12.6g}"
                    f" {units[metric]:<8} [{stats['q1']:.6g}, {stats['q3']:.6g}]"
                    f" n={stats['n']}"
                )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
