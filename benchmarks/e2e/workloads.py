"""The four workloads of the end-to-end benchmark.

Every workload has two sides.  The *child* side runs in a fresh
interpreter: it imports the library, builds its inputs from the seed
(set-up), then runs the measured phase.  The *parent* side runs after
the measured phase and checks what the children returned: against each
other, against ``expected.json`` when the seed has an entry there, and
against an independent oracle that works for any seed.

========== ========================================================
workload   unit of work
========== ========================================================
tune-sparse    ``ExperimentMatrix(["EJ", "kNNJ"]).run_all()`` on a
               quarter-size d10 analogue (setting a, fast profile)
tune-blocking  ``ExperimentMatrix(["SBW", "QBW", "SMB"]).run_all()``
               on a 0.4-size d5 analogue (setting a, fast profile)
execute-4k     ``registry.build_filter(...).candidates`` for fixed EJ,
               kNNJ and SBW configurations on a 4k x 4k product cell
serve-churn    1,000 closed-loop requests (32.5% add, 32.5% remove,
               35% query) against a durable ``ServingIndex``
========== ========================================================

Nothing from ``repro`` is imported at module level: the child's set-up
time includes the library imports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import tracer

FULL = "full"
SMOKE = "smoke"

#: Relative tolerance for floats compared against recorded outputs.
#: The tuners' PC/PQ and the SMB model weights are deterministic; the
#: tolerance only forgives last-digit changes from a reordered sum.
FLOAT_RTOL = 1e-9


def _same(a, b) -> bool:
    """Structural equality with :data:`FLOAT_RTOL` on floats.

    Strings that differ are compared again as JSON documents, which
    covers the SMB ``weights`` parameter (a serialized model).
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, str) and isinstance(b, str) and a != b:
        try:
            return _same(json.loads(a), json.loads(b))
        except ValueError:
            return False
    return a == b


def key_digest(candidates, width: int) -> Tuple[str, int]:
    """sha256 over the sorted fastpairs keys of a candidate set."""
    import numpy as np

    from repro.core.fastpairs import encode_pairs, unique_keys

    flat = np.fromiter(
        itertools.chain.from_iterable(candidates),
        dtype=np.int64,
        count=2 * len(candidates),
    ).reshape(-1, 2)
    keys = unique_keys(encode_pairs(flat[:, 0], flat[:, 1], width))
    return hashlib.sha256(keys.astype("<i8").tobytes()).hexdigest(), len(keys)


def _uids_hash(uids: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(uids).encode()).hexdigest()[:16]


class Workload:
    """Shared interface; subclasses fill in the workload specifics."""

    name = ""
    why = ""
    default_seed = 0
    held_out_seed = 0
    #: "batch": one unit per child; "session": units until the window.
    kind = "batch"

    def setup(self, profile: str, seed: int, workdir: Path):
        raise NotImplementedError

    def measure(self, state, window: float, recorder) -> Dict[str, object]:
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def verify(
        self,
        outputs: List[Dict[str, object]],
        profile: str,
        seed: int,
        expected: Optional[Dict[str, object]],
    ) -> Tuple[int, int, List[str]]:
        """``(attempted, failed, notes)`` over every child's output."""
        raise NotImplementedError

    def expected_entry(
        self, outputs: List[Dict[str, object]], profile: str, seed: int
    ) -> Dict[str, object]:
        """The ``expected.json`` entry recorded from a run's outputs."""
        return outputs[0]["result"]


class BatchWorkload(Workload):
    """One unit per child: a root span around :meth:`unit`."""

    def unit(self, state):
        raise NotImplementedError

    def fingerprint(self, state, result) -> Dict[str, object]:
        raise NotImplementedError

    def unit_layers(self, state, result) -> Dict[str, float]:
        """Seconds of the unit spent in named parts; reported as shares."""
        return {}

    def measure(self, state, window, recorder):
        root = recorder.open(tracer.ROOT, "e2e") if recorder else None
        start = time.perf_counter()
        result = self.unit(state)
        wall = time.perf_counter() - start
        if recorder:
            recorder.close(root)
        return {
            "walls": [wall],
            "units": 1,
            "result": self.fingerprint(state, result),
            "extra_layers": {
                metric: seconds / wall
                for metric, seconds in self.unit_layers(state, result).items()
            },
        }

    def _consistency(
        self, outputs, reference: Optional[Dict[str, object]], oracle
    ) -> Tuple[int, int, List[str]]:
        """Compare every child's per-item results with the others, the
        recorded reference (if any) and the oracle's verdicts."""
        attempted = failed = 0
        notes: List[str] = []
        first = outputs[0]["result"]
        for position, output in enumerate(outputs):
            for key, item in output["result"].items():
                attempted += 1
                problems = []
                if not _same(item, first.get(key)):
                    problems.append("differs from the run's first child")
                if reference is not None and not _same(item, reference.get(key)):
                    problems.append("differs from expected.json")
                problems.extend(oracle.get(key, []))
                if problems:
                    failed += 1
                    notes.append(f"child {position} {key}: {'; '.join(problems)}")
        return attempted, failed, notes


# ----------------------------------------------------------------------
# Problem-1 tuning (ExperimentMatrix.run_all).
# ----------------------------------------------------------------------


CELL_FIELDS = (
    "status", "params", "pc", "pq", "candidates", "feasible",
    "configurations_tried",
)


class TuneWorkload(BatchWorkload):
    def __init__(self, name, methods, base, scale, smoke_base, seeds, why):
        self.name = name
        self.methods = tuple(methods)
        self.base = base
        self.scale = scale
        self.smoke_base = smoke_base
        self.default_seed, self.held_out_seed = seeds
        self.why = why

    def spec(self, profile: str, seed: int):
        """A re-seeded, re-scaled copy of a registry dataset spec.

        The derived name is not a schema-based dataset, so the matrix
        runs setting a only.
        """
        from repro.datasets.registry import DATASET_SPECS

        base_name = self.base if profile == FULL else self.smoke_base
        scale = self.scale if profile == FULL else 1.0
        base = DATASET_SPECS[base_name]
        return dataclasses.replace(
            base,
            name=f"{base_name}e{round(scale * 100)}s{seed}",
            seed=seed,
            size1=round(base.size1 * scale),
            size2=round(base.size2 * scale),
            duplicates=round(base.duplicates * scale),
        )

    def _load(self, profile, seed):
        from repro.datasets import registry

        spec = self.spec(profile, seed)
        registry.DATASET_SPECS[spec.name] = spec
        return spec.name, registry.load_dataset(spec.name)

    def setup(self, profile, seed, workdir):
        from repro.bench.harness import ExperimentMatrix

        name, _dataset = self._load(profile, seed)
        return {
            "matrix": lambda: ExperimentMatrix(
                methods=self.methods,
                datasets=[name],
                profile="fast",
                cache_path=workdir / "matrix.json",
            ),
        }

    def unit(self, state):
        return state["matrix"]().run_all(verbose=False)

    def fingerprint(self, state, cells):
        return {
            f"{cell.method}|{cell.setting}": {
                field: getattr(cell, field) for field in CELL_FIELDS
            }
            for cell in cells
        }

    def verify(self, outputs, profile, seed, expected):
        from repro.core import registry
        from repro.core.metrics import evaluate_candidates
        from repro.core.optimizer import DEFAULT_RECALL_TARGET

        _, dataset = self._load(profile, seed)
        oracle: Dict[str, List[str]] = {}
        for key, cell in outputs[0]["result"].items():
            problems = oracle.setdefault(key, [])
            if cell["status"] != "ok":
                problems.append(f"status {cell['status']}")
                continue
            # Execute the selected configuration through the registry:
            # the tuner's reported PC/PQ/|C| must be what it yields.
            candidates = registry.build_filter(
                key.split("|")[0], cell["params"]
            ).candidates(dataset.left, dataset.right)
            found = evaluate_candidates(
                candidates,
                dataset.groundtruth,
                len(dataset.left),
                len(dataset.right),
            )
            measured = {
                "pc": found.pc, "pq": found.pq, "candidates": found.candidates
            }
            reported = {name: cell[name] for name in measured}
            if not _same(measured, reported):
                problems.append(f"tuned {reported} but executes to {measured}")
            if cell["feasible"] != (cell["pc"] >= DEFAULT_RECALL_TARGET):
                problems.append("feasible flag disagrees with PC")
        return self._consistency(outputs, expected, oracle)


# ----------------------------------------------------------------------
# Execution of fixed configurations (registry.build_filter).
# ----------------------------------------------------------------------


EXECUTE_CONFIGS = (
    ("EJ", {"cleaning": False, "model": "T1G", "measure": "cosine",
            "threshold": 0.5}),
    ("kNNJ", {"cleaning": False, "model": "T1G", "measure": "cosine",
              "k": 5, "reverse": False}),
    ("SBW", {"purging": True, "ratio": 0.5, "cleaner": "CBS+WNP"}),
)


def product_dataset(size: int, seed: int):
    """A synthetic size x size product cell (half the entities match)."""
    from repro.datasets.generator import DatasetSpec, generate
    from repro.datasets.noise import NoiseProfile

    return generate(
        DatasetSpec(
            name=f"product-{size}x{size}",
            domain="product",
            size1=size,
            size2=size,
            duplicates=size // 2,
            seed=seed,
            noise1=NoiseProfile(typo_rate=0.08, token_drop_rate=0.08),
            noise2=NoiseProfile(typo_rate=0.12, token_drop_rate=0.08),
        )
    )


class ExecuteWorkload(BatchWorkload):
    name = "execute-4k"
    default_seed, held_out_seed = 42, 1042
    why = (
        "Execution at tuned configurations (the paper's RT) on a 4k x 4k"
        " cell: kNN query kernel and meta-blocking graph dominate, no"
        " grid search."
    )

    def cell_size(self, profile):
        return 4000 if profile == FULL else 1000

    def setup(self, profile, seed, workdir):
        from repro.core import registry

        registry.method_codes()  # registers the tuning modules' specs
        return {
            "registry": registry,
            "dataset": product_dataset(self.cell_size(profile), seed),
        }

    def unit(self, state):
        dataset = state["dataset"]
        runs = []
        for code, params in EXECUTE_CONFIGS:
            filter_ = state["registry"].build_filter(code, params)
            candidates = filter_.candidates(dataset.left, dataset.right)
            runs.append((code, candidates, filter_.trace.as_dict()))
        return runs

    def fingerprint(self, state, runs):
        width = len(state["dataset"].right)
        result = {}
        for code, candidates, _stages in runs:
            digest, count = key_digest(candidates, width)
            result[code] = {"digest": digest, "candidates": count}
        return result

    def unit_layers(self, state, runs):
        return {
            f"filters.{code}.{stage}_frac": seconds
            for code, _candidates, stages in runs
            for stage, seconds in stages.items()
        }

    def verify(self, outputs, profile, seed, expected):
        from repro.core import registry
        from repro.sparse import IncrementalScanCountFilter
        from repro.text.tokenizers import word_tokens

        dataset = product_dataset(self.cell_size(profile), seed)
        width = len(dataset.right)
        oracle: Dict[str, List[str]] = {}
        for code, params in EXECUTE_CONFIGS:
            problems = oracle.setdefault(code, [])
            reported = outputs[0]["result"][code]["digest"]
            if code in ("EJ", "kNNJ"):
                # The streaming index answers the same join through its
                # own postings (DynamicPostings), query by query.
                mode = (
                    {"threshold": params["threshold"]}
                    if code == "EJ"
                    else {"k": params["k"]}
                )
                index = IncrementalScanCountFilter(
                    model=params["model"], measure=params["measure"], **mode
                )
                for profile_ in dataset.left:
                    index.add(profile_)
                pairs = [
                    (dataset.left.index_of(uid), right_id)
                    for right_id, uids in enumerate(
                        index.query_many(list(dataset.right))
                    )
                    for uid in uids
                ]
                if key_digest(pairs, width)[0] != reported:
                    problems.append("differs from the streaming index")
                continue
            candidates = registry.build_filter(code, params).candidates(
                dataset.left, dataset.right
            )
            if key_digest(candidates, width)[0] != reported:
                problems.append("differs from a re-execution")
            # Every pair a Standard Blocking workflow keeps shares a token.
            left = [set(word_tokens(t)) for t in dataset.left.texts(None)]
            right = [set(word_tokens(t)) for t in dataset.right.texts(None)]
            strays = sum(1 for i, j in candidates if not left[i] & right[j])
            if strays:
                problems.append(f"{strays} pairs share no blocking key")
        return self._consistency(outputs, expected, oracle)


# ----------------------------------------------------------------------
# Serving under churn (ServingIndex.add/remove/query).
# ----------------------------------------------------------------------


#: Request mix: adds and removes balance, so the live set stays near the
#: preloaded size and every block of requests does comparable work.
ADD_SHARE = 0.325
REMOVE_SHARE = 0.325


def churn_operations(pool, seed: int, preload: int, count: int):
    """``(preloaded profiles, requests)`` of a stationary churn stream.

    Adds draw from the pool entities not live, removes from the live
    ones, queries probe any pool entity (live or not).
    """
    import numpy as np

    from repro.core.incremental import Operation

    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(len(pool))]
    live, absent = order[:preload], order[preload:]
    operations = []
    for _ in range(count):
        draw = float(rng.random())
        if draw < ADD_SHARE and absent:
            position = absent.pop(int(rng.integers(len(absent))))
            live.append(position)
            operations.append(Operation("add", profile=pool[position]))
        elif draw < ADD_SHARE + REMOVE_SHARE and live:
            position = live.pop(int(rng.integers(len(live))))
            absent.append(position)
            operations.append(Operation("remove", uid=pool[position].uid))
        else:
            probe = pool[int(rng.integers(len(pool)))]
            operations.append(Operation("query", profile=probe))
    return [pool[i] for i in order[:preload]], operations


class ServeWorkload(Workload):
    name = "serve-churn"
    kind = "session"
    default_seed, held_out_seed = 11, 1011
    why = (
        "Durable ServingIndex under closed-loop churn, every write acked:"
        " the only workload in core.serving and core.incremental."
    )
    #: (pool, preloaded, requests in the stream, block, checkpoint_every)
    SIZES = {FULL: (5000, 2500, 40000, 1000, 5000),
             SMOKE: (500, 250, 2000, 500, 500)}

    @staticmethod
    def factory():
        from repro.sparse import IncrementalScanCountFilter

        return IncrementalScanCountFilter(threshold=0.5, model="T1G")

    def stream(self, profile, seed):
        pool_size, preload, count, _block, _every = self.SIZES[profile]
        pool = list(product_dataset(pool_size, seed).left)
        return churn_operations(pool, seed + 1, preload, count)

    def setup(self, profile, seed, workdir):
        from repro.core.serving import ServingIndex

        preloaded, operations = self.stream(profile, seed)
        _pool, _preload, _count, block, every = self.SIZES[profile]
        service = ServingIndex(
            self.factory,
            directory=workdir / "serving",
            batch_limit=64,
            checkpoint_every=every,
        )
        for start in range(0, len(preloaded), service.queue_limit):
            chunk = preloaded[start : start + service.queue_limit]
            tickets = [service.add(profile_, wait=False) for profile_ in chunk]
            tickets[-1].wait()
        return {"service": service, "operations": operations, "block": block}

    def teardown(self, state):
        state["service"].close()

    def measure(self, state, window, recorder):
        service = state["service"]
        operations = state["operations"]
        block = state["block"]
        walls: List[float] = []
        hashes: List[Optional[str]] = []
        latencies: Dict[str, List[float]] = {"query": [], "write": []}
        mutations = {"add": 0, "remove": 0}
        errors: List[str] = []
        position = 0
        started = time.perf_counter()
        while position + block <= len(operations) and (
            not walls or time.perf_counter() - started < window
        ):
            root = recorder.open(tracer.ROOT, "e2e") if recorder else None
            block_start = time.perf_counter()
            for operation in operations[position : position + block]:
                if recorder:
                    recorder.trace = str(position)
                position += 1
                kind = operation.kind
                begin = time.perf_counter()
                try:
                    if kind == "query":
                        result = service.query(operation.profile)
                    elif kind == "add":
                        service.add(operation.profile)
                    else:
                        service.remove(operation.uid)
                except Exception as error:  # noqa: BLE001 - counted as failed
                    errors.append(f"request {position - 1}: {error!r}")
                    if kind == "query":
                        hashes.append(None)
                    continue
                elapsed = time.perf_counter() - begin
                if kind == "query":
                    latencies["query"].append(elapsed)
                    hashes.append(_uids_hash(result))
                else:
                    latencies["write"].append(elapsed)
                    mutations[kind] += 1
            walls.append(time.perf_counter() - block_start)
            if recorder:
                recorder.close(root)
        return {
            "walls": walls,
            "units": len(walls),
            "result": {"executed": position, "hashes": hashes},
            "errors": errors,
            "latency_ms": {
                kind: [1000.0 * value for value in values]
                for kind, values in latencies.items()
            },
            "mutations": mutations,
        }

    def replay(self, profile, seed, count: int) -> Tuple[List[str], List[str]]:
        """Single-threaded replay of the first ``count`` requests.

        Returns the per-query hashes and the cumulative digest of those
        hashes after each full block of requests.
        """
        preloaded, operations = self.stream(profile, seed)
        block = self.SIZES[profile][3]
        index = self.factory()
        for profile_ in preloaded:
            index.add(profile_)
        hashes: List[str] = []
        digests: List[str] = []
        running = hashlib.sha256()
        for position, operation in enumerate(operations[:count], start=1):
            if operation.kind == "add":
                index.add(operation.profile)
            elif operation.kind == "remove":
                index.remove(operation.uid)
            else:
                hashes.append(_uids_hash(index.query(operation.profile)))
                running.update(hashes[-1].encode())
            if position % block == 0:
                digests.append(running.hexdigest()[:16])
        return hashes, digests

    def verify(self, outputs, profile, seed, expected):
        longest = max(output["result"]["executed"] for output in outputs)
        replayed, digests = self.replay(profile, seed, longest)
        block = self.SIZES[profile][3]
        attempted = failed = 0
        notes: List[str] = []
        recorded = (expected or {}).get("blocks", [])
        bad_blocks = [
            number
            for number, digest in enumerate(digests)
            if number < len(recorded) and digest != recorded[number]
        ]
        if bad_blocks:
            notes.append(f"replay blocks {bad_blocks} differ from expected.json")
        for position, output in enumerate(outputs):
            executed = output["result"]["executed"]
            attempted += executed
            failed += len(output["errors"])
            notes.extend(f"child {position}: {e}" for e in output["errors"][:3])
            served = output["result"]["hashes"]
            wrong = sum(
                1
                for mine, truth in zip(served, replayed)
                if mine is not None and mine != truth  # None: raised, counted
            )
            if wrong:
                notes.append(f"child {position}: {wrong} queries differ from replay")
            failed += wrong
            failed += block * sum(
                1 for number in bad_blocks if (number + 1) * block <= executed
            )
        return attempted, min(failed, attempted), notes

    def expected_entry(self, outputs, profile, seed):
        _hashes, digests = self.replay(profile, seed, self.SIZES[profile][2])
        return {"blocks": digests}


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        TuneWorkload(
            "tune-sparse", ("EJ", "kNNJ"), "d10", 0.25, "d2", (110, 1110),
            "Problem-1 cells of the best sparse family: tokenization,"
            " ScanCount overlap passes and kNN ranking; never enters"
            " blocking, learned or serving.",
        ),
        TuneWorkload(
            "tune-blocking", ("SBW", "QBW", "SMB"), "d5", 0.4, "d1",
            (105, 1105),
            "Problem-1 cells of blocking workflows and SMB: block building,"
            " cleaning, meta-blocking graph, pruning and training; runs no"
            " sparse code.",
        ),
        ExecuteWorkload(),
        ServeWorkload(),
    )
}


# ----------------------------------------------------------------------
# The child process.
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """This process's own peak resident set size (``VmHWM``), in MiB.

    ``ru_maxrss`` is no substitute: Linux carries the forking parent's
    peak across ``exec``, so a child would report the runner's memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def child_main(config_path: str) -> int:
    """Set up, measure and report one child; see ``run.py``."""
    config = json.loads(Path(config_path).read_text())
    workload = WORKLOADS[config["workload"]]
    workdir = Path(config["workdir"])
    state = workload.setup(config["profile"], config["seed"], workdir)
    setup_s = time.monotonic() - config["spawned_at"]
    recorder = tracer.SpanRecorder() if config["traced"] else None
    if recorder:
        recorder.install()
    try:
        report = workload.measure(state, config["window"], recorder)
    finally:
        if recorder:
            recorder.uninstall()
        workload.teardown(state)
    report["setup_s"] = setup_s
    report["peak_rss_mb"] = peak_rss_mb()
    report["repro_env"] = sorted(k for k in os.environ if k.startswith("REPRO_"))
    extra_layers = report.pop("extra_layers", {})
    if recorder:
        values, totals, parts = tracer.layer_values(
            recorder.spans, report["units"], report.get("mutations")
        )
        values.update(extra_layers)
        report["layers"] = values
        report["completeness"] = tracer.completeness_errors(
            workload.name, totals, parts
        )
        with open(config["spans"], "w", encoding="utf-8") as handle:
            for span in recorder.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
    Path(config["out"]).write_text(json.dumps(report))
    return 0
