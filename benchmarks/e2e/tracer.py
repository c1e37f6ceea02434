"""Per-layer spans recorded from outside the library.

The end-to-end benchmark times each layer without touching ``src/``:

* :class:`SpanRecorder` wraps the public functions listed in
  :data:`WRAPPERS`.  A function is rebound in *every* loaded ``repro``
  module that imported it by name (the tuners do ``from ... import
  prune_mask``), and a method is replaced on its class, so no call path
  escapes the wrapper.  A wrapper whose target no longer exists raises,
  which makes a rename fail the traced run instead of silently losing
  its spans.
* One hook on :func:`repro.core.stages.add_stage_hook` turns the serving
  writer's synthetic boundaries (:data:`HOOKED_STAGES`) into spans.

Spans live in memory as ``{trace, span, parent, name, layer, thread,
start_ns, end_ns, attrs}`` dicts.  The recorder keeps one stack per
thread, so the writer thread's spans nest among themselves and never
under a client span.  A span's self time is its duration minus the
durations of its direct children.

This module imports nothing from ``repro`` at import time: the traced
child imports the library during its (timed) set-up first.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

TUNE = ("tune-sparse", "tune-blocking")
TUNE_SPARSE = ("tune-sparse",)
TUNE_BLOCKING = ("tune-blocking",)
EXECUTE = ("execute-4k",)
SERVE = ("serve-churn",)

#: Name of the root span each workload opens around one unit of work.
ROOT = "e2e.unit"


@dataclass(frozen=True)
class Wrapper:
    """One wrapped public function or method of the library.

    ``qualname`` is ``function`` or ``Class.method`` inside ``module``;
    ``workloads`` are the workloads on which the wrapper must fire at
    least once (the completeness check).  ``suffix`` derives a span-name
    suffix from the call (the kernel consumer), ``attrs`` counts from
    the call and its result.
    """

    module: str
    qualname: str
    span: str
    workloads: Tuple[str, ...]
    suffix: Optional[Callable] = None
    attrs: Optional[Callable] = None


def _consumer(args, kwargs) -> str:
    return str(kwargs.get("consumer", args[1] if len(args) > 1 else ""))


def _kernel_attrs(args, kwargs, shards) -> Dict[str, int]:
    if _consumer(args, kwargs) in ("epsilon", "knn"):
        return {"pairs": sum(len(shard.value[0]) for shard in shards)}
    return {}


def _tune_attrs(args, kwargs, result) -> Dict[str, int]:
    return {
        "configs_tried": int(result.configurations_tried),
        "configs_enumerated": int(result.configurations_enumerated),
        "configs_pruned": int(result.configurations_pruned),
    }


WRAPPERS: Tuple[Wrapper, ...] = (
    Wrapper("repro.text.memo", "tokenize_collection",
            "text.memo.tokenize_collection", TUNE_SPARSE),
    Wrapper("repro.sparse.knn_join", "distinct_similarity_ranks",
            "sparse.knn_join.distinct_similarity_ranks", TUNE_SPARSE),
    Wrapper("repro.sparse.scancount", "ScanCountIndex.__init__",
            "sparse.scancount.ScanCountIndex", TUNE_SPARSE + EXECUTE),
    Wrapper("repro.sparse.scancount", "ScanCountIndex.batch_overlaps",
            "sparse.scancount.batch_overlaps", TUNE_SPARSE,
            attrs=lambda a, k, r: {"rows": len(r[1])}),
    Wrapper("repro.sparse.scancount", "ScanCountIndex.run_kernel",
            "sparse.scancount.run_kernel", TUNE_SPARSE + EXECUTE,
            suffix=_consumer, attrs=_kernel_attrs),
    Wrapper("repro.blocking.building", "BlockBuilder.build",
            "blocking.building.build", TUNE_BLOCKING + EXECUTE),
    Wrapper("repro.blocking.cleaning", "BlockPurging.clean",
            "blocking.cleaning.purge", TUNE_BLOCKING + EXECUTE),
    Wrapper("repro.blocking.cleaning", "BlockFiltering.clean",
            "blocking.cleaning.filter", TUNE_BLOCKING + EXECUTE),
    Wrapper("repro.blocking.metablocking", "PairGraph.__init__",
            "blocking.metablocking.PairGraph", TUNE_BLOCKING + EXECUTE,
            attrs=lambda a, k, r: {"edges": len(a[0])}),
    Wrapper("repro.blocking.metablocking", "PairGraph.weights",
            "blocking.metablocking.weights", TUNE_BLOCKING + EXECUTE),
    Wrapper("repro.blocking.metablocking", "prune_mask",
            "blocking.metablocking.prune_mask", TUNE_BLOCKING + EXECUTE,
            attrs=lambda a, k, r: {"edges_in": len(r), "kept": int(r.sum())}),
    Wrapper("repro.learned.features", "edge_features",
            "learned.edge_features", TUNE_BLOCKING),
    Wrapper("repro.learned.models", "train_model",
            "learned.train_model", TUNE_BLOCKING),
    Wrapper("repro.core.fastpairs", "evaluate_keys",
            "core.fastpairs.evaluate_keys", TUNE_BLOCKING),
    Wrapper("repro.core.fastpairs", "keys_to_candidate_set",
            "core.fastpairs.keys_to_candidate_set", TUNE_SPARSE + EXECUTE),
    Wrapper("repro.tuning.sparse", "EpsilonJoinTuner.tune",
            "tuning.sparse", TUNE_SPARSE, attrs=_tune_attrs),
    Wrapper("repro.tuning.sparse", "KNNJoinTuner.tune",
            "tuning.sparse", TUNE_SPARSE, attrs=_tune_attrs),
    Wrapper("repro.tuning.blocking", "BlockingWorkflowTuner.tune",
            "tuning.blocking", TUNE_BLOCKING, attrs=_tune_attrs),
    Wrapper("repro.tuning.learned", "SupervisedMetaBlockingTuner.tune",
            "tuning.learned", TUNE_BLOCKING, attrs=_tune_attrs),
    Wrapper("repro.bench.harness", "ExperimentMatrix.run_cell",
            "bench.harness.run_cell", TUNE),
    Wrapper("repro.core.serving", "ServingIndex.add",
            "core.serving.ServingIndex.add", SERVE),
    Wrapper("repro.core.serving", "ServingIndex.remove",
            "core.serving.ServingIndex.remove", SERVE),
    Wrapper("repro.core.serving", "ServingIndex.query",
            "core.serving.ServingIndex.query", SERVE),
)

#: Stage-hook boundaries recorded as spans: stage name -> span name.
#: ``wal/append#<seq>`` has no exit event and is deliberately absent.
HOOKED_STAGES: Dict[str, str] = {
    "add": "core.incremental.add",
    "remove": "core.incremental.remove",
    "wal/append": "core.serving.wal.append",
    "wal/fsync": "core.serving.wal.fsync",
    "serving/publish": "core.serving.publish",
    "serving/checkpoint": "core.serving.checkpoint",
}


def declared_spans(workload: str) -> List[str]:
    """Span names that must fire at least once on ``workload``."""
    names = []
    for wrapper in WRAPPERS:
        if workload not in wrapper.workloads:
            continue
        if wrapper.span == "sparse.scancount.run_kernel":
            consumers = {
                "tune-sparse": ("materialize", "epsilon", "knn"),
                "execute-4k": ("epsilon", "knn"),
            }[workload]
            names.extend(f"{wrapper.span}.{c}" for c in consumers)
        else:
            names.append(wrapper.span)
    if workload in SERVE:
        names.extend(HOOKED_STAGES.values())
    return sorted(set(names))


class SpanRecorder:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        #: Trace id stamped on new spans; the workload loop advances it
        #: per unit (batch) or per request (serving).
        self.trace = "0"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._hook = None

    # -- spans ---------------------------------------------------------

    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Dict[str, object]:
        stack = self._stack()
        span = {
            "trace": self.trace,
            "span": next(self._ids),
            "parent": stack[-1]["span"] if stack else None,
            "name": name,
            "layer": layer,
            "thread": threading.current_thread().name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "attrs": {},
        }
        stack.append(span)
        return span

    def close(self, span: Dict[str, object]) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        while stack:
            top = stack.pop()
            top["end_ns"] = end  # closes any span left open above it too
            self.spans.append(top)
            if top is span:
                return

    # -- installation --------------------------------------------------

    def _wrap(self, original, wrapper: Wrapper):
        recorder = self
        layer = wrapper.module.split(".", 1)[1]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = wrapper.span
            if wrapper.suffix is not None:
                name = f"{name}.{wrapper.suffix(args, kwargs)}"
            span = recorder.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if wrapper.attrs is not None:
                span["attrs"] = wrapper.attrs(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every declared function and subscribe the stage hook."""
        from repro.core import stages

        for wrapper in WRAPPERS:
            module = importlib.import_module(wrapper.module)
            owner_name, _, attr = wrapper.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, wrapper))
                continue
            original = getattr(module, attr)
            traced = self._wrap(original, wrapper)
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] != "repro" or loaded is None:
                    continue
                if loaded.__dict__.get(attr) is original:
                    self._patch(loaded, attr, traced)

        def hook(event: str, stage: str) -> None:
            name = HOOKED_STAGES.get(stage)
            if name is None:
                return
            if event == "enter":
                self.open(name, name.rsplit(".", 1)[0])
                return
            for span in reversed(self._stack()):
                if span["name"] == name:
                    self.close(span)
                    return

        self._hook = hook
        stages.add_stage_hook(hook)

    def uninstall(self) -> None:
        from repro.core import stages

        if self._hook is not None:
            stages.remove_stage_hook(self._hook)
            self._hook = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Analysis.
# ----------------------------------------------------------------------


def _duration_s(span: Dict[str, object]) -> float:
    return (int(span["end_ns"]) - int(span["start_ns"])) / 1e9


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[int, float]:
    """Self time (seconds) of every span: duration minus direct children."""
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += _duration_s(span)
    return {
        span["span"]: _duration_s(span) - children[span["span"]]
        for span in spans
    }


def aggregate(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Flat ``{<span>.self_s, <span>.calls, <span>.<attr>}`` totals."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        name = span["name"]
        totals[f"{name}.self_s"] += own[span["span"]]
        totals[f"{name}.calls"] += 1
        for key, value in span["attrs"].items():
            totals[f"{name}.{key}"] += value
    return dict(totals)


def attribution(
    spans: Sequence[Dict[str, object]], thread: str = "MainThread"
) -> Dict[str, float]:
    """Wall, attributed and unattributed seconds of the root spans.

    ``wall_s`` sums the root spans' durations, ``attributed_s`` the self
    times of every other span on ``thread`` and ``unattributed_s`` the
    roots' own self time.  The two parts are computed independently, so
    their sum matches the wall only when every span nested properly.
    """
    own = self_times(spans)
    roots = [s for s in spans if s["name"] == ROOT and s["thread"] == thread]
    wall = sum(_duration_s(s) for s in roots)
    unattributed = sum(own[s["span"]] for s in roots)
    attributed = sum(
        own[s["span"]]
        for s in spans
        if s["thread"] == thread and s["name"] != ROOT
    )
    return {
        "wall_s": wall,
        "attributed_s": attributed,
        "unattributed_s": unattributed,
    }


def completeness_errors(
    workload: str, totals: Dict[str, float], parts: Dict[str, float]
) -> List[str]:
    """Problems that make a traced run untrustworthy (empty when sound)."""
    errors = [
        f"declared span {name!r} never fired"
        for name in declared_spans(workload)
        if totals.get(f"{name}.calls", 0) == 0
    ]
    wall = parts["wall_s"]
    covered = parts["attributed_s"] + parts["unattributed_s"]
    if wall <= 0 or abs(covered - wall) > 0.05 * wall:
        errors.append(
            f"attributed {parts['attributed_s']:.4f}s + unattributed "
            f"{parts['unattributed_s']:.4f}s != wall {wall:.4f}s (5%)"
        )
    return errors


# ----------------------------------------------------------------------
# The per-layer metrics a traced run reports.
# ----------------------------------------------------------------------

#: ``(metric, unit)``, in report order.  A layer's busy time is reported
#: as its self time over the unit wall (``self_frac``): that share bounds
#: what speeding the layer up can save, it stays comparable while the
#: host's speed drifts, and a layer a workload never enters reads 0 as a
#: share instead of as a constant time.  Counts are per unit of work (one
#: batch pass, or 1,000 serving requests).  The serving writer's shares
#: are taken against the client's wall, which they overlap.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("text.memo.tokenize_collection.self_frac", "fraction"),
    ("text.memo.tokenize_collection.calls", "count"),
    ("sparse.knn_join.distinct_similarity_ranks.self_frac", "fraction"),
    ("sparse.knn_join.distinct_similarity_ranks.calls", "count"),
    ("sparse.scancount.ScanCountIndex.self_frac", "fraction"),
    ("sparse.scancount.batch_overlaps.self_frac", "fraction"),
    ("sparse.scancount.batch_overlaps.rows", "count"),
    ("sparse.scancount.run_kernel.materialize.self_frac", "fraction"),
    ("sparse.scancount.run_kernel.epsilon.self_frac", "fraction"),
    ("sparse.scancount.run_kernel.knn.self_frac", "fraction"),
    ("sparse.scancount.run_kernel.knn.pairs", "count"),
    ("blocking.building.build.self_frac", "fraction"),
    ("blocking.cleaning.purge.self_frac", "fraction"),
    ("blocking.cleaning.filter.self_frac", "fraction"),
    ("blocking.metablocking.PairGraph.self_frac", "fraction"),
    ("blocking.metablocking.PairGraph.edges", "count"),
    ("blocking.metablocking.weights.self_frac", "fraction"),
    ("blocking.metablocking.prune_mask.self_frac", "fraction"),
    ("blocking.metablocking.prune_mask.calls", "count"),
    ("blocking.metablocking.prune_mask.kept_frac", "fraction"),
    ("learned.edge_features.self_frac", "fraction"),
    ("learned.train_model.self_frac", "fraction"),
    ("core.fastpairs.evaluate_keys.self_frac", "fraction"),
    ("core.fastpairs.evaluate_keys.calls", "count"),
    ("core.fastpairs.keys_to_candidate_set.self_frac", "fraction"),
    ("tuning.sparse.self_frac", "fraction"),
    ("tuning.blocking.self_frac", "fraction"),
    ("tuning.learned.self_frac", "fraction"),
    ("tuning.configs_tried", "count"),
    ("tuning.configs_enumerated", "count"),
    ("tuning.configs_pruned", "count"),
    ("bench.harness.run_cell.self_frac", "fraction"),
    ("filters.EJ.preprocess_frac", "fraction"),
    ("filters.EJ.index_frac", "fraction"),
    ("filters.EJ.query_frac", "fraction"),
    ("filters.kNNJ.preprocess_frac", "fraction"),
    ("filters.kNNJ.index_frac", "fraction"),
    ("filters.kNNJ.query_frac", "fraction"),
    ("filters.SBW.build_frac", "fraction"),
    ("filters.SBW.purge_frac", "fraction"),
    ("filters.SBW.filter_frac", "fraction"),
    ("filters.SBW.clean_frac", "fraction"),
    ("core.serving.ServingIndex.add.self_frac", "fraction"),
    ("core.serving.ServingIndex.remove.self_frac", "fraction"),
    ("core.serving.ServingIndex.query.self_frac", "fraction"),
    ("core.incremental.add.self_frac", "fraction"),
    ("core.incremental.add.calls_per_mutation", "count"),
    ("core.incremental.remove.self_frac", "fraction"),
    ("core.incremental.remove.calls_per_mutation", "count"),
    ("core.serving.wal.append.self_frac", "fraction"),
    ("core.serving.wal.fsync.self_frac", "fraction"),
    ("core.serving.wal.fsync.calls", "count"),
    ("core.serving.publish.self_frac", "fraction"),
    ("core.serving.publish.calls", "count"),
    ("core.serving.checkpoint.self_frac", "fraction"),
    ("core.serving.checkpoint.calls", "count"),
    ("unit_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
)


def layer_values(
    spans: Sequence[Dict[str, object]],
    units: float,
    mutations: Optional[Dict[str, int]] = None,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Span-derived layer metrics, plus the raw totals and parts.

    Returns ``(values, totals, parts)``: ``values`` maps the span-backed
    names of :data:`LAYER_METRICS` to their value, ``totals`` is
    :func:`aggregate` over all spans and ``parts`` the
    :func:`attribution` of the root spans (both summed over the run).
    ``mutations`` counts the serving adds and removes issued, which the
    incremental index sees once per buffer.
    """
    totals = aggregate(spans)
    parts = attribution(spans)
    values: Dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        if metric.endswith(".self_frac"):
            seconds = totals.get(metric[: -len("frac")] + "s")
            if seconds is not None:
                values[metric] = seconds / parts["wall_s"]
        elif metric in totals:
            values[metric] = totals[metric] / units
    for family in ("sparse", "blocking", "learned"):
        for key in ("configs_tried", "configs_enumerated", "configs_pruned"):
            name = f"tuning.{family}.{key}"
            if name in totals:
                metric = f"tuning.{key}"
                values[metric] = values.get(metric, 0.0) + totals[name] / units
    edges_in = totals.get("blocking.metablocking.prune_mask.edges_in", 0)
    if edges_in:
        values["blocking.metablocking.prune_mask.kept_frac"] = (
            totals["blocking.metablocking.prune_mask.kept"] / edges_in
        )
    for kind, issued in (mutations or {}).items():
        calls = totals.get(f"core.incremental.{kind}.calls", 0)
        if issued and calls:
            values[f"core.incremental.{kind}.calls_per_mutation"] = (
                calls / issued
            )
    values["unit_wall_s"] = parts["wall_s"] / units
    values["unattributed_s"] = parts["unattributed_s"] / units
    return values, totals, parts
