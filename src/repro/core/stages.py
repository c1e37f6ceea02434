"""Declarative execution stages and structured stage tracing.

Every filtering family decomposes its run into the same small set of
named stages — the decomposition behind Figures 7-9 of the paper.  This
module makes that decomposition a first-class object instead of ad-hoc
string literals scattered across the families:

* :class:`Stage` — a named, documented pipeline step.  The canonical
  schemas (:data:`BLOCKING_STAGES` for blocking workflows,
  :data:`NN_STAGES` for sparse/dense NN methods) are shared by the filter
  implementations, the method registry (:mod:`repro.core.registry`) and
  the run-time breakdown of :mod:`repro.bench.runtime_breakdown`.
* :class:`StageTrace` — every filter's ``trace``: per-stage wall time
  *and* entry counts and input/output cardinalities, with support for
  nesting and re-entrancy.  Its
  :meth:`~StageTrace.as_dict` stays byte-compatible with the flat
  ``{phase: seconds}`` mapping the breakdown JSON always used.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Stage",
    "StageRecord",
    "StageTrace",
    "BUILD",
    "PURGE",
    "FILTER",
    "CLEAN",
    "PREPROCESS",
    "INDEX",
    "QUERY",
    "ADD",
    "REMOVE",
    "FEATURES",
    "TRAIN",
    "SCORE",
    "PRUNE",
    "BLOCKING_STAGES",
    "NN_STAGES",
    "INCREMENTAL_STAGES",
    "LEARNED_STAGES",
    "add_stage_hook",
    "boundary",
    "remove_stage_hook",
    "fire_stage_hooks",
    "has_stage_hooks",
]


@dataclass(frozen=True)
class Stage:
    """One named step of a filter's execution pipeline."""

    name: str
    description: str = ""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


# ----------------------------------------------------------------------
# The canonical stage schemas (the paper's run-time decomposition).
# ----------------------------------------------------------------------

#: Blocking workflows (Figure 1 / Figure 7).
BUILD = Stage("build", "block building")
PURGE = Stage("purge", "Block Purging")
FILTER = Stage("filter", "Block Filtering")
CLEAN = Stage("clean", "comparison cleaning (CP or Meta-blocking)")

#: Sparse and dense NN methods (Figure 2 / Figures 8-9).
PREPROCESS = Stage("preprocess", "cleaning, tokenization / embedding")
INDEX = Stage("index", "index construction over one collection")
QUERY = Stage("query", "querying + candidate selection")

#: Incremental (serving) indexes: per-call mutations and lookups
#: (:mod:`repro.core.incremental`).  ``QUERY`` is shared with the NN
#: schema so per-call latency lands under the same stage name the
#: breakdown layer already knows.
ADD = Stage("add", "incremental insertion of one entity")
REMOVE = Stage("remove", "incremental removal of one entity")

#: Learned meta-blocking (:mod:`repro.learned`): the supervised
#: edge-pruning family decomposes into block building (shared with the
#: blocking schema), per-edge feature extraction, model training on a
#: labeled edge sample, calibrated scoring of every edge, and pruning.
#: A pre-trained filter (inference-only) never enters ``TRAIN``.
FEATURES = Stage("features", "per-edge feature matrix extraction")
TRAIN = Stage("train", "supervised model training on a labeled edge sample")
SCORE = Stage("score", "edge scoring with the trained model")
PRUNE = Stage("prune", "probability-threshold / top-k edge pruning")

BLOCKING_STAGES: Tuple[Stage, ...] = (BUILD, PURGE, FILTER, CLEAN)
NN_STAGES: Tuple[Stage, ...] = (PREPROCESS, INDEX, QUERY)
INCREMENTAL_STAGES: Tuple[Stage, ...] = (ADD, REMOVE, QUERY)
LEARNED_STAGES: Tuple[Stage, ...] = (BUILD, FEATURES, TRAIN, SCORE, PRUNE)

StageLike = Union[Stage, str]


def _stage_name(stage: StageLike) -> str:
    return stage.name if isinstance(stage, Stage) else str(stage)


# ----------------------------------------------------------------------
# Stage-boundary hooks.
# ----------------------------------------------------------------------
#
# Every stage entry/exit is a natural safe point of a long filter run:
# the resilience layer (:mod:`repro.bench.resilience`) attaches its
# cooperative deadline checks, memory-budget guard and fault injector
# here.  Hooks receive ``(event, stage_name)`` with ``event`` one of
# ``"enter"`` / ``"exit"``; a hook that raises aborts the stage before
# it starts (enter) or after its time is recorded (exit), leaving the
# trace stack consistent either way.

_STAGE_HOOKS: List = []


def add_stage_hook(hook) -> None:
    """Register a ``hook(event, stage_name)`` callback on every boundary."""
    _STAGE_HOOKS.append(hook)


def remove_stage_hook(hook) -> None:
    """Remove a previously registered hook (no-op when absent)."""
    try:
        _STAGE_HOOKS.remove(hook)
    except ValueError:
        pass


def has_stage_hooks() -> bool:
    """True when at least one stage hook is installed.

    Cheap pre-check for callers that only fire synthetic boundaries (and
    pay extra work around them, like the WAL's mid-record flush for the
    torn-write chaos tests) when someone is actually listening.
    """
    return bool(_STAGE_HOOKS)


def fire_stage_hooks(event: str, name: str) -> None:
    """Fire every registered hook for a (possibly synthetic) boundary.

    Callers outside :class:`StageTrace` use this (or :func:`boundary`)
    to expose coarse-grained boundaries such as ``tune/kNNJ`` without
    owning a trace.
    """
    for hook in list(_STAGE_HOOKS):
        hook(event, name)


@contextmanager
def boundary(name: str) -> Iterator[None]:
    """A synthetic boundary around a block: enter hooks, then exit hooks.

    The exit hooks fire however the block leaves, exceptions included;
    a raising enter hook aborts before the block runs and fires no exit.
    """
    fire_stage_hooks("enter", name)
    try:
        yield
    finally:
        fire_stage_hooks("exit", name)


class StageRecord:
    """Accumulated measurements of one (possibly re-entered) stage.

    ``seconds`` is total wall-clock time across entries; ``entries`` the
    number of times the stage was entered; ``input_size``/``output_size``
    optional cardinalities the filter annotates (entities in, candidates
    out, ...).  ``children`` holds stages entered while this one was
    active — their time is *included* in this record's wall time, which
    is why totals are computed over top-level records only.
    """

    __slots__ = (
        "name", "seconds", "entries", "input_size", "output_size", "children"
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.entries = 0
        self.input_size: Optional[int] = None
        self.output_size: Optional[int] = None
        self.children: Dict[str, "StageRecord"] = {}

    @property
    def exclusive_seconds(self) -> float:
        """Wall time net of nested child stages."""
        return self.seconds - sum(c.seconds for c in self.children.values())

    def as_dict(self) -> Dict[str, object]:
        """Structured dump of this record (and its children)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "seconds": self.seconds,
            "entries": self.entries,
        }
        if self.input_size is not None:
            payload["input_size"] = self.input_size
        if self.output_size is not None:
            payload["output_size"] = self.output_size
        if self.children:
            payload["children"] = [
                child.as_dict() for child in self.children.values()
            ]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StageRecord {self.name} {self.seconds:.4f}s x{self.entries}>"


class StageTrace:
    """A structured, nestable, re-entrant trace of a filter run.

    Entering the same stage twice accumulates into one record; entering a
    stage while another is active nests it under the active one.  The
    flat :meth:`as_dict` view reports *top-level* stages only, so nested
    time is never double-counted and the output keeps the flat
    ``{phase: seconds}`` shape of the breakdown JSON.
    """

    def __init__(self) -> None:
        self._records: Dict[str, StageRecord] = {}
        self._stack: List[StageRecord] = []

    @contextmanager
    def stage(
        self, stage: StageLike, input_size: Optional[int] = None
    ) -> Iterator[StageRecord]:
        """Time one stage entry; yields the record for annotation."""
        name = _stage_name(stage)
        if _STAGE_HOOKS:
            # A raising enter-hook aborts before any bookkeeping, so the
            # trace never records a stage that was denied entry.
            fire_stage_hooks("enter", name)
        scope = self._stack[-1].children if self._stack else self._records
        record = scope.get(name)
        if record is None:
            record = scope[name] = StageRecord(name)
        record.entries += 1
        if input_size is not None:
            record.input_size = int(input_size)
        self._stack.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds += time.perf_counter() - start
            self._stack.pop()
            if _STAGE_HOOKS:
                fire_stage_hooks("exit", name)

    def add_external(
        self,
        stage: StageLike,
        seconds: float,
        input_size: Optional[int] = None,
        output_size: Optional[int] = None,
    ) -> StageRecord:
        """Record externally measured time under the active stage.

        Parallel workers time their own shards; the parent attributes
        those measurements here as child records of whatever stage is
        active (top-level when none is).  Unlike nested :meth:`stage`
        entries, external children ran *concurrently* with the parent,
        so their summed seconds may legitimately exceed the parent's
        wall time — ``exclusive_seconds`` of such a parent is not
        meaningful and totals remain top-level-only as before.
        """
        name = _stage_name(stage)
        scope = self._stack[-1].children if self._stack else self._records
        record = scope.get(name)
        if record is None:
            record = scope[name] = StageRecord(name)
        record.entries += 1
        record.seconds += float(seconds)
        if input_size is not None:
            record.input_size = int(input_size)
        if output_size is not None:
            record.output_size = int(output_size)
        return record

    def reset(self) -> None:
        self._records.clear()
        self._stack.clear()

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, float]:
        """Flat ``{stage: seconds}`` over top-level stages (legacy view)."""
        return {name: r.seconds for name, r in self._records.items()}

    def as_tree(self) -> List[Dict[str, object]]:
        """The full structured trace, nested children included."""
        return [record.as_dict() for record in self._records.values()]

    def record(self, stage: StageLike) -> Optional[StageRecord]:
        """The top-level record of one stage, or None if never entered."""
        return self._records.get(_stage_name(stage))

    def cardinalities(self) -> Dict[str, Tuple[Optional[int], Optional[int]]]:
        """Top-level ``{stage: (input_size, output_size)}``."""
        return {
            name: (r.input_size, r.output_size)
            for name, r in self._records.items()
        }

    @property
    def total(self) -> float:
        """Total traced wall time (top-level stages; nesting not doubled)."""
        return sum(record.seconds for record in self._records.values())
