"""The experiment harness behind every table and figure of the paper.

One :class:`ExperimentMatrix` run produces the grid of
(method x dataset x schema setting) results that Tables VII-XI report;
its results are cached on disk (JSON) so the per-table benchmark modules
can share a single expensive optimization pass.

Scope control:

* datasets default to all ten, restricted by the ``REPRO_BENCH_DATASETS``
  environment variable (comma-separated names) for quick runs;
* the schema-based settings cover only the datasets whose key attribute
  retains enough groundtruth coverage (Section VI drops D5-D7, D10);
* method exclusions mirror the paper's "-" cells: MH-LSH and DeepBlocker
  (plus DDB) do not scale to the largest dataset.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core import registry
from ..core.optimizer import DEFAULT_RECALL_TARGET
from ..datasets.registry import (
    DATASET_NAMES,
    SCHEMA_BASED_DATASETS,
    load_dataset,
)
from ..tuning import EmbeddingCache, evaluate_baseline, tune_method
from ..tuning.result import TunedResult
from . import resilience
from .resilience import CellStatus, ExecutionPolicy, FaultInjector

__all__ = [
    "SettingKey",
    "CellResult",
    "ExperimentMatrix",
    "bench_datasets",
    "schema_settings",
    "EXCLUDED_CELLS",
    "ALL_METHODS",
    "CACHE_SCHEMA_VERSION",
]

#: Version stamp of the on-disk matrix cache.  Version 2 wraps the cell
#: mapping in ``{"schema": 2, "cells": {...}}`` and adds the
#: status/error fields; version "0" is the legacy flat mapping.
CACHE_SCHEMA_VERSION = 2

#: Methods in Table VII's row order: fine-tuned + baselines interleaved
#: per family, matching the paper's presentation.  Derived from the
#: central :mod:`repro.core.registry` (the tuning modules register every
#: :class:`~repro.core.registry.FilterSpec`).
ALL_METHODS: Tuple[str, ...] = registry.method_codes()

#: (method, dataset) cells the paper reports as "-" (out of memory on the
#: largest dataset); mirrored from the specs' exclusion rules.
EXCLUDED_CELLS: frozenset = registry.excluded_cells()


def bench_datasets() -> List[str]:
    """Datasets in scope: all ten, or the REPRO_BENCH_DATASETS subset."""
    override = os.environ.get("REPRO_BENCH_DATASETS", "").strip()
    if not override:
        return list(DATASET_NAMES)
    names = [name.strip() for name in override.split(",") if name.strip()]
    unknown = [n for n in names if n not in DATASET_NAMES]
    if unknown:
        raise ValueError(f"unknown datasets in REPRO_BENCH_DATASETS: {unknown}")
    return names


def schema_settings(dataset_name: str) -> List[str]:
    """The settings evaluated for a dataset: 'a' always, 'b' if covered."""
    settings = ["a"]
    if dataset_name in SCHEMA_BASED_DATASETS:
        settings.append("b")
    return settings


@dataclass(frozen=True)
class SettingKey:
    """One experimental cell: a method on a dataset under a setting."""

    method: str
    dataset: str
    setting: str  # "a" (schema-agnostic) or "b" (schema-based)

    @property
    def label(self) -> str:
        return f"D{self.setting}{self.dataset[1:]}"

    def as_string(self) -> str:
        return f"{self.method}|{self.dataset}|{self.setting}"


@dataclass
class CellResult:
    """Serializable result of one cell.

    ``status`` carries the failure taxonomy of
    :class:`~repro.bench.resilience.CellStatus`: cells that timed out,
    exhausted memory or errored are cached with zeroed metrics and
    rendered as "-" by the tables, exactly like the paper's out-of-memory
    cells.  Every field after the identity triple has a default so older
    caches (missing newer keys) still load.
    """

    method: str
    dataset: str
    setting: str
    pc: float = 0.0
    pq: float = 0.0
    candidates: int = 0
    runtime: float = 0.0
    feasible: bool = False
    params: Dict[str, object] = field(default_factory=dict)
    configurations_tried: int = 0
    configurations_enumerated: int = 0
    configurations_pruned: int = 0
    status: str = CellStatus.OK
    error: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True when the cell completed (its metrics are meaningful)."""
        return self.status == CellStatus.OK

    @classmethod
    def from_tuned(cls, key: SettingKey, result: TunedResult) -> "CellResult":
        return cls(
            method=key.method,
            dataset=key.dataset,
            setting=key.setting,
            pc=result.pc,
            pq=result.pq,
            candidates=result.candidates,
            runtime=result.runtime,
            feasible=result.feasible,
            params={k: _jsonable(v) for k, v in result.params.items()},
            configurations_tried=result.configurations_tried,
            configurations_enumerated=result.configurations_enumerated,
            configurations_pruned=result.configurations_pruned,
        )

    @classmethod
    def from_failure(
        cls,
        key: SettingKey,
        status: str,
        error: str = "",
        attempts: int = 1,
    ) -> "CellResult":
        return cls(
            method=key.method,
            dataset=key.dataset,
            setting=key.setting,
            status=status,
            error=error,
            attempts=attempts,
        )

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> Optional["CellResult"]:
        """Tolerant deserialization: known fields only, unknown dropped.

        Returns None when the payload is unusable (not a mapping, or
        missing the identity triple), so a partially-foreign cache file
        degrades to the cells it can still express.
        """
        if not isinstance(payload, dict):
            return None
        known = {
            f.name: payload[f.name] for f in fields(cls) if f.name in payload
        }
        if not {"method", "dataset", "setting"} <= known.keys():
            return None
        if not isinstance(known.get("params", {}), dict):
            known["params"] = {}
        if known.get("status", CellStatus.OK) not in CellStatus.RECORDED:
            # An unknown (future-schema) status is still a non-ok cell;
            # degrade it to a generic error rather than mis-render it.
            known["error"] = f"unrecognized status {known['status']!r}"
            known["status"] = CellStatus.ERROR
        try:
            return cls(**known)
        except (TypeError, ValueError):
            return None


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


class ExperimentMatrix:
    """Runs and caches the full method x dataset x setting grid."""

    #: Flush the cache after this many freshly computed cells (and always
    #: at the end of ``run_all``).  Writes are atomic, so a larger batch
    #: only risks the last ``save_every - 1`` finished cells on a crash —
    #: versus rewriting the whole O(cells) JSON after every single cell.
    DEFAULT_SAVE_EVERY = 8

    def __init__(
        self,
        methods: Sequence[str] = ALL_METHODS,
        datasets: Optional[Sequence[str]] = None,
        target_recall: float = DEFAULT_RECALL_TARGET,
        profile: str = "",
        cache_path: Optional[Path] = None,
        policy: Optional[ExecutionPolicy] = None,
        injector: Optional[FaultInjector] = None,
        save_every: Optional[int] = None,
        prune: bool = False,
    ) -> None:
        self.methods = list(methods)
        self.datasets = list(datasets) if datasets is not None else bench_datasets()
        self.target_recall = target_recall
        self.profile = profile
        #: Cost-based grid pruning switch, passed through to
        #: :func:`repro.tuning.tune_method` (only the kNN-Join tuner has a
        #: prune rule).  Pruning never changes a cell's selected
        #: configuration, so the cache is shared between pruned and
        #: unpruned runs.
        self.prune = prune
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.injector = (
            injector if injector is not None else FaultInjector.from_env()
        )
        self.save_every = (
            save_every if save_every is not None else self.DEFAULT_SAVE_EVERY
        )
        default_cache = Path(
            os.environ.get("REPRO_BENCH_CACHE", ".bench_cache")
        )
        self.cache_path = cache_path or default_cache / "matrix.json"
        self._results: Dict[str, CellResult] = {}
        self._embedding_caches: Dict[str, EmbeddingCache] = {}
        self._unsaved = 0
        self._load_cache()

    # ------------------------------------------------------------------
    # Cache.
    # ------------------------------------------------------------------

    def _load_cache(self) -> None:
        """Load the on-disk cache, surviving truncation and old schemas.

        A file that fails to parse (e.g. a crash mid-write under the old
        non-atomic scheme, or disk corruption) is quarantined next to the
        cache and its parseable prefix salvaged; a legacy flat-schema
        file is accepted as-is.  Either way the cache is immediately
        re-stamped atomically in the current schema.
        """
        if not self.cache_path.exists():
            return
        restamp = False
        try:
            data = json.loads(self.cache_path.read_text())
        except ValueError:
            data = resilience.salvage_json_prefix(self.cache_path.read_text())
            resilience.quarantine(self.cache_path)
            restamp = True
        if not isinstance(data, dict):
            data = {}
        if isinstance(data.get("cells"), dict):
            cells = data["cells"]
            restamp |= data.get("schema") != CACHE_SCHEMA_VERSION
        else:  # legacy flat {key: payload} schema
            cells = data
            restamp = True
        for key, payload in cells.items():
            cell = CellResult.from_payload(payload)
            if cell is not None:
                self._results[key] = cell
            else:
                restamp = True
        if restamp:
            # Rewrite even an empty salvage: the quarantine moved the
            # corrupt file aside, and the cache path should always hold
            # a valid, current-schema document afterwards.
            self._save_cache()

    def _save_cache(self) -> None:
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "cells": {key: asdict(cell) for key, cell in self._results.items()},
        }
        resilience.atomic_write_json(self.cache_path, payload)
        self._unsaved = 0

    def _record(self, cache_key: str, cell: CellResult, save: bool) -> None:
        self._results[cache_key] = cell
        self._unsaved += 1
        if save or self._unsaved >= self.save_every:
            self._save_cache()

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def cells(self) -> Iterable[SettingKey]:
        """Every cell in scope, dataset-major (matches the paper's tables)."""
        for dataset in self.datasets:
            for setting in schema_settings(dataset):
                for method in self.methods:
                    if (method, dataset) in EXCLUDED_CELLS:
                        continue
                    yield SettingKey(method, dataset, setting)

    def _embedding_cache(self, dataset: str) -> EmbeddingCache:
        if dataset not in self._embedding_caches:
            self._embedding_caches[dataset] = EmbeddingCache()
        return self._embedding_caches[dataset]

    def _compute(self, key: SettingKey) -> CellResult:
        """The unguarded cell computation (tuning or baseline evaluation)."""
        dataset = load_dataset(key.dataset)
        attribute = dataset.key_attribute if key.setting == "b" else None
        if registry.get(key.method).is_baseline:
            tuned = evaluate_baseline(
                key.method,
                dataset,
                attribute,
                target_recall=self.target_recall,
                repetitions=2,
            )
        else:
            tuned = tune_method(
                key.method,
                dataset,
                attribute,
                target_recall=self.target_recall,
                profile=self.profile,
                cache=self._embedding_cache(key.dataset),
                prune=self.prune,
            )
        return CellResult.from_tuned(key, tuned)

    def run_cell(
        self, key: SettingKey, force: bool = False, save: bool = True
    ) -> CellResult:
        """Run (or fetch from cache) one cell under the execution policy.

        A cell that times out, exhausts its memory budget or raises is
        recorded (and cached) with the corresponding failure status
        instead of propagating — unless the policy is strict.  Failed
        cells are cached like successes, so a resumed run does not retry
        them; pass ``force=True`` to re-run.  ``save=False`` defers the
        cache flush to the batching of :meth:`run_all`.
        """
        cache_key = key.as_string()
        if not force and cache_key in self._results:
            return self._results[cache_key]
        injector = self.injector
        try:
            if injector is not None:
                injector.install()
            outcome = resilience.run_guarded(
                lambda: self._compute(key), self.policy
            )
        finally:
            if injector is not None:
                injector.uninstall()
        if outcome.ok:
            cell = outcome.value
            cell.attempts = outcome.attempts
        else:
            cell = CellResult.from_failure(
                key, outcome.status, outcome.error, outcome.attempts
            )
        self._record(cache_key, cell, save)
        return cell

    def run_all(self, verbose: bool = True) -> List[CellResult]:
        """Run every in-scope cell; returns them in table order.

        Failed cells are reported and skipped over — the run always
        continues to the last cell.  The cache is flushed every
        ``save_every`` fresh cells and once at the end (also on the way
        out of an interrupt), so a killed run loses at most the
        in-flight cell plus the unflushed tail of the batch.
        """
        results = []
        try:
            for key in self.cells():
                cached = key.as_string() in self._results
                cell = self.run_cell(key, save=False)
                if verbose and not cached:
                    if cell.ok:
                        print(
                            f"[{key.dataset}/{key.setting}] {key.method:7s} "
                            f"PC={cell.pc:.3f} PQ={cell.pq:.4f} "
                            f"|C|={cell.candidates} RT={cell.runtime:.2f}s",
                            flush=True,
                        )
                    else:
                        print(
                            f"[{key.dataset}/{key.setting}] {key.method:7s} "
                            f"FAILED ({cell.status}) {cell.error}",
                            flush=True,
                        )
                results.append(cell)
        finally:
            if self._unsaved:
                self._save_cache()
        return results

    def get(
        self,
        method: str,
        dataset: str,
        setting: str,
        include_failed: bool = False,
    ) -> Optional[CellResult]:
        """A cell's completed result, or None when excluded / not run.

        Failed cells (timeout / oom / error) are reported as None by
        default so every consumer — tables, report, figures — renders
        them exactly like the paper's "-" cells; pass
        ``include_failed=True`` for the raw record.
        """
        cell = self._results.get(SettingKey(method, dataset, setting).as_string())
        if cell is not None and not cell.ok and not include_failed:
            return None
        return cell

    def status(self, method: str, dataset: str, setting: str) -> Optional[str]:
        """The :class:`CellStatus` of a cell, ``excluded`` for "-" cells,
        or None when the cell simply has not run yet."""
        if (method, dataset) in EXCLUDED_CELLS:
            return CellStatus.EXCLUDED
        cell = self.get(method, dataset, setting, include_failed=True)
        return cell.status if cell is not None else None

    def failures(self) -> List[CellResult]:
        """Every cached cell that ended in a non-ok status, table order."""
        return [
            cell
            for cell in self._results.values()
            if not cell.ok
        ]
