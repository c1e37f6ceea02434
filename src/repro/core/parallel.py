"""Shared-memory parallel execution of sharded array kernels.

The sparse kernels (:mod:`repro.sparse.kernels`) are *shard-oblivious*:
running a consumer over query range ``[lo, hi)`` yields exactly the rows
a full run would produce for those queries.  That property makes the
parallel plan trivial and the merge deterministic:

1. publish the immutable index arrays (CSR postings + query-token CSR)
   once via :mod:`multiprocessing.shared_memory` — workers attach
   zero-copy views, nothing is pickled per element;
2. split the query axis into contiguous, balanced ranges
   (:func:`query_shards`), one worker process per shard;
3. collect per-shard results and concatenate them **in shard order** —
   because shards partition the query axis in order, the concatenation
   is byte-identical to the serial run for any worker count.

``workers=1`` (the default) runs the exact same consumer in-process with
no shared memory and no subprocesses, so the serial path is not a second
implementation but the degenerate case of the parallel one.

The default worker count is process-wide (:func:`set_default_workers`,
seeded from ``REPRO_WORKERS``) so the bench CLI can switch the whole
harness without threading a parameter through every call site.  The
start method prefers ``fork`` where available (attach cost is one mmap;
no module re-import per worker).

Fault handling: a worker that raises ships the traceback back through
the result queue; a worker that dies outright (killed, segfault) is
detected by exit code.  Either way the parent tears down the pool and
**always** unlinks every shared segment in a ``finally`` block —
:func:`last_run_segments` / :func:`segment_exists` let the tests assert
nothing leaked even on the crash path.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ShardResult",
    "SharedArrays",
    "default_workers",
    "set_default_workers",
    "resolve_workers",
    "query_shards",
    "run_sharded",
    "last_run_segments",
    "segment_exists",
]


# ----------------------------------------------------------------------
# Worker-count policy.
# ----------------------------------------------------------------------

def _workers_from_env() -> int:
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"REPRO_WORKERS must be >= 0, got {value}")
    return value


_DEFAULT_WORKERS: Optional[int] = None


def default_workers() -> int:
    """The process-wide worker count (lazy; seeded from ``REPRO_WORKERS``)."""
    global _DEFAULT_WORKERS
    if _DEFAULT_WORKERS is None:
        _DEFAULT_WORKERS = resolve_workers(_workers_from_env())
    return _DEFAULT_WORKERS


def set_default_workers(workers: Optional[int]) -> None:
    """Set (or with ``None`` reset) the process-wide worker count."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = None if workers is None else resolve_workers(workers)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers=`` knob: None -> default, 0 -> cpu count."""
    if workers is None:
        return default_workers()
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def query_shards(num_queries: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced ``[lo, hi)`` ranges covering the query axis.

    Ranges are in ascending order and sizes differ by at most one; empty
    ranges are dropped (fewer queries than workers).  Because the ranges
    partition ``[0, num_queries)`` *in order*, concatenating per-shard
    results in shard order reproduces the serial output exactly.
    """
    if num_queries <= 0:
        return []
    workers = max(1, min(int(workers), num_queries))
    base, extra = divmod(num_queries, workers)
    shards: List[Tuple[int, int]] = []
    lo = 0
    for shard in range(workers):
        hi = lo + base + (1 if shard < extra else 0)
        if hi > lo:
            shards.append((lo, hi))
        lo = hi
    return shards


# ----------------------------------------------------------------------
# Shared-memory publishing.
# ----------------------------------------------------------------------

#: Serializable description of one published array:
#: (logical name, segment name, dtype string, shape).
ArraySpec = Tuple[str, str, str, Tuple[int, ...]]

#: Segment names of the most recent :func:`run_sharded` pool, crash or
#: not — the leak-detection hook for the cleanup tests.
_LAST_RUN_SEGMENTS: List[str] = []


def last_run_segments() -> List[str]:
    """Shared-memory segment names used by the most recent parallel run."""
    return list(_LAST_RUN_SEGMENTS)


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment is still present on the system."""
    if os.name == "posix":
        return os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))
    try:  # pragma: no cover - non-posix fallback
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:  # pragma: no cover
        return False
    else:  # pragma: no cover
        _untrack(probe)
        probe.close()
        return True


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Drop a segment from the resource tracker's cleanup list.

    Attaching registers the segment with the resource tracker exactly
    like creating it does (CPython gh-82300).  That is harmless for pool
    workers — multiprocessing children share the parent's tracker, whose
    name cache is a set, and the owner's ``unlink`` unregisters it — but
    an *unrelated* probing process (the non-posix ``segment_exists``
    fallback) runs its own tracker and would unlink the segment when it
    exits, yanking it out from under the owner; probes untrack instead.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals shifted
        pass


class SharedArrays:
    """A set of NumPy arrays published once, attachable by name.

    ``publish`` copies each array into its own shared segment (the one
    and only copy the parallel run makes); ``attach`` maps the segments
    back into arrays in a worker.  The publisher must call
    :meth:`close_and_unlink` when the run ends; attached instances call
    :meth:`close`.
    """

    def __init__(
        self,
        arrays: Dict[str, np.ndarray],
        segments: List[shared_memory.SharedMemory],
        specs: List[ArraySpec],
        owner: bool,
    ) -> None:
        self.arrays = arrays
        self._segments = segments
        self._specs = specs
        self._owner = owner

    @classmethod
    def publish(cls, arrays: Mapping[str, np.ndarray]) -> "SharedArrays":
        segments: List[shared_memory.SharedMemory] = []
        specs: List[ArraySpec] = []
        views: Dict[str, np.ndarray] = {}
        try:
            for logical, array in arrays.items():
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                segments.append(segment)
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=segment.buf
                )
                view[...] = array
                views[logical] = view
                specs.append(
                    (logical, segment.name, array.dtype.str, array.shape)
                )
        except Exception:
            for segment in segments:
                segment.close()
                segment.unlink()
            raise
        return cls(views, segments, specs, owner=True)

    @classmethod
    def attach(cls, specs: Sequence[ArraySpec]) -> "SharedArrays":
        segments: List[shared_memory.SharedMemory] = []
        views: Dict[str, np.ndarray] = {}
        try:
            for logical, segment_name, dtype, shape in specs:
                segment = shared_memory.SharedMemory(name=segment_name)
                segments.append(segment)
                views[logical] = np.ndarray(
                    tuple(shape), dtype=np.dtype(dtype), buffer=segment.buf
                )
        except Exception:
            for segment in segments:
                segment.close()
            raise
        return cls(views, segments, list(specs), owner=False)

    def specs(self) -> List[ArraySpec]:
        return list(self._specs)

    @property
    def segment_names(self) -> List[str]:
        return [segment.name for segment in self._segments]

    def close(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def close_and_unlink(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._segments = []


# ----------------------------------------------------------------------
# The sharded runner.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardResult:
    """One shard's outcome: its query range, wall time, and payload."""

    lo: int
    hi: int
    wall_s: float
    value: object


def _mp_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-posix


def _run_local(
    arrays: Mapping[str, np.ndarray],
    lo: int,
    hi: int,
    params: Mapping[str, object],
) -> ShardResult:
    from ..sparse.kernels import run_consumer

    start = time.perf_counter()
    value = run_consumer(arrays, lo, hi, params)
    return ShardResult(lo, hi, time.perf_counter() - start, value)


def _worker_main(specs, shard_index, lo, hi, params, results) -> None:
    """Worker entry point: attach, run the consumer, ship the payload."""
    if params.pop("_inject_hard_crash", False):
        # Fault-injection hook for the cleanup tests: die without a
        # traceback, exactly like a segfault or OOM kill would.
        os._exit(3)
    attached = None
    try:
        from ..sparse.kernels import run_consumer

        attached = SharedArrays.attach(specs)
        start = time.perf_counter()
        value = run_consumer(attached.arrays, lo, hi, params)
        wall = time.perf_counter() - start
        results.put((shard_index, wall, value, None))
    except BaseException as error:
        results.put((shard_index, 0.0, None, repr(error)))
    finally:
        if attached is not None:
            attached.close()


def run_sharded(
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, object],
    shards: Sequence[Tuple[int, int]],
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
) -> List[ShardResult]:
    """Run a named consumer over query shards, serially or in a pool.

    Returns one :class:`ShardResult` per shard **in shard order** —
    callers concatenate payloads in that order and obtain the serial
    result byte for byte.  With ``workers <= 1`` (or a single shard)
    everything runs in-process; otherwise one worker process per shard
    attaches the published arrays and runs its range.

    Raises ``RuntimeError`` when a worker fails (exception or hard
    death) and ``TimeoutError`` when ``timeout`` elapses; shared
    segments are unlinked on every path.
    """
    global _LAST_RUN_SEGMENTS
    workers = resolve_workers(workers)
    shards = list(shards)
    if not shards:
        return []
    if workers <= 1 or len(shards) == 1:
        return [_run_local(arrays, lo, hi, params) for lo, hi in shards]

    context = _mp_context()
    published = SharedArrays.publish(arrays)
    _LAST_RUN_SEGMENTS = published.segment_names
    results_queue = context.Queue()
    processes = []
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        specs = published.specs()
        for shard_index, (lo, hi) in enumerate(shards):
            process = context.Process(
                target=_worker_main,
                args=(specs, shard_index, lo, hi, dict(params), results_queue),
                daemon=True,
            )
            process.start()
            processes.append(process)
        collected: Dict[int, Tuple[float, object]] = {}
        while len(collected) < len(shards):
            try:
                shard_index, wall, value, error = results_queue.get(
                    timeout=0.25
                )
            except queue_module.Empty:
                dead = [
                    index
                    for index, process in enumerate(processes)
                    if index not in collected
                    and not process.is_alive()
                    and process.exitcode not in (0, None)
                ]
                if dead:
                    codes = {
                        index: processes[index].exitcode for index in dead
                    }
                    raise RuntimeError(
                        f"parallel worker(s) died without a result: {codes}"
                    )
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"parallel run exceeded {timeout}s "
                        f"({len(collected)}/{len(shards)} shards done)"
                    )
                continue
            if error is not None:
                raise RuntimeError(f"parallel worker failed: {error}")
            collected[shard_index] = (wall, value)
        return [
            ShardResult(lo, hi, *collected[index])
            for index, (lo, hi) in enumerate(shards)
        ]
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)
        results_queue.close()
        published.close_and_unlink()
