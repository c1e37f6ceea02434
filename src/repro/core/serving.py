"""The fault-tolerant serving layer over the incremental indexes.

:class:`~repro.core.incremental.IncrementalIndex` gives every filter
family an add/remove/query form, but a *single-threaded* one: a
query racing a mutation (or a ``DynamicPostings`` compaction), a crash
mid-mutation, or an overload burst all had undefined behavior.  This
module wraps any incremental index in a :class:`ServingIndex` with four
guarantees:

**Snapshot isolation.**  Two index buffers are built from the same
factory.  Readers pin the *published* buffer (an epoch-counted
:class:`Snapshot`); a single writer thread drains the admission queue in
batches, applies each batch to the private *back* buffer, and publishes
it with one atomic reference swap.  The previously published buffer is
only mutated (caught up with the same batch) after its reader pin count
drains to zero, so a query never observes a half-applied mutation or an
in-place compaction rewrite — compaction is just another batched op and
reaches readers as a snapshot swap.

**Durability.**  When given a directory, every mutation is appended to a
JSON-lines write-ahead log *before* it is applied, with one fsync per
batch (group commit), and acknowledged to the caller only after both the
fsync and the publish.  Recovery replays checkpoint + log; a torn final
line (crash mid-append) is salvaged with
:func:`~repro.bench.resilience.salvage_json_prefix` and accepted only
when its end-of-record sentinel survived, then the log is truncated back
to its clean prefix.  Periodic checkpoints (atomic JSON of the live
catalog) truncate the log.

**Overload protection.**  The admission queue is bounded: a full queue
raises :class:`ServingOverloaded` carrying a ``retry_after`` hint
instead of blocking.  Per-call deadlines use the *cooperative*
:class:`~repro.bench.resilience.Deadline` path — SIGALRM watchdogs are
main-thread-only, so serving threads check at call boundaries instead.
Transient faults in the writer retry with bounded exponential backoff;
a permanently wedged writer degrades the service to read-only over the
last published snapshot instead of taking queries down with it.

**Health surface.**  :meth:`ServingIndex.health` reports epoch, queue
depth, durable/applied lag and writer liveness plus the index's own
structural gauges; :meth:`ServingIndex.stats` reports per-op latency
quantiles (p50/p90/p99) and the stage-trace totals.

Correctness is pinned the way
:func:`~repro.core.incremental.replay_check` pins streaming:
:func:`chaos_replay_check` drives concurrent readers against the writer
(optionally under injected faults) and compares every answer
byte-identically — fastpairs keys — with a from-scratch rebuild of the
exact mutation prefix the pinned snapshot had applied.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..bench.resilience import (
    CellDeadlineExceeded,
    Deadline,
    TransientError,
    atomic_write_json,
    quarantine,
    salvage_json_prefix,
)
from . import stages
from .incremental import IncrementalIndex, Operation, answer_keys
from .profile import EntityProfile

__all__ = [
    "ServingError",
    "ServingOverloaded",
    "ServingUnavailable",
    "ServingClosed",
    "MutationTicket",
    "Snapshot",
    "SnapshotInfo",
    "WriteAheadLog",
    "ServingIndex",
    "chaos_replay_check",
]


# ----------------------------------------------------------------------
# Errors.
# ----------------------------------------------------------------------


class ServingError(Exception):
    """Base class for serving-layer failures."""


class ServingOverloaded(ServingError):
    """The bounded admission queue is full — explicit backpressure.

    ``retry_after`` is the writer's drain-rate estimate of when capacity
    should be available again (seconds); clients back off at least that
    long instead of hammering a saturated writer.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class ServingUnavailable(ServingError):
    """The writer is wedged: mutations are refused, reads still serve."""


class ServingClosed(ServingError):
    """The service was shut down."""


# ----------------------------------------------------------------------
# Write-ahead log.
# ----------------------------------------------------------------------

#: Every WAL/checkpoint record carries this sentinel as its *last* key
#: (dict order survives ``json.dumps``): a salvaged torn record is
#: trusted only when the sentinel survived, i.e. every earlier key/value
#: pair parsed completely.  Without it, a torn ``add`` could resurrect
#: with a silently truncated attribute map.
_END_SENTINEL = "~end"

_WAL_NAME = "wal.jsonl"
_CHECKPOINT_NAME = "checkpoint.json"

#: Samples kept per op kind for :meth:`ServingIndex.stats` quantiles.
_LATENCY_WINDOW = 2048


def _profile_payload(profile: EntityProfile) -> Dict[str, object]:
    return {"uid": profile.uid, "attributes": dict(profile.attributes)}


def _profile_from_payload(payload: Mapping[str, object]) -> EntityProfile:
    return EntityProfile(
        uid=str(payload["uid"]),
        attributes={
            str(name): str(value)
            for name, value in dict(payload["attributes"]).items()
        },
    )


class WriteAheadLog:
    """Append-only JSON-lines operation log with group fsync.

    One mutation per line; :meth:`append` buffers, :meth:`sync` flushes
    and fsyncs once per writer batch (fsync batching — the durability
    point of the whole batch).  When stage hooks are installed the
    append is split around a flushed ``wal/append#<seq>`` boundary, so a
    ``crash`` fault there leaves a genuinely *torn* line on disk — the
    exact artifact :meth:`replay` must survive.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._pending = 0

    @staticmethod
    def record_for(operation_kind: str, seq: int, **fields) -> Dict[str, object]:
        record: Dict[str, object] = {"seq": int(seq), "op": operation_kind}
        record.update(fields)
        record[_END_SENTINEL] = 1
        return record

    def append(self, record: Mapping[str, object]) -> None:
        line = json.dumps(record, separators=(",", ":"))
        if stages.has_stage_hooks():
            # Split the write around the injection boundary and flush
            # the head so a crash fault leaves a torn line on disk.
            midpoint = max(1, len(line) // 2)
            self._handle.write(line[:midpoint])
            self._handle.flush()
            stages.fire_stage_hooks("enter", "wal/append")
            stages.fire_stage_hooks("enter", f"wal/append#{record['seq']}")
            self._handle.write(line[midpoint:] + "\n")
            stages.fire_stage_hooks("exit", "wal/append")
        else:
            self._handle.write(line + "\n")
        self._pending += 1

    def sync(self) -> None:
        """Flush and fsync everything appended since the last sync."""
        if self._pending == 0:
            return
        with stages.boundary("wal/fsync"):
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._pending = 0

    def close(self) -> None:
        try:
            self.sync()
        finally:
            self._handle.close()

    # -- recovery ------------------------------------------------------

    @classmethod
    def replay(cls, path: Path) -> Tuple[List[Dict[str, object]], int]:
        """Parse the log's clean prefix; returns ``(records, clean_bytes)``.

        Walks complete lines with ``json.loads``; the first bad line
        ends the replay (everything after a torn write is untrusted).
        The torn tail itself goes through
        :func:`~repro.bench.resilience.salvage_json_prefix` and is kept
        only when the end-of-record sentinel survived — i.e. the record
        was fully written and only its newline was lost.  ``clean_bytes``
        is the byte offset the caller should truncate the file to before
        appending again (a partial line must never be extended).
        """
        path = Path(path)
        if not path.exists():
            return [], 0
        data = path.read_bytes()
        records: List[Dict[str, object]] = []
        offset = 0
        last_seq = -1
        total = len(data)
        while offset < total:
            newline = data.find(b"\n", offset)
            if newline == -1:
                raw_line, next_offset, complete = data[offset:], total, False
            else:
                raw_line = data[offset:newline]
                next_offset, complete = newline + 1, True
            if not raw_line.strip():
                offset = next_offset
                continue
            text = raw_line.decode("utf-8", errors="replace")
            try:
                record = json.loads(text)
            except ValueError:
                record = salvage_json_prefix(text)
                if _END_SENTINEL not in record:
                    break
            if not isinstance(record, dict) or _END_SENTINEL not in record:
                break
            try:
                seq = int(record["seq"])
            except (KeyError, TypeError, ValueError):
                break
            if seq <= last_seq:
                break  # non-monotonic: corruption, stop at clean prefix
            last_seq = seq
            records.append(record)
            offset = next_offset
            if not complete:
                break
        return records, offset


def _load_checkpoint(path: Path) -> Tuple[int, List[EntityProfile]]:
    """Load the checkpoint's ``(seq, live entities)``; tolerate corruption.

    A checkpoint is written atomically, so corruption means external
    damage; the parseable prefix is salvaged, and accepted only with the
    end sentinel intact — otherwise the file is quarantined and recovery
    proceeds from the WAL alone.
    """
    path = Path(path)
    if not path.exists():
        return 0, []
    text = path.read_text(encoding="utf-8", errors="replace")
    try:
        payload = json.loads(text)
    except ValueError:
        payload = salvage_json_prefix(text)
        if _END_SENTINEL not in payload:
            quarantine(path)
            return 0, []
    try:
        seq = int(payload["seq"])
        entities = [
            _profile_from_payload(item) for item in payload["entities"]
        ]
    except (KeyError, TypeError, ValueError):
        quarantine(path)
        return 0, []
    return seq, entities


# ----------------------------------------------------------------------
# Snapshots and tickets.
# ----------------------------------------------------------------------


class Snapshot:
    """One published, immutable-while-pinned index state."""

    __slots__ = ("index", "epoch", "applied", "pins")

    def __init__(self, index: IncrementalIndex, epoch: int, applied: int) -> None:
        self.index = index
        self.epoch = epoch
        #: Number of mutation ops applied to this state since startup —
        #: the chaos oracle rebuilds exactly this prefix.
        self.applied = applied
        self.pins = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Snapshot epoch={self.epoch} applied={self.applied}"
            f" pins={self.pins} live={len(self.index)}>"
        )


class SnapshotInfo:
    """What a reader learns about the snapshot that answered its query."""

    __slots__ = ("epoch", "applied")

    def __init__(self, epoch: int, applied: int) -> None:
        self.epoch = epoch
        self.applied = applied


class MutationTicket:
    """Async handle for one admitted mutation — also the queued op itself.

    The ticket completes when the op is durable (WAL fsync) *and*
    visible (published in a snapshot); :meth:`wait` re-raises any
    permanent failure the writer hit applying it.  ``profile`` is the
    entity an ``add`` carries (``None`` for ``remove`` / ``compact``).
    """

    __slots__ = ("kind", "uid", "profile", "seq", "epoch", "error", "_event")

    def __init__(
        self, kind: str, uid: str, profile: Optional[EntityProfile] = None
    ) -> None:
        self.kind = kind
        self.uid = uid
        self.profile = profile
        self.seq: Optional[int] = None
        self.epoch: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def _complete(self, epoch: int) -> None:
        self.epoch = epoch
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self.error = error
        self._event.set()

    def wait(self, deadline: Optional[Deadline] = None) -> "MutationTicket":
        """Block until applied+published (or failed, or deadline)."""
        remaining = None if deadline is None else max(deadline.remaining(), 0.0)
        if not self._event.wait(remaining):
            raise CellDeadlineExceeded(
                f"{self.kind}({self.uid!r}) not published within its"
                " deadline (the op stays admitted and will still apply)"
            )
        if self.error is not None:
            raise self.error
        return self


class _WriterWedged(Exception):
    """Internal: a mutation failed permanently; the writer must degrade."""


# ----------------------------------------------------------------------
# The serving index.
# ----------------------------------------------------------------------


class ServingIndex:
    """Fault-tolerant concurrent serving over any incremental index.

    Parameters
    ----------
    factory:
        Zero-argument builder of the wrapped
        :class:`~repro.core.incremental.IncrementalIndex`.  Called twice
        (double buffering); both instances must answer identically under
        the same op sequence, which every registered incremental family
        guarantees (seeded hashing, deterministic tokenization).
    directory:
        WAL + checkpoint directory.  ``None`` serves purely in-memory
        (no durability); an existing directory is *recovered from*
        before serving starts.
    queue_limit:
        Bound of the admission queue; a full queue raises
        :class:`ServingOverloaded`.
    batch_limit:
        Max ops the writer drains per cycle — the group-commit unit (one
        fsync, one publish per batch).
    checkpoint_every:
        Write a checkpoint + truncate the WAL every N applied ops
        (``None`` disables; meaningless without ``directory``).
    default_timeout:
        Deadline (seconds) applied to calls that do not pass their own
        ``timeout``; ``None`` means wait indefinitely.
    max_retries / backoff / transient_errors:
        Bounded retry-with-backoff for transient faults while applying
        an op.  Retries are idempotent (membership is re-checked), so a
        fault firing *after* the mutation landed cannot double-apply.
    """

    def __init__(
        self,
        factory: Callable[[], IncrementalIndex],
        *,
        directory: Optional[os.PathLike] = None,
        queue_limit: int = 256,
        batch_limit: int = 32,
        checkpoint_every: Optional[int] = None,
        default_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff: float = 0.01,
        transient_errors: Tuple[type, ...] = (TransientError,),
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if batch_limit < 1:
            raise ValueError("batch_limit must be positive")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive (or None)")
        self.factory = factory
        self.queue_limit = int(queue_limit)
        self.batch_limit = int(batch_limit)
        self.checkpoint_every = checkpoint_every
        self.default_timeout = default_timeout
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.transient_errors = tuple(transient_errors)

        self.directory = Path(directory) if directory is not None else None
        self._wal: Optional[WriteAheadLog] = None
        self._next_seq = 1
        self._durable_seq = 0
        self._applied_since_checkpoint = 0

        # Admission state, guarded by _work (a condition's lock).
        self._work = threading.Condition()
        self._queue: Deque[MutationTicket] = collections.deque()
        self._admitted: Dict[str, EntityProfile] = {}
        self._stop = False
        self._failure: Optional[str] = None

        # Snapshot state, guarded by _turnstile.
        self._turnstile = threading.Condition()

        # Latency accounting, guarded by _stats_lock.
        self._stats_lock = threading.Lock()
        self._latencies: Dict[str, Deque[float]] = {
            kind: collections.deque(maxlen=_LATENCY_WINDOW)
            for kind in ("add", "remove", "compact", "query", "apply_batch")
        }

        front = factory()
        back = factory()
        # The writer's authoritative live catalog (insertion-ordered) —
        # what checkpoints persist and recovery restores.
        self._applied_catalog: Dict[str, EntityProfile] = {}
        recovered = self._recover(front, back)
        self._published = Snapshot(front, epoch=0, applied=recovered)
        self._back: Optional[IncrementalIndex] = back
        self._admitted = dict(self._applied_catalog)

        self._writer = threading.Thread(
            target=self._writer_loop, name="serving-writer", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def _recover(
        self, front: IncrementalIndex, back: IncrementalIndex
    ) -> int:
        """Rebuild both buffers from checkpoint + WAL; returns op count.

        The rebuilt state is definitionally identical to the
        :func:`~repro.core.incremental.replay_check` oracle: live
        entities bulk-added in original insertion order, then the logged
        suffix replayed in seq order.
        """
        if self.directory is None:
            return 0
        self.directory.mkdir(parents=True, exist_ok=True)
        base_seq, entities = _load_checkpoint(
            self.directory / _CHECKPOINT_NAME
        )
        wal_path = self.directory / _WAL_NAME
        records, clean_bytes = WriteAheadLog.replay(wal_path)
        applied = 0
        for profile in entities:
            for index in (front, back):
                index.add(profile)
            self._applied_catalog[profile.uid] = profile
            applied += 1
        last_seq = base_seq
        for record in records:
            seq = int(record["seq"])
            if seq <= base_seq:
                continue  # checkpointed before the WAL was truncated
            kind = str(record.get("op", ""))
            if kind == "add":
                profile = _profile_from_payload(record)
                for index in (front, back):
                    index.add(profile)
                self._applied_catalog[profile.uid] = profile
            elif kind == "remove":
                uid = str(record["uid"])
                for index in (front, back):
                    index.remove(uid)
                del self._applied_catalog[uid]
            else:
                continue
            applied += 1
            last_seq = seq
        self._next_seq = max(base_seq, last_seq) + 1
        # A torn tail must never be extended: truncate to the clean
        # prefix before reopening for append.  A salvaged final record
        # that merely lost its newline gets the newline back, so the
        # next append starts a fresh line.
        if wal_path.exists():
            size = wal_path.stat().st_size
            if clean_bytes < size:
                with open(wal_path, "rb+") as handle:
                    handle.truncate(clean_bytes)
            if clean_bytes > 0:
                with open(wal_path, "rb+") as handle:
                    handle.seek(clean_bytes - 1)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
        self._wal = WriteAheadLog(wal_path)
        self._durable_seq = self._next_seq - 1
        return applied

    # ------------------------------------------------------------------
    # Admission (callers' threads).
    # ------------------------------------------------------------------

    def _deadline(self, timeout: Optional[float]) -> Optional[Deadline]:
        seconds = self.default_timeout if timeout is None else timeout
        return None if seconds is None else Deadline(seconds)

    def _check_accepting(self) -> None:
        if self._stop:
            raise ServingClosed("serving index is closed")
        if self._failure is not None:
            raise ServingUnavailable(
                f"writer is wedged ({self._failure}); serving reads from"
                f" the last published snapshot (epoch"
                f" {self._published.epoch})"
            )

    def _retry_after(self) -> float:
        """Backpressure hint: expected time to drain one batch slot."""
        with self._stats_lock:
            recent = self._latencies["apply_batch"]
            batch_seconds = (
                sum(recent) / len(recent) if recent else 0.01
            )
        depth = len(self._queue)
        return max(0.005, batch_seconds * (1 + depth / self.batch_limit))

    def _submit(
        self, op: MutationTicket, timeout: Optional[float], wait: bool
    ) -> MutationTicket:
        """Admit ``op``; with ``wait``, block until durable + visible.

        Validation is synchronous against the *admitted* catalog even
        though application is asynchronous: a duplicate add raises
        ``ValueError`` and a remove of a uid that is not live raises
        ``KeyError`` here, and a full queue raises
        :class:`ServingOverloaded`.
        """
        deadline = self._deadline(timeout)
        start = time.perf_counter()
        with self._work:
            self._check_accepting()
            if op.kind == "add" and op.uid in self._admitted:
                raise ValueError(f"duplicate uid {op.uid!r} in serving index")
            if op.kind == "remove" and op.uid not in self._admitted:
                raise KeyError(op.uid)
            if len(self._queue) >= self.queue_limit:
                raise ServingOverloaded(
                    f"admission queue full ({self.queue_limit} ops)",
                    retry_after=self._retry_after(),
                )
            if op.kind == "add":
                self._admitted[op.uid] = op.profile
            elif op.kind == "remove":
                del self._admitted[op.uid]
            self._queue.append(op)
            self._work.notify()
        if wait:
            op.wait(deadline)
            self._record_latency(op.kind, time.perf_counter() - start)
        return op

    def add(
        self,
        entity: EntityProfile,
        *,
        timeout: Optional[float] = None,
        wait: bool = True,
    ) -> MutationTicket:
        """Admit an insertion (``ValueError`` on a duplicate uid).

        By default blocks until durable + visible; ``wait=False``
        returns the ticket immediately.
        """
        return self._submit(
            MutationTicket("add", entity.uid, entity), timeout, wait
        )

    def remove(
        self,
        uid: str,
        *,
        timeout: Optional[float] = None,
        wait: bool = True,
    ) -> MutationTicket:
        """Admit a removal (``KeyError`` when the uid is not live)."""
        return self._submit(MutationTicket("remove", uid), timeout, wait)

    def compact(
        self, *, timeout: Optional[float] = None, wait: bool = True
    ) -> MutationTicket:
        """Schedule an index maintenance pass as an ordinary batched op.

        Readers keep answering from the published snapshot while the
        writer compacts the back buffer — the rewritten structure only
        becomes visible at the next publish.
        """
        return self._submit(
            MutationTicket("compact", "<maintenance>"), timeout, wait
        )

    # ------------------------------------------------------------------
    # Queries (readers' threads).
    # ------------------------------------------------------------------

    def _read(
        self,
        run: Callable[[IncrementalIndex], object],
        timeout: Optional[float],
        info: bool,
    ):
        """Answer ``run(index)`` on the pinned published snapshot.

        Runs on the caller's thread, concurrently with the writer and
        other readers.  The cooperative deadline is checked at the call
        boundaries (before pinning, after the index answers) — a late
        answer raises rather than returning silently past its deadline.
        With ``info=True`` returns ``(result, SnapshotInfo)`` so callers
        (and the chaos oracle) know exactly which state answered.
        """
        if self._stop and self._failure is None:
            raise ServingClosed("serving index is closed")
        deadline = self._deadline(timeout)
        start = time.perf_counter()
        if deadline is not None:
            deadline.check()
        with self._turnstile:
            snapshot = self._published
            snapshot.pins += 1
        try:
            result = run(snapshot.index)
        finally:
            with self._turnstile:
                snapshot.pins -= 1
                if snapshot.pins == 0:
                    self._turnstile.notify_all()
        if deadline is not None:
            deadline.check()
        self._record_latency("query", time.perf_counter() - start)
        if info:
            return result, SnapshotInfo(snapshot.epoch, snapshot.applied)
        return result

    def query(
        self,
        entity: EntityProfile,
        *,
        timeout: Optional[float] = None,
        info: bool = False,
        **params: object,
    ):
        """Candidates of ``entity`` against the pinned snapshot."""
        return self._read(
            lambda index: index._query_result(entity, **params), timeout, info
        )

    def query_many(
        self,
        entities: Sequence[EntityProfile],
        *,
        timeout: Optional[float] = None,
        info: bool = False,
        **params: object,
    ):
        """:meth:`query` over a batch of probes, on one pinned snapshot.

        The whole batch sees a single consistent state (one pin, one
        epoch); each probe runs the same ``_query_result`` as
        :meth:`query`.
        """
        return self._read(
            lambda index: tuple(
                index._query_result(entity, **params) for entity in entities
            ),
            timeout,
            info,
        )

    # ------------------------------------------------------------------
    # The writer thread.
    # ------------------------------------------------------------------

    def _writer_loop(self) -> None:
        while True:
            with self._work:
                while not self._queue and not self._stop:
                    self._work.wait(timeout=0.05)
                if not self._queue:
                    if self._stop:
                        return
                    continue
                batch = [
                    self._queue.popleft()
                    for __ in range(min(self.batch_limit, len(self._queue)))
                ]
            try:
                self._apply_batch(batch)
            except BaseException as error:  # noqa: BLE001 - must not die silently
                self._wedge(error, batch)
                return
            if (
                self.checkpoint_every is not None
                and self._wal is not None
                and self._applied_since_checkpoint >= self.checkpoint_every
            ):
                try:
                    self._write_checkpoint()
                except BaseException as error:  # noqa: BLE001
                    self._wedge(error, [])
                    return

    def _apply_batch(self, batch: List[MutationTicket]) -> None:
        started = time.perf_counter()
        # 1. Durability first: log + one group fsync for the batch.
        if self._wal is not None:
            for op in batch:
                if op.kind == "compact":
                    continue  # maintenance is not logged: no logical state
                fields = (
                    _profile_payload(op.profile)
                    if op.kind == "add"
                    else {"uid": op.uid}
                )
                record = WriteAheadLog.record_for(
                    op.kind, self._next_seq, **fields
                )
                op.seq = self._next_seq
                self._next_seq += 1
                self._wal.append(record)
            self._wal.sync()
            if batch:
                self._durable_seq = self._next_seq - 1
        # 2. Apply to the private back buffer (never visible mid-way).
        # Every op, compaction included, advances the op clock.
        mutations = len(batch)
        for op in batch:
            self._apply_op(self._back, op)
            if op.kind == "add":
                self._applied_catalog[op.uid] = op.profile
            elif op.kind == "remove":
                del self._applied_catalog[op.uid]
        self._applied_since_checkpoint += mutations
        # 3. Publish: one atomic swap; readers pin the new state from
        # here on.  A fault injected at this boundary aborts the batch
        # *before* the swap, leaving the old snapshot fully consistent.
        stages.fire_stage_hooks("enter", "serving/publish")
        with self._turnstile:
            previous = self._published
            self._published = Snapshot(
                self._back,
                epoch=previous.epoch + 1,
                applied=previous.applied + mutations,
            )
            self._back = None
            self._turnstile.notify_all()
        stages.fire_stage_hooks("exit", "serving/publish")
        # 4. Acknowledge: durable and visible.
        epoch = self._published.epoch
        for op in batch:
            op._complete(epoch)
        # 5. Reclaim the previous snapshot once its readers drain, and
        # catch it up with the same batch — it becomes the next back
        # buffer.  Readers always pin the *published* snapshot, so the
        # pin count here can only fall.
        with self._turnstile:
            while previous.pins > 0:
                self._turnstile.wait(timeout=0.05)
        for op in batch:
            self._apply_op(previous.index, op)
        self._back = previous.index
        self._record_latency("apply_batch", time.perf_counter() - started)

    def _apply_op(self, index: IncrementalIndex, op: MutationTicket) -> None:
        """Apply one op with bounded retry; idempotent under re-entry.

        A fault can fire *after* the index mutated (stage exit hooks),
        so each retry re-checks membership: an add whose uid is already
        live / a remove whose uid is already gone counts as applied.
        """
        attempts = 0
        while True:
            try:
                if op.kind == "add":
                    if op.uid not in index:
                        index.add(op.profile)
                elif op.kind == "remove":
                    if op.uid in index:
                        index.remove(op.uid)
                elif op.kind == "compact":
                    with stages.boundary("serving/compact"):
                        index.compact()
                return
            except (KeyboardInterrupt, SystemExit):
                raise
            except self.transient_errors as error:
                attempts += 1
                if attempts > self.max_retries:
                    raise _WriterWedged(
                        f"{op.kind}({op.uid!r}) failed after"
                        f" {attempts} attempts: {error!r}"
                    ) from error
                time.sleep(self.backoff * (2 ** (attempts - 1)))

    def _write_checkpoint(self) -> None:
        """Persist the live catalog atomically, then truncate the WAL.

        Crash-ordering: the checkpoint (carrying ``seq``) lands via
        ``os.replace`` *before* the log is truncated; a crash in between
        only leaves already-checkpointed records in the WAL, which
        recovery skips by their seq.
        """
        with stages.boundary("serving/checkpoint"):
            payload = {
                "schema": 1,
                "seq": self._next_seq - 1,
                "entities": [
                    _profile_payload(profile)
                    for profile in self._applied_catalog.values()
                ],
                _END_SENTINEL: 1,
            }
            atomic_write_json(self.directory / _CHECKPOINT_NAME, payload)
            self._wal.close()
            with open(self.directory / _WAL_NAME, "w", encoding="utf-8"):
                pass  # truncate
            self._wal = WriteAheadLog(self.directory / _WAL_NAME)
            self._applied_since_checkpoint = 0

    def _wedge(
        self, error: BaseException, batch: List[MutationTicket]
    ) -> None:
        """Degrade to read-only: fail outstanding tickets, keep serving."""
        description = f"{type(error).__name__}: {error}"
        with self._work:
            self._failure = description
            pending = list(batch) + list(self._queue)
            self._queue.clear()
        failure = ServingUnavailable(
            f"mutation dropped: writer wedged ({description})"
        )
        for op in pending:
            if not op.done:
                op._fail(failure)
        with self._turnstile:
            self._turnstile.notify_all()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._work:
            return len(self._admitted)

    def __contains__(self, uid: object) -> bool:
        with self._work:
            return uid in self._admitted

    def catalog(self) -> Tuple[EntityProfile, ...]:
        """The admitted live profiles, in insertion order."""
        with self._work:
            return tuple(self._admitted.values())

    def _record_latency(self, kind: str, seconds: float) -> None:
        with self._stats_lock:
            self._latencies[kind].append(seconds)

    def health(self) -> Dict[str, object]:
        """One-glance service state: epoch, lag, queue, writer liveness."""
        with self._work:
            queue_depth = len(self._queue)
            failure = self._failure
            stopped = self._stop
            live = len(self._admitted)
        snapshot = self._published
        if stopped:
            status = "closed"
        elif failure is not None:
            status = "degraded"
        elif queue_depth >= self.queue_limit:
            status = "overloaded"
        else:
            status = "ok"
        return {
            "status": status,
            "error": failure,
            "epoch": snapshot.epoch,
            "applied_ops": snapshot.applied,
            "live": live,
            "queue_depth": queue_depth,
            "queue_limit": self.queue_limit,
            "log_lag": (
                self._applied_since_checkpoint
                if self._wal is not None
                else None
            ),
            "durable_seq": self._durable_seq,
            "writer_alive": self._writer.is_alive(),
            "wal": str(self._wal.path) if self._wal is not None else None,
            "index": snapshot.index.index_stats(),
        }

    def stats(self) -> Dict[str, object]:
        """Per-op latency quantiles plus the snapshot's stage totals."""
        payload: Dict[str, object] = {}
        with self._stats_lock:
            samples = {
                kind: list(window)
                for kind, window in self._latencies.items()
            }
        for kind, values in samples.items():
            if not values:
                payload[kind] = {"count": 0}
                continue
            arr = np.asarray(values, dtype=np.float64) * 1000.0
            payload[kind] = {
                "count": len(values),
                "mean_ms": float(arr.mean()),
                "p50_ms": float(np.percentile(arr, 50)),
                "p90_ms": float(np.percentile(arr, 90)),
                "p99_ms": float(np.percentile(arr, 99)),
            }
        payload["trace"] = dict(self._published.index.trace.as_dict())
        return payload

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self, *, checkpoint: bool = True, timeout: float = 30.0) -> None:
        """Drain the queue, stop the writer, sync and close the WAL."""
        with self._work:
            if self._stop:
                return
            self._stop = True
            self._work.notify_all()
        self._writer.join(timeout=timeout)
        if self._wal is not None:
            if (
                checkpoint
                and self._failure is None
                and not self._writer.is_alive()
            ):
                try:
                    self._write_checkpoint()
                except OSError:
                    pass
            self._wal.close()

    def __enter__(self) -> "ServingIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServingIndex epoch={self._published.epoch}"
            f" live={len(self)} queue={len(self._queue)}>"
        )


# ----------------------------------------------------------------------
# The chaos differential oracle.
# ----------------------------------------------------------------------


def chaos_replay_check(
    factory: Callable[[], IncrementalIndex],
    operations: Sequence[Operation],
    *,
    readers: int = 2,
    queries_per_reader: int = 6,
    compact_every: Optional[int] = None,
    serving_kwargs: Optional[Dict[str, object]] = None,
    seed: int = 0,
) -> int:
    """Concurrent serving vs the rebuild oracle; returns queries checked.

    The mutation subsequence of ``operations`` is admitted through a
    :class:`ServingIndex` (backpressure honoured: ``ServingOverloaded``
    waits out its ``retry_after``) while ``readers`` threads issue
    probes concurrently, each recording the ``applied`` op count of the
    snapshot that answered.  Every recorded answer is then compared —
    byte-identical fastpairs keys — against a fresh index bulk-loaded
    with exactly the live entities after that mutation prefix, i.e. the
    same oracle :func:`~repro.core.incremental.replay_check` trusts.

    Faults: install a :class:`~repro.bench.resilience.FaultInjector`
    around this call (its plans fire inside the writer's stage
    boundaries); pass matching ``transient_errors`` via
    ``serving_kwargs`` for faults the writer should retry through.
    """
    mutations = [op for op in operations if op.kind != "query"]
    probes = [op.profile for op in operations if op.kind == "query"]
    if not probes:
        pool = [op.profile for op in mutations if op.profile is not None]
        probes = pool[:4] or [EntityProfile(uid="<empty-probe>")]
    if compact_every:
        spaced: List[Operation] = []
        for position, op in enumerate(mutations, start=1):
            spaced.append(op)
            if position % compact_every == 0:
                spaced.append(None)  # compaction marker
        mutations = spaced

    recorded: List[Tuple[int, EntityProfile, Tuple[str, ...]]] = []
    service = ServingIndex(factory, **(serving_kwargs or {}))
    errors: List[BaseException] = []

    def read_loop(reader_id: int) -> None:
        rng = np.random.default_rng(seed * 1009 + reader_id)
        try:
            for __ in range(queries_per_reader):
                probe = probes[int(rng.integers(len(probes)))]
                result, info = service.query(probe, info=True)
                recorded.append((info.applied, probe, result))
                time.sleep(0.0005)
        except ServingError:
            pass  # closed/degraded mid-loop: the writer side asserts
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=read_loop, args=(reader_id,), daemon=True)
        for reader_id in range(readers)
    ]
    try:
        for thread in threads:
            thread.start()
        tickets: List[MutationTicket] = []
        for op in mutations:
            while True:
                try:
                    if op is None:
                        tickets.append(service.compact(wait=False))
                    elif op.kind == "add":
                        tickets.append(service.add(op.profile, wait=False))
                    else:
                        tickets.append(service.remove(op.uid, wait=False))
                    break
                except ServingOverloaded as overload:
                    time.sleep(min(overload.retry_after, 0.02))
        for ticket in tickets:
            ticket.wait(Deadline(30.0))
        # Always check the final state at least once per probe.
        results, info = service.query_many(probes, info=True)
        for probe, result in zip(probes, results):
            recorded.append((info.applied, probe, result))
    finally:
        for thread in threads:
            thread.join(timeout=10.0)
        service.close()
    if errors:
        raise errors[0]

    # Oracle verification: rebuild each observed mutation prefix once.
    live_states: List[Dict[str, EntityProfile]] = [{}]
    live: Dict[str, EntityProfile] = {}
    for op in mutations:
        if op is not None:
            if op.kind == "add":
                live[op.profile.uid] = op.profile
            else:
                del live[op.uid]
        live_states.append(dict(live))
    oracles: Dict[int, IncrementalIndex] = {}
    uid_ids: Dict[str, int] = {}
    checked = 0
    for applied, probe, result in recorded:
        oracle = oracles.get(applied)
        if oracle is None:
            oracle = factory()
            for profile in live_states[applied].values():
                oracle.add(profile)
            oracles[applied] = oracle
        expected = oracle._query_result(probe)
        result_keys = answer_keys(result, uid_ids)
        expected_keys = answer_keys(expected, uid_ids)
        if not (
            np.array_equal(result_keys, expected_keys)
            and result_keys.tobytes() == expected_keys.tobytes()
        ):
            raise AssertionError(
                f"serving/oracle divergence at applied={applied} "
                f"(probe {probe.uid!r}): served={list(result)} "
                f"expected={list(expected)}"
            )
        checked += 1
    return checked
