"""The incremental filtering service: mutable indexes behind add/remove/query.

The paper benchmarks every filter as a one-shot batch job — both entity
collections are fully materialized before ``candidates()`` runs.  This
module defines the serving-scale counterpart: an :class:`IncrementalIndex`
maintains a continuously updated catalog of entities and answers
``add(entity)`` / ``remove(uid)`` / ``query(entity)`` calls one at a time,
so a stream of lookups can run against a live catalog.

Three properties make the layer trustworthy:

* **One implementation for both modes.**  The batch path is just "bulk
  add, then bulk query": :class:`IncrementalFilterAdapter` wraps any
  incremental index as a regular :class:`~repro.core.filters.Filter`, so
  the batch candidate set and the streamed one come from the same code.
* **A free correctness oracle.**  Because batch equals bulk-add + query,
  any interleaving of operations can be checked against a from-scratch
  rebuild over the currently live entities: :func:`replay_check` replays
  an operation sequence and, at every query, compares the incremental
  answer with a fresh index built from scratch — byte-identical
  ``fastpairs`` keys or it raises.  The registry's consistency check and
  the differential test suite (``tests/test_incremental_parity.py``) both
  run through this function.
* **Per-call latency in stage traces.**  Every ``add``/``remove``/``query``
  runs inside a :class:`~repro.core.stages.StageTrace` stage
  (:data:`~repro.core.stages.INCREMENTAL_STAGES`), so serving latency
  lands in the same structured traces — and crosses the same resilience
  stage hooks — as the batch filters.

Uniform mutation semantics, enforced here so every family agrees:
adding a uid already live raises ``ValueError`` (the catalog models the
individually duplicate-free collections of Clean-Clean ER); removing an
unknown uid raises ``KeyError``; internal slots are never reused, which
is what lets the concrete indexes tombstone lazily.
"""

from __future__ import annotations

import abc
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .candidates import CandidateSet
from .fastpairs import encode_pairs, unique_keys
from .filters import Filter
from .profile import EntityCollection, EntityProfile
from .stages import ADD, INCREMENTAL_STAGES, INDEX, QUERY, REMOVE, StageTrace

__all__ = [
    "IncrementalIndex",
    "IncrementalFilterAdapter",
    "Operation",
    "random_operations",
    "replay_check",
    "differential_smoke",
]


class IncrementalIndex(abc.ABC):
    """A mutable filtering index serving an add/remove/query stream.

    Subclasses implement the index-specific hooks :meth:`_add`,
    :meth:`_remove` and :meth:`_query` over integer *slots*; this base
    class owns the uid <-> slot bookkeeping, the uniform duplicate /
    unknown-id semantics, and the per-call stage tracing.

    Parameters
    ----------
    attribute:
        Schema setting shared with the batch filters: ``None`` uses the
        concatenated textual content, a name selects one attribute.
    """

    #: Human-readable name, mirroring :attr:`Filter.name`.
    name: str = "incremental"

    stages = INCREMENTAL_STAGES

    def __init__(self, attribute: Optional[str] = None) -> None:
        self.attribute = attribute
        self.trace = StageTrace()
        self._slot_of_uid: Dict[str, int] = {}
        self._profile_of_slot: Dict[int, EntityProfile] = {}
        self._next_slot = 0

    # ------------------------------------------------------------------
    # Catalog bookkeeping.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot_of_uid)

    def __contains__(self, uid: object) -> bool:
        return uid in self._slot_of_uid

    def profiles(self) -> Tuple[EntityProfile, ...]:
        """Live profiles in insertion order (slots are monotonic)."""
        return tuple(
            self._profile_of_slot[slot]
            for slot in sorted(self._profile_of_slot)
        )

    def text_of(self, profile: EntityProfile) -> str:
        """The textual content of one profile under the schema setting."""
        return profile.text(self.attribute)

    # ------------------------------------------------------------------
    # The service API.
    # ------------------------------------------------------------------

    def add(self, entity: EntityProfile) -> int:
        """Insert ``entity`` into the catalog; returns its internal slot.

        Raises ``ValueError`` when the uid is already live — the catalog
        models a duplicate-free collection, like
        :meth:`EntityCollection.add`.
        """
        if entity.uid in self._slot_of_uid:
            raise ValueError(
                f"duplicate uid {entity.uid!r} in incremental index"
            )
        with self.trace.stage(ADD, input_size=1):
            slot = self._next_slot
            self._next_slot += 1
            self._slot_of_uid[entity.uid] = slot
            self._profile_of_slot[slot] = entity
            self._add(slot, entity)
        return slot

    def remove(self, uid: str) -> EntityProfile:
        """Remove the entity with ``uid``; returns its profile.

        Raises ``KeyError`` when the uid is not live.  The freed slot is
        never reused, so concrete indexes may tombstone lazily.
        """
        if uid not in self._slot_of_uid:
            raise KeyError(uid)
        with self.trace.stage(REMOVE, input_size=1):
            slot = self._slot_of_uid.pop(uid)
            profile = self._profile_of_slot.pop(slot)
            self._remove(slot, profile)
        return profile

    def query(self, entity: EntityProfile, **params: object) -> Tuple[str, ...]:
        """Candidate matches of ``entity`` among the live catalog.

        Returns the uids of the matching entities, sorted, so the result
        is deterministic and independent of internal slot numbering.
        ``params`` are index-specific per-call overrides (``eps=...`` /
        ``k=...`` for the similarity joins).
        """
        with self.trace.stage(QUERY, input_size=1) as record:
            result = self._query_result(entity, **params)
            record.output_size = len(result)
        return result

    def query_many(
        self, entities: Sequence[EntityProfile], **params: object
    ) -> Tuple[Tuple[str, ...], ...]:
        """Batched :meth:`query`: one result tuple per probe, in order.

        Semantically identical to ``tuple(query(e) for e in entities)``
        — the parity suite pins that — but routed through
        :meth:`_query_many_results`, which index families override with
        a genuinely batched path (ScanCount runs the whole probe batch
        through the chunked CSR kernels).  The batch is traced as one
        ``QUERY`` stage entry with the batch cardinalities.
        """
        entities = list(entities)
        with self.trace.stage(QUERY, input_size=len(entities)) as record:
            results = tuple(self._query_many_results(entities, **params))
            record.output_size = sum(len(result) for result in results)
        return results

    def _query_result(
        self, entity: EntityProfile, **params: object
    ) -> Tuple[str, ...]:
        """One untraced query: the sorted-uid result of :meth:`_query`.

        The serving layer (:mod:`repro.core.serving`) calls this instead
        of :meth:`query` so concurrent readers never touch the shared
        (single-writer) :class:`StageTrace` stack.
        """
        slots = self._query(entity, **params)
        return tuple(
            sorted(self._profile_of_slot[slot].uid for slot in slots)
        )

    def _query_many_results(
        self, entities: Sequence[EntityProfile], **params: object
    ) -> List[Tuple[str, ...]]:
        """Untraced batch hook behind :meth:`query_many` (overridable)."""
        return [self._query_result(entity, **params) for entity in entities]

    # ------------------------------------------------------------------
    # Maintenance and health hooks (the serving layer's surface).
    # ------------------------------------------------------------------

    def compact(self) -> bool:
        """Run the index's maintenance pass, if it has one.

        Returns True when compaction did structural work, False when the
        index has no deferred state (eager-removal families).  The
        serving writer applies this to both buffers like any mutation,
        so readers never observe an in-place rewrite.
        """
        return False

    def index_stats(self) -> Dict[str, object]:
        """Structural health counters for the serving ``health()`` surface.

        Subclasses extend the base payload with family-specific gauges
        (postings/tombstone counts, bucket occupancy, block sizes).
        """
        return {"live": len(self), "slots": self._next_slot}

    # ------------------------------------------------------------------
    # Index-specific hooks.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _add(self, slot: int, profile: EntityProfile) -> None:
        """Index ``profile`` under ``slot``."""

    @abc.abstractmethod
    def _remove(self, slot: int, profile: EntityProfile) -> None:
        """Drop ``slot`` from the index (eager or tombstoned)."""

    @abc.abstractmethod
    def _query(
        self, profile: EntityProfile, **params: object
    ) -> Iterable[int]:
        """Slots of the live entities matching ``profile``."""

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()} live={len(self)}>"


class IncrementalFilterAdapter(Filter):
    """A batch :class:`Filter` facade over an incremental index.

    ``candidates(left, right)`` is implemented as *bulk add* of ``left``
    followed by *bulk query* with ``right`` — the batch mode and the
    streaming mode literally share one implementation, which is what the
    differential oracle exploits.  The index built by the last run stays
    available as :attr:`last_index` so callers can keep streaming against
    it.
    """

    stages = (INDEX, QUERY)

    def __init__(
        self, index_factory: Callable[[], IncrementalIndex]
    ) -> None:
        super().__init__()
        self.index_factory = index_factory
        self.last_index: Optional[IncrementalIndex] = None
        self.name = "incremental-adapter"

    def _run(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str],
    ) -> CandidateSet:
        index = self.index_factory()
        index.attribute = attribute
        self.name = f"incremental[{index.describe()}]"
        with self.trace.stage(INDEX, input_size=len(left)):
            for profile in left:
                index.add(profile)
        with self.trace.stage(QUERY, input_size=len(right)) as query:
            pairs: List[Tuple[int, int]] = []
            for right_id, profile in enumerate(right):
                uids = index.query(profile)
                pairs.extend((left.index_of(uid), right_id) for uid in uids)
            candidates = CandidateSet(pairs)
            query.output_size = len(candidates)
        self.last_index = index
        return candidates


# ----------------------------------------------------------------------
# The differential batch-vs-stream oracle.
# ----------------------------------------------------------------------


class Operation:
    """One step of a service stream: add, remove or query."""

    __slots__ = ("kind", "profile", "uid")

    def __init__(
        self,
        kind: str,
        profile: Optional[EntityProfile] = None,
        uid: Optional[str] = None,
    ) -> None:
        if kind not in ("add", "remove", "query"):
            raise ValueError(f"unknown operation kind {kind!r}")
        if kind == "remove":
            if uid is None:
                raise ValueError("remove operations need a uid")
        elif profile is None:
            raise ValueError(f"{kind} operations need a profile")
        self.kind = kind
        self.profile = profile
        self.uid = uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = self.uid if self.kind == "remove" else self.profile.uid
        return f"Operation({self.kind}, {target})"


def random_operations(
    pool: Sequence[EntityProfile],
    rng: np.random.Generator,
    count: int,
    add_weight: float = 0.45,
    remove_weight: float = 0.20,
) -> List[Operation]:
    """A seeded random add/remove/query stream over an entity ``pool``.

    Adds draw (without replacement) from the pool entities not currently
    live, removes target a random live uid, queries probe with any pool
    entity (live or not).  Infeasible draws degrade gracefully — e.g. a
    remove with nothing live becomes a query — so any ``count`` is
    reachable.  Re-adding after a removal is explicitly possible, which
    is what exercises the tombstone paths.
    """
    operations: List[Operation] = []
    absent = list(range(len(pool)))
    live: List[int] = []
    for __ in range(count):
        draw = float(rng.random())
        if draw < add_weight and absent:
            position = absent.pop(int(rng.integers(len(absent))))
            live.append(position)
            operations.append(Operation("add", profile=pool[position]))
        elif draw < add_weight + remove_weight and live:
            position = live.pop(int(rng.integers(len(live))))
            absent.append(position)
            operations.append(
                Operation("remove", uid=pool[position].uid)
            )
        elif not live and absent:
            # Nothing indexed yet: querying would be vacuous forever.
            position = absent.pop(int(rng.integers(len(absent))))
            live.append(position)
            operations.append(Operation("add", profile=pool[position]))
        else:
            probe = pool[int(rng.integers(len(pool)))]
            operations.append(Operation("query", profile=probe))
    return operations


def _result_keys(
    uids: Sequence[str], query_number: int, uid_ids: Dict[str, int]
) -> np.ndarray:
    """Encode one query result as canonical fastpairs keys.

    Each uid gets a stable integer id (first-seen order across the whole
    replay); the pair ``(query_number, uid id)`` is encoded with
    :func:`~repro.core.fastpairs.encode_pairs` so results are compared in
    exactly the representation the evaluation layer trusts.
    """
    ids = np.asarray(
        [uid_ids.setdefault(uid, len(uid_ids)) for uid in uids],
        dtype=np.int64,
    )
    queries = np.full(len(ids), query_number, dtype=np.int64)
    # Width bound: ids are assigned densely, so len(uid_ids) exceeds them all.
    return unique_keys(encode_pairs(queries, ids, max(1, len(uid_ids))))


def replay_check(
    factory: Callable[[], IncrementalIndex],
    operations: Sequence[Operation],
) -> int:
    """Replay ``operations``, checking every query against a batch rebuild.

    The oracle for a query at time ``t`` is a fresh index (``factory()``)
    bulk-loaded with the entities live at ``t``, in their original
    insertion order, queried once.  Both answers are reduced to fastpairs
    keys and must match exactly; the first divergence raises
    ``AssertionError`` naming the operation position.  Returns the number
    of queries checked.
    """
    index = factory()
    live: Dict[str, EntityProfile] = {}  # insertion-ordered (Python >= 3.7)
    uid_ids: Dict[str, int] = {}
    checked = 0
    for position, operation in enumerate(operations):
        if operation.kind == "add":
            index.add(operation.profile)
            live[operation.profile.uid] = operation.profile
        elif operation.kind == "remove":
            index.remove(operation.uid)
            del live[operation.uid]
        else:
            streamed = index.query(operation.profile)
            oracle = factory()
            oracle.attribute = index.attribute
            for profile in live.values():
                oracle.add(profile)
            rebuilt = oracle.query(operation.profile)
            streamed_keys = _result_keys(streamed, checked, uid_ids)
            rebuilt_keys = _result_keys(rebuilt, checked, uid_ids)
            if not np.array_equal(streamed_keys, rebuilt_keys):
                missing = sorted(set(rebuilt) - set(streamed))
                spurious = sorted(set(streamed) - set(rebuilt))
                raise AssertionError(
                    f"incremental/batch divergence at operation index "
                    f"{position}/{len(operations)}: {operation!r} "
                    f"(query #{checked}, probe {operation.profile.uid!r}, "
                    f"{len(live)} live): "
                    f"missing={missing} spurious={spurious}"
                )
            checked += 1
    return checked


def _smoke_pool(size: int, seed: int) -> List[EntityProfile]:
    """A tiny deterministic product-like entity pool for smoke checks."""
    brands = ("acme", "orbit", "nova", "zenith", "delta")
    items = ("usb cable", "phone case", "wall charger", "screen guard",
             "laptop stand", "ink toner")
    rng = np.random.default_rng(seed)
    pool: List[EntityProfile] = []
    for position in range(size):
        brand = brands[int(rng.integers(len(brands)))]
        item = items[int(rng.integers(len(items)))]
        model = int(rng.integers(100, 999))
        pool.append(
            EntityProfile(
                uid=f"e{position}",
                attributes={
                    "title": f"{brand} {item} {model}",
                    "brand": brand,
                },
            )
        )
    return pool


def differential_smoke(
    factory: Callable[[], IncrementalIndex],
    seed: int = 0,
    pool_size: int = 16,
    operation_count: int = 48,
) -> int:
    """A small fixed-seed differential round-trip (CI consistency check).

    Builds a deterministic entity pool, generates one random operation
    stream, and runs :func:`replay_check`.  Returns the number of queries
    checked (always > 0); raises ``AssertionError`` on any divergence.
    """
    pool = _smoke_pool(pool_size, seed)
    rng = np.random.default_rng(seed + 1)
    operations = random_operations(pool, rng, operation_count)
    if not any(op.kind == "query" for op in operations):
        operations.append(Operation("query", profile=pool[0]))
    checked = replay_check(factory, operations)
    if checked == 0:  # pragma: no cover - guarded by the append above
        raise AssertionError("differential smoke replay checked no queries")
    return checked
