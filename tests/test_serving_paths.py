"""Tests for the serving layer's single admission and read paths.

``ServingIndex.add`` / ``remove`` / ``compact`` are thin wrappers over
one ``_submit`` path and ``query`` / ``query_many`` over one ``_read``
helper; the ticket an admission returns is the queued op itself.  These
tests pin that every wrapper gets the same behaviour from the shared
path (refusal when closed or degraded, latency accounting, WAL sequence
numbers, snapshot pinning), and that every serving family answers and
recovers identically to a direct rebuild.
"""

import json

import pytest

from repro.bench.resilience import (
    CellDeadlineExceeded,
    Deadline,
    FaultInjector,
)
from repro.core import registry, serving
from repro.core.incremental import _smoke_pool
from repro.core.serving import (
    MutationTicket,
    ServingClosed,
    ServingIndex,
    ServingUnavailable,
    WriteAheadLog,
)
from repro.sparse.scancount import IncrementalScanCountFilter

MUTATIONS = ("add", "remove", "compact")
READS = ("query", "query_many")


def factory():
    return IncrementalScanCountFilter(threshold=0.3)


def pool(size=10, seed=0):
    return _smoke_pool(size, seed=seed)


def mutate(service, kind, entities, **kwargs):
    """Issue one ``kind`` mutation; ``entities[0]`` must be live."""
    if kind == "add":
        return service.add(entities[-1], **kwargs)
    if kind == "remove":
        return service.remove(entities[0].uid, **kwargs)
    return service.compact(**kwargs)


def read(service, kind, entities, **kwargs):
    if kind == "query":
        return service.query(entities[0], **kwargs)
    return service.query_many(entities, **kwargs)


def wedge(service, entities):
    """Drive ``service`` into the degraded (read-only) state."""
    injector = FaultInjector.from_spec("raise:add:RuntimeError:99")
    with injector.installed():
        with pytest.raises(ServingUnavailable):
            service.add(entities[-2])
    assert service.health()["status"] == "degraded"


def wedgeable():
    return ServingIndex(
        factory, transient_errors=(RuntimeError,), max_retries=0
    )


# ----------------------------------------------------------------------
# The ticket is the queued op.
# ----------------------------------------------------------------------


class TestMutationTicket:
    def test_add_ticket_carries_its_profile(self):
        entity = pool()[0]
        with ServingIndex(factory) as service:
            ticket = service.add(entity)
        assert ticket.kind == "add"
        assert ticket.uid == entity.uid
        assert ticket.profile is entity

    def test_remove_and_compact_tickets_carry_no_profile(self):
        entity = pool()[0]
        with ServingIndex(factory) as service:
            service.add(entity)
            removed = service.remove(entity.uid)
            compacted = service.compact()
        assert (removed.kind, removed.uid, removed.profile) == (
            "remove", entity.uid, None,
        )
        assert compacted.kind == "compact" and compacted.profile is None

    def test_complete_sets_epoch_and_done(self):
        ticket = MutationTicket("remove", "u1")
        assert not ticket.done and ticket.epoch is None
        ticket._complete(7)
        assert ticket.done and ticket.epoch == 7
        assert ticket.wait() is ticket

    def test_failed_ticket_reraises_on_wait(self):
        ticket = MutationTicket("add", "u1", pool()[0])
        failure = ServingUnavailable("writer wedged")
        ticket._fail(failure)
        assert ticket.done and ticket.error is failure
        with pytest.raises(ServingUnavailable, match="writer wedged"):
            ticket.wait()

    def test_wait_deadline_names_the_op(self):
        ticket = MutationTicket("remove", "u9")
        with pytest.raises(CellDeadlineExceeded, match=r"remove\('u9'\)"):
            ticket.wait(Deadline(-1.0))
        assert not ticket.done


# ----------------------------------------------------------------------
# One admission path for add / remove / compact.
# ----------------------------------------------------------------------


class TestSubmitPath:
    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_closed_service_refuses_every_mutation(self, kind):
        entities = pool()
        service = ServingIndex(factory)
        service.add(entities[0])
        service.close()
        with pytest.raises(ServingClosed):
            mutate(service, kind, entities)
        assert len(service) == 1

    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_degraded_service_refuses_every_mutation(self, kind):
        entities = pool()
        service = wedgeable()
        try:
            service.add(entities[0])
            wedge(service, entities)
            with pytest.raises(ServingUnavailable, match="wedged"):
                mutate(service, kind, entities)
            assert entities[0].uid in service
        finally:
            service.close()

    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_waited_mutation_records_its_latency(self, kind):
        entities = pool()
        with ServingIndex(factory) as service:
            service.add(entities[0], wait=False).wait()
            assert service.stats()[kind]["count"] == 0
            mutate(service, kind, entities)
            block = service.stats()[kind]
            assert block["count"] == 1
            assert block["mean_ms"] >= 0.0

    def test_unwaited_mutations_record_no_latency(self):
        entities = pool()
        with ServingIndex(factory) as service:
            tickets = [service.add(entities[0], wait=False)]
            tickets.append(service.remove(entities[0].uid, wait=False))
            tickets.append(service.compact(wait=False))
            for ticket in tickets:
                ticket.wait()
        # close() joined the writer, so its batch timings are all in.
        stats = service.stats()
        assert [stats[kind]["count"] for kind in MUTATIONS] == [0, 0, 0]
        assert stats["apply_batch"]["count"] >= 1

    def test_tickets_take_wal_seqs_in_admission_order(self, tmp_path):
        entities = pool()
        with ServingIndex(factory, directory=tmp_path) as service:
            first = service.add(entities[0])
            second = service.add(entities[1])
            compacted = service.compact()
            removed = service.remove(entities[0].uid)
            health = service.health()
            records, __ = WriteAheadLog.replay(tmp_path / "wal.jsonl")
        assert (first.seq, second.seq, removed.seq) == (1, 2, 3)
        assert compacted.seq is None  # maintenance carries no state
        assert [(r["seq"], r["op"]) for r in records] == [
            (1, "add"), (2, "add"), (3, "remove"),
        ]
        assert records[0]["attributes"] == dict(entities[0].attributes)
        assert health["durable_seq"] == 3

    def test_in_memory_tickets_have_no_seq(self):
        entities = pool()
        with ServingIndex(factory) as service:
            tickets = [service.add(entities[0]), service.compact()]
            tickets.append(service.remove(entities[0].uid))
            assert service.health()["durable_seq"] == 0
        assert [ticket.seq for ticket in tickets] == [None, None, None]

    def test_remove_and_readd_before_the_writer_drains(self):
        entities = pool()
        injector = FaultInjector.from_spec("delay:serving/publish:0.1:1")
        with ServingIndex(factory, batch_limit=1) as service:
            service.add(entities[1])
            with injector.installed():
                tickets = [service.add(entities[0], wait=False)]
                tickets.append(service.remove(entities[0].uid, wait=False))
                # Admission validates against the admitted catalog, so a
                # re-add is legal before the remove is even applied.
                tickets.append(service.add(entities[0], wait=False))
                for ticket in tickets:
                    ticket.wait()
            assert [p.uid for p in service.catalog()] == [
                entities[1].uid, entities[0].uid,
            ]
            direct = factory()
            direct.add(entities[1])
            direct.add(entities[0])
            assert service.query(entities[0]) == direct.query(entities[0])


# ----------------------------------------------------------------------
# One read path for query / query_many.
# ----------------------------------------------------------------------


class TestReadPath:
    @pytest.mark.parametrize("kind", READS)
    def test_each_read_records_one_query_sample(self, kind):
        entities = pool()
        with ServingIndex(factory) as service:
            service.add(entities[0])
            read(service, kind, entities)
            read(service, kind, entities)
            assert service.stats()["query"]["count"] == 2

    @pytest.mark.parametrize("kind", READS)
    def test_snapshot_info_matches_health(self, kind):
        entities = pool()
        with ServingIndex(factory) as service:
            for profile in entities[:3]:
                service.add(profile)
            service.remove(entities[1].uid)
            __, info = read(service, kind, entities, info=True)
            health = service.health()
            assert (info.epoch, info.applied) == (
                health["epoch"], health["applied_ops"],
            )
            assert info.applied == 4

    @pytest.mark.parametrize("kind", READS)
    def test_degraded_service_still_answers_reads(self, kind):
        entities = pool()
        service = wedgeable()
        try:
            service.add(entities[0])
            expected = read(service, kind, entities)
            wedge(service, entities)
            assert read(service, kind, entities) == expected
        finally:
            service.close()
        # Closed after degrading: reads keep serving the last snapshot.
        assert read(service, kind, entities) == expected

    def test_query_many_of_no_probes_is_empty(self):
        with ServingIndex(factory) as service:
            service.add(pool()[0])
            assert service.query_many([]) == ()
            result, info = service.query_many([], info=True)
            assert result == () and info.applied == 1

    def test_failed_read_releases_its_pin(self):
        entities = pool()
        with ServingIndex(factory) as service:
            service.add(entities[0])
            with pytest.raises(TypeError):
                service.query(entities[0], no_such_param=1)
            with pytest.raises(TypeError):
                service.query_many(entities, no_such_param=1)
            assert service._published.pins == 0
            # A leaked pin would stall the writer's reclaim step forever.
            ticket = service.add(entities[1], timeout=5.0)
            assert ticket.done and entities[1].uid in service

    def test_reads_forward_per_call_params(self):
        entities = pool(12, seed=4)
        direct = registry.get("kNNJ").build_incremental()
        with registry.build_serving("kNNJ") as service:
            for profile in entities[:8]:
                service.add(profile)
                direct.add(profile)
            probes = entities[8:]
            assert service.query(probes[0], k=1) == direct.query(
                probes[0], k=1
            )
            assert service.query_many(probes, k=1) == direct.query_many(
                probes, k=1
            )
            assert service.query_many(probes, k=1) != service.query_many(
                probes, k=5
            )


# ----------------------------------------------------------------------
# Constructor surface.
# ----------------------------------------------------------------------


class TestConstructor:
    @pytest.mark.parametrize(
        "option", ["queue_limit", "batch_limit", "checkpoint_every"]
    )
    def test_non_positive_bounds_are_rejected(self, option):
        with pytest.raises(ValueError, match=option):
            ServingIndex(factory, **{option: 0})

    def test_latency_window_is_a_module_constant(self, monkeypatch):
        monkeypatch.setattr(serving, "_LATENCY_WINDOW", 4)
        entities = pool()
        with ServingIndex(factory) as service:
            service.add(entities[0])
            for __ in range(9):
                service.query(entities[0])
            assert service.stats()["query"]["count"] == 4
        with pytest.raises(TypeError):
            ServingIndex(factory, latency_window=4)


# ----------------------------------------------------------------------
# Every serving family through the shared paths.
# ----------------------------------------------------------------------


def _script(entities):
    """Adds, removes and a compaction; returns the surviving profiles."""
    ops = [("add", p) for p in entities[:7]]
    ops += [("remove", entities[1]), ("compact", None)]
    ops += [("remove", entities[4]), ("add", entities[7])]
    live = [p for p in entities[:8] if p not in (entities[1], entities[4])]
    return ops, live


def _run_script(service, ops):
    for kind, profile in ops:
        if kind == "add":
            service.add(profile)
        elif kind == "remove":
            service.remove(profile.uid)
        else:
            service.compact()


@pytest.mark.parametrize("code", registry.incremental_codes())
def test_family_answers_match_rebuild_after_mutations(code):
    entities = pool(10, seed=21)
    ops, live = _script(entities)
    direct = registry.get(code).build_incremental()
    for profile in live:
        direct.add(profile)
    with registry.build_serving(code) as service:
        _run_script(service, ops)
        assert [p.uid for p in service.catalog()] == [p.uid for p in live]
        single = tuple(service.query(probe) for probe in entities)
        batched, info = service.query_many(entities, info=True)
        assert info.applied == len(ops)
    assert single == batched == direct.query_many(entities)


@pytest.mark.parametrize("code", registry.incremental_codes())
def test_family_recovers_from_wal_alone(code, tmp_path):
    entities = pool(10, seed=21)
    ops, live = _script(entities)
    service = registry.build_serving(code, directory=tmp_path)
    try:
        _run_script(service, ops)
        expected = service.query_many(entities)
    finally:
        service.close(checkpoint=False)
    assert not (tmp_path / "checkpoint.json").exists()
    with registry.build_serving(code, directory=tmp_path) as service:
        assert [p.uid for p in service.catalog()] == [p.uid for p in live]
        assert service.query_many(entities) == expected
        # Recovery re-applies the logged adds and removes, not compaction.
        assert service.health()["durable_seq"] == len(ops) - 1
    checkpoint = json.loads((tmp_path / "checkpoint.json").read_text())
    assert [item["uid"] for item in checkpoint["entities"]] == [
        p.uid for p in live
    ]
