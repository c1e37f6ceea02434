"""Unit tests for the fault-tolerant serving layer.

Covers each guarantee of :mod:`repro.core.serving` in isolation: WAL
append/replay with torn tails, checkpoint round-trips, snapshot pinning,
synchronous admission validation, backpressure, cooperative deadlines,
retry/degradation, the health/stats surface, and the registry's serving
entry points.  The concurrent/chaos evidence lives in
``test_serving_chaos.py``.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.bench.resilience import (
    CellDeadlineExceeded,
    FaultInjector,
    TransientError,
)
from repro.core import registry
from repro.core.incremental import (
    Operation,
    _smoke_pool,
    random_operations,
    replay_check,
)
from repro.core.profile import EntityProfile
from repro.core.serving import (
    MutationTicket,
    ServingClosed,
    ServingIndex,
    ServingOverloaded,
    ServingUnavailable,
    WriteAheadLog,
    chaos_replay_check,
)
from repro.sparse.scancount import IncrementalScanCountFilter


def factory():
    return IncrementalScanCountFilter(threshold=0.3)


def pool(size=10, seed=0):
    return _smoke_pool(size, seed=seed)


# ----------------------------------------------------------------------
# Write-ahead log.
# ----------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(WriteAheadLog.record_for("add", 1, uid="a", attributes={}))
        wal.append(WriteAheadLog.record_for("remove", 2, uid="a"))
        wal.close()
        records, clean = WriteAheadLog.replay(path)
        assert [r["op"] for r in records] == ["add", "remove"]
        assert [r["seq"] for r in records] == [1, 2]
        assert clean == path.stat().st_size

    def test_replay_missing_file(self, tmp_path):
        assert WriteAheadLog.replay(tmp_path / "absent.jsonl") == ([], 0)

    def test_torn_tail_is_dropped_without_sentinel(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(WriteAheadLog.record_for("add", 1, uid="a", attributes={}))
        wal.append(
            WriteAheadLog.record_for(
                "add", 2, uid="b", attributes={"name": "x"}
            )
        )
        wal.close()
        data = path.read_bytes()
        # Tear the final record in half: the attribute map is truncated,
        # so the end sentinel is gone and the record must be dropped.
        path.write_bytes(data[: len(data) - 14])
        records, clean = WriteAheadLog.replay(path)
        assert [r["seq"] for r in records] == [1]
        assert clean < path.stat().st_size
        # The clean prefix is exactly the surviving full line.
        assert path.read_bytes()[:clean].endswith(b"\n")

    def test_torn_newline_only_is_salvaged(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(WriteAheadLog.record_for("add", 1, uid="a", attributes={}))
        wal.close()
        # Drop only the trailing newline: the record itself is complete
        # (sentinel intact) and must be kept.
        data = path.read_bytes()
        path.write_bytes(data.rstrip(b"\n"))
        records, clean = WriteAheadLog.replay(path)
        assert [r["seq"] for r in records] == [1]
        assert clean == path.stat().st_size

    def test_non_monotonic_seq_truncates(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        lines = [
            json.dumps({"seq": 1, "op": "add", "uid": "a",
                        "attributes": {}, "~end": 1}),
            json.dumps({"seq": 1, "op": "add", "uid": "b",
                        "attributes": {}, "~end": 1}),
        ]
        path.write_text("\n".join(lines) + "\n")
        records, clean = WriteAheadLog.replay(path)
        assert [r["uid"] for r in records] == ["a"]
        assert clean == len(lines[0]) + 1

    def test_garbage_line_ends_replay(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        good = json.dumps({"seq": 1, "op": "add", "uid": "a",
                           "attributes": {}, "~end": 1})
        path.write_text(good + "\n{{{{not json\n")
        records, clean = WriteAheadLog.replay(path)
        assert len(records) == 1
        assert clean == len(good) + 1


# ----------------------------------------------------------------------
# Serving basics: mutations, queries, snapshots.
# ----------------------------------------------------------------------


class TestServingBasics:
    def test_add_query_remove(self):
        entities = pool()
        with ServingIndex(factory) as service:
            for profile in entities[:5]:
                ticket = service.add(profile)
                assert ticket.done and ticket.error is None
            assert len(service) == 5
            assert entities[0].uid in service
            direct = factory()
            for profile in entities[:5]:
                direct.add(profile)
            for probe in entities:
                assert service.query(probe) == direct.query(probe)
            service.remove(entities[1].uid)
            direct.remove(entities[1].uid)
            assert service.query(entities[1]) == direct.query(entities[1])

    def test_query_many_matches_query(self):
        entities = pool()
        with ServingIndex(factory) as service:
            for profile in entities[:6]:
                service.add(profile)
            batched, info = service.query_many(entities, info=True)
            assert batched == tuple(service.query(p) for p in entities)
            assert info.applied == 6

    def test_epoch_advances_and_snapshot_info(self):
        entities = pool()
        with ServingIndex(factory) as service:
            __, before = service.query_many([entities[0]], info=True)
            service.add(entities[0])
            __, after = service.query_many([entities[0]], info=True)
            assert after.epoch > before.epoch
            assert after.applied == before.applied + 1

    def test_duplicate_add_raises_synchronously(self):
        entities = pool()
        with ServingIndex(factory) as service:
            service.add(entities[0])
            with pytest.raises(ValueError, match="duplicate uid"):
                service.add(entities[0])
            # Admission-time validation: even unacknowledged admits count.
            service.remove(entities[0].uid)
            service.add(entities[0])

    def test_unknown_remove_raises_synchronously(self):
        with ServingIndex(factory) as service:
            with pytest.raises(KeyError):
                service.remove("nope")

    def test_compact_is_a_snapshot_swap(self):
        entities = pool()
        with ServingIndex(factory) as service:
            for profile in entities[:6]:
                service.add(profile)
            before = tuple(service.query(p) for p in entities)
            __, info_before = service.query_many([entities[0]], info=True)
            service.compact()
            __, info_after = service.query_many([entities[0]], info=True)
            assert info_after.epoch > info_before.epoch
            assert tuple(service.query(p) for p in entities) == before
            stats = service.health()["index"]
            assert stats["compactions"] >= 1

    def test_catalog_preserves_insertion_order(self):
        entities = pool()
        with ServingIndex(factory) as service:
            for profile in entities[:4]:
                service.add(profile)
            service.remove(entities[1].uid)
            assert [p.uid for p in service.catalog()] == [
                entities[0].uid, entities[2].uid, entities[3].uid,
            ]

    def test_closed_service_refuses_work(self):
        service = ServingIndex(factory)
        service.close()
        with pytest.raises(ServingClosed):
            service.add(pool()[0])
        with pytest.raises(ServingClosed):
            service.query(pool()[0])
        with pytest.raises(ServingClosed):
            service.query_many(pool()[:2])
        service.close()  # idempotent

    def test_wait_false_returns_pending_ticket(self):
        entities = pool()
        with ServingIndex(factory) as service:
            ticket = service.add(entities[0], wait=False)
            assert isinstance(ticket, MutationTicket)
            ticket.wait()
            assert ticket.epoch is not None and ticket.seq is None


# ----------------------------------------------------------------------
# Backpressure and deadlines.
# ----------------------------------------------------------------------


class TestOverloadAndDeadlines:
    def test_queue_full_raises_overloaded_with_retry_after(self):
        entities = pool(30)
        # Stall the writer with an injected delay so the queue fills.
        injector = FaultInjector.from_spec("delay:serving/publish:0.3:1")
        with injector.installed():
            with ServingIndex(factory, queue_limit=2, batch_limit=1) as svc:
                svc.add(entities[0], wait=False)
                time.sleep(0.05)  # let the writer pick up + stall
                svc.add(entities[1], wait=False)
                svc.add(entities[2], wait=False)
                with pytest.raises(ServingOverloaded) as excinfo:
                    svc.add(entities[3], wait=False)
                assert excinfo.value.retry_after > 0
                # close() (via the context manager) drains the queue, so
                # the admitted ops still land despite the rejection.
            assert svc.health()["queue_depth"] == 0

    def test_overload_does_not_leak_admission_state(self):
        entities = pool()
        injector = FaultInjector.from_spec("delay:serving/publish:0.2:1")
        with injector.installed():
            with ServingIndex(factory, queue_limit=1, batch_limit=1) as svc:
                svc.add(entities[0], wait=False)
                time.sleep(0.05)
                svc.add(entities[1], wait=False)
                with pytest.raises(ServingOverloaded):
                    svc.add(entities[2], wait=False)
                # The rejected uid was rolled back from the admitted set.
                assert entities[2].uid not in svc
        with ServingIndex(factory) as svc:
            svc.add(entities[2])
            assert entities[2].uid in svc

    @pytest.mark.parametrize("read", ["query", "query_many"])
    def test_query_deadline_cooperative(self, read):
        entities = pool()
        with ServingIndex(factory, default_timeout=30.0) as service:
            service.add(entities[0])
            call = getattr(service, read)
            probe = entities[0] if read == "query" else entities[:1]
            assert call(probe, timeout=10.0)  # plenty
            with pytest.raises(CellDeadlineExceeded):
                call(probe, timeout=-1.0)

    @pytest.mark.parametrize("kind", ["add", "remove", "compact"])
    def test_mutation_wait_deadline(self, kind):
        entities = pool()
        injector = FaultInjector.from_spec("delay:serving/publish:0.4:1")
        with ServingIndex(factory, batch_limit=1) as service:
            service.add(entities[1])
            with injector.installed():
                ticket = service.add(entities[0], wait=False)
                time.sleep(0.02)
                with pytest.raises(CellDeadlineExceeded):
                    if kind == "add":
                        service.add(entities[2], timeout=0.05)
                    elif kind == "remove":
                        service.remove(entities[1].uid, timeout=0.05)
                    else:
                        service.compact(timeout=0.05)
                ticket.wait()  # eventually lands


# ----------------------------------------------------------------------
# Retries and degradation.
# ----------------------------------------------------------------------


class TestFaultHandling:
    def test_transient_fault_is_retried_idempotently(self):
        entities = pool()
        # Fault fires on the add stage *exit*: the mutation has already
        # landed, so the retry must detect it and not double-apply.
        injector = FaultInjector.from_spec("raise:add:RuntimeError:2")
        with injector.installed():
            with ServingIndex(
                factory,
                transient_errors=(RuntimeError,),
                max_retries=3,
                backoff=0.001,
            ) as service:
                service.add(entities[0])
                service.add(entities[1])
                assert len(service) == 2
                direct = factory()
                direct.add(entities[0])
                direct.add(entities[1])
                assert service.query(entities[0]) == direct.query(entities[0])

    def test_permanent_fault_wedges_but_reads_survive(self):
        entities = pool()
        service = ServingIndex(
            factory,
            transient_errors=(RuntimeError,),
            max_retries=1,
            backoff=0.001,
        )
        service.add(entities[0])
        expected = service.query(entities[0])
        injector = FaultInjector.from_spec("raise:add:RuntimeError:99")
        with injector.installed():
            with pytest.raises(ServingUnavailable):
                service.add(entities[1])
        # Degraded: mutations refused, queries still answered from the
        # last published snapshot — with the pre-wedge content intact.
        health = service.health()
        assert health["status"] == "degraded"
        assert health["error"]
        assert service.query(entities[0]) == expected
        with pytest.raises(ServingUnavailable):
            service.add(entities[2])
        service.close()
        assert not service._writer.is_alive()

    def test_wedge_fails_outstanding_tickets(self):
        entities = pool()
        injector = FaultInjector.from_spec("raise:add:MemoryError:99")
        with injector.installed():
            service = ServingIndex(
                factory,
                transient_errors=(MemoryError,),
                max_retries=0,
                batch_limit=1,
            )
            tickets = [service.add(p, wait=False) for p in entities[:4]]
            with pytest.raises(ServingUnavailable):
                for ticket in tickets:
                    ticket.wait()
            service.close()


# ----------------------------------------------------------------------
# Durability: WAL + checkpoint recovery.
# ----------------------------------------------------------------------


class TestDurability:
    def test_restart_recovers_byte_identically(self, tmp_path):
        entities = pool()
        with ServingIndex(factory, directory=tmp_path) as service:
            for profile in entities[:6]:
                service.add(profile)
            service.remove(entities[2].uid)
            expected = tuple(service.query(p) for p in entities)
        with ServingIndex(factory, directory=tmp_path) as service:
            assert tuple(service.query(p) for p in entities) == expected
            assert len(service) == 5

    def test_checkpoint_truncates_wal(self, tmp_path):
        entities = pool()
        with ServingIndex(
            factory, directory=tmp_path, checkpoint_every=2, batch_limit=1
        ) as service:
            for profile in entities[:5]:
                service.add(profile)
            expected = tuple(service.query(p) for p in entities)
            deadline = time.monotonic() + 5.0
            while (
                service._applied_since_checkpoint >= 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        checkpoint = json.loads((tmp_path / "checkpoint.json").read_text())
        assert checkpoint["seq"] >= 2
        assert checkpoint["~end"] == 1
        with ServingIndex(factory, directory=tmp_path) as service:
            assert tuple(service.query(p) for p in entities) == expected

    def test_recovery_replays_torn_tail(self, tmp_path):
        entities = pool()
        with ServingIndex(factory, directory=tmp_path) as service:
            for profile in entities[:4]:
                service.add(profile)
            expected = tuple(service.query(p) for p in entities)
        wal = tmp_path / "wal.jsonl"
        # close() checkpoints; force a WAL-only recovery with a torn
        # tail by rebuilding the log from the checkpointed catalog.
        checkpoint = json.loads((tmp_path / "checkpoint.json").read_text())
        (tmp_path / "checkpoint.json").unlink()
        lines = []
        for seq, item in enumerate(checkpoint["entities"], start=1):
            lines.append(json.dumps(
                {"seq": seq, "op": "add", "uid": item["uid"],
                 "attributes": item["attributes"], "~end": 1}
            ))
        torn = json.dumps(
            {"seq": len(lines) + 1, "op": "add", "uid": "torn",
             "attributes": {"name": "never fully written"}, "~end": 1}
        )[:-20]
        wal.write_text("\n".join(lines) + "\n" + torn)
        with ServingIndex(factory, directory=tmp_path) as service:
            # The torn add never happened; the rest recovered.
            assert "torn" not in service
            assert tuple(service.query(p) for p in entities) == expected
            # Appending after recovery extends a *clean* log.
            service.add(entities[5])
        records, clean = WriteAheadLog.replay(wal)
        assert clean == wal.stat().st_size or not wal.exists()

    def test_corrupt_checkpoint_is_quarantined(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text('{"seq": 1, "entit')
        with ServingIndex(factory, directory=tmp_path) as service:
            assert len(service) == 0
        assert (tmp_path / "checkpoint.json.corrupt").exists()

    def test_acknowledged_means_durable(self, tmp_path):
        entities = pool()
        service = ServingIndex(factory, directory=tmp_path)
        try:
            ticket = service.add(entities[0])
            assert ticket.seq is not None
        finally:
            # Close WITHOUT checkpointing: the WAL alone must carry it.
            service.close(checkpoint=False)
        records, __ = WriteAheadLog.replay(tmp_path / "wal.jsonl")
        assert [r["uid"] for r in records] == [entities[0].uid]


# ----------------------------------------------------------------------
# Health and stats surface.
# ----------------------------------------------------------------------


class TestHealthStats:
    def test_health_fields(self):
        entities = pool()
        with ServingIndex(factory) as service:
            service.add(entities[0])
            health = service.health()
            assert health["status"] == "ok"
            assert health["epoch"] >= 1
            assert health["applied_ops"] == 1
            assert health["live"] == 1
            assert health["queue_depth"] == 0
            assert health["writer_alive"] is True
            assert health["wal"] is None
            assert health["log_lag"] is None
            assert health["index"]["live"] == 1

    def test_log_lag_counts_ops_since_checkpoint(self, tmp_path):
        entities = pool()
        with ServingIndex(
            factory, directory=tmp_path, checkpoint_every=3
        ) as service:
            for profile in entities[:5]:
                service.add(profile)
            # The third add checkpointed; two acked adds follow it.
            assert service.health()["log_lag"] == 2

    def test_stats_latency_quantiles(self):
        entities = pool()
        with ServingIndex(factory) as service:
            for profile in entities[:4]:
                service.add(profile)
            for __ in range(5):
                service.query(entities[0])
            stats = service.stats()
            for kind in ("add", "query"):
                block = stats[kind]
                assert block["count"] > 0
                assert block["p50_ms"] <= block["p99_ms"]
            assert stats["query"]["count"] == 5
            assert "trace" in stats

    def test_closed_status(self):
        service = ServingIndex(factory)
        service.close()
        assert service.health()["status"] == "closed"


# ----------------------------------------------------------------------
# The chaos oracle helper (single-threaded sanity; concurrency in
# test_serving_chaos.py) and the replay_check divergence report.
# ----------------------------------------------------------------------


class _LeakyScanCount(IncrementalScanCountFilter):
    """A deliberately broken index: removed entities stay queryable.

    The leak keeps the profile bookkeeping intact so the divergence
    surfaces as a *spurious result* (the oracle's AssertionError), not a
    crash — exactly the failure mode the replay report must localize.
    """

    def remove(self, uid):
        slot = self._slot_of_uid.pop(uid)
        return self._profile_of_slot[slot]


class TestOracle:
    def test_chaos_replay_check_passes_healthy_index(self):
        entities = pool()
        rng = np.random.default_rng(5)
        operations = random_operations(entities, rng, 24)
        checked = chaos_replay_check(
            factory, operations, readers=1, queries_per_reader=3, seed=5
        )
        assert checked > 0

    def test_chaos_replay_check_detects_divergence(self):
        entities = pool()
        operations = [
            Operation("add", profile=entities[0]),
            Operation("add", profile=entities[1]),
            Operation("remove", uid=entities[0].uid),
            Operation("query", profile=entities[0]),
        ]
        with pytest.raises(AssertionError, match="divergence"):
            chaos_replay_check(
                lambda: _LeakyScanCount(threshold=0.1),
                operations,
                readers=0,
                seed=2,
            )

    def test_replay_check_reports_operation_index_and_repr(self):
        # Satellite: a divergence report must carry the failing op's
        # index and repr so chaos failures are reproducible.
        entities = pool()
        operations = [
            Operation("add", profile=entities[0]),
            Operation("add", profile=entities[1]),
            Operation("remove", uid=entities[0].uid),
            Operation("query", profile=entities[0]),
        ]
        with pytest.raises(AssertionError) as excinfo:
            replay_check(lambda: _LeakyScanCount(threshold=0.1), operations)
        message = str(excinfo.value)
        assert "operation index 3/4" in message
        assert "Operation(" in message and "query" in message


# ----------------------------------------------------------------------
# Registry integration.
# ----------------------------------------------------------------------


class TestRegistryServing:
    @pytest.mark.parametrize("code", registry.incremental_codes())
    def test_build_serving_round_trip(self, code):
        entities = pool(6, seed=11)
        with registry.build_serving(code) as service:
            assert isinstance(service, ServingIndex)
            for profile in entities[:4]:
                service.add(profile)
            direct = registry.get(code).build_incremental()
            for profile in entities[:4]:
                direct.add(profile)
            for probe in entities:
                assert service.query(probe) == direct.query(probe)
            assert service.health()["status"] == "ok"

    def test_build_serving_rejects_batch_only_methods(self):
        for spec in registry.all_specs():
            if not spec.supports_incremental:
                with pytest.raises(ValueError, match="no incremental"):
                    spec.build_serving()
                break
