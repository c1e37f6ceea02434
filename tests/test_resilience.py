"""The resilience layer: budgets, taxonomy, crash-safe cache, injection.

Covers the guarantees of ``repro.bench.resilience`` end to end:

* per-cell policies — wall-clock deadlines (watchdog + cooperative
  checks), RSS budgets, bounded retry-with-backoff;
* the failure taxonomy degrading cells to "-" instead of aborting runs;
* atomic cache writes, corruption quarantine + prefix salvage, tolerant
  schema loading, and batched saves;
* the deterministic fault injector (raise / delay / allocate / crash).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.bench import resilience
from repro.bench.harness import (
    CACHE_SCHEMA_VERSION,
    CellResult,
    ExperimentMatrix,
    SettingKey,
)
from repro.bench.resilience import (
    CellDeadlineExceeded,
    CellStatus,
    Deadline,
    ExecutionPolicy,
    FaultInjector,
    FaultPlan,
    MemoryBudgetExceeded,
    TransientError,
    atomic_write_json,
    run_guarded,
    salvage_json_prefix,
)
from repro.core import stages
from repro.core.stages import StageTrace
from repro.tuning.result import TunedResult


HAVE_SIGALRM = hasattr(signal, "SIGALRM")


@pytest.fixture(autouse=True)
def _no_leaked_hooks():
    """Every test must leave the global stage-hook registry clean."""
    before = list(stages._STAGE_HOOKS)
    yield
    assert stages._STAGE_HOOKS == before, "test leaked a stage hook"


def fake_tuned(method="kNNJ"):
    return TunedResult(
        method=method, params={"k": 2}, pc=0.95, pq=0.5,
        candidates=10, runtime=0.01, feasible=True, configurations_tried=1,
    )


def make_matrix(tmp_path, monkeypatch=None, compute=None, **kwargs):
    """A tiny matrix; with ``compute`` set, tuning is stubbed out."""
    kwargs.setdefault("methods", ["kNNJ"])
    kwargs.setdefault("datasets", ["d1"])
    kwargs.setdefault("cache_path", tmp_path / "matrix.json")
    kwargs.setdefault("injector", FaultInjector([]))
    matrix = ExperimentMatrix(**kwargs)
    if compute is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(
            ExperimentMatrix,
            "_compute",
            lambda self, key: compute(key),
        )
    return matrix


# ----------------------------------------------------------------------
# run_guarded: retry, classification, strictness.
# ----------------------------------------------------------------------


class TestRunGuarded:
    def test_success_passes_value_through(self):
        outcome = run_guarded(lambda: 42, ExecutionPolicy())
        assert outcome.ok
        assert outcome.value == 42
        assert outcome.status == CellStatus.OK
        assert outcome.attempts == 1

    def test_transient_error_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("hiccup")
            return "done"

        policy = ExecutionPolicy(max_retries=2, backoff=0.01)
        sleeps = []
        outcome = run_guarded(flaky, policy, sleep=sleeps.append)
        assert outcome.ok
        assert outcome.value == "done"
        assert outcome.attempts == 3
        # Exponential backoff: base, then doubled.
        assert sleeps == [0.01, 0.02]

    def test_retries_are_bounded_then_error(self):
        calls = []

        def always_fails():
            calls.append(1)
            raise TransientError("persistent")

        policy = ExecutionPolicy(max_retries=2, backoff=0.0)
        outcome = run_guarded(always_fails, policy, sleep=lambda s: None)
        assert not outcome.ok
        assert outcome.status == CellStatus.ERROR
        assert outcome.attempts == 3  # initial + exactly max_retries
        assert len(calls) == 3
        assert "persistent" in outcome.error

    def test_zero_retries_fails_immediately(self):
        policy = ExecutionPolicy(max_retries=0)
        outcome = run_guarded(
            lambda: (_ for _ in ()).throw(TransientError("x")),
            policy,
            sleep=lambda s: None,
        )
        assert outcome.status == CellStatus.ERROR
        assert outcome.attempts == 1

    def test_nontransient_error_never_retries(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("bug")

        outcome = run_guarded(broken, ExecutionPolicy(max_retries=5))
        assert outcome.status == CellStatus.ERROR
        assert len(calls) == 1
        assert outcome.error == "ValueError: bug"

    def test_memory_error_is_oom(self):
        def hog():
            raise MemoryError("boom")

        outcome = run_guarded(hog, ExecutionPolicy())
        assert outcome.status == CellStatus.OOM

    def test_custom_transient_types(self):
        policy = ExecutionPolicy(
            max_retries=1, backoff=0.0, transient_errors=(ConnectionError,)
        )
        calls = []

        def flaky():
            calls.append(1)
            raise ConnectionError("net")

        outcome = run_guarded(flaky, policy, sleep=lambda s: None)
        assert outcome.status == CellStatus.ERROR
        assert len(calls) == 2

    def test_strict_reraises(self):
        policy = ExecutionPolicy(strict=True)
        with pytest.raises(ValueError):
            run_guarded(
                lambda: (_ for _ in ()).throw(ValueError("bug")), policy
            )

    def test_strict_reraises_after_bounded_retries(self):
        calls = []

        def always_fails():
            calls.append(1)
            raise TransientError("persistent")

        policy = ExecutionPolicy(max_retries=1, backoff=0.0, strict=True)
        with pytest.raises(TransientError):
            run_guarded(always_fails, policy, sleep=lambda s: None)
        assert len(calls) == 2

    def test_keyboard_interrupt_propagates(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_guarded(interrupted, ExecutionPolicy())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(timeout=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ExecutionPolicy(backoff=-0.1)


# ----------------------------------------------------------------------
# Deadlines: cooperative checks and the SIGALRM watchdog.
# ----------------------------------------------------------------------


class TestDeadline:
    def test_check_raises_after_expiry(self):
        deadline = Deadline(0.0001)
        time.sleep(0.01)
        assert deadline.expired
        with pytest.raises(CellDeadlineExceeded):
            deadline.check()

    def test_cooperative_timeout_at_stage_boundary(self):
        """A loop entering stages is cut off without any signal."""

        def looping():
            trace = StageTrace()
            for _ in range(10_000):
                with trace.stage("query"):
                    time.sleep(0.005)

        policy = ExecutionPolicy(timeout=0.05)
        start = time.monotonic()
        outcome = run_guarded(looping, policy)
        elapsed = time.monotonic() - start
        assert outcome.status == CellStatus.TIMEOUT
        assert elapsed < 5.0

    @pytest.mark.skipif(not HAVE_SIGALRM, reason="needs POSIX signals")
    def test_watchdog_interrupts_noncooperative_hang(self):
        policy = ExecutionPolicy(timeout=0.1)
        start = time.monotonic()
        outcome = run_guarded(lambda: time.sleep(30), policy)
        elapsed = time.monotonic() - start
        assert outcome.status == CellStatus.TIMEOUT
        assert elapsed < 5.0

    @pytest.mark.skipif(not HAVE_SIGALRM, reason="needs POSIX signals")
    def test_watchdog_restores_previous_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        run_guarded(lambda: None, ExecutionPolicy(timeout=5.0))
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_run_guarded_times_out_from_worker_thread(self):
        """Satellite regression: guards must work off the main thread.

        SIGALRM handlers can only be installed from the main thread; a
        serving/reader thread running a guarded cell must degrade to
        cooperative stage-boundary checks instead of crashing with
        ``ValueError: signal only works in main thread``.
        """

        def looping():
            trace = StageTrace()
            for _ in range(10_000):
                with trace.stage("query"):
                    time.sleep(0.005)

        outcomes = []

        def worker():
            outcomes.append(run_guarded(looping, ExecutionPolicy(timeout=0.05)))

        thread = threading.Thread(target=worker)
        start = time.monotonic()
        thread.start()
        thread.join(timeout=30.0)
        elapsed = time.monotonic() - start
        assert not thread.is_alive()
        assert len(outcomes) == 1
        # The cooperative fallback cut the loop off; no signal error.
        assert outcomes[0].status == CellStatus.TIMEOUT
        assert "signal" not in outcomes[0].error.lower()
        assert elapsed < 5.0

    def test_alarm_watchdog_noop_off_main_thread(self):
        """The watchdog context itself must be inert in worker threads."""
        errors = []

        def worker():
            try:
                with resilience._alarm_watchdog(Deadline(0.01)):
                    time.sleep(0.05)  # longer than the deadline
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10.0)
        # No SIGALRM fired, no ValueError from signal.signal: the sleep
        # ran to completion and cooperative checks are the caller's job.
        assert errors == []

    def test_deadline_spans_retries(self):
        """Backoff pauses draw from the same cell budget."""
        policy = ExecutionPolicy(timeout=0.2, max_retries=50, backoff=0.5)
        outcome = run_guarded(
            lambda: (_ for _ in ()).throw(TransientError("x")),
            policy,
            sleep=time.sleep,
        )
        # The first backoff (0.5s) already exceeds the 0.2s budget.
        assert outcome.status == CellStatus.TIMEOUT
        assert outcome.attempts == 1


class TestMemoryBudget:
    def test_budget_breach_detected_at_boundary(self, monkeypatch):
        monkeypatch.setattr(resilience, "current_rss_mb", lambda: 4096.0)

        def works():
            trace = StageTrace()
            with trace.stage("index"):
                pass

        policy = ExecutionPolicy(memory_budget_mb=1024.0)
        outcome = run_guarded(works, policy)
        assert outcome.status == CellStatus.OOM
        assert "4096" in outcome.error

    def test_generous_budget_passes(self):
        policy = ExecutionPolicy(memory_budget_mb=1 << 20)
        outcome = run_guarded(lambda: "fine", policy)
        assert outcome.ok

    def test_current_rss_is_positive_here(self):
        assert resilience.current_rss_mb() > 0


# ----------------------------------------------------------------------
# Atomic writes and corruption recovery.
# ----------------------------------------------------------------------


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        target = tmp_path / "deep" / "cache.json"
        atomic_write_json(target, {"a": 1})
        assert json.loads(target.read_text()) == {"a": 1}

    def test_overwrite_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "cache.json"
        for i in range(3):
            atomic_write_json(target, {"i": i})
        assert json.loads(target.read_text()) == {"i": 2}
        assert os.listdir(tmp_path) == ["cache.json"]

    def test_failed_write_keeps_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "cache.json"
        atomic_write_json(target, {"old": True})

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(resilience.os, "replace", explode)
        with pytest.raises(OSError):
            atomic_write_json(target, {"new": True})
        monkeypatch.undo()
        # Old content intact, temp file cleaned up.
        assert json.loads(target.read_text()) == {"old": True}
        assert os.listdir(tmp_path) == ["cache.json"]


class TestSalvage:
    FULL = {
        "a|d1|a": {"method": "a", "pc": 0.9},
        "b|d1|a": {"method": "b", "params": {"k": [1, 2]}},
        "c|d1|a": {"method": "c", "note": "x,}{\"y\""},
    }

    def test_complete_document_fully_recovered(self):
        text = json.dumps(self.FULL, indent=1)
        assert salvage_json_prefix(text) == self.FULL

    def test_every_truncation_yields_a_prefix(self):
        """For any cut point: no crash, and a subset of the real entries."""
        text = json.dumps(self.FULL, indent=1)
        seen_counts = set()
        for cut in range(len(text)):
            recovered = salvage_json_prefix(text[:cut], depth=0)
            for key, value in recovered.items():
                assert self.FULL[key] == value
            seen_counts.add(len(recovered))
        assert seen_counts == {0, 1, 2, 3}

    def test_truncated_wrapper_salvages_nested_cells(self):
        """The versioned wrapper's chopped "cells" value is recovered."""
        text = json.dumps({"schema": 2, "cells": self.FULL}, indent=1)
        # Cut inside the third cell: the two finished cells survive, the
        # half-written one is dropped whole (depth stops at the cells).
        cut = text.index('"c|d1|a"') + 20
        recovered = salvage_json_prefix(text[:cut])
        assert recovered["schema"] == 2
        assert recovered["cells"] == {
            "a|d1|a": self.FULL["a|d1|a"],
            "b|d1|a": self.FULL["b|d1|a"],
        }

    def test_garbage_yields_empty(self):
        assert salvage_json_prefix("not json at all") == {}
        assert salvage_json_prefix("") == {}
        assert salvage_json_prefix("[1, 2, 3]") == {}

    def test_quarantine_moves_file(self, tmp_path):
        bad = tmp_path / "matrix.json"
        bad.write_text("{corrupt")
        moved = resilience.quarantine(bad)
        assert not bad.exists()
        assert moved is not None and moved.read_text() == "{corrupt"


class TestCacheRecovery:
    def _cells(self, n):
        return {
            f"m{i}|d1|a": {
                "method": f"m{i}", "dataset": "d1", "setting": "a",
                "pc": 0.9, "pq": 0.5, "candidates": 7, "runtime": 0.1,
                "feasible": True, "params": {}, "configurations_tried": 3,
                "status": "ok", "error": "", "attempts": 1,
            }
            for i in range(n)
        }

    def test_truncated_cache_recovers_completed_cells(self, tmp_path):
        """kill -9 between writes: next load keeps every finished cell."""
        path = tmp_path / "matrix.json"
        payload = {"schema": CACHE_SCHEMA_VERSION, "cells": self._cells(6)}
        atomic_write_json(path, payload)
        text = path.read_text()
        # Chop mid-way through the last cell: simulates the torn write
        # the old non-atomic saver could produce.
        path.write_text(text[: int(len(text) * 0.9)])

        matrix = make_matrix(tmp_path)
        # At least the cells before the torn tail survive.
        assert len(matrix._results) >= 5
        for key, cell in matrix._results.items():
            assert cell.ok
            assert cell.pc == 0.9
        # The corrupt original is quarantined and the cache re-stamped.
        assert (tmp_path / "matrix.json.corrupt").exists()
        restamped = json.loads(path.read_text())
        assert restamped["schema"] == CACHE_SCHEMA_VERSION
        assert len(restamped["cells"]) == len(matrix._results)

    def test_legacy_flat_schema_loads_and_restamps(self, tmp_path):
        path = tmp_path / "matrix.json"
        legacy = {
            "kNNJ|d1|a": {
                "method": "kNNJ", "dataset": "d1", "setting": "a",
                "pc": 0.95, "pq": 0.5, "candidates": 10, "runtime": 0.2,
                "feasible": True, "params": {"k": 2},
                "configurations_tried": 4,
            }
        }
        path.write_text(json.dumps(legacy))
        matrix = make_matrix(tmp_path)
        cell = matrix.get("kNNJ", "d1", "a")
        assert cell is not None and cell.pc == 0.95
        assert cell.status == CellStatus.OK  # default stamped in
        restamped = json.loads(path.read_text())
        assert restamped["schema"] == CACHE_SCHEMA_VERSION

    def test_unknown_keys_dropped_known_loaded(self, tmp_path):
        path = tmp_path / "matrix.json"
        foreign = {
            "kNNJ|d1|a": {
                "method": "kNNJ", "dataset": "d1", "setting": "a",
                "pc": 0.9, "from_the_future": [1, 2, 3],
            },
            "junk": "not a mapping",
            "nokey|d1|a": {"pc": 0.5},
        }
        path.write_text(json.dumps(foreign))
        matrix = make_matrix(tmp_path)
        assert set(matrix._results) == {"kNNJ|d1|a"}
        cell = matrix._results["kNNJ|d1|a"]
        assert cell.pc == 0.9
        assert not hasattr(cell, "from_the_future")
        assert cell.candidates == 0  # missing field defaulted

    def test_unrecognized_status_degrades_to_error(self):
        cell = CellResult.from_payload(
            {"method": "m", "dataset": "d1", "setting": "a",
             "status": "vaporized"}
        )
        assert cell is not None
        assert cell.status == CellStatus.ERROR
        assert "vaporized" in cell.error

    def test_empty_and_garbage_files_yield_empty_cache(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text("")
        assert make_matrix(tmp_path)._results == {}
        path.write_text("{totally corrupt")
        assert make_matrix(tmp_path)._results == {}


# ----------------------------------------------------------------------
# The fault injector.
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_spec_parsing(self):
        injector = FaultInjector.from_spec(
            "raise:query; delay:tune/kNNJ:0.5 ;allocate:index:16:2"
        )
        assert [p.action for p in injector.plans] == [
            "raise", "delay", "allocate"
        ]
        assert injector.plans[1].stage == "tune/kNNJ"
        assert injector.plans[1].arg == "0.5"
        assert injector.plans[2].times == 2

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode:query")
        with pytest.raises(ValueError):
            FaultPlan.parse("raise")
        with pytest.raises(ValueError):
            FaultPlan.parse("raise:a:b:c:d")

    def test_from_env(self):
        assert FaultInjector.from_env({}) is None
        injector = FaultInjector.from_env(
            {resilience.FAULT_INJECT_ENV: "raise:query"}
        )
        assert injector is not None and len(injector.plans) == 1

    def test_raise_fires_exactly_times(self):
        injector = FaultInjector([FaultPlan("raise", "query", times=2)])
        trace = StageTrace()
        with injector.installed():
            for _ in range(2):
                with pytest.raises(RuntimeError, match="injected fault"):
                    with trace.stage("query"):
                        pass
            with trace.stage("query"):  # third entry passes through
                pass
            with trace.stage("index"):  # other stages never affected
                pass
        # Denied entries are not recorded; only the successful one is.
        assert trace.record("query").entries == 1

    def test_raise_resolves_exception_name(self):
        injector = FaultInjector(
            [FaultPlan("raise", "*", arg="ConnectionError")]
        )
        with injector.installed():
            with pytest.raises(ConnectionError):
                stages.fire_stage_hooks("enter", "anything")

    def test_delay_sleeps(self, monkeypatch):
        naps = []
        monkeypatch.setattr(resilience.time, "sleep", naps.append)
        injector = FaultInjector([FaultPlan("delay", "query", arg="3.5")])
        with injector.installed():
            stages.fire_stage_hooks("enter", "query")
        assert naps == [3.5]

    def test_allocate_holds_and_releases_ballast(self):
        injector = FaultInjector([FaultPlan("allocate", "index", arg="4")])
        with injector.installed():
            stages.fire_stage_hooks("enter", "index")
            assert sum(len(b) for b in injector._ballast) == 4 << 20
        assert injector._ballast == []

    def test_crash_spec_parses(self):
        plan = FaultPlan.parse("crash:wal/append#6:13")
        assert plan.action == "crash"
        assert plan.stage == "wal/append#6"
        assert plan.arg == "13"

    def test_crash_hard_kills_the_process(self, tmp_path):
        # The crash action is os._exit — no atexit, no finally blocks —
        # so it can only be observed from a sacrificial subprocess.
        script = tmp_path / "victim.py"
        script.write_text(textwrap.dedent(
            """
            from repro.bench.resilience import FaultInjector
            from repro.core import stages

            FaultInjector.from_env().install()
            print("before", flush=True)
            try:
                stages.fire_stage_hooks("enter", "doomed")
            finally:
                print("after", flush=True)  # must NOT run: hard crash
            """
        ))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        )
        env["REPRO_FAULT_INJECT"] = "crash:doomed:42"
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 42
        assert "before" in proc.stdout
        assert "after" not in proc.stdout

    def test_determinism_counters_not_randomness(self):
        """Same plans, same boundaries -> identical fault sequence."""
        def run_once():
            injector = FaultInjector([FaultPlan("raise", "query", times=1)])
            outcomes = []
            with injector.installed():
                for _ in range(4):
                    try:
                        stages.fire_stage_hooks("enter", "query")
                        outcomes.append("ok")
                    except RuntimeError:
                        outcomes.append("fault")
            return outcomes

        assert run_once() == run_once()
        assert run_once()[0] == "fault"


# ----------------------------------------------------------------------
# The matrix under failure: degradation, resumption, batching.
# ----------------------------------------------------------------------


class TestMatrixDegradation:
    def test_injected_hang_times_out_and_run_continues(
        self, tmp_path, monkeypatch
    ):
        """The acceptance scenario: one cell hangs, the rest complete."""

        def compute(key):
            stages.fire_stage_hooks("enter", f"tune/{key.method}")
            return CellResult.from_tuned(key, fake_tuned(key.method))

        matrix = make_matrix(
            tmp_path,
            monkeypatch,
            compute=compute,
            methods=["SBW", "kNNJ", "EJ"],
            datasets=["d5"],  # single schema setting: one cell per method
            policy=ExecutionPolicy(timeout=0.3),
            injector=FaultInjector([FaultPlan("delay", "tune/kNNJ", arg="30")]),
        )
        results = matrix.run_all(verbose=False)
        by_method = {c.method: c for c in results}
        assert by_method["kNNJ"].status == CellStatus.TIMEOUT
        assert by_method["SBW"].ok and by_method["EJ"].ok
        # The failed cell renders as "-" in Table VII, flagged in the note.
        from repro.bench.tables import table07_effectiveness

        table = table07_effectiveness(matrix)
        knnj_row = next(
            line for line in table.splitlines()
            if line.strip().startswith("kNNJ")
        )
        assert knnj_row.split()[1] == "-"
        assert "kNNJ@Da5 [timeout]" in table

    def test_injected_error_recorded_and_cached(self, tmp_path, monkeypatch):
        def compute(key):
            stages.fire_stage_hooks("enter", f"tune/{key.method}")
            return CellResult.from_tuned(key, fake_tuned(key.method))

        matrix = make_matrix(
            tmp_path,
            monkeypatch,
            compute=compute,
            methods=["SBW", "kNNJ"],
            injector=FaultInjector([FaultPlan("raise", "tune/SBW")]),
        )
        matrix.run_all(verbose=False)
        assert matrix.status("SBW", "d1", "a") == CellStatus.ERROR
        assert matrix.get("SBW", "d1", "a") is None
        raw = matrix.get("SBW", "d1", "a", include_failed=True)
        assert raw is not None and "injected fault" in raw.error
        # A fresh matrix over the same cache resumes without re-running.
        resumed = make_matrix(tmp_path, methods=["SBW", "kNNJ"])
        assert resumed.status("SBW", "d1", "a") == CellStatus.ERROR
        assert resumed.get("kNNJ", "d1", "a") is not None

    def test_oom_cell_from_memory_error(self, tmp_path, monkeypatch):
        def compute(key):
            if key.method == "SBW":
                raise MemoryError("cannot allocate")
            return CellResult.from_tuned(key, fake_tuned(key.method))

        matrix = make_matrix(
            tmp_path, monkeypatch, compute=compute, methods=["SBW", "kNNJ"]
        )
        matrix.run_all(verbose=False)
        assert matrix.status("SBW", "d1", "a") == CellStatus.OOM
        assert matrix.get("kNNJ", "d1", "a") is not None

    def test_transient_error_retries_then_records(self, tmp_path, monkeypatch):
        calls = []

        def compute(key):
            calls.append(key.method)
            raise TransientError("flaky backend")

        matrix = make_matrix(
            tmp_path,
            monkeypatch,
            compute=compute,
            policy=ExecutionPolicy(max_retries=2, backoff=0.0),
        )
        cell = matrix.run_cell(SettingKey("kNNJ", "d1", "a"))
        assert cell.status == CellStatus.ERROR
        assert cell.attempts == 3
        assert len(calls) == 3

    def test_strict_policy_reraises(self, tmp_path, monkeypatch):
        def compute(key):
            raise ValueError("bug in tuner")

        matrix = make_matrix(
            tmp_path,
            monkeypatch,
            compute=compute,
            policy=ExecutionPolicy(strict=True),
        )
        with pytest.raises(ValueError):
            matrix.run_cell(SettingKey("kNNJ", "d1", "a"))

    def test_force_reruns_failed_cell(self, tmp_path, monkeypatch):
        attempts = []

        def compute(key):
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("only once")
            return CellResult.from_tuned(key, fake_tuned(key.method))

        matrix = make_matrix(tmp_path, monkeypatch, compute=compute)
        key = SettingKey("kNNJ", "d1", "a")
        assert not matrix.run_cell(key).ok
        assert not matrix.run_cell(key).ok  # cached failure, no re-run
        assert len(attempts) == 1
        assert matrix.run_cell(key, force=True).ok

    def test_run_all_batches_saves(self, tmp_path, monkeypatch):
        writes = []
        real_write = resilience.atomic_write_json

        def counting_write(path, payload, indent=1):
            writes.append(len(payload["cells"]))
            real_write(path, payload, indent)

        monkeypatch.setattr(resilience, "atomic_write_json", counting_write)

        def compute(key):
            return CellResult.from_tuned(key, fake_tuned(key.method))

        matrix = make_matrix(
            tmp_path,
            monkeypatch,
            compute=compute,
            methods=["SBW", "QBW", "EQBW", "SABW", "EJ"],
            datasets=["d5"],  # single schema setting: 5 cells total
            save_every=2,
        )
        matrix.run_all(verbose=False)
        # 5 cells, flush every 2 + final flush: 3 writes, not 5.
        assert writes == [2, 4, 5]
        cached = json.loads((tmp_path / "matrix.json").read_text())
        assert len(cached["cells"]) == 5

    def test_run_all_flushes_on_interrupt(self, tmp_path, monkeypatch):
        def compute(key):
            if key.method == "EQBW":
                raise KeyboardInterrupt
            return CellResult.from_tuned(key, fake_tuned(key.method))

        matrix = make_matrix(
            tmp_path,
            monkeypatch,
            compute=compute,
            methods=["SBW", "QBW", "EQBW"],
            save_every=100,
        )
        with pytest.raises(KeyboardInterrupt):
            matrix.run_all(verbose=False)
        # The two finished cells reached disk despite the huge batch.
        cached = json.loads((tmp_path / "matrix.json").read_text())
        assert set(cached["cells"]) == {"SBW|d1|a", "QBW|d1|a"}

    def test_failures_listing(self, tmp_path, monkeypatch):
        def compute(key):
            raise ValueError("nope")

        matrix = make_matrix(
            tmp_path, monkeypatch, compute=compute, datasets=["d5"]
        )
        matrix.run_all(verbose=False)
        failures = matrix.failures()
        assert [c.status for c in failures] == [CellStatus.ERROR]

    def test_excluded_cell_status(self, tmp_path):
        matrix = make_matrix(tmp_path, methods=["MH-LSH"], datasets=["d10"])
        assert matrix.status("MH-LSH", "d10", "a") == CellStatus.EXCLUDED
        assert list(matrix.cells()) == []


# ----------------------------------------------------------------------
# End-to-end: a real (tiny) tuning pass guarded by the policy.
# ----------------------------------------------------------------------


class TestEndToEnd:
    def test_real_cell_runs_clean_under_guards(self, tmp_path):
        matrix = make_matrix(
            tmp_path,
            policy=ExecutionPolicy(timeout=600, memory_budget_mb=1 << 16),
        )
        cell = matrix.run_cell(SettingKey("kNNJ", "d1", "a"))
        assert cell.ok
        assert cell.pc > 0

    @pytest.mark.skipif(not HAVE_SIGALRM, reason="needs POSIX signals")
    def test_real_tuning_pass_times_out(self, tmp_path):
        from repro.text.memo import clear_tokenize_cache
        from repro.tuning.sparse import clear_overlap_cache

        # Earlier tests warm the process-wide token and overlap memos;
        # warm, a d1 kNN-Join tune can finish inside the deadline, so
        # start cold for the pass to be a real one.
        clear_tokenize_cache()
        clear_overlap_cache()
        matrix = make_matrix(
            tmp_path,
            policy=ExecutionPolicy(timeout=0.05),
        )
        cell = matrix.run_cell(SettingKey("kNNJ", "d1", "a"))
        assert cell.status == CellStatus.TIMEOUT
