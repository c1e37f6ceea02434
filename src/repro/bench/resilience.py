"""Fault tolerance for long experiment-matrix runs.

The paper's headline grids (Tables VII-XI) come out of hours-long
:class:`~repro.bench.harness.ExperimentMatrix` runs over ~400 cells, and
the paper itself reports "-" cells where a method exhausts memory on the
largest dataset.  This module supplies the machinery that lets one bad
cell degrade gracefully instead of killing the run:

* :class:`ExecutionPolicy` — the per-cell execution budget: a wall-clock
  deadline (SIGALRM watchdog on POSIX plus cooperative checks fired at
  every :class:`~repro.core.stages.StageTrace` boundary), an RSS memory
  budget, and bounded retry-with-backoff for transient errors.
* :class:`CellStatus` — the failure taxonomy (``ok / timeout / oom /
  error / excluded``) stamped on every cell result.
* :func:`run_guarded` — runs one cell under a policy and returns a
  :class:`GuardedOutcome` instead of raising (unless the policy is
  strict).
* :func:`atomic_write_json` / :func:`salvage_json_prefix` /
  :func:`quarantine` — crash-safe cache persistence: writes go through a
  tempfile + ``os.replace`` + fsync, and a truncated cache file is
  quarantined and its parseable prefix recovered.
* :class:`FaultInjector` — a deterministic fault-injection harness that
  raises, delays, or allocates at named stage boundaries, driven by the
  ``REPRO_FAULT_INJECT`` environment variable or explicit plans.
"""

from __future__ import annotations

import builtins
import json
import os
import signal
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core import stages

__all__ = [
    "CellStatus",
    "CellDeadlineExceeded",
    "MemoryBudgetExceeded",
    "TransientError",
    "Deadline",
    "ExecutionPolicy",
    "GuardedOutcome",
    "run_guarded",
    "current_rss_mb",
    "atomic_write_json",
    "salvage_json_prefix",
    "quarantine",
    "FaultPlan",
    "FaultInjector",
    "FAULT_INJECT_ENV",
]


# ----------------------------------------------------------------------
# Failure taxonomy.
# ----------------------------------------------------------------------


class CellStatus:
    """How one experiment cell ended.

    Plain string constants (not an enum) so the values serialize into
    the JSON cache and render in tables without conversion.
    """

    OK = "ok"
    TIMEOUT = "timeout"
    OOM = "oom"
    ERROR = "error"
    EXCLUDED = "excluded"

    ALL = frozenset({OK, TIMEOUT, OOM, ERROR, EXCLUDED})
    #: Statuses a cell can carry in the cache (EXCLUDED cells are never
    #: run, so they never materialize as results).
    RECORDED = frozenset({OK, TIMEOUT, OOM, ERROR})


class CellDeadlineExceeded(Exception):
    """The cell's wall-clock deadline expired."""


class MemoryBudgetExceeded(Exception):
    """The process RSS crossed the cell's memory budget."""


class TransientError(Exception):
    """Base class for errors the policy considers retryable."""


# ----------------------------------------------------------------------
# Memory accounting.
# ----------------------------------------------------------------------

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_mb() -> float:
    """Current resident set size in MiB (0.0 when unmeasurable).

    Reads ``/proc/self/statm`` on Linux; falls back to the peak RSS from
    ``getrusage`` elsewhere (a monotone over-estimate, still usable as a
    budget guard).
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            resident_pages = int(fh.read().split()[1])
        return resident_pages * _PAGE_SIZE / (1024 * 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; normalize heuristically.
        return peak / 1024 if peak < 1 << 40 else peak / (1024 * 1024)
    except Exception:
        return 0.0


# ----------------------------------------------------------------------
# Deadlines.
# ----------------------------------------------------------------------


class Deadline:
    """A wall-clock budget with cooperative :meth:`check` points."""

    __slots__ = ("seconds", "_expires")

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)
        self._expires = time.monotonic() + self.seconds

    def remaining(self) -> float:
        return self._expires - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise :class:`CellDeadlineExceeded` once the budget is spent."""
        if self.expired:
            raise CellDeadlineExceeded(
                f"cell exceeded its {self.seconds:.1f}s wall-clock budget"
            )


def _alarm_supported() -> bool:
    """SIGALRM watchdogs need POSIX signals and the main thread."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def _alarm_watchdog(deadline: Deadline) -> Iterator[None]:
    """Arm a SIGALRM that raises the deadline error mid-computation.

    The interval timer interrupts even non-cooperative code (a hung
    ``time.sleep``, a long numpy call returns to the interpreter loop);
    cooperative stage-boundary checks remain the fallback where SIGALRM
    is unavailable (non-POSIX, worker threads).

    Signal handlers can only be installed from the main thread —
    serving/reader threads (:mod:`repro.core.serving`) run policy guards
    too, so non-main-thread use must *degrade*, never raise.  The
    :func:`_alarm_supported` pre-check catches the common case; the
    ``except ValueError`` belt catches the race where the check passes
    in an interpreter that still refuses the handler (subinterpreters,
    exotic platforms), falling back to cooperative checks either way.
    """
    if not _alarm_supported():
        yield
        return

    def _on_alarm(signum, frame):  # pragma: no cover - exercised via raise
        raise CellDeadlineExceeded(
            f"cell exceeded its {deadline.seconds:.1f}s wall-clock budget"
            " (watchdog)"
        )

    remaining = max(deadline.remaining(), 1e-6)
    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # pragma: no cover - main-thread check raced
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# The per-cell execution policy.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionPolicy:
    """Budget and retry rules applied to every experiment cell.

    ``timeout`` and ``memory_budget_mb`` of ``None`` disable the
    respective guard; the default policy therefore behaves exactly like
    an unguarded run, except that unexpected exceptions are captured as
    ``error`` cells instead of aborting the whole matrix.
    """

    timeout: Optional[float] = None
    memory_budget_mb: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.5
    transient_errors: Tuple[type, ...] = (TransientError,)
    strict: bool = False

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")

    def _boundary_check(self, deadline: Optional[Deadline]) -> Callable:
        def check(event: str, name: str) -> None:
            if deadline is not None:
                deadline.check()
            if self.memory_budget_mb is not None:
                rss = current_rss_mb()
                if rss > self.memory_budget_mb:
                    raise MemoryBudgetExceeded(
                        f"RSS {rss:.0f} MiB exceeds the"
                        f" {self.memory_budget_mb:.0f} MiB cell budget"
                        f" at stage '{name}'"
                    )

        return check

    @contextmanager
    def guard(self, deadline: Optional[Deadline] = None) -> Iterator[None]:
        """Apply the policy's budgets around one attempt.

        Installs the cooperative stage-boundary check (deadline + memory
        budget) and, when a deadline is set, the SIGALRM watchdog.  The
        check also fires once on entry so an already-exhausted budget
        fails fast.
        """
        if deadline is None and self.timeout is not None:
            deadline = Deadline(self.timeout)
        check = None
        if deadline is not None or self.memory_budget_mb is not None:
            check = self._boundary_check(deadline)
            check("enter", "<guard>")
            stages.add_stage_hook(check)
        try:
            if deadline is not None:
                with _alarm_watchdog(deadline):
                    yield
            else:
                yield
        finally:
            if check is not None:
                stages.remove_stage_hook(check)


@dataclass
class GuardedOutcome:
    """What :func:`run_guarded` hands back instead of raising."""

    value: Optional[object]
    status: str
    error: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == CellStatus.OK


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_guarded(
    fn: Callable[[], object],
    policy: ExecutionPolicy,
    sleep: Callable[[float], None] = time.sleep,
) -> GuardedOutcome:
    """Run ``fn`` under ``policy`` and capture failure instead of raising.

    The wall-clock deadline spans the *cell* — retries and their backoff
    pauses draw from the same budget.  Transient errors (per
    ``policy.transient_errors``) retry with exponential backoff at most
    ``policy.max_retries`` times, then are recorded as ``error``.
    Deadline and memory failures never retry.  A strict policy re-raises
    every failure after classification; ``KeyboardInterrupt`` and
    ``SystemExit`` always propagate.
    """
    deadline = Deadline(policy.timeout) if policy.timeout is not None else None
    attempts = 0

    def fail(status: str, exc: BaseException) -> GuardedOutcome:
        if policy.strict:
            raise exc
        return GuardedOutcome(
            None, status, error=_describe(exc), attempts=attempts
        )

    while True:
        attempts += 1
        try:
            with policy.guard(deadline):
                value = fn()
            return GuardedOutcome(value, CellStatus.OK, attempts=attempts)
        except (KeyboardInterrupt, SystemExit):
            raise
        except CellDeadlineExceeded as exc:
            return fail(CellStatus.TIMEOUT, exc)
        except (MemoryError, MemoryBudgetExceeded) as exc:
            return fail(CellStatus.OOM, exc)
        except policy.transient_errors as exc:
            if attempts > policy.max_retries:
                return fail(CellStatus.ERROR, exc)
            pause = policy.backoff * (2 ** (attempts - 1))
            if deadline is not None and deadline.remaining() <= pause:
                return fail(CellStatus.TIMEOUT, exc)
            if pause > 0:
                sleep(pause)
        except Exception as exc:
            return fail(CellStatus.ERROR, exc)


# ----------------------------------------------------------------------
# Crash-safe JSON persistence.
# ----------------------------------------------------------------------


def atomic_write_json(path: Path, payload: object, indent: int = 1) -> None:
    """Write JSON so readers only ever observe old-or-new content.

    The payload lands in a tempfile in the target directory, is fsynced,
    and replaces the target via ``os.replace`` (atomic on POSIX and
    Windows); the directory entry is fsynced afterwards so the rename
    survives a power loss.  A crash at any point leaves either the old
    file or the new one — never a truncated hybrid.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=indent)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fsync
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def salvage_json_prefix(text: str, depth: int = 1) -> Dict[str, object]:
    """Recover the complete entries of a truncated top-level JSON object.

    Walks ``{"key": value, ...`` pairs with ``raw_decode`` and keeps
    every pair whose value parsed completely; the first malformed or
    truncated token ends the salvage.  When the truncated value is
    itself an object and ``depth`` allows, its own parseable prefix is
    salvaged recursively — so the versioned cache wrapper
    ``{"schema": 2, "cells": {...chopped...}}`` still yields the
    finished cells while an individual half-written cell (one level
    deeper) is dropped whole rather than kept with missing fields.
    Never raises — unusable input yields an empty dict.
    """
    decoder = json.JSONDecoder()
    recovered: Dict[str, object] = {}

    def skip_ws(position: int) -> int:
        while position < len(text) and text[position] in " \t\r\n":
            position += 1
        return position

    i = skip_ws(0)
    if i >= len(text) or text[i] != "{":
        return recovered
    i = skip_ws(i + 1)
    try:
        if i < len(text) and text[i] == "}":
            return recovered
        while True:
            key, i = decoder.raw_decode(text, i)
            i = skip_ws(i)
            if text[i] != ":":
                break
            i = skip_ws(i + 1)
            try:
                value, i = decoder.raw_decode(text, i)
            except ValueError:
                if depth > 0 and i < len(text) and text[i] == "{" \
                        and isinstance(key, str):
                    partial = salvage_json_prefix(text[i:], depth - 1)
                    if partial:
                        recovered[key] = partial
                break
            if isinstance(key, str):
                recovered[key] = value
            i = skip_ws(i)
            if text[i] == ",":
                i = skip_ws(i + 1)
            elif text[i] == "}":
                break
            else:
                break
    except (ValueError, IndexError):
        pass
    return recovered


def quarantine(path: Path) -> Optional[Path]:
    """Move a corrupt file aside (``<name>.corrupt``) for post-mortems.

    Returns the quarantine path, or None when the move failed (the
    caller will overwrite the corrupt file on the next save anyway).
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(str(path), str(target))
        return target
    except OSError:
        return None


# ----------------------------------------------------------------------
# Deterministic fault injection.
# ----------------------------------------------------------------------

FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

_ACTIONS = ("raise", "delay", "allocate", "crash")


@dataclass
class FaultPlan:
    """One scripted fault at a named stage boundary.

    ``stage`` matches the boundary name exactly, or everything when
    ``"*"``; ``times`` bounds how often the plan fires (0 = every time),
    which keeps injection deterministic: the first ``times`` matching
    boundaries fire, all later ones pass through.
    """

    action: str
    stage: str
    arg: str = ""
    times: int = 1
    event: str = "enter"
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r};"
                f" expected one of {_ACTIONS}"
            )
        if self.event not in ("enter", "exit"):
            raise ValueError(f"unknown fault event {self.event!r}")

    def matches(self, event: str, name: str) -> bool:
        if self.event != event:
            return False
        if self.times and self.fired >= self.times:
            return False
        return self.stage == "*" or self.stage == name

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``action:stage[:arg[:times]]`` (e.g. ``delay:tune/kNNJ:30``)."""
        parts = [p.strip() for p in spec.strip().split(":")]
        if len(parts) < 2 or len(parts) > 4 or not all(parts[:2]):
            raise ValueError(
                f"bad fault spec {spec!r}; expected action:stage[:arg[:times]]"
            )
        times = 1
        if len(parts) == 4:
            times = int(parts[3])
        return cls(
            action=parts[0],
            stage=parts[1],
            arg=parts[2] if len(parts) >= 3 else "",
            times=times,
        )


class FaultInjector:
    """Scripted faults at stage boundaries — raise, delay, allocate, crash.

    The injector is a stage hook (see
    :func:`repro.core.stages.add_stage_hook`); :meth:`installed` scopes
    it with a context manager.  All state is explicit counters — no
    randomness — so a given plan list reproduces the same faults at the
    same boundaries on every run.
    """

    def __init__(self, plans: Sequence[FaultPlan]) -> None:
        self.plans = list(plans)
        self._ballast: List[bytearray] = []

    # -- construction --------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Build from a ``;``-separated list of plan specs."""
        plans = [
            FaultPlan.parse(part)
            for part in spec.split(";")
            if part.strip()
        ]
        return cls(plans)

    @classmethod
    def from_env(cls, environ=os.environ) -> Optional["FaultInjector"]:
        """The injector configured by ``REPRO_FAULT_INJECT``, or None."""
        spec = environ.get(FAULT_INJECT_ENV, "").strip()
        return cls.from_spec(spec) if spec else None

    # -- hook protocol -------------------------------------------------

    def __call__(self, event: str, name: str) -> None:
        for plan in self.plans:
            if plan.matches(event, name):
                plan.fired += 1
                self._fire(plan, name)

    def _fire(self, plan: FaultPlan, name: str) -> None:
        if plan.action == "raise":
            exc_type = getattr(builtins, plan.arg or "RuntimeError", None)
            if not (isinstance(exc_type, type)
                    and issubclass(exc_type, Exception)):
                exc_type = RuntimeError
            raise exc_type(f"injected fault at stage '{name}'")
        if plan.action == "delay":
            time.sleep(float(plan.arg or "1.0"))
            return
        if plan.action == "allocate":
            mbytes = int(plan.arg or "64")
            # Held (not freed) so the RSS guard sees it at the next
            # boundary; release() drops the ballast.
            self._ballast.append(bytearray(mbytes << 20))
            return
        if plan.action == "crash":
            # Hard-crash mode: die like kill -9 — no atexit, no finally
            # blocks, no flushing.  This is how the durability tests kill
            # a sacrificial serving process mid-WAL-append; never script
            # it against a process you want back.
            os._exit(int(plan.arg or "13"))

    # -- lifecycle -----------------------------------------------------

    def install(self) -> None:
        stages.add_stage_hook(self)

    def uninstall(self) -> None:
        stages.remove_stage_hook(self)
        self.release()

    def release(self) -> None:
        """Free any memory ballast allocated by ``allocate`` plans."""
        self._ballast.clear()

    @contextmanager
    def installed(self) -> Iterator["FaultInjector"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
