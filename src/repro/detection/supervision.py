"""Supervision of the detection pipeline itself (degraded-mode operation).

The paper's detector runs continuously beside the workload (Section 3.3's
periodic checkpoints), which makes the detector's *own* failure modes part
of the system's fault model: a rule evaluator that raises, a checkpoint
that stalls, a history sink that saturates.  A run-time monitor is only
trustworthy when those failure modes are bounded — the monitor must never
take the monitored application down with it.

Three mechanisms, all deterministic on the sim kernel:

* :class:`CircuitBreaker` — per-monitor quarantine.  A registered monitor
  whose evaluator raises (in either phase of the two-phase checkpoint —
  a phase-2 throw off the critical path still opens the breaker)
  transitions CLOSED → OPEN once it has failed
  ``breaker_failure_threshold`` times in a row: it is skipped by
  subsequent batched checkpoints so one broken evaluator cannot poison
  the fleet's shared pipeline.  After ``breaker_cooldown`` virtual
  seconds the breaker goes HALF_OPEN and the next checkpoint runs a
  single probe check; a clean probe re-closes the breaker, a failing
  probe re-opens it.
* :class:`CheckpointSupervisor` — wraps one checking round (a callable:
  a cluster shard's checkpoint, the detection server's evaluation round,
  or :meth:`DetectionEngine.checkpoint`) with retries and exponential
  backoff on transient failures (``checkpoint_retries`` /
  ``retry_backoff``) and a stall watchdog (``stall_timeout``).
  :func:`supervisor_process` is the kernel process that paces it, every
  ``interval``, with checkpoints that can fail without crashing the run.
* **snapshot/restore** — :meth:`CheckpointSupervisor.snapshot_state` /
  :meth:`restore_state` persist the supervisor's round counts and, for
  the registered monitors passed in, breaker state, counters, each
  sink's checkpoint base state and open window (via
  :mod:`repro.history.serialize`) and each checker's state, so a
  supervisor restarted after a crash resumes its windows instead of
  re-checking from a cold, divergent base.  The snapshot is positional:
  one row per monitor whose fields :data:`MONITOR_FIELDS` declares, and
  a row of another length, or with a field of another type, is refused
  with :class:`~repro.errors.RecoveryError` naming the field.

A supervisor exports its own counters: :meth:`CheckpointSupervisor.metrics`
writes one family per :data:`SUPERVISOR_COUNTERS` row and its audit log as
``repro_supervisor_events_total{kind}``.  A cluster samples each shard's
supervisor under a ``shard`` label; the detection server samples its one.
The breakers' transition counts are the engine's to export
(:meth:`~repro.detection.engine.DetectionEngine.metrics`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro._rows import (
    INT,
    LIST,
    OPTIONAL_LIST,
    OPTIONAL_NUMBER,
    STR,
    Fields,
    check_row,
)
from repro.detection.config import DetectorConfig
from repro.detection.reports import FaultReport
from repro.errors import RecoveryError
from repro.history.serialize import apply_sink_state, sink_state_to_row
from repro.kernel.syscalls import Delay, Syscall
from repro.observability.registry import MetricsRegistry

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "QuarantineRecord",
    "SupervisorEvent",
    "SUPERVISOR_COUNTERS",
    "SNAPSHOT_FIELDS",
    "MONITOR_FIELDS",
    "CheckpointSupervisor",
    "supervisor_process",
]


class BreakerState(enum.Enum):
    """Circuit-breaker lifecycle of one registered monitor's checker."""

    #: Healthy: the monitor is checked at every batched checkpoint.
    CLOSED = "closed"
    #: Quarantined: the monitor is skipped until the cooldown elapses.
    OPEN = "open"
    #: Probing: the next checkpoint runs one trial check to decide.
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN → CLOSED quarantine for one checker.

    Time is the kernel's virtual clock, passed in by the caller, so the
    whole lifecycle is deterministic under the sim kernel.  ``transitions``
    records every state change as ``(time, new_state)`` for audits.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown <= 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        #: How many times the breaker has opened (quarantine episodes).
        self.times_opened = 0
        #: How many times a half-open probe succeeded and re-closed it.
        self.times_reclosed = 0
        self.last_failure: Optional[str] = None
        self.transitions: list[tuple[float, BreakerState]] = []

    def _move(self, state: BreakerState, now: float) -> None:
        self.state = state
        self.transitions.append((now, state))

    def allow(self, now: float) -> bool:
        """May the monitor be checked at a checkpoint starting ``now``?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.HALF_OPEN:
            return True
        assert self.opened_at is not None
        if now - self.opened_at >= self.cooldown:
            self._move(BreakerState.HALF_OPEN, now)
            return True
        return False

    def record_success(self, now: float) -> None:
        """A check completed cleanly; a half-open probe re-closes."""
        if self.state is BreakerState.HALF_OPEN:
            self.times_reclosed += 1
            self._move(BreakerState.CLOSED, now)
            self.opened_at = None
        self.consecutive_failures = 0
        self.last_failure = None

    def record_failure(self, now: float, reason: str) -> None:
        """A check raised; open when the threshold hits."""
        self.last_failure = reason
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # A failed probe goes straight back to quarantine.
            self.times_opened += 1
            self.opened_at = now
            self._move(BreakerState.OPEN, now)
            return
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.times_opened += 1
            self.opened_at = now
            self._move(BreakerState.OPEN, now)

    @property
    def quarantined(self) -> bool:
        return self.state is BreakerState.OPEN

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state.value}, "
            f"failures={self.consecutive_failures}/{self.failure_threshold}, "
            f"opened={self.times_opened}, reclosed={self.times_reclosed})"
        )


@dataclass(frozen=True)
class QuarantineRecord:
    """One line of the engine's quarantine report."""

    label: str
    state: BreakerState
    consecutive_failures: int
    times_opened: int
    times_reclosed: int
    checkpoints_skipped: int
    last_failure: Optional[str]
    opened_at: Optional[float]

    def render(self) -> str:
        tail = f" last_failure={self.last_failure}" if self.last_failure else ""
        return (
            f"{self.label}: {self.state.value} "
            f"(opened x{self.times_opened}, reclosed x{self.times_reclosed}, "
            f"skipped {self.checkpoints_skipped} checkpoint(s)){tail}"
        )


@dataclass(frozen=True)
class SupervisorEvent:
    """One entry of the supervisor's audit log."""

    time: float
    #: "failure" | "retry" | "gave-up" | "stall".
    kind: str
    detail: str = ""


#: The counters of a :class:`CheckpointSupervisor`, each declared once as
#: ``(attribute, family, help)``; :meth:`CheckpointSupervisor.metrics`
#: exports them.
SUPERVISOR_COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("retries_performed", "repro_supervisor_retries_total",
     "Checkpoint retries performed by shard supervisors."),
    ("stalls_detected", "repro_supervisor_stalls_total",
     "Watchdog stalls detected by shard supervisors."),
    ("checkpoints_abandoned", "repro_supervisor_abandoned_total",
     "Checkpoints abandoned after exhausted retry budgets."),
    ("checkpoints_completed", "repro_supervisor_completed_total",
     "Checkpoints completed under shard supervisors."),
)


#: The row :meth:`CheckpointSupervisor.snapshot_state` returns.
SNAPSHOT_FIELDS: Fields = (
    ("checkpoints_completed", INT),
    ("checkpoints_abandoned", INT),
    ("monitors", LIST),
)

#: One monitor's row in a supervisor snapshot: its label, its breaker's
#: fields (the state as its value), then its counter row, its sink row
#: and one row per checker (null for a checker the monitor lacks).
MONITOR_FIELDS: Fields = (
    ("label", STR),
    ("breaker_state", STR),
    ("consecutive_failures", INT),
    ("times_opened", INT),
    ("times_reclosed", INT),
    ("opened_at", OPTIONAL_NUMBER),
    ("counters", LIST),
    ("sink", LIST),
    ("algorithm1", OPTIONAL_LIST),
    ("algorithm2", OPTIONAL_LIST),
    ("algorithm3", OPTIONAL_LIST),
)


def _monitor_row(entry) -> list:
    """One registered monitor's :data:`MONITOR_FIELDS` row."""
    breaker = entry.breaker
    return [
        entry.label,
        breaker.state.value,
        breaker.consecutive_failures,
        breaker.times_opened,
        breaker.times_reclosed,
        breaker.opened_at,
        entry.counter_state(),
        sink_state_to_row(entry.history),
        *(
            None if checker is None else checker.state_dict()
            for checker in (
                entry.algorithm1, entry.algorithm2, entry.algorithm3
            )
        ),
    ]


def _restore_monitor(entry, row: list) -> None:
    """Re-apply a checked :data:`MONITOR_FIELDS` row to ``entry``."""
    __, state, failures, opened, reclosed, opened_at = row[:6]
    counters, sink, algorithm1, algorithm2, algorithm3 = row[6:]
    try:
        breaker_state = BreakerState(state)
    except ValueError:
        raise RecoveryError(
            f"field 'breaker_state' {state!r} is not a breaker state"
        ) from None
    breaker = entry.breaker
    breaker.state = breaker_state
    breaker.consecutive_failures = failures
    breaker.times_opened = opened
    breaker.times_reclosed = reclosed
    breaker.opened_at = opened_at
    entry.restore_counter_state(counters)
    apply_sink_state(entry.history, sink)
    if algorithm1 is not None and entry.algorithm1 is not None:
        # The sink restore above reinstated its last checkpoint state;
        # carried lists are rebuilt on that very object, so the next cut
        # is a carry, not a rebase.
        entry.algorithm1.restore_state(
            algorithm1, basis=entry.history.last_state
        )
    if algorithm2 is not None and entry.algorithm2 is not None:
        entry.algorithm2.restore_state(algorithm2)
    if algorithm3 is not None and entry.algorithm3 is not None:
        entry.algorithm3.restore_state(algorithm3)


class CheckpointSupervisor:
    """Wraps one checking round with retries and a stall watchdog.

    ``checkpoint`` is a zero-argument callable that runs one round and
    returns its new reports; ``kernel`` supplies the clock, and
    ``config`` the retry (``checkpoint_retries``, ``retry_backoff``) and
    watchdog (``stall_timeout``) settings and the pacing ``interval``.
    The supervisor never lets an exception out of :meth:`attempt` —
    detector failures are data (counters and :class:`SupervisorEvent`
    entries), exactly like detected faults are data and not exceptions.
    """

    def __init__(
        self,
        checkpoint: Callable[[], list[FaultReport]],
        kernel,
        config: DetectorConfig,
    ) -> None:
        self.checkpoint = checkpoint
        self.kernel = kernel
        self.config = config
        self.checkpoints_completed = 0
        #: Rounds in which every attempt (1 + retries) failed.
        self.checkpoints_abandoned = 0
        self.retries_performed = 0
        self.stalls_detected = 0
        self.last_success_at: Optional[float] = None
        #: When supervision began watching (reference before any success).
        self._watch_since: Optional[float] = None
        self._stall_flagged = False
        self.events: list[SupervisorEvent] = []

    # ----------------------------------------------------------- single try

    def attempt(self) -> tuple[bool, list[FaultReport]]:
        """One supervised checkpoint attempt.  Never raises.

        Returns ``(completed, new_reports)``; on failure the exception is
        recorded as a ``"failure"`` event and ``(False, [])`` comes back so
        the caller (usually :meth:`run_round`) can back off and retry.
        """
        now = self.kernel.now()
        try:
            reports = self.checkpoint()
        except Exception as exc:  # noqa: BLE001 — the whole point
            self.events.append(
                SupervisorEvent(now, "failure", f"{type(exc).__name__}: {exc}")
            )
            return False, []
        self.checkpoints_completed += 1
        self.last_success_at = self.kernel.now()
        self._stall_flagged = False
        return True, reports

    # ---------------------------------------------------------------- rounds

    def run_round(self) -> Iterator[Syscall]:
        """One supervised round, as a fragment of a pacing process.

        Attempts the checkpoint, retrying failed attempts up to
        ``checkpoint_retries`` times with :meth:`retry_delay` backoff (in
        virtual time) before abandoning the round, then polls the stall
        watchdog.  Every pacing process — :func:`supervisor_process` and
        the cluster's ``shard_process`` — runs its rounds through this
        with ``yield from``.
        """
        attempt = 0
        while True:
            completed, __ = self.attempt()
            if completed:
                break
            if attempt >= self.config.checkpoint_retries:
                self.checkpoints_abandoned += 1
                self.events.append(
                    SupervisorEvent(
                        self.kernel.now(),
                        "gave-up",
                        f"abandoned after {attempt + 1} attempt(s)",
                    )
                )
                break
            delay = self.retry_delay(attempt)
            attempt += 1
            self.retries_performed += 1
            self.events.append(
                SupervisorEvent(
                    self.kernel.now(),
                    "retry",
                    f"attempt {attempt} failed; backing off {delay:g}",
                )
            )
            yield Delay(delay)
        self.check_stall()

    def retry_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based):
        ``retry_backoff * 2**attempt``."""
        return self.config.retry_backoff * (2**attempt)

    # ------------------------------------------------------------- watchdog

    def note_idle(self) -> None:
        """Feed the watchdog on a tick with nothing to attempt.

        An idle pipeline cannot be stalled; marking the idle instant as
        healthy makes the next busy episode measure from now instead of
        from the last completed round long ago.
        """
        self.last_success_at = self.kernel.now()

    def check_stall(self) -> bool:
        """Stall watchdog: has the pipeline gone too long without success?

        Flags (and counts) at most once per stall episode; a completed
        checkpoint re-arms the watchdog.
        """
        stall_timeout = self.config.stall_timeout
        if stall_timeout is None:
            return False
        now = self.kernel.now()
        if self._watch_since is None:
            self._watch_since = now
        reference = (
            self.last_success_at
            if self.last_success_at is not None
            else self._watch_since
        )
        if now - reference <= stall_timeout:
            return self._stall_flagged
        if not self._stall_flagged:
            # Flag (and count) once per stall episode; success re-arms.
            self._stall_flagged = True
            self.stalls_detected += 1
            self.events.append(
                SupervisorEvent(
                    now,
                    "stall",
                    f"no completed checkpoint for {now - reference:g} > "
                    f"stall_timeout {stall_timeout:g}",
                )
            )
        return True

    @property
    def stalled(self) -> bool:
        """True while the current stall episode is unresolved."""
        return self._stall_flagged

    # ------------------------------------------------------ snapshot/restore

    def snapshot_state(self, entries: Sequence) -> list:
        """A :data:`SNAPSHOT_FIELDS` row for restart recovery.

        Holds the round counts and one :data:`MONITOR_FIELDS` row per
        registered monitor in ``entries``: its label, breaker lifecycle,
        persisted counters (:meth:`RegisteredMonitor.counter_state`), the
        event sink's base state and open window
        (:func:`repro.history.serialize.sink_state_to_row`) and each
        checker's row (``state_dict``), so a restarted supervisor resumes
        checking windows where the crashed one stopped.  Each monitor row
        reads its sink before its checkers.
        """
        return [
            self.checkpoints_completed,
            self.checkpoints_abandoned,
            [_monitor_row(entry) for entry in entries],
        ]

    def restore_state(self, row: list, entries: Sequence) -> list[str]:
        """Re-apply a :meth:`snapshot_state` row after a restart.

        Monitors in ``entries`` are matched by registration label.  The
        snapshot's label set must equal theirs: restoring a snapshot from
        a different fleet would silently leave some monitors on cold state
        and others on restored state — an inconsistent cut — so a mismatch
        raises :class:`~repro.errors.RecoveryError` instead, as does a row
        of the wrong shape (naming the monitor and the field).  Returns
        the labels restored.
        """
        completed, abandoned, monitors = check_row(
            row, SNAPSHOT_FIELDS, "supervisor"
        )
        saved = {
            check_row(monitor, MONITOR_FIELDS, "monitor")[0]: monitor
            for monitor in monitors
        }
        live_labels = {entry.label for entry in entries}
        if set(saved) != live_labels:
            missing = sorted(live_labels - set(saved))
            extra = sorted(set(saved) - live_labels)
            raise RecoveryError(
                "snapshot does not match the registered monitor fleet: "
                f"snapshot lacks {missing or 'nothing'}, snapshot has "
                f"unregistered {extra or 'nothing'}"
            )
        self.checkpoints_completed = completed
        self.checkpoints_abandoned = abandoned
        for entry in entries:
            try:
                _restore_monitor(entry, saved[entry.label])
            except RecoveryError as exc:
                raise RecoveryError(f"monitor {entry.label!r}: {exc}") from exc
        return [entry.label for entry in entries]

    # --------------------------------------------------------------- metrics

    def metrics(
        self, registry: MetricsRegistry, *, labels: Optional[dict] = None
    ) -> None:
        """Add this supervisor's families to ``registry``: one per
        :data:`SUPERVISOR_COUNTERS` row, and its audit-log events counted
        by ``kind``.  ``labels`` (e.g. ``{"shard": "0"}``) are stamped onto
        every family."""
        registry.count_table(self, SUPERVISOR_COUNTERS, labels)
        base = {str(k): str(v) for k, v in (labels or {}).items()}
        events = registry.counter(
            "repro_supervisor_events_total",
            "Supervisor audit-log events by kind.",
            (*base, "kind"),
        )
        for event in self.events:
            events.labels(**base, kind=event.kind).inc()

    def __repr__(self) -> str:
        return (
            f"CheckpointSupervisor(completed={self.checkpoints_completed}, "
            f"abandoned={self.checkpoints_abandoned}, "
            f"retries={self.retries_performed}, stalls={self.stalls_detected})"
        )


def supervisor_process(
    supervisor: CheckpointSupervisor,
    *,
    rounds: Optional[int] = None,
    prelude: Optional[Callable[[], Iterator[Syscall]]] = None,
) -> Iterator[Syscall]:
    """Kernel process pacing a supervised checkpoint.

    Every ``supervisor.config.interval`` it runs one
    :meth:`CheckpointSupervisor.run_round` — failed attempts retried up
    to ``checkpoint_retries`` times with exponential backoff
    (``backoff``, ``2*backoff``, ``4*backoff``…, in virtual time) before
    the round is abandoned, then the stall watchdog.  Runs ``rounds``
    rounds (forever when None)::

        supervisor = CheckpointSupervisor(engine.checkpoint, kernel, config)
        kernel.spawn(supervisor_process(supervisor), "detection")

    ``prelude`` (used by the chaos harness) is a generator factory spliced
    in before each round's first attempt.
    """
    remaining = rounds
    while remaining is None or remaining > 0:
        yield Delay(supervisor.config.interval)
        if prelude is not None:
            yield from prelude()
        yield from supervisor.run_round()
        if remaining is not None:
            remaining -= 1
