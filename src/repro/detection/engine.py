"""The detection engine: one checking service shared by many monitors.

The paper runs one "fault detection routine" per monitor, and each of its
periodic checks suspends every other process ("upon detection, all other
running processes are suspended and are resumed only after the checking
has finished", Section 4).  With N monitored monitors that is N world
stops per checking interval — the suspend/resume cost grows linearly in
the number of detectors even when each individual check is cheap.

:class:`DetectionEngine` amortises that cost twice over.  Many monitors
register with one engine (each keeping its own Algorithm-1/2/3 state,
timeouts and report stream), and every checking interval the engine runs
one **two-phase checkpoint**:

* **Phase 1 — capture** (inside a single ``kernel.atomic`` section): for
  every non-quarantined monitor, snapshot the actual scheduling state
  and cut the history window, enqueueing an immutable
  :class:`CheckpointCapture` per monitor.  This is all the world-stop
  pays for: O(snapshot + cut) per monitor, no rule evaluation.
* **Phase 2 — evaluate** (outside the atomic section, workload running):
  drain the capture queue in registration order and run Algorithm-1,
  Algorithm-2's window check, Algorithm-3's replay/timer sweep and the
  degraded-mode path over each frozen capture.

Because every input a rule evaluator reads (the snapshot, the cut
segment, the frozen Request-List) is captured atomically in phase 1, the
reports are event-for-event identical to evaluating inside the section —
same rules, pids, timestamps and confidences, in the same order — while
the suspend-the-world window shrinks from O(rule evaluation) to
O(snapshot).  A checker that throws in phase 2 still trips its circuit
breaker.

Applications reach the engine through
:class:`~repro.detection.session.DetectionSession`, which wraps one or
more engines in supervision, sharding and durability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import NamedTuple, Optional, Union

from repro._rows import INT, Fields, check_row
from repro.detection.algorithm1 import (
    IncrementalConcurrencyChecker,
    check_general_concurrency_control,
)
from repro.detection.algorithm2 import ResourceStateChecker
from repro.detection.algorithm3 import CallingOrderChecker, sweep_request_list
from repro.detection.config import DetectorConfig
from repro.detection.replay import sweep_timers
from repro.detection.reports import Confidence, FaultReport
from repro.detection.rules import degrade_to_drop_tolerant
from repro.detection.supervision import (
    BreakerState,
    CircuitBreaker,
    QuarantineRecord,
)
from repro.history.database import HistoryDatabase
from repro.history.events import SchedulingEvent
from repro.history.sink import EventSink, Segment
from repro.history.states import SchedulingState
from repro.ids import Pid
from repro.observability.registry import Histogram, MetricsRegistry
from repro.monitor.construct import Monitor, MonitorBase

__all__ = [
    "CheckpointCapture",
    "CounterSpec",
    "COUNTERS",
    "ENGINE_TOTALS",
    "RegisteredMonitor",
    "DetectionEngine",
]

MonitorLike = Union[Monitor, MonitorBase]

#: ``RegisteredMonitor.capture`` builds each :class:`CheckpointCapture`
#: as the plain tuple record it is, once per monitor inside every
#: checkpoint's world stop.
_new_tuple = tuple.__new__


# ------------------------------------------------------------------ counters

#: :attr:`CounterSpec.scope` values.
ENGINE = "engine"
SUMMED = "summed"
MONITOR = "monitor"


@dataclass(frozen=True)
class CounterSpec:
    """One detection counter, declared once.

    ``attr`` is a plain attribute (or read-only property) of the object
    that increments it; ``scope`` says which object that is and how
    :meth:`DetectionEngine.metrics` exports it:

    * ``ENGINE`` — a :class:`DetectionEngine` attribute;
    * ``SUMMED`` — a :class:`RegisteredMonitor` attribute, exported (and
      readable on the engine) as the total over registered monitors plus
      those already unregistered;
    * ``MONITOR`` — a :class:`RegisteredMonitor` attribute exported per
      monitor, under a ``monitor`` label.

    ``persisted`` counters are written to the snapshots and restored on
    recovery; the others are derived from state that is persisted (or
    journaled) on its own.
    """

    attr: str
    scope: str
    family: str
    help: str
    persisted: bool = False


#: Every counter the engine exports.  Drives :meth:`DetectionEngine.metrics`,
#: the engine's summed totals, the cluster's shard totals,
#: ``FaultStatistics.counters`` and the counter part of both snapshots.
COUNTERS: tuple[CounterSpec, ...] = (
    CounterSpec("checkpoints_run", ENGINE, "repro_engine_checkpoints_total",
                "Two-phase checkpoints completed.", persisted=True),
    CounterSpec("atomic_sections", ENGINE,
                "repro_engine_atomic_sections_total",
                "Kernel atomic sections entered for checking.",
                persisted=True),
    CounterSpec("captures_taken", ENGINE, "repro_engine_captures_total",
                "Phase-1 captures taken (snapshot + cut).", persisted=True),
    CounterSpec("evaluations_run", ENGINE, "repro_engine_evaluations_total",
                "Phase-2 evaluations completed.", persisted=True),
    CounterSpec("check_failures", ENGINE,
                "repro_engine_check_failures_total",
                "Capture/evaluate exceptions absorbed by breakers.",
                persisted=True),
    CounterSpec("incremental_hits", SUMMED,
                "repro_engine_incremental_hits_total",
                "Windows evaluated on carried checking lists."),
    CounterSpec("incremental_rebases", SUMMED,
                "repro_engine_incremental_rebases_total",
                "Windows that re-seeded checking lists."),
    CounterSpec("incremental_fastpaths", SUMMED,
                "repro_engine_incremental_fastpaths_total",
                "Zero-event windows that skipped comparison."),
    CounterSpec("staged_events", SUMMED, "repro_engine_staged_events_total",
                "Events flushed through sink staging buffers."),
    CounterSpec("staged_flushes", SUMMED,
                "repro_engine_staged_flushes_total",
                "Staged-batch flushes across monitor sinks."),
    CounterSpec("dropped_events", SUMMED,
                "repro_engine_dropped_events_total",
                "Events dropped at bounded sinks."),
    CounterSpec("dropped_in_windows", SUMMED,
                "repro_engine_dropped_in_windows_total",
                "Per-window drop counts over cut checking windows.",
                persisted=True),
    CounterSpec("degraded_windows", SUMMED,
                "repro_engine_degraded_windows_total",
                "Checking windows evaluated in degraded (lossy) mode.",
                persisted=True),
    CounterSpec("report_count", MONITOR, "repro_monitor_reports_total",
                "Fault reports per registered monitor."),
    CounterSpec("checkpoints_run", MONITOR,
                "repro_monitor_checkpoints_total",
                "Checkpoints evaluated per registered monitor.",
                persisted=True),
    CounterSpec("degraded_windows", MONITOR,
                "repro_monitor_degraded_windows_total",
                "Degraded (lossy) windows per registered monitor.",
                persisted=True),
    CounterSpec("checkpoints_skipped", MONITOR,
                "repro_monitor_checkpoints_skipped_total",
                "Checkpoints a monitor sat out while quarantined.",
                persisted=True),
)

#: Counters readable on an engine (and, summed over shards, on a cluster).
ENGINE_TOTALS: tuple[str, ...] = tuple(
    spec.attr for spec in COUNTERS if spec.scope != MONITOR
)
_SUMMED = frozenset(spec.attr for spec in COUNTERS if spec.scope == SUMMED)
_ENGINE_PERSISTED = tuple(
    spec.attr for spec in COUNTERS if spec.persisted and spec.scope == ENGINE
)
_MONITOR_PERSISTED = tuple(
    dict.fromkeys(
        spec.attr
        for spec in COUNTERS
        if spec.persisted and spec.scope != ENGINE
    )
)
#: The snapshot rows of the persisted counters, in table order.
_ENGINE_FIELDS: Fields = tuple((attr, INT) for attr in _ENGINE_PERSISTED)
_MONITOR_FIELDS: Fields = tuple((attr, INT) for attr in _MONITOR_PERSISTED)


def _unwrap(target: MonitorLike) -> Monitor:
    return target.monitor if isinstance(target, MonitorBase) else target


def _require_kernel(monitor: Monitor, kernel) -> None:
    """Reject a monitor that lives on another kernel than the checker's
    (the phase-1 capture is one atomic section of that kernel)."""
    if monitor.kernel is not kernel:
        raise ValueError(
            f"monitor {monitor.name!r} lives on a different kernel than "
            "the engine; register it with an engine on its own kernel"
        )


class CheckpointCapture(NamedTuple):
    """One monitor's phase-1 capture: everything phase 2 needs, frozen.

    Produced inside the atomic section by :meth:`RegisteredMonitor.capture`
    and consumed outside it by :meth:`RegisteredMonitor.evaluate`.  All
    fields are immutable snapshots, so evaluation never races the
    still-running workload: ``snapshot`` is the scheduling state at the
    checkpoint, ``segment`` the cut history window, ``request_list`` the
    Algorithm-3 Request-List as it stood at the checkpoint (None when the
    monitor has no order checker), and ``taken_at`` the kernel's virtual
    time of the capture — the timestamp breaker decisions and timer sweeps
    are anchored to.

    A tuple record: :meth:`RegisteredMonitor.capture` and the detection
    server build it with ``tuple.__new__``.
    """

    entry: "RegisteredMonitor"
    snapshot: SchedulingState
    segment: Segment
    request_list: Optional[tuple[tuple[Pid, float], ...]]
    taken_at: float


def _degrade_window(
    found: list[FaultReport],
    segment: Segment,
    *,
    monitor_name: str,
    tmax: Optional[float],
    tio: Optional[float],
) -> list[FaultReport]:
    """Keep only drop-tolerant findings, downgraded to DEGRADED.

    The filter itself is the pure
    :func:`~repro.detection.rules.degrade_to_drop_tolerant`; ST-5/6
    are then re-derived from the current snapshot
    (:func:`~repro.detection.replay.sweep_timers`): the replay sweep
    covers only entries it reconstructed from surviving events, so on
    a lossy window it can miss exactly the wedged process the timer
    rules exist to catch.  The snapshot's queue entries carry their
    own ``since`` timestamps, making the snapshot sweep exact without
    any events.
    """
    kept = degrade_to_drop_tolerant(found)
    kept.extend(
        replace(report, confidence=Confidence.DEGRADED)
        for report in sweep_timers(
            segment.current,
            monitor_name,
            tmax=tmax,
            tio=tio,
            window_start=segment.previous.time,
        )
    )
    return kept


class RegisteredMonitor:
    """Per-monitor detection state held by the engine.

    Owns the paper's per-monitor "fault detection routine" state: the
    attached event sink, the Algorithm-2/3 checker instances selected from
    the declaration, the real-time Algorithm-3 tap, and the monitor's
    report stream.  One checkpoint's worth of checking is split in two:
    :meth:`capture` (phase 1, inside the engine's atomic section) freezes
    the snapshot and history window; :meth:`evaluate` (phase 2, outside
    the section) runs the rules over the frozen capture.
    """

    def __init__(self, monitor: Monitor, config: DetectorConfig, label: str) -> None:
        self.monitor = monitor
        self.config = config
        self.label = label
        if monitor.history is None:
            monitor.core.attach_history(HistoryDatabase())
        history = monitor.history
        assert history is not None
        if not history.opened:
            history.open(monitor.core.snapshot())
        self.history: EventSink = history
        declaration = monitor.declaration
        #: Incremental Algorithm-1 state (None = stateless full re-walk).
        self.algorithm1: Optional[IncrementalConcurrencyChecker] = None
        if config.incremental_checking:
            self.algorithm1 = IncrementalConcurrencyChecker(declaration)
        self.algorithm2: Optional[ResourceStateChecker] = None
        if declaration.mtype.needs_resource_checking:
            checker = ResourceStateChecker(declaration)
            if checker.applicable:
                self.algorithm2 = checker
        self.algorithm3: Optional[CallingOrderChecker] = None
        self._tapped = False
        if declaration.mtype.needs_order_checking or declaration.call_order:
            self.algorithm3 = CallingOrderChecker(declaration)
            if config.realtime_orders:
                history.subscribe(self._on_event)
                self._tapped = True
        self.reports: list[FaultReport] = []
        self.checkpoints_run = 0
        #: Circuit breaker quarantining this monitor's checker when it
        #: raises.
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failure_threshold,
            cooldown=config.breaker_cooldown,
        )
        #: Checkpoints this monitor sat out while quarantined.
        self.checkpoints_skipped = 0
        #: Events the sink reported dropped inside windows this entry cut.
        self.dropped_in_windows = 0
        #: Windows evaluated in degraded mode (incomplete event sequence).
        self.degraded_windows = 0

    # ------------------------------------------------------------- real time

    def _on_event(self, event: SchedulingEvent) -> None:
        # Subscribed only when ``algorithm3`` is set.
        found = self.algorithm3.on_event(event)
        if found:
            self.reports.extend(found)

    def detach(self) -> None:
        """Remove the real-time Algorithm-3 tap from the event sink."""
        if self._tapped:
            self.history.unsubscribe(self._on_event)
            self._tapped = False

    @property
    def tapped(self) -> bool:
        """True while the real-time order tap is attached to the sink."""
        return self._tapped

    # ------------------------------------------------------ phase 1: capture

    def capture(self, now: float) -> CheckpointCapture:
        """Phase 1: freeze this monitor's checkpoint inputs.

        Must run inside the engine's atomic section.  Snapshots the actual
        state, cuts the history window, freezes the Algorithm-3
        Request-List (the real-time tap keeps mutating the live list once
        the section ends).  No rule runs here — this is the entirety of
        the monitor's world-stop cost.
        """
        snapshot = self.monitor.core.snapshot()
        segment = self.history.cut(snapshot)
        request_list = (
            tuple(self.algorithm3.request_list)
            if self.algorithm3 is not None
            else None
        )
        return _new_tuple(
            CheckpointCapture, (self, snapshot, segment, request_list, now)
        )

    # ----------------------------------------------------- phase 2: evaluate

    def evaluate(self, capture: CheckpointCapture) -> list[FaultReport]:
        """Phase 2: run every rule over one frozen capture.

        Runs *outside* the atomic section — the workload is live again —
        which is safe because the capture is immutable and the mutable
        checker state touched here (Algorithm-2 counters, Algorithm-3
        replay state when the real-time tap is off) is only ever advanced
        by checkpoints, which the engine serialises.

        When the sink dropped events inside the window
        (``segment.dropped > 0``) the window cannot support the replay/
        comparison rules: only drop-tolerant rules survive (see
        :func:`repro.detection.rules.degrade_to_drop_tolerant`) and their
        reports are downgraded to :attr:`Confidence.DEGRADED` — a
        truncated trace must degrade, not false-positive.  Counting is the
        engine's (:meth:`DetectionEngine.evaluate_phase`).
        """
        config = self.config
        segment = capture.segment
        if self.algorithm1 is not None:
            found = self.algorithm1.check_window(
                segment, tmax=config.tmax, tio=config.tio
            )
        else:
            found = check_general_concurrency_control(
                self.monitor.declaration,
                segment,
                tmax=config.tmax,
                tio=config.tio,
            )
        if self.algorithm2 is not None:
            found.extend(self.algorithm2.check_window(segment))
        algorithm3 = self.algorithm3
        if algorithm3 is not None:
            if not config.realtime_orders and segment.complete:
                # Window replay of calling orders needs every event; on a
                # lossy window the real-time tap (when on) already saw the
                # true sequence, and the replay would start mid-pattern.
                for event in segment.events:
                    found.extend(algorithm3.on_event(event))
            if config.tlimit is not None:
                if config.realtime_orders:
                    # Tap mode: sweep the Request-List frozen in phase 1 —
                    # consistent with the snapshot even though the live
                    # list has moved on since the section ended.
                    assert capture.request_list is not None
                    found.extend(
                        sweep_request_list(
                            capture.request_list,
                            self.monitor.name,
                            capture.snapshot.time,
                            config.tlimit,
                        )
                    )
                else:
                    # Replay mode: the sweep must see the list as the
                    # replay above just rebuilt it.
                    found.extend(
                        algorithm3.periodic(
                            capture.snapshot.time, config.tlimit
                        )
                    )
        if not segment.complete:
            found = _degrade_window(
                found,
                segment,
                monitor_name=self.monitor.name,
                tmax=config.tmax,
                tio=config.tio,
            )
            if self.algorithm2 is not None:
                # The lossy window desynchronised Algorithm-2's cumulative
                # counters; re-base them on the snapshot so later complete
                # windows don't report ST-7a on a healthy monitor.
                self.algorithm2.resync(segment.current)
        return found

    def check(self) -> list[FaultReport]:
        """Capture and evaluate in one call (single-phase convenience).

        Runs the rules of one checkpoint for this monitor alone, without
        the engine's bookkeeping; kept for direct callers and tests.  Goes
        through the instance's ``evaluate`` attribute so wrappers
        installed on it (the chaos harness's sabotage) apply here too.
        """
        return self.evaluate(self.capture(self.monitor.kernel.now()))

    # --------------------------------------------------- hot-path accounting

    @property
    def incremental_hits(self) -> int:
        """Windows evaluated on carried checking lists (no re-seeding)."""
        return 0 if self.algorithm1 is None else self.algorithm1.hits

    @property
    def incremental_rebases(self) -> int:
        """Windows that re-seeded the checking lists from the snapshot."""
        return 0 if self.algorithm1 is None else self.algorithm1.rebases

    @property
    def incremental_fastpaths(self) -> int:
        """Zero-event carried windows that skipped the full comparison."""
        return 0 if self.algorithm1 is None else self.algorithm1.fastpaths

    @property
    def staged_events(self) -> int:
        """Events this monitor's sink flushed through its staging buffer."""
        return getattr(self.history, "staged_events", 0)

    @property
    def staged_flushes(self) -> int:
        """Staged-batch flushes performed by this monitor's sink."""
        return getattr(self.history, "staged_flushes", 0)

    @property
    def dropped_events(self) -> int:
        """Events this monitor's sink dropped (total ever, at the sink)."""
        return self.history.dropped_events

    @property
    def report_count(self) -> int:
        """Reports in this monitor's stream."""
        return len(self.reports)

    def counter_state(self) -> list[int]:
        """This monitor's persisted :data:`COUNTERS` in table order, a
        snapshot row."""
        return [getattr(self, attr) for attr in _MONITOR_PERSISTED]

    def restore_counter_state(self, row: list) -> None:
        """Re-apply a :meth:`counter_state` row."""
        row = check_row(row, _MONITOR_FIELDS, "monitor counters")
        for attr, value in zip(_MONITOR_PERSISTED, row):
            setattr(self, attr, value)

    @property
    def quarantined(self) -> bool:
        """True while this monitor's breaker is OPEN (checker sat out)."""
        return self.breaker.quarantined

    def quarantine_record(self) -> QuarantineRecord:
        """One line of the engine's quarantine report for this monitor."""
        return QuarantineRecord(
            label=self.label,
            state=self.breaker.state,
            consecutive_failures=self.breaker.consecutive_failures,
            times_opened=self.breaker.times_opened,
            times_reclosed=self.breaker.times_reclosed,
            checkpoints_skipped=self.checkpoints_skipped,
            last_failure=self.breaker.last_failure,
            opened_at=self.breaker.opened_at,
        )

    def __repr__(self) -> str:
        return (
            f"RegisteredMonitor({self.label!r}, "
            f"reports={len(self.reports)}, checkpoints={self.checkpoints_run}, "
            f"breaker={self.breaker.state.value})"
        )


class DetectionEngine:
    """Shared checking service over any number of registered monitors.

    Parameters
    ----------
    kernel:
        The execution substrate all registered monitors must live on (the
        phase-1 capture sweep is one ``kernel.atomic`` section).
    config:
        Default :class:`DetectorConfig` applied to registrations that do
        not bring their own.
    """

    def __init__(self, kernel, config: Optional[DetectorConfig] = None) -> None:
        self.kernel = kernel
        self.config = config or DetectorConfig()
        self._entries: list[RegisteredMonitor] = []
        self._by_label: dict[str, RegisteredMonitor] = {}
        #: Captures taken in phase 1 but not yet evaluated.  ``checkpoint``
        #: drains it immediately; it is a queue (not a local) so a future
        #: sharded engine can capture and evaluate on different cadences.
        self._pending_captures: list[CheckpointCapture] = []
        self.checkpoints_run = 0
        #: Number of ``kernel.atomic`` sections entered for checking — one
        #: per checkpoint regardless of how many monitors are registered.
        #: (The per-monitor baseline pays one section per monitor instead.)
        self.atomic_sections = 0
        #: Phase-1 captures taken (snapshot + cut inside the section).
        self.captures_taken = 0
        #: Phase-2 evaluations completed (rules run over a capture).
        self.evaluations_run = 0
        #: Per-checkpoint phase-1 (world-stop) and per-drain phase-2
        #: durations.  Bucketed, so memory stays flat however many
        #: checkpoints run; ``metrics()`` merges both into
        #: ``repro_phase_latency_seconds``.
        self.worldstop_latency = Histogram()
        self.evaluate_latency = Histogram()
        #: Longest single phase-1 section (per-checkpoint world-stop max).
        self.worldstop_max = 0.0
        #: Per-monitor evaluations that raised (absorbed by the breaker
        #: instead of escaping the checkpoint).
        self.check_failures = 0
        #: Final quarantine records of unregistered monitors whose breaker
        #: had history — without this, unregistering closed the book on a
        #: quarantine episode and the audit lost it.
        self.retired_quarantines: list[QuarantineRecord] = []
        #: Summed counters and report counts of unregistered monitors, so
        #: the engine's ``_total`` families never go backwards.
        self._retired = dict.fromkeys(_SUMMED, 0)
        self._retired_reports = dict.fromkeys(Confidence, 0)
        #: What unregistered durable sinks exported (WAL counts and
        #: latencies), for the same reason; None until one leaves.
        self._retired_sinks: Optional[MetricsRegistry] = None
        self._stopped = False

    def __getattr__(self, name: str) -> int:
        # A SUMMED counter has no engine attribute of its own: it is the
        # total over registered monitors plus those already unregistered.
        if name in _SUMMED:
            return self._retired[name] + sum(
                getattr(entry, name) for entry in self._entries
            )
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ---------------------------------------------------------- registration

    def register(
        self,
        target: MonitorLike,
        config: Optional[DetectorConfig] = None,
        *,
        label: Optional[str] = None,
    ) -> RegisteredMonitor:
        """Add a monitor to the batched checkpoint.

        ``label`` keys the monitor in :meth:`reports_by_monitor`; it
        defaults to the monitor's declared name, suffixed ``#2``, ``#3``…
        when several registered monitors share one name.
        """
        monitor = _unwrap(target)
        _require_kernel(monitor, self.kernel)
        base = label or monitor.name
        unique, suffix = base, 2
        while unique in self._by_label:
            unique = f"{base}#{suffix}"
            suffix += 1
        entry = RegisteredMonitor(monitor, config or self.config, unique)
        self._entries.append(entry)
        self._by_label[unique] = entry
        return entry

    def unregister(self, target: Union[MonitorLike, RegisteredMonitor]) -> None:
        """Detach a monitor's real-time tap and drop it from checkpoints."""
        if isinstance(target, RegisteredMonitor):
            entry = target
        else:
            monitor = _unwrap(target)
            matches = [e for e in self._entries if e.monitor is monitor]
            if not matches:
                raise ValueError(f"monitor {monitor.name!r} is not registered")
            entry = matches[0]
        if entry.breaker.transitions or entry.breaker.consecutive_failures:
            # Close out the quarantine record so the audit keeps the
            # episode instead of leaking it out of accounting.
            self.retired_quarantines.append(entry.quarantine_record())
        for name in _SUMMED:
            self._retired[name] += getattr(entry, name)
        for report in entry.reports:
            self._retired_reports[report.confidence] += 1
        observe = getattr(entry.history, "observe_metrics", None)
        if callable(observe):
            if self._retired_sinks is None:
                self._retired_sinks = MetricsRegistry()
            observe(self._retired_sinks)
        entry.detach()
        self._entries.remove(entry)
        del self._by_label[entry.label]
        self._pending_captures = [
            capture
            for capture in self._pending_captures
            if capture.entry is not entry
        ]

    @property
    def entries(self) -> tuple[RegisteredMonitor, ...]:
        return tuple(self._entries)

    @property
    def monitors(self) -> tuple[Monitor, ...]:
        return tuple(entry.monitor for entry in self._entries)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(entry.label for entry in self._entries)

    def entry_for(self, target: Union[MonitorLike, str]) -> RegisteredMonitor:
        """Look a registration up by label or by monitor object."""
        if isinstance(target, str):
            return self._by_label[target]
        monitor = _unwrap(target)
        for entry in self._entries:
            if entry.monitor is monitor:
                return entry
        raise KeyError(f"monitor {monitor.name!r} is not registered")

    # -------------------------------------------------------------- lifecycle

    def stop(self) -> None:
        """Ask the ``shard_process`` pacing this engine to finish after
        its next wake.

        Also detaches every registered monitor's real-time tap, so a
        retired engine stops charging the recording hot path.
        """
        self._stopped = True
        for entry in self._entries:
            entry.detach()

    @property
    def stopped(self) -> bool:
        return self._stopped

    # --------------------------------------------------------------- checking

    def checkpoint(self) -> list[FaultReport]:
        """Run one two-phase periodic check over every registered monitor.

        Phase 1 (one atomic section) snapshots and cuts every monitor;
        phase 2 evaluates the captures with the workload running again.
        The suspend-the-world cost is paid once per interval and covers
        only the snapshot/cut sweep.  Returns the new reports (also
        retained per monitor).
        """
        self.capture_phase()
        new_reports = self.evaluate_phase()
        self.checkpoints_run += 1
        return new_reports

    def capture_phase(self) -> int:
        """Phase 1: one atomic section enqueueing a capture per monitor.

        Returns the number of captures taken.  Breaker gating happens
        here — a quarantined monitor is not snapshotted at all.
        """
        started = perf_counter()
        try:
            taken = self.kernel.atomic(self._capture_locked)
        finally:
            elapsed = perf_counter() - started
            self.worldstop_latency.observe(elapsed)
            if elapsed > self.worldstop_max:
                self.worldstop_max = elapsed
        return taken

    def _capture_locked(self) -> int:
        self.atomic_sections += 1
        now = self.kernel.now()
        taken = 0
        for entry in list(self._entries):
            if not entry.breaker.allow(now):
                entry.checkpoints_skipped += 1
                continue
            try:
                capture = entry.capture(now)
            except Exception as exc:  # noqa: BLE001 — quarantine, not crash
                # A snapshot/cut that raises must not poison the fleet's
                # shared section: absorb, count, let the breaker decide.
                self.check_failures += 1
                entry.breaker.record_failure(
                    now, f"{type(exc).__name__}: {exc}"
                )
                continue
            self._pending_captures.append(capture)
            self.captures_taken += 1
            taken += 1
        return taken

    def evaluate_phase(self) -> list[FaultReport]:
        """Phase 2: drain the capture queue, running rules off the world-stop.

        Evaluates in capture (registration) order, so the merged report
        stream is ordered exactly as the old single-phase checkpoint's.
        One broken evaluator cannot poison the rest of the drain: an
        exception is absorbed, counted, and fed to that monitor's breaker
        — which therefore opens on phase-2 throws exactly as it did when
        evaluation ran inside the section.
        """
        started = perf_counter()
        found: list[FaultReport] = []
        try:
            captures, self._pending_captures = self._pending_captures, []
            for capture in captures:
                entry = capture.entry
                try:
                    reports = entry.evaluate(capture)
                except Exception as exc:  # noqa: BLE001 — quarantine, not crash
                    self.check_failures += 1
                    entry.breaker.record_failure(
                        capture.taken_at, f"{type(exc).__name__}: {exc}"
                    )
                    continue
                entry.breaker.record_success(capture.taken_at)
                self.evaluations_run += 1
                entry.checkpoints_run += 1
                segment = capture.segment
                if not segment.complete:
                    entry.dropped_in_windows += segment.dropped
                    entry.degraded_windows += 1
                entry.reports.extend(reports)
                found.extend(reports)
        finally:
            self.evaluate_latency.observe(perf_counter() - started)
        return found

    @property
    def pending_captures(self) -> int:
        """Captures taken in phase 1 and not yet evaluated."""
        return len(self._pending_captures)

    @property
    def worldstop_seconds(self) -> float:
        """Wall-clock seconds inside phase-1 atomic sections — the actual
        suspend-the-world cost."""
        return self.worldstop_latency.sum

    @property
    def evaluate_seconds(self) -> float:
        """Wall-clock seconds spent in phase-2 evaluation (workload live)."""
        return self.evaluate_latency.sum

    @property
    def checking_seconds(self) -> float:
        """Total wall-clock checking cost: world-stop plus evaluation.

        The pre-split counter, kept as the sum so Table-1 overhead ratios
        still charge the detector for *all* its CPU time — but only
        :attr:`worldstop_seconds` of it stalls the workload.
        """
        return self.worldstop_seconds + self.evaluate_seconds

    def worldstop_percentile(self, q: float) -> float:
        """The ``q``-quantile (0 < q <= 1) of per-checkpoint world-stops.

        Estimated from the histogram buckets and capped at the observed
        :attr:`worldstop_max`; 0.0 before the first checkpoint.
        """
        return min(self.worldstop_latency.percentile(q), self.worldstop_max)

    def counter_state(self) -> list[int]:
        """The engine's persisted :data:`COUNTERS` in table order, a
        snapshot row."""
        return [getattr(self, attr) for attr in _ENGINE_PERSISTED]

    def restore_counter_state(self, row: list) -> None:
        """Re-apply a :meth:`counter_state` row."""
        row = check_row(row, _ENGINE_FIELDS, "engine counters")
        for attr, value in zip(_ENGINE_PERSISTED, row):
            setattr(self, attr, value)

    # --------------------------------------------------------------- metrics

    def metrics(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        labels: Optional[dict] = None,
    ) -> MetricsRegistry:
        """Snapshot this engine's counters into a metrics registry.

        The stats surface exporters and the gate runner read: one family
        per :data:`COUNTERS` row, plus gauges, reports by confidence, the
        breakers' open/re-close transitions (over :meth:`quarantine_report`,
        so unregistered monitors' episodes count), and the phase
        histograms.  ``labels`` (e.g. ``{"shard": "0"}``) are
        stamped onto every family — :meth:`DetectionCluster.metrics`
        samples each shard's engine into one registry this way.  Pass a
        fresh ``registry`` per snapshot; sampling is additive.
        """
        registry = MetricsRegistry() if registry is None else registry
        base = {str(k): str(v) for k, v in (labels or {}).items()}
        names = tuple(base)
        for spec in COUNTERS:
            if spec.scope == MONITOR:
                family = registry.counter(
                    spec.family, spec.help, names + ("monitor",)
                )
                for entry in self._entries:
                    family.labels(**base, monitor=entry.label).inc(
                        getattr(entry, spec.attr)
                    )
            else:
                registry.counter(spec.family, spec.help, names).labels(
                    **base
                ).inc(getattr(self, spec.attr))

        def counter(name: str, help: str, value: float) -> None:
            registry.counter(name, help, names).labels(**base).inc(value)

        def gauge(name: str, help: str, value: float) -> None:
            registry.gauge(name, help, names).labels(**base).set(value)

        gauge(
            "repro_engine_monitors",
            "Monitors currently registered.",
            len(self._entries),
        )
        breakers = registry.gauge(
            "repro_engine_breakers",
            "Registered monitors by circuit-breaker state.",
            names + ("state",),
        )
        for state in BreakerState:
            breakers.labels(**base, state=state.value).set(
                sum(entry.breaker.state is state for entry in self._entries)
            )
        gauge(
            "repro_engine_pending_captures",
            "Phase-1 captures awaiting evaluation.",
            self.pending_captures,
        )
        quarantines = self.quarantine_report()
        counter(
            "repro_breaker_opened_total",
            "Circuit-breaker CLOSED->OPEN transitions (quarantines).",
            sum(record.times_opened for record in quarantines),
        )
        counter(
            "repro_breaker_reclosed_total",
            "Circuit-breaker recoveries back to CLOSED.",
            sum(record.times_reclosed for record in quarantines),
        )

        reports_family = registry.counter(
            "repro_reports_total",
            "Fault reports by confidence.",
            names + ("confidence",),
        )
        for confidence, reports in self.reports_by_confidence().items():
            reports_family.labels(
                **base, confidence=confidence.name.lower()
            ).inc(len(reports) + self._retired_reports[confidence])

        phase_family = registry.histogram(
            "repro_phase_latency_seconds",
            "Wall-clock latency per detection phase.",
            names + ("phase",),
        )
        phase_family.labels(**base, phase="capture").merge(
            self.worldstop_latency
        )
        phase_family.labels(**base, phase="evaluate").merge(
            self.evaluate_latency
        )

        for entry in self._entries:
            # Durable sinks (WriteAheadLog) carry their own latency
            # histograms; fold them in without a hard dependency.
            observe = getattr(entry.history, "observe_metrics", None)
            if callable(observe):
                observe(registry, labels=base)
        if self._retired_sinks is not None:
            registry.absorb(self._retired_sinks, labels=base)
        return registry

    # ------------------------------------------------------------- reporting

    @property
    def reports(self) -> list[FaultReport]:
        """All reports across registered monitors, in registration order."""
        merged: list[FaultReport] = []
        for entry in self._entries:
            merged.extend(entry.reports)
        return merged

    def reports_by_monitor(self) -> dict[str, list[FaultReport]]:
        """Per-monitor report streams, keyed by registration label."""
        return {entry.label: list(entry.reports) for entry in self._entries}

    def reports_for_rule(self, rule) -> list[FaultReport]:
        return [report for report in self.reports if report.rule is rule]

    def implicated_faults(self) -> frozenset:
        """Union of suspected fault classes over all monitors' reports."""
        suspects: set = set()
        for entry in self._entries:
            for report in entry.reports:
                suspects.update(report.suspected_faults)
        return frozenset(suspects)

    def reports_by_confidence(self) -> dict[Confidence, list[FaultReport]]:
        """All reports split into confirmed vs degraded streams."""
        split: dict[Confidence, list[FaultReport]] = {
            confidence: [] for confidence in Confidence
        }
        for report in self.reports:
            split[report.confidence].append(report)
        return split

    @property
    def clean(self) -> bool:
        """True when no registered monitor has reported a violation."""
        return all(not entry.reports for entry in self._entries)

    @property
    def confirmed_clean(self) -> bool:
        """True when no *confirmed* violation exists (degraded advisories
        from lossy windows are tolerated)."""
        return all(
            report.confidence is not Confidence.CONFIRMED
            for report in self.reports
        )

    # ------------------------------------------------------------ resilience

    @property
    def quarantined(self) -> tuple[RegisteredMonitor, ...]:
        """Registered monitors currently sitting out checkpoints (OPEN)."""
        return tuple(e for e in self._entries if e.quarantined)

    def quarantine_report(self) -> list[QuarantineRecord]:
        """Breaker status of every monitor whose breaker ever left CLOSED.

        The explicit surface for "this monitor's checker is broken": one
        record per monitor with a quarantine history, renderable for logs.
        Includes the closed-out records of since-unregistered monitors so
        an episode survives its monitor leaving the fleet.
        """
        live = [
            entry.quarantine_record()
            for entry in self._entries
            if entry.breaker.transitions or entry.breaker.consecutive_failures
        ]
        return live + list(self.retired_quarantines)

    def __repr__(self) -> str:
        return (
            f"DetectionEngine(monitors={len(self._entries)}, "
            f"checkpoints={self.checkpoints_run}, "
            f"atomic_sections={self.atomic_sections}, "
            f"captures_taken={self.captures_taken}, "
            f"evaluations_run={self.evaluations_run}, "
            f"incremental_hits={self.incremental_hits}, "
            f"staged_flushes={self.staged_flushes}, "
            f"reports={sum(len(e.reports) for e in self._entries)}, "
            f"dropped_events={self.dropped_events}, "
            f"degraded_windows={self.degraded_windows}, "
            f"quarantined={len(self.quarantined)})"
        )

