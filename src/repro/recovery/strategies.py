"""Error-recovery strategies (paper Section 5, second extension).

"A fault tolerant system detects errors created as the effect of a fault
and in addition, applies error recovery techniques to restore and continue
the normal operations."  The supervisor implements the skeleton of that
extension: each detected :class:`~repro.detection.reports.FaultReport` is
offered to an ordered list of strategies; the first one that applies
performs its action on the monitor.

Shipped strategies (deliberately conservative — recovery must never make a
healthy monitor worse).  The *destructive* strategies additionally require
:attr:`~repro.detection.reports.Confidence.CONFIRMED` reports: a finding
downgraded to DEGRADED came out of a lossy checkpoint window and may be an
artefact of the dropped events, so it can raise an alarm but must never
expel a process or reset queues.

* :class:`AlarmStrategy` — applies to everything; records an alarm and
  optionally calls a user callback.  The paper's minimum viable recovery.
* :class:`ExpelStrategy` — for Tmax violations (a process wedged inside
  the monitor, e.g. terminated there): forcibly vacates the Running slot
  and admits the next waiter, un-wedging the monitor.
* :class:`ResetQueuesStrategy` — for Running-set divergence where a stale
  entry occupies the monitor with no live process behind it.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.detection.durability import report_key
from repro.detection.reports import Confidence, FaultReport
from repro.detection.rules import STRule
from repro.monitor.construct import Monitor

__all__ = [
    "RecoveryAction",
    "RecoveryRecord",
    "RecoveryStrategy",
    "AlarmStrategy",
    "ExpelStrategy",
    "ResetQueuesStrategy",
    "RecoverySupervisor",
]


class RecoveryAction(enum.Enum):
    """What a strategy did about a report."""

    NONE = "none"
    ALARM = "alarm"
    EXPELLED = "expelled"
    QUEUES_RESET = "queues-reset"


@dataclass(frozen=True)
class RecoveryRecord:
    """One applied recovery action, for the audit log."""

    report: FaultReport
    action: RecoveryAction
    detail: str = ""


class RecoveryStrategy(abc.ABC):
    """Maps one fault report to zero or one recovery action."""

    @abc.abstractmethod
    def applies_to(self, report: FaultReport) -> bool:
        """True when this strategy wants to handle the report."""

    @abc.abstractmethod
    def apply(self, monitor: Monitor, report: FaultReport) -> RecoveryRecord:
        """Perform the action; must be idempotent per report."""


class AlarmStrategy(RecoveryStrategy):
    """Record an alarm (and optionally notify) for any report."""

    def __init__(
        self, callback: Optional[Callable[[FaultReport], None]] = None
    ) -> None:
        self._callback = callback
        self.alarms: list[FaultReport] = []

    def applies_to(self, report: FaultReport) -> bool:
        return True

    def apply(self, monitor: Monitor, report: FaultReport) -> RecoveryRecord:
        self.alarms.append(report)
        if self._callback is not None:
            self._callback(report)
        return RecoveryRecord(report, RecoveryAction.ALARM)


class ExpelStrategy(RecoveryStrategy):
    """Evict a process wedged inside the monitor (Tmax violations).

    The canonical target is fault I.c.4 — a process that terminated inside
    the monitor and will never exit.  Expelling vacates its Running slot
    and admits the next waiter, restoring liveness.
    """

    def applies_to(self, report: FaultReport) -> bool:
        return (
            report.rule is STRule.TMAX_EXCEEDED
            and bool(report.pids)
            and report.confidence is Confidence.CONFIRMED
        )

    def apply(self, monitor: Monitor, report: FaultReport) -> RecoveryRecord:
        expelled = []
        for pid in report.pids:
            if monitor.core.is_inside(pid):
                for wake in monitor.kernel.atomic(
                    lambda p=pid: monitor.core.expel(p)
                ):
                    monitor.kernel.make_ready(wake)
                expelled.append(pid)
        if not expelled:
            return RecoveryRecord(
                report, RecoveryAction.NONE, "nothing left to expel"
            )
        return RecoveryRecord(
            report,
            RecoveryAction.EXPELLED,
            f"expelled {', '.join(f'P{p}' for p in expelled)}",
        )


class ResetQueuesStrategy(RecoveryStrategy):
    """Vacate stale Running entries whose process is no longer alive.

    Targets the Running-set divergence reports (a held monitor with a dead
    or departed owner).  Only entries whose pid the kernel reports as dead
    are removed — a *live* divergent process is a detector finding, not
    something recovery may kill.
    """

    def applies_to(self, report: FaultReport) -> bool:
        return (
            report.rule is STRule.RUNNING_MATCHES
            and report.confidence is Confidence.CONFIRMED
        )

    def apply(self, monitor: Monitor, report: FaultReport) -> RecoveryRecord:
        from repro.errors import UnknownProcessError

        cleared = []
        for entry in monitor.core.snapshot().running:
            try:
                record = monitor.kernel.process(entry.pid)
                alive = record.alive
            except UnknownProcessError:
                alive = False
            if not alive:
                for wake in monitor.kernel.atomic(
                    lambda p=entry.pid: monitor.core.expel(p)
                ):
                    monitor.kernel.make_ready(wake)
                cleared.append(entry.pid)
        if not cleared:
            return RecoveryRecord(
                report, RecoveryAction.NONE, "no dead owners found"
            )
        return RecoveryRecord(
            report,
            RecoveryAction.QUEUES_RESET,
            f"cleared dead owners {', '.join(f'P{p}' for p in cleared)}",
        )


class RecoverySupervisor:
    """Couples a :class:`~repro.detection.session.DetectionSession` with an
    ordered strategy list.

    Usage::

        supervisor = RecoverySupervisor(session,
                                        [ExpelStrategy(), AlarmStrategy()])
        ...
        new_reports = supervisor.checkpoint_and_recover()

    Each report is acted on at the registered monitor whose declared name
    the report carries.
    """

    def __init__(self, session, strategies: list[RecoveryStrategy]) -> None:
        self._session = session
        self._strategies = list(strategies)
        self.records: list[RecoveryRecord] = []
        #: Report keys already acted on.  A restarted detector replays its
        #: journal (see :mod:`repro.detection.durability`) — re-offering a
        #: report whose action was already applied must be a no-op, not a
        #: second expulsion.
        self.handled: set[str] = set()

    def checkpoint_and_recover(self) -> list[FaultReport]:
        """Run one session checkpoint and recover from its findings."""
        new_reports = self._session.checkpoint()
        for report in new_reports:
            self.recover(report)
        return new_reports

    def _monitor_for(self, report: FaultReport) -> Monitor:
        for entry in self._session.entries:
            if entry.monitor.name == report.monitor:
                return entry.monitor
        raise KeyError(f"no registered monitor named {report.monitor!r}")

    def recover(self, report: FaultReport) -> RecoveryRecord:
        """Offer one report to the strategies; first applicable one wins.

        Idempotent per report: a report already recovered from (matched by
        its stable :func:`~repro.detection.durability.report_key`) is not
        offered to the strategies again — crash/restart replay of the
        report journal must not re-apply destructive actions.
        """
        key = report_key(report)
        if key in self.handled:
            record = RecoveryRecord(
                report, RecoveryAction.NONE, "already recovered (replay)"
            )
            self.records.append(record)
            return record
        self.handled.add(key)
        for strategy in self._strategies:
            if strategy.applies_to(report):
                record = strategy.apply(self._monitor_for(report), report)
                self.records.append(record)
                return record
        record = RecoveryRecord(report, RecoveryAction.NONE, "no strategy")
        self.records.append(record)
        return record
