"""Tests for the error-recovery supervisor and strategies."""

import pytest

from repro.apps import BoundedBuffer
from repro.detection import DetectionSession, DetectorConfig, STRule
from repro.history import HistoryDatabase
from repro.kernel import Delay, SimKernel
from repro.recovery.strategies import (
    AlarmStrategy,
    ExpelStrategy,
    RecoveryAction,
    RecoverySupervisor,
    ResetQueuesStrategy,
)
from tests.conftest import consumer, producer


def wedged_monitor_scenario(kernel):
    """A process terminates inside the buffer, wedging it (fault I.c.4)."""
    buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
    detector = DetectionSession(
        kernel,
        monitors=[buffer],
        config=DetectorConfig(interval=1.0, tmax=2.0, tio=60.0),
    )

    def saboteur():
        yield from buffer.monitor.enter("Send")
        # terminates inside

    def late_user(sink):
        yield Delay(0.5)
        yield from buffer.send("item")
        sink.append("sent")

    def ticker():
        # Keeps virtual time moving while everything else is wedged, so the
        # Tmax timer can actually elapse before the manual checkpoint.
        yield Delay(10.0)

    sent = []
    kernel.spawn(saboteur(), "saboteur")
    kernel.spawn(late_user(sent), "late-user")
    kernel.spawn(ticker(), "ticker")
    return buffer, detector, sent


class TestAlarmStrategy:
    def test_alarm_applies_to_everything_and_records(self, kernel):
        buffer, detector, __ = wedged_monitor_scenario(kernel)
        alarms = AlarmStrategy()
        supervisor = RecoverySupervisor(detector, [alarms])
        kernel.run(until=4.0)
        supervisor.checkpoint_and_recover()
        assert alarms.alarms
        assert all(
            record.action is RecoveryAction.ALARM
            for record in supervisor.records
        )

    def test_alarm_callback_invoked(self, kernel):
        buffer, detector, __ = wedged_monitor_scenario(kernel)
        seen = []
        supervisor = RecoverySupervisor(detector, [AlarmStrategy(seen.append)])
        kernel.run(until=4.0)
        supervisor.checkpoint_and_recover()
        assert seen


class TestExpelStrategy:
    def test_expel_unwedges_the_monitor(self, kernel):
        buffer, detector, sent = wedged_monitor_scenario(kernel)
        supervisor = RecoverySupervisor(
            detector, [ExpelStrategy(), AlarmStrategy()]
        )
        # Let the saboteur wedge the monitor and the late user queue up.
        kernel.run(until=4.0)
        assert sent == []  # late user is stuck behind the dead owner
        supervisor.checkpoint_and_recover()
        expelled = [
            record
            for record in supervisor.records
            if record.action is RecoveryAction.EXPELLED
        ]
        assert expelled
        # After expulsion the late user can finally complete.
        kernel.run(until=8.0)
        kernel.raise_failures()
        assert sent == ["sent"]

    def test_expel_only_handles_tmax_reports(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        detector = DetectionSession(kernel, monitors=[buffer])
        strategy = ExpelStrategy()
        from repro.detection.reports import FaultReport

        other = FaultReport(
            rule=STRule.ENTRY_QUEUE_MATCHES,
            message="x",
            monitor="buffer",
            detected_at=1.0,
        )
        assert not strategy.applies_to(other)
        tmax_report = FaultReport(
            rule=STRule.TMAX_EXCEEDED,
            message="x",
            monitor="buffer",
            detected_at=1.0,
            pids=(1,),
        )
        assert strategy.applies_to(tmax_report)


class TestResetQueuesStrategy:
    def test_clears_dead_owner_on_running_mismatch(self, kernel):
        buffer, detector, sent = wedged_monitor_scenario(kernel)
        supervisor = RecoverySupervisor(detector, [ResetQueuesStrategy()])
        kernel.run(until=4.0)
        # Force a RUNNING_MATCHES-shaped report via a checkpoint: the model
        # agrees with reality here, so drive the strategy directly instead.
        from repro.detection.reports import FaultReport

        report = FaultReport(
            rule=STRule.RUNNING_MATCHES,
            message="divergence",
            monitor="buffer",
            detected_at=4.0,
        )
        record = supervisor.recover(report)
        assert record.action is RecoveryAction.QUEUES_RESET
        kernel.run(until=8.0)
        kernel.raise_failures()
        assert sent == ["sent"]

    def test_never_kills_live_owner(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        detector = DetectionSession(kernel, monitors=[buffer])
        supervisor = RecoverySupervisor(detector, [ResetQueuesStrategy()])
        inside = []

        def legit():
            yield from buffer.monitor.enter("Send")
            inside.append(True)
            yield Delay(2.0)
            buffer.monitor.exit()

        kernel.spawn(legit())
        kernel.run(until=1.0)
        from repro.detection.reports import FaultReport

        report = FaultReport(
            rule=STRule.RUNNING_MATCHES,
            message="divergence",
            monitor="buffer",
            detected_at=1.0,
        )
        record = supervisor.recover(report)
        assert record.action is RecoveryAction.NONE
        kernel.run()
        kernel.raise_failures()


class TestSupervisor:
    def test_first_applicable_strategy_wins(self, kernel):
        buffer, detector, __ = wedged_monitor_scenario(kernel)
        alarms = AlarmStrategy()
        supervisor = RecoverySupervisor(detector, [ExpelStrategy(), alarms])
        kernel.run(until=4.0)
        supervisor.checkpoint_and_recover()
        # Tmax reports went to ExpelStrategy, everything else to alarms.
        actions = {record.action for record in supervisor.records}
        assert RecoveryAction.EXPELLED in actions

    def test_no_strategy_records_none(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        detector = DetectionSession(kernel, monitors=[buffer])
        supervisor = RecoverySupervisor(detector, [])
        from repro.detection.reports import FaultReport

        report = FaultReport(
            rule=STRule.TMAX_EXCEEDED, message="x", monitor="b", detected_at=0.0
        )
        record = supervisor.recover(report)
        assert record.action is RecoveryAction.NONE
