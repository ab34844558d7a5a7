"""Tests for the Hoare-discipline bounded buffer (urgent-stack exercise)."""

import pytest

from repro.apps import HoareBoundedBuffer
from repro.detection import (
    DetectionSession,
    DetectorConfig,
    check_full_trace,
)
from repro.history import HistoryDatabase
from repro.kernel import Delay, RandomPolicy, SimKernel
from repro.monitor import Discipline
from tests.conftest import consumer, producer


class TestSemantics:
    def test_declares_signal_and_wait(self, kernel):
        buffer = HoareBoundedBuffer(kernel, capacity=2)
        assert buffer.declaration.discipline is Discipline.SIGNAL_AND_WAIT

    def test_fifo_delivery(self, kernel):
        buffer = HoareBoundedBuffer(kernel, capacity=3)
        received = []
        kernel.spawn(producer(buffer, 20))
        kernel.spawn(consumer(buffer, 20, received))
        kernel.run(until=30)
        kernel.raise_failures()
        assert received == list(range(20))

    def test_signal_events_recorded(self, kernel):
        history = HistoryDatabase(retain_full_trace=True)
        buffer = HoareBoundedBuffer(kernel, capacity=3, history=history)
        kernel.spawn(producer(buffer, 5))
        kernel.spawn(consumer(buffer, 5))
        kernel.run(until=10)
        kernel.raise_failures()
        signals = [event for event in history.full_trace if event.is_signal]
        # every Send and every Receive signals exactly once
        assert len(signals) == 10

    def test_urgent_stack_actually_used(self, fifo_kernel):
        """A hand-off must park the signaller on the urgent stack while the
        resumed waiter is still inside the monitor."""
        buffer = HoareBoundedBuffer(fifo_kernel, capacity=1)
        monitor = buffer.monitor
        urgent_seen = []

        def waiter():
            yield from monitor.enter("Receive")
            yield from monitor.wait("empty")
            # Resumed by the signal: the signaller must now be on urgent.
            urgent_seen.append(
                tuple(e.pid for e in monitor.core.snapshot().urgent)
            )
            monitor.exit()

        def signaller():
            yield Delay(0.5)
            yield from monitor.enter("Send")
            yield from monitor.signal("empty")
            monitor.exit()

        fifo_kernel.spawn(waiter(), "waiter")
        signaller_pid = fifo_kernel.spawn(signaller(), "signaller")
        fifo_kernel.run()
        fifo_kernel.raise_failures()
        assert urgent_seen == [(signaller_pid,)]


class TestDetection:
    @pytest.mark.parametrize("seed", [1, 7, 19])
    def test_clean_runs_are_report_free(self, seed):
        kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
        history = HistoryDatabase(retain_full_trace=True)
        buffer = HoareBoundedBuffer(
            kernel, capacity=3, history=history, service_time=0.02
        )
        detector = DetectionSession(
            kernel,
            monitors=[buffer],
            config=DetectorConfig(interval=0.5, tmax=30.0, tio=30.0),
        )
        for __ in range(2):
            kernel.spawn(producer(buffer, 15, delay=0.05))
            kernel.spawn(consumer(buffer, 15, delay=0.04))
        detector.start()
        kernel.run(until=30)
        kernel.raise_failures()
        assert detector.clean, [str(r) for r in detector.reports]
        fd_reports = check_full_trace(
            buffer.declaration,
            history.full_trace,
            final_state=buffer.snapshot(),
            tmax=30.0,
            tio=30.0,
        )
        assert fd_reports == []

    def test_integrity_fault_still_detected_under_hoare(self, kernel):
        """Algorithm-2's discipline-aware counting still catches level-II
        faults on the Hoare variant."""
        from repro.apps import BufferIntegrityFault
        from repro.detection import FaultClass

        history = HistoryDatabase()
        buffer = HoareBoundedBuffer(
            kernel,
            capacity=2,
            history=history,
            integrity_fault=BufferIntegrityFault.RECEIVE_IGNORES_EMPTY,
        )
        detector = DetectionSession(
            kernel,
            monitors=[buffer],
            config=DetectorConfig(interval=0.5, tmax=None, tio=None),
        )
        kernel.spawn(producer(buffer, 5, delay=0.2))
        kernel.spawn(consumer(buffer, 15, delay=0.02))
        detector.start()
        kernel.run(until=10)
        assert any(
            report.implicates(FaultClass.RECEIVE_EXCEEDS_SEND)
            for report in detector.reports
        )
