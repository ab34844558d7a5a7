"""Tests for the monitor metrics observer."""

import sys

import pytest

from repro.apps import BoundedBuffer, HoareBoundedBuffer
from repro.history import HistoryDatabase
from repro.kernel import Delay, RandomPolicy, SimKernel
from repro.monitor.metrics import DurationStats, MonitorMetrics
from tests.conftest import consumer, producer


class TestDurationStats:
    def test_empty(self):
        stats = DurationStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.percentile(0.95) == 0.0

    def test_accumulation(self):
        stats = DurationStats()
        for value in (1.0, 3.0, 2.0):
            stats.add(value)
        assert stats.count == 3
        assert stats.total == 6.0
        assert stats.mean == pytest.approx(2.0)
        assert stats.maximum == 3.0
        # Bucket estimates: the first third ends at 1.0's bucket bound,
        # and the top is capped at the exact maximum.
        assert stats.percentile(1 / 3) == 1.0
        assert stats.percentile(0.99) == 3.0

    def test_state_size_is_bounded(self):
        def state_size(stats):
            """Bytes of every container in the object graph of ``stats``."""
            size, pending = 0, [stats]
            while pending:
                for value in vars(pending.pop()).values():
                    if isinstance(value, (list, tuple, dict)):
                        size += sys.getsizeof(value)
                    elif hasattr(value, "__dict__"):
                        pending.append(value)
            return size

        stats = DurationStats()
        stats.add(0.5)
        before = state_size(stats)
        for index in range(100_000):
            stats.add(index % 977 * 0.01)
        assert stats.count == 100_001
        assert state_size(stats) == before


class TestAttachment:
    def test_requires_history(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2)
        with pytest.raises(ValueError):
            MonitorMetrics.attach(buffer)

    def test_attach_subscribes(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        metrics = MonitorMetrics.attach(buffer)
        kernel.spawn(producer(buffer, 3))
        kernel.spawn(consumer(buffer, 3))
        kernel.run(until=5)
        kernel.raise_failures()
        assert metrics.total_enters == 6
        assert metrics.calls == {"Send": 3, "Receive": 3}


class TestMeasurements:
    def test_service_time_measured(self, kernel):
        buffer = BoundedBuffer(
            kernel, capacity=4, history=HistoryDatabase(), service_time=0.1
        )
        metrics = MonitorMetrics.attach(buffer)
        kernel.spawn(producer(buffer, 5, delay=0.5))
        kernel.spawn(consumer(buffer, 5, delay=0.5))
        kernel.run(until=20)
        kernel.raise_failures()
        # Each completed op held the monitor for its 0.1 service delay; an
        # op that Waits contributes an extra (legitimate) zero-length span
        # for its time inside before releasing the monitor.
        assert metrics.service.count >= 10
        assert metrics.service.maximum == pytest.approx(0.1, rel=0.05)
        assert metrics.service.percentile(0.5) == pytest.approx(0.1, rel=0.05)

    def test_entry_wait_and_contention(self, fifo_kernel):
        buffer = BoundedBuffer(
            fifo_kernel, capacity=4, history=HistoryDatabase(), service_time=1.0
        )
        metrics = MonitorMetrics.attach(buffer)

        def sender(start):
            yield Delay(start)
            yield from buffer.send("x")

        fifo_kernel.spawn(sender(0.0))   # holds the monitor 1s
        fifo_kernel.spawn(sender(0.5))   # queues for ~0.5s
        fifo_kernel.run()
        fifo_kernel.raise_failures()
        assert metrics.contended_enters == 1
        assert metrics.immediate_enters == 1
        assert metrics.contention_ratio == pytest.approx(0.5)
        assert metrics.entry_wait.count == 1
        assert metrics.entry_wait.mean == pytest.approx(0.5, abs=0.01)

    def test_condition_wait_measured(self, fifo_kernel):
        buffer = BoundedBuffer(fifo_kernel, capacity=2, history=HistoryDatabase())
        metrics = MonitorMetrics.attach(buffer)

        def receiver():
            yield from buffer.receive()  # waits ~2s on "empty"

        def sender():
            yield Delay(2.0)
            yield from buffer.send("x")

        fifo_kernel.spawn(receiver())
        fifo_kernel.spawn(sender())
        fifo_kernel.run()
        fifo_kernel.raise_failures()
        assert metrics.cond_wait["empty"].count == 1
        assert metrics.cond_wait["empty"].mean == pytest.approx(2.0, abs=0.01)

    def test_hoare_discipline_supported(self, kernel):
        buffer = HoareBoundedBuffer(
            kernel, capacity=2, history=HistoryDatabase()
        )
        metrics = MonitorMetrics.attach(buffer)
        kernel.spawn(producer(buffer, 5))
        kernel.spawn(consumer(buffer, 5))
        kernel.run(until=10)
        kernel.raise_failures()
        assert metrics.total_enters == 10


class TestRendering:
    def test_render_contains_populations(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        metrics = MonitorMetrics.attach(buffer)
        kernel.spawn(producer(buffer, 2))
        kernel.spawn(consumer(buffer, 2))
        kernel.run(until=5)
        kernel.raise_failures()
        text = metrics.render()
        assert "entry wait" in text
        assert "service" in text
        assert "Send" in text
        assert "contention" in text
