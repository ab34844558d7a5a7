"""Tests for the bounded-buffer communication coordinator."""

import pytest

from repro.apps import BoundedBuffer, BufferIntegrityFault
from repro.history import HistoryDatabase
from repro.kernel import Delay, RandomPolicy, SimKernel
from tests.conftest import consumer, producer


class TestBasics:
    def test_invalid_capacity(self, kernel):
        with pytest.raises(ValueError):
            BoundedBuffer(kernel, capacity=0)

    def test_invalid_service_time(self, kernel):
        with pytest.raises(ValueError):
            BoundedBuffer(kernel, capacity=1, service_time=-1)

    def test_fifo_delivery(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=3)
        received = []
        kernel.spawn(producer(buffer, 20))
        kernel.spawn(consumer(buffer, 20, received))
        kernel.run()
        kernel.raise_failures()
        assert received == list(range(20))

    def test_occupancy_bounded_by_capacity(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2)
        peaks = []

        def watcher():
            for __ in range(100):
                peaks.append(buffer.occupancy)
                yield Delay(0.03)

        kernel.spawn(producer(buffer, 15, delay=0.01))
        kernel.spawn(consumer(buffer, 15, delay=0.09))
        kernel.spawn(watcher())
        kernel.run(until=3)
        assert all(0 <= peak <= 2 for peak in peaks)

    def test_resource_count_is_free_slots(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=4)
        assert buffer.resource_count() == 4

        def fill():
            yield from buffer.send(1)
            yield from buffer.send(2)

        kernel.spawn(fill())
        kernel.run()
        kernel.raise_failures()
        assert buffer.resource_count() == 2
        assert buffer.occupancy == 2


class TestBlockingBehaviour:
    def test_receiver_blocks_on_empty(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2)
        log = []

        def eager_receiver():
            item = yield from buffer.receive()
            log.append(item)

        def slow_sender():
            yield Delay(1.0)
            yield from buffer.send("late")

        kernel.spawn(eager_receiver())
        kernel.spawn(slow_sender())
        result = kernel.run()
        kernel.raise_failures()
        assert log == ["late"]
        assert result.end_time >= 1.0

    def test_sender_blocks_on_full(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=1)
        order = []

        def sender():
            yield from buffer.send(1)
            order.append("sent-1")
            yield from buffer.send(2)
            order.append("sent-2")

        def late_receiver():
            yield Delay(1.0)
            yield from buffer.receive()
            order.append("received")

        kernel.spawn(sender())
        kernel.spawn(late_receiver())
        kernel.run()
        kernel.raise_failures()
        assert order == ["sent-1", "received", "sent-2"]

    def test_many_producers_consumers_conserve_items(self):
        kernel = SimKernel(RandomPolicy(seed=13), on_deadlock="stop")
        buffer = BoundedBuffer(kernel, capacity=5, service_time=0.01)
        received = []
        for __ in range(3):
            kernel.spawn(producer(buffer, 30, delay=0.02))
        for __ in range(3):
            kernel.spawn(consumer(buffer, 30, received, delay=0.02))
        kernel.run(until=60)
        kernel.raise_failures()
        assert len(received) == 90
        assert sorted(received) == sorted(list(range(30)) * 3)


class TestIntegrityFaultVariants:
    """The buggy variants must actually misbehave (campaign preconditions)."""

    def test_send_ignores_full_overwrites(self, kernel):
        buffer = BoundedBuffer(
            kernel,
            capacity=1,
            integrity_fault=BufferIntegrityFault.SEND_IGNORES_FULL,
        )

        def sender():
            yield from buffer.send("a")
            yield from buffer.send("b")  # would block on a correct buffer

        kernel.spawn(sender())
        result = kernel.run()
        kernel.raise_failures()
        assert result.quiesced
        assert buffer.occupancy == 1  # "a" was clobbered

    def test_receive_ignores_empty_fabricates(self, kernel):
        buffer = BoundedBuffer(
            kernel,
            capacity=1,
            integrity_fault=BufferIntegrityFault.RECEIVE_IGNORES_EMPTY,
        )
        got = []

        def receiver():
            item = yield from buffer.receive()
            got.append(item)

        kernel.spawn(receiver())
        result = kernel.run()
        kernel.raise_failures()
        assert result.quiesced
        assert got == [None]

    def test_spurious_send_delay_blocks_on_nonfull_buffer(self, kernel):
        buffer = BoundedBuffer(
            kernel,
            capacity=3,
            history=HistoryDatabase(retain_full_trace=True),
            integrity_fault=BufferIntegrityFault.SEND_SPURIOUS_DELAY,
        )

        def sender():
            yield from buffer.send("x")

        kernel.spawn(sender())
        result = kernel.run()
        assert result.deadlocked  # nothing will ever signal "full"
        waits = [e for e in buffer.history.full_trace if e.is_wait]
        assert len(waits) == 1
        assert waits[0].cond == "full"


class TestCheckpointAtomicity:
    """``R#`` and its Signal-Exit change together, even on real threads."""

    def test_checkpoint_cannot_split_take_from_its_exit(self):
        import threading

        from repro.detection import DetectionSession, DetectorConfig
        from repro.kernel import ThreadKernel

        taken, resume = threading.Event(), threading.Event()

        class ParkedBuffer(BoundedBuffer):
            # Preempted right after the item leaves the buffer.
            def _take(self):
                item = super()._take()
                taken.set()
                resume.wait(timeout=5.0)
                return item

        kernel = ThreadKernel(time_scale=0.01)
        buffer = ParkedBuffer(kernel, capacity=3, history=HistoryDatabase())
        session = DetectionSession(
            kernel,
            monitors=[buffer],
            config=DetectorConfig(interval=1000.0, tmax=None, tio=None),
        )
        kernel.spawn(producer(buffer, 1, delay=0.0))
        kernel.spawn(consumer(buffer, 1, delay=0.0))
        assert taken.wait(timeout=5.0)
        checker = threading.Thread(target=session.checkpoint)
        checker.start()
        # A capture taken now would see R# = 3 against s=1, r=0 (R# = 2).
        checker.join(timeout=0.3)
        resume.set()
        kernel.run(until=500)
        checker.join(timeout=5.0)
        kernel.raise_failures()
        assert not checker.is_alive()
        assert session.checkpoints_run == 1
        assert session.reports == []
