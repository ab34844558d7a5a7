"""Integration: monitor apps and detection on the real-thread kernel.

Thread interleavings are nondeterministic, so assertions here are
schedule-independent: completion, conservation, mutual-exclusion safety,
and absence of detector reports on healthy workloads.
"""

import pytest

from repro.apps import BoundedBuffer, SingleResourceAllocator
from repro.detection import DetectionSession, DetectorConfig
from repro.history import HistoryDatabase
from repro.kernel import Delay, ThreadKernel

FAST = 0.002  # virtual-seconds -> wall-seconds compression


class TestBufferOnThreads:
    def test_items_conserved_and_ordered(self):
        kernel = ThreadKernel(time_scale=FAST)
        buffer = BoundedBuffer(kernel, capacity=3)
        received = []

        def producer():
            for item in range(40):
                yield Delay(0.02)
                yield from buffer.send(item)

        def consumer():
            for __ in range(40):
                yield Delay(0.02)
                item = yield from buffer.receive()
                received.append(item)

        kernel.spawn(producer())
        kernel.spawn(consumer())
        kernel.run()
        kernel.raise_failures()
        assert received == list(range(40))  # single pair: FIFO exact

    def test_many_pairs_conserve_items(self):
        kernel = ThreadKernel(time_scale=FAST)
        buffer = BoundedBuffer(kernel, capacity=4)
        received = []

        def producer():
            for item in range(20):
                yield Delay(0.01)
                yield from buffer.send(item)

        def consumer():
            for __ in range(20):
                yield Delay(0.01)
                received.append((yield from buffer.receive()))

        for __ in range(3):
            kernel.spawn(producer())
            kernel.spawn(consumer())
        kernel.run()
        kernel.raise_failures()
        assert sorted(received) == sorted(list(range(20)) * 3)
        assert buffer.occupancy == 0

    def test_detector_clean_on_healthy_threaded_run(self):
        kernel = ThreadKernel(time_scale=FAST)
        buffer = BoundedBuffer(
            kernel, capacity=3, history=HistoryDatabase(), service_time=0.005
        )
        detector = DetectionSession(
            kernel,
            monitors=[buffer],
            config=DetectorConfig(interval=0.5, tmax=None, tio=None),
        )

        def producer():
            for item in range(30):
                yield Delay(0.02)
                yield from buffer.send(item)

        def consumer():
            for __ in range(30):
                yield Delay(0.02)
                yield from buffer.receive()

        done = {"count": 4}

        def tracked(body):
            yield from body
            done["count"] -= 1
            if done["count"] == 0:
                detector.stop()

        for __ in range(2):
            kernel.spawn(tracked(producer()))
            kernel.spawn(tracked(consumer()))
        detector.start()
        kernel.run(until=3000)
        kernel.raise_failures()
        assert detector.clean, [str(r) for r in detector.reports]
        assert detector.checkpoints_run > 0


class TestAllocatorOnThreads:
    def test_exclusive_grants(self):
        kernel = ThreadKernel(time_scale=FAST)
        allocator = SingleResourceAllocator(kernel)
        holding = []
        violations = []

        def user(i):
            for __ in range(5):
                yield Delay(0.01 * (i + 1))
                yield from allocator.request()
                holding.append(i)
                if len(holding) > 1:
                    violations.append(list(holding))
                yield Delay(0.02)
                holding.remove(i)
                yield from allocator.release()

        for i in range(4):
            kernel.spawn(user(i))
        kernel.run()
        kernel.raise_failures()
        assert violations == []
        assert allocator.grants == 20

    def test_realtime_order_fault_caught_on_threads(self):
        kernel = ThreadKernel(time_scale=FAST)
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        detector = DetectionSession(
            kernel,
            monitors=[allocator],
            config=DetectorConfig(interval=1000.0),
        )

        def buggy():
            yield Delay(0.01)
            yield from allocator.release()

        kernel.spawn(buggy())
        kernel.run()
        assert any(
            report.rule_id == "ST-8b" for report in detector.reports
        )
