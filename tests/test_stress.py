"""Scale tests: the machinery must stay well-behaved on larger runs.

These guard against accidental quadratic blowups in the kernel's ready
queue, the history database or the checking-list replay — sizes are chosen
to finish in a couple of seconds while being an order of magnitude above
the rest of the suite.
"""

import pytest

from repro.apps import BoundedBuffer, CountingResourceAllocator
from repro.detection import DetectionSession, DetectorConfig
from repro.history import HistoryDatabase
from repro.kernel import Delay, RandomPolicy, SimKernel
from tests.conftest import consumer, producer


def test_large_buffer_workload_with_detection():
    kernel = SimKernel(RandomPolicy(seed=2), on_deadlock="stop")
    history = HistoryDatabase()
    buffer = BoundedBuffer(
        kernel, capacity=8, history=history, service_time=0.001
    )
    detector = DetectionSession(
        kernel,
        monitors=[buffer],
        config=DetectorConfig(interval=1.0, tmax=100.0, tio=100.0),
    )
    pairs = 8
    items = 250
    for __ in range(pairs):
        kernel.spawn(producer(buffer, items, delay=0.01))
        kernel.spawn(consumer(buffer, items, delay=0.01))
    detector.start()
    kernel.run(until=500, max_steps=10_000_000)
    kernel.raise_failures()
    assert detector.clean
    # 2 pairs x items ops x ~2+ events each
    assert history.total_recorded >= pairs * items * 2 * 2
    assert buffer.occupancy == 0


def test_many_processes_on_counting_allocator():
    kernel = SimKernel(RandomPolicy(seed=4), on_deadlock="stop")
    allocator = CountingResourceAllocator(
        kernel, units=5, history=HistoryDatabase()
    )
    detector = DetectionSession(
        kernel,
        monitors=[allocator],
        config=DetectorConfig(interval=1.0, tlimit=200.0),
    )
    users = 40

    def user(index):
        for __ in range(20):
            yield Delay(0.01 * (index % 7 + 1))
            yield from allocator.request()
            yield Delay(0.02)
            yield from allocator.release()

    for index in range(users):
        kernel.spawn(user(index))
    detector.start()
    kernel.run(until=500, max_steps=10_000_000)
    kernel.raise_failures()
    assert detector.clean
    assert allocator.grants == users * 20
    assert allocator.available == 5


def test_history_pruning_keeps_long_run_bounded():
    kernel = SimKernel(RandomPolicy(seed=6), on_deadlock="stop")
    history = HistoryDatabase()
    buffer = BoundedBuffer(kernel, capacity=4, history=history)
    detector = DetectionSession(
        kernel,
        monitors=[buffer],
        config=DetectorConfig(interval=0.5, tmax=None, tio=None),
    )
    kernel.spawn(producer(buffer, 2000, delay=0.01))
    kernel.spawn(consumer(buffer, 2000, delay=0.01))
    detector.start()
    kernel.run(until=100, max_steps=10_000_000)
    kernel.raise_failures()
    assert history.total_recorded >= 8000
    # live window stays tiny relative to the whole run
    assert history.peak_live_events < history.total_recorded / 10
