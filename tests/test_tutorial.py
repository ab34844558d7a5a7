"""The tutorial's JobQueue (docs/TUTORIAL.md), verified end to end.

If this file needs changing, update the tutorial to match.
"""

import pytest

from repro import (
    DetectionSession,
    DetectorConfig,
    FaultClass,
    HistoryDatabase,
    MonitorBase,
    MonitorDeclaration,
    MonitorMetrics,
    MonitorType,
    TriggeredHooks,
    check_full_trace,
    procedure,
)
from repro.kernel import Delay, RandomPolicy, SimKernel, explore_seeds


class JobQueue(MonitorBase):
    """Two-lane job queue: urgent jobs overtake normal ones."""

    def __init__(self, kernel, capacity, **kwargs):
        self._capacity = capacity
        self._urgent = []
        self._normal = []
        super().__init__(kernel, **kwargs)

    def declare(self):
        return MonitorDeclaration(
            name="jobqueue",
            mtype=MonitorType.COMMUNICATION_COORDINATOR,
            procedures=("Send", "Receive"),
            conditions=("full", "empty"),
            rmax=self._capacity,
        )

    def resource_count(self):
        return self._capacity - len(self._urgent) - len(self._normal)

    @procedure("Send")
    def submit(self, job, urgent=False):
        if self.resource_count() == 0:
            yield from self.wait("full")
        (self._urgent if urgent else self._normal).append(job)
        self.signal_exit("empty")

    @procedure("Receive")
    def take(self):
        if self.resource_count() == self._capacity:
            yield from self.wait("empty")
        lane = self._urgent or self._normal
        job = lane.pop(0)
        self.signal_exit("full")
        return job


def submitter(queue, jobs):
    for job, urgent in jobs:
        yield Delay(0.05)
        yield from queue.submit(job, urgent=urgent)


def worker(queue, count, sink):
    for __ in range(count):
        yield Delay(0.08)
        sink.append((yield from queue.take()))


class TestJobQueue:
    def test_urgent_jobs_overtake(self, fifo_kernel):
        queue = JobQueue(fifo_kernel, capacity=8)
        taken = []

        def fill_then_drain():
            yield from queue.submit("n1")
            yield from queue.submit("n2")
            yield from queue.submit("u1", urgent=True)
            for __ in range(3):
                taken.append((yield from queue.take()))

        fifo_kernel.spawn(fill_then_drain())
        fifo_kernel.run()
        fifo_kernel.raise_failures()
        assert taken == ["u1", "n1", "n2"]

    def test_clean_run_with_detector_and_metrics(self):
        kernel = SimKernel(RandomPolicy(seed=42), on_deadlock="stop")
        queue = JobQueue(
            kernel, capacity=4, history=HistoryDatabase(retain_full_trace=True)
        )
        session = DetectionSession(
            kernel,
            monitors=[queue],
            config=DetectorConfig(interval=0.5, tmax=10.0, tio=20.0),
        )
        metrics = MonitorMetrics.attach(queue)
        sink = []
        jobs = [(f"j{i}", i % 3 == 0) for i in range(20)]
        kernel.spawn(submitter(queue, jobs))
        kernel.spawn(worker(queue, 20, sink))
        session.start()
        kernel.run(until=30)
        kernel.raise_failures()
        assert session.clean
        assert session.statistics().total_reports == 0
        assert len(sink) == 20
        assert metrics.calls == {"Send": 20, "Receive": 20}
        offline = check_full_trace(
            queue.declaration,
            queue.history.full_trace,
            final_state=queue.snapshot(),
        )
        assert offline == []

    def test_injected_fault_is_implicated(self):
        kernel = SimKernel(RandomPolicy(seed=42), on_deadlock="stop")
        hooks = TriggeredHooks("fake_resume")
        queue = JobQueue(
            kernel, capacity=2, history=HistoryDatabase(), hooks=hooks
        )
        hooks.core = queue.monitor.core
        session = DetectionSession(
            kernel, monitors=[queue], config=DetectorConfig(interval=0.3)
        )
        sink = []
        jobs = [(f"j{i}", False) for i in range(15)]
        kernel.spawn(submitter(queue, jobs))
        kernel.spawn(worker(queue, 15, sink))
        session.start()
        kernel.run(until=30)
        assert hooks.fired == 1
        assert FaultClass.SIGEXIT_NO_RESUME in session.implicated_faults()

    def test_seed_exploration(self):
        def build(kernel):
            queue = JobQueue(kernel, capacity=2)
            sink = []
            jobs = [(f"j{i}", i % 2 == 0) for i in range(8)]
            kernel.spawn(submitter(queue, jobs))
            kernel.spawn(worker(queue, 8, sink))
            return queue

        def check(kernel, queue):
            if queue.resource_count() != 2:
                return "queue not drained"
            return None

        result = explore_seeds(build, check, seeds=range(40))
        assert result.all_passed, result.failures
