"""Phase-2 evaluation runs on each shard's own pacing process.

The shard count must be invisible in the output: the same seeded sim
workload evaluated at 2 and 4 shards must merge to the byte-identical
report stream of a 1-shard baseline, because every shard evaluates the
same frozen windows with the same checkers and the merge key does not
depend on the shard.  On the thread kernel a phase 2 that raises fails
its supervised attempt, so the round is retried and counted only once it
completes.
"""

import pytest

from repro.apps import SingleResourceAllocator
from repro.detection import DetectionCluster, DetectionSession, DetectorConfig
from repro.history import HistoryDatabase
from repro.kernel import Delay, FifoPolicy, SimKernel, ThreadKernel
from tests.detection.test_durability import flaky_admit

#: Generous timeouts: reports anchor to event times, so the merged
#: stream is capture-schedule (and so shard-count) independent.
CONFIG = DetectorConfig(
    interval=0.5,
    tmax=120.0,
    tio=120.0,
    tlimit=120.0,
    realtime_orders=False,
)


def build_workload(kernel, count=6):
    """``count`` allocators with deterministic request/release cycles and
    two rogue bare releases — order violations the phase-2 replay checker
    flags (``realtime_orders=False``)."""
    allocators = [
        SingleResourceAllocator(kernel, history=HistoryDatabase())
        for __ in range(count)
    ]
    for index, allocator in enumerate(allocators):

        def user(allocator=allocator, index=index):
            for __ in range(4):
                yield Delay(0.1 + 0.01 * index)
                yield from allocator.request()
                yield Delay(0.05)
                yield from allocator.release()

        kernel.spawn(user(), f"user-{index}")

    def rogue(allocator, delay):
        def proc():
            yield Delay(delay)
            yield from allocator.release()

        return proc()

    kernel.spawn(rogue(allocators[0], 3.0), "rogue-0")
    kernel.spawn(rogue(allocators[3], 3.5), "rogue-3")
    return allocators


def run_shards(shards):
    kernel = SimKernel(FifoPolicy(), on_deadlock="stop")
    allocators = build_workload(kernel)
    cluster = DetectionCluster(kernel, CONFIG, shards=shards)
    for index, allocator in enumerate(allocators):
        cluster.register(allocator, label=f"alloc-{index}")

    def pacer():
        while True:
            yield Delay(CONFIG.interval)
            cluster.checkpoint()

    kernel.spawn(pacer(), "pacer")
    kernel.run(until=8.0)
    cluster.stop()
    return cluster


class TestPlaneDeterminism:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_threads_match_inline_baseline(self, shards):
        """Every shard count merges to the 1-shard report stream."""
        baseline = run_shards(1)
        expected = [report.render() for report in baseline.reports]
        assert expected, "workload produced no fault reports"
        cluster = run_shards(shards)
        assert [report.render() for report in cluster.reports] == expected
        # Structural identity too, not just the rendered text.
        assert cluster.reports == baseline.reports

    def test_processes_plane_rejected(self):
        kernel = SimKernel(FifoPolicy(), on_deadlock="stop")
        for plane in ("processes", "threads"):
            with pytest.raises(ValueError):
                DetectionSession(kernel, config=CONFIG, evaluation=plane)
            with pytest.raises(TypeError):
                DetectionCluster(kernel, CONFIG, evaluation=plane)


class TestPhaseTwoFailures:
    def test_raising_commit_fails_its_attempt(self, tmp_path):
        kernel = ThreadKernel(time_scale=0.01)
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        session = DetectionSession(kernel, config=CONFIG, durable_dir=tmp_path)
        session.register(allocator, label="allocator")

        def rogue():
            yield Delay(0.2)
            yield from allocator.release()

        kernel.spawn(rogue(), "rogue")
        # Join: the rogue release is in the window.
        assert not kernel.run(until=500.0).live
        flaky_admit(session.shards[0].durable.journal)
        supervisor = session.shards[0].supervisor
        try:
            # Evaluates, then the journal write raises: the attempt fails.
            assert supervisor.attempt() == (False, [])
            assert supervisor.checkpoints_completed == 0
            assert [event.kind for event in supervisor.events] == ["failure"]
            assert session.delivered_reports == []
            # The retry completes and journals both reports, once each.
            completed, reports = supervisor.attempt()
            assert completed
            assert supervisor.checkpoints_completed == 1
            assert len(reports) == 2
            assert session.delivered_reports == session.reports == reports
        finally:
            session.stop()
            session.close()
