"""Phase-2 evaluation planes: byte-identical report streams with and
without the per-shard worker-thread pool, and the pool's failure and
close-leak accounting.

The plane must be invisible in the output: the same seeded sim workload
evaluated on ``evaluation="threads"`` at 2 and 4 shards must merge to the
byte-identical report stream of a 1-shard inline baseline, because the
workers evaluate the same frozen windows with the same checkers and the
merge key is plane-independent.
"""

import threading
import time

import pytest

from repro.apps import SingleResourceAllocator
from repro.detection import (
    DetectionCluster,
    DetectionSession,
    DetectorConfig,
    EvaluationPool,
)
from repro.history import HistoryDatabase
from repro.kernel import Delay, FifoPolicy, SimKernel
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
    flags on the evaluating thread (``realtime_orders=False``)."""
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


def run_plane(evaluation, shards):
    kernel = SimKernel(FifoPolicy(), on_deadlock="stop")
    allocators = build_workload(kernel)
    cluster = DetectionCluster(
        kernel, CONFIG, shards=shards, evaluation=evaluation
    )
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


def make_pool(shards):
    """A worker-thread pool over the shards of a fresh inline cluster."""
    kernel = SimKernel(FifoPolicy(), on_deadlock="stop")
    cluster = DetectionCluster(kernel, CONFIG, shards=shards)
    return EvaluationPool(cluster.shards)


class TestPlaneDeterminism:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_threads_match_inline_baseline(self, shards):
        baseline = run_plane("inline", 1)
        expected = [report.render() for report in baseline.reports]
        assert expected, "workload produced no fault reports"
        cluster = run_plane("threads", shards)
        assert [report.render() for report in cluster.reports] == expected
        # Structural identity too, not just the rendered text.
        assert cluster.reports == baseline.reports
        assert not cluster.pool_leaks

    def test_processes_plane_rejected(self):
        kernel = SimKernel(FifoPolicy(), on_deadlock="stop")
        with pytest.raises(ValueError):
            DetectionCluster(kernel, CONFIG, evaluation="processes")


class TestPoolCloseLeak:
    def test_close_surfaces_stuck_worker_threads(self):
        pool = make_pool(1)
        release = threading.Event()
        pool.submit(0, release.wait)
        time.sleep(0.05)  # let the worker thread pick the job up
        try:
            assert pool.close(timeout=0.1) == [(0, "shard-evaluate-0")]
        finally:
            release.set()

    def test_clean_close_leaks_nothing(self):
        pool = make_pool(2)
        pool.submit(0, lambda: None)
        pool.submit(1, lambda: None)
        pool.drain()
        assert pool.close(timeout=5.0) == []

    def test_cluster_records_leak_event(self):
        kernel = SimKernel(FifoPolicy(), on_deadlock="stop")
        cluster = DetectionCluster(
            kernel, CONFIG, shards=1, evaluation="threads"
        )
        pool = cluster._pool
        release = threading.Event()
        pool.submit(0, release.wait)
        time.sleep(0.05)
        # The cluster closes pools with the default (long) join timeout;
        # shrink it so the stuck worker is surfaced promptly.
        pool.close = lambda timeout=5.0: EvaluationPool.close(
            pool, timeout=0.1
        )
        try:
            cluster.close()
            assert cluster.pool_leaks == [(0, "shard-evaluate-0")]
            kinds = [
                event.kind
                for event in cluster.shards[0].supervisor.events
            ]
            assert "leak" in kinds
        finally:
            release.set()


class TestPoolFailures:
    def test_raising_offloaded_job_is_logged_and_retried(self, tmp_path):
        kernel = SimKernel(FifoPolicy(), on_deadlock="stop")
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        session = DetectionSession(
            kernel,
            config=CONFIG,
            durable_dir=tmp_path,
            evaluation="threads",
        )
        session.register(allocator, label="allocator")

        def rogue():
            yield Delay(0.2)
            yield from allocator.release()

        kernel.spawn(rogue(), "rogue")
        kernel.run(until=1.0)
        flaky_admit(session.shards[0].durable.journal)
        try:
            session.checkpoint()  # evaluates; the journal write raises
            kinds = [event.kind for __, event in session.supervisor_events()]
            assert kinds == ["failure"]
            assert session.metrics().value(
                "repro_supervisor_events_total",
                {"shard": "0", "kind": "failure"},
            ) == 1
            assert session.delivered_reports == []
            session.checkpoint()  # the next checkpoint journals them
            assert len(session.reports) == 2
            assert session.delivered_reports == session.reports
        finally:
            session.stop()
            session.close()
