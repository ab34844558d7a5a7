"""A3 — ablation: history pruning keeps detector memory bounded.

The history database drops a window's events once the checkpoint consumed
them.  Over a long run, live memory must stay flat (bounded by the busiest
window) while the total recorded volume keeps growing — the property that
makes continuous monitoring feasible.
"""

from __future__ import annotations

import pytest

from repro.apps import BoundedBuffer
from repro.detection import DetectionSession, DetectorConfig
from repro.history import HistoryDatabase
from repro.kernel import RandomPolicy, SimKernel
from tests.conftest import consumer, producer


def run_for(items: int, *, retain: bool):
    kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
    history = HistoryDatabase(retain_full_trace=retain)
    buffer = BoundedBuffer(
        kernel, capacity=3, history=history, service_time=0.01
    )
    detector = DetectionSession(
        kernel,
        monitors=[buffer],
        config=DetectorConfig(interval=0.5, tmax=None, tio=None),
    )
    for __ in range(2):
        kernel.spawn(producer(buffer, items, delay=0.02))
        kernel.spawn(consumer(buffer, items, delay=0.02))
    detector.start()
    kernel.run(until=1000, max_steps=20_000_000)
    return history


def test_live_memory_flat_as_run_grows(benchmark):
    """4x the workload must not grow the live window noticeably."""

    def measure():
        short = run_for(50, retain=False)
        long = run_for(200, retain=False)
        return short, long

    short, long = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert long.total_recorded >= 4 * short.total_recorded * 0.9
    # The live window depends on per-window activity, not run length.
    assert long.peak_live_events <= short.peak_live_events * 2

    # and at the end, consumed events are gone entirely:
    assert long.live_events <= long.peak_live_events


def test_retained_trace_grows_linearly(benchmark):
    """Without pruning (retain_full_trace) memory tracks the run length —
    the cost the paper's strategy avoids."""

    def measure():
        short = run_for(50, retain=True)
        long = run_for(200, retain=True)
        return len(short.full_trace), len(long.full_trace)

    short_len, long_len = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert long_len >= 3.5 * short_len


def test_recording_throughput(benchmark):
    """Micro-benchmark: events recorded per second through the database."""
    from repro.history.events import enter_event

    db = HistoryDatabase()
    db.open(
        __import__(
            "repro.detection.fd_rules", fromlist=["empty_initial_state"]
        ).empty_initial_state(
            BoundedBuffer(SimKernel(), capacity=3).declaration
        )
    )

    def record_batch():
        for index in range(1000):
            db.record(enter_event(db.next_seq(), 1, "Send", 0.0, 1))
        # prune as a checkpoint would
        from repro.history.states import SchedulingState

        db.cut(
            SchedulingState(
                time=db.last_state.time + 1.0,
                entry_queue=(),
                cond_queues={},
                running=(),
            )
        )

    benchmark(record_batch)
