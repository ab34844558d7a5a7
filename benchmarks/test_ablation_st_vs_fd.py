"""A1 — ablation: windowed ST checking vs full-trace FD checking.

Section 3.3's justification for the checking-list formulation is space:
"only the states at the last checking time and the current checking time
are recorded ... most of the information can be removed after being used."
This ablation runs the same workload both ways and verifies

* the verdicts agree (clean runs are clean both ways; an injected fault is
  found both ways), and
* the windowed checker's live memory is bounded by the checking window
  while the full trace grows with the run.
"""

from __future__ import annotations

import pytest

from repro.apps import BoundedBuffer
from repro.detection import (
    DetectionSession,
    DetectorConfig,
    check_full_trace,
)
from repro.history import HistoryDatabase
from repro.injection import TriggeredHooks
from repro.kernel import RandomPolicy, SimKernel
from tests.conftest import consumer, producer


def run_workload(hooks=None, *, items=60, interval=0.5):
    kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
    history = HistoryDatabase(retain_full_trace=True)
    buffer = BoundedBuffer(
        kernel, capacity=3, history=history, hooks=hooks, service_time=0.02
    )
    if hooks is not None:
        hooks.core = buffer.monitor.core
    detector = DetectionSession(
        kernel,
        monitors=[buffer],
        config=DetectorConfig(interval=interval, tmax=100.0, tio=100.0),
    )
    for __ in range(2):
        kernel.spawn(producer(buffer, items, delay=0.03))
        kernel.spawn(consumer(buffer, items, delay=0.03))
    detector.start()
    kernel.run(until=200, max_steps=5_000_000)
    return buffer, history, detector


def test_verdict_agreement_clean(benchmark):
    def both():
        buffer, history, detector = run_workload()
        fd_reports = check_full_trace(
            buffer.declaration,
            history.full_trace,
            final_state=buffer.snapshot(),
            tmax=100.0,
            tio=100.0,
        )
        return detector.clean, not fd_reports

    st_clean, fd_clean = benchmark.pedantic(both, rounds=1, iterations=1)
    assert st_clean and fd_clean


def test_verdict_agreement_faulty(benchmark):
    def both():
        hooks = TriggeredHooks("enter_despite_owner", fire_at=2)
        buffer, history, detector = run_workload(hooks)
        assert hooks.fired == 1
        fd_reports = check_full_trace(
            buffer.declaration,
            history.full_trace,
            final_state=buffer.snapshot(),
            tmax=100.0,
            tio=100.0,
        )
        return detector.clean, not fd_reports

    st_clean, fd_clean = benchmark.pedantic(both, rounds=1, iterations=1)
    assert not st_clean and not fd_clean


def test_pruned_memory_bounded_by_window(benchmark):
    """Peak live events (window) must be far below the total event count."""

    def measure():
        __, history, __det = run_workload(items=120, interval=0.5)
        return history.peak_live_events, history.total_recorded

    peak, total = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert total >= 400
    assert peak < total / 4, (
        f"pruning ineffective: window peak {peak} vs total {total}"
    )
