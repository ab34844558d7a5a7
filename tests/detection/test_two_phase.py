"""Two-phase checkpoint semantics: capture/evaluate split, report-order
determinism vs the single-phase baseline, breaker behaviour on phase-2
throws, degraded windows cut in phase 1 but evaluated later, and drop
accounting of a bounded sink under fixed-period checking."""

import pytest

from repro.apps import BoundedBuffer, SharedAccount, SingleResourceAllocator
from repro.detection import (
    Confidence,
    DetectionEngine,
    DetectorConfig,
    FaultStatistics,
    supervisor_process,
)
from repro.detection.supervision import BreakerState
from repro.history import BoundedHistory, HistoryDatabase
from repro.injection import sabotage_entry
from repro.kernel import Delay, RandomPolicy, SimKernel
from tests.conftest import supervise


def make_kernel(seed=0):
    return SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")


def build_monitors(kernel):
    return (
        BoundedBuffer(kernel, capacity=2, history=HistoryDatabase()),
        SingleResourceAllocator(kernel, history=HistoryDatabase()),
        SharedAccount(kernel, 100, history=HistoryDatabase()),
    )


def spawn_mixed_workload(kernel, monitors, *, buggy_release=False):
    buffer, allocator, account = monitors

    def producer():
        for item in range(8):
            yield Delay(0.05)
            yield from buffer.send(item)

    def consumer():
        for __ in range(8):
            yield Delay(0.06)
            yield from buffer.receive()

    def alloc_user(i):
        for __ in range(4):
            yield Delay(0.07 * (i + 1))
            yield from allocator.request()
            yield Delay(0.05)
            yield from allocator.release()

    def banker():
        for __ in range(6):
            yield Delay(0.08)
            yield from account.deposit(5)

    kernel.spawn(producer())
    kernel.spawn(consumer())
    for i in range(2):
        kernel.spawn(alloc_user(i))
    kernel.spawn(banker())
    if buggy_release:
        def rude():
            yield Delay(0.5)
            yield from allocator.release()

        kernel.spawn(rude())


def ordered_report_tuples(reports):
    return [
        (r.rule_id, r.monitor, tuple(r.pids), r.confidence, r.detected_at)
        for r in reports
    ]


CONFIG = DetectorConfig(interval=0.4, tmax=60.0, tio=60.0, tlimit=60.0)


class TestReportOrderDeterminism:
    def run_two_phase(self, seed):
        kernel = make_kernel(seed)
        engine = DetectionEngine(kernel, CONFIG)
        monitors = build_monitors(kernel)
        for monitor in monitors:
            engine.register(monitor)
        spawn_mixed_workload(kernel, monitors, buggy_release=True)
        kernel.spawn(supervisor_process(supervise(engine), rounds=8), "engine")
        kernel.run()
        kernel.raise_failures()
        return engine

    def run_single_phase(self, seed):
        """The pre-split baseline: capture+evaluate per entry, immediately,
        all within the checkpoint round."""
        kernel = make_kernel(seed)
        engine = DetectionEngine(kernel, CONFIG)
        monitors = build_monitors(kernel)
        for monitor in monitors:
            engine.register(monitor)
        spawn_mixed_workload(kernel, monitors, buggy_release=True)

        def baseline():
            for __ in range(8):
                yield Delay(engine.config.interval)
                def locked():
                    for entry in engine.entries:
                        entry.reports.extend(entry.check())
                kernel.atomic(locked)

        kernel.spawn(baseline(), "single-phase")
        kernel.run()
        kernel.raise_failures()
        return engine

    def test_identical_ordered_reports_vs_single_phase(self):
        two = self.run_two_phase(seed=3)
        one = self.run_single_phase(seed=3)
        assert len(two.reports) > 0
        assert ordered_report_tuples(two.reports) == ordered_report_tuples(
            one.reports
        )

    def test_two_phase_run_is_self_deterministic(self):
        first = self.run_two_phase(seed=7)
        second = self.run_two_phase(seed=7)
        assert ordered_report_tuples(first.reports) == ordered_report_tuples(
            second.reports
        )

    def test_split_counters_line_up(self):
        engine = self.run_two_phase(seed=3)
        assert engine.atomic_sections == engine.checkpoints_run == 8
        # Fixed-period checking: every registered monitor captured and
        # evaluated at every interval.
        assert engine.captures_taken == 8 * 3
        assert engine.evaluations_run == 8 * 3
        assert engine.pending_captures == 0
        assert engine.worldstop_seconds > 0
        assert engine.evaluate_seconds > 0
        assert engine.checking_seconds == pytest.approx(
            engine.worldstop_seconds + engine.evaluate_seconds
        )


class TestPhaseTwoFailures:
    def build(self, *, threshold=2):
        kernel = make_kernel()
        engine = DetectionEngine(
            kernel,
            DetectorConfig(
                interval=0.5,
                breaker_failure_threshold=threshold,
                breaker_cooldown=2.0,
            ),
        )
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        entry = engine.register(allocator)
        return kernel, engine, entry

    def test_phase_two_throw_opens_breaker(self):
        kernel, engine, entry = self.build(threshold=2)
        sabotage_entry(entry, failures=2)
        engine.checkpoint()
        assert entry.breaker.state is BreakerState.CLOSED
        engine.checkpoint()
        assert entry.breaker.state is BreakerState.OPEN
        assert entry.quarantined
        # The captures happened (phase 1 succeeded); only evaluation died.
        assert engine.captures_taken == 2
        assert engine.evaluations_run == 0
        assert engine.check_failures == 2

    def test_quarantined_monitor_skips_capture_entirely(self):
        kernel, engine, entry = self.build(threshold=1)
        sabotage_entry(entry, failures=1)
        engine.checkpoint()
        assert entry.quarantined
        engine.checkpoint()  # still within cooldown at t=0
        assert entry.checkpoints_skipped == 1
        assert engine.captures_taken == 1  # no phase-1 work for quarantined

    def test_quarantine_lifecycle_still_closes(self):
        # The full lifecycle (OPEN -> HALF_OPEN probe -> CLOSED) must
        # survive evaluation moving off the atomic section.
        kernel, engine, entry = self.build(threshold=2)
        sabotage_entry(entry, failures=2)
        kernel.spawn(supervisor_process(supervise(engine), rounds=16), "engine")
        kernel.run(until=10)
        kernel.raise_failures()
        assert entry.breaker.times_opened >= 1
        assert entry.breaker.times_reclosed >= 1
        assert entry.breaker.state is BreakerState.CLOSED


class TestDegradedCaptureEvaluatedLater:
    def test_lossy_window_frozen_in_phase_one(self):
        kernel = make_kernel()
        engine = DetectionEngine(
            kernel, DetectorConfig(interval=1.0, tmax=None, tio=None)
        )
        allocator = SingleResourceAllocator(
            kernel, history=BoundedHistory(capacity=4)
        )
        entry = engine.register(allocator)

        def churn(cycles):
            def body():
                for __ in range(cycles):
                    yield Delay(0.02)
                    yield from allocator.request()
                    yield Delay(0.02)
                    yield from allocator.release()
            return body

        kernel.spawn(churn(6)(), "burst")
        kernel.run()
        kernel.raise_failures()
        assert entry.history.pending_dropped > 0

        # Phase 1 cuts the lossy window; nothing is evaluated yet.
        assert engine.capture_phase() == 1
        assert engine.pending_captures == 1
        assert entry.degraded_windows == 0
        frozen_live = entry.history.live_events
        assert frozen_live == 0  # the cut emptied the open window

        # The workload moves on before evaluation runs: these events
        # belong to the *next* window and must not leak into the capture.
        kernel.spawn(churn(2)(), "after-capture")
        kernel.run()
        kernel.raise_failures()
        assert entry.history.live_events > 0

        engine.evaluate_phase()
        assert engine.pending_captures == 0
        assert entry.degraded_windows == 1
        assert entry.dropped_in_windows > 0
        # Whatever survived is advisory only — never CONFIRMED.
        assert all(
            report.confidence is Confidence.DEGRADED
            for report in entry.reports
        )
        # The post-capture events are still queued for the next window.
        assert entry.history.live_events > 0


class TestBoundedSinkFixedInterval:
    def test_every_drop_lands_in_a_checked_window(self):
        # The burst overflows the bounded sink within one checking
        # interval: events are evicted, but every drop must be accounted
        # to a window that was cut and checked.
        kernel = make_kernel()
        engine = DetectionEngine(
            kernel,
            DetectorConfig(interval=0.25, tmax=None, tio=None, tlimit=None),
        )
        allocator = SingleResourceAllocator(
            kernel, history=BoundedHistory(capacity=6)
        )
        entry = engine.register(allocator)

        def late_burst():
            yield Delay(0.3)  # past the first checkpoint: window is idle
            for __ in range(10):
                yield Delay(0.01)
                yield from allocator.request()
                yield Delay(0.01)
                yield from allocator.release()

        kernel.spawn(late_burst(), "late-burst")
        kernel.spawn(supervisor_process(supervise(engine), rounds=12), "engine")
        kernel.run()
        kernel.raise_failures()
        assert entry.checkpoints_run == 12
        assert entry.history.dropped_events > 0
        assert entry.dropped_in_windows == entry.history.dropped_events


class TestCountersSurfaced:
    def test_repr_shows_split_counters(self):
        kernel = make_kernel()
        engine = DetectionEngine(kernel, CONFIG)
        engine.register(SingleResourceAllocator(kernel, history=HistoryDatabase()))
        engine.checkpoint()
        text = repr(engine)
        for fragment in (
            "atomic_sections=1",
            "captures_taken=1",
            "evaluations_run=1",
        ):
            assert fragment in text

    def test_statistics_from_engine_carries_pipeline_counters(self):
        kernel = make_kernel()
        engine = DetectionEngine(kernel, CONFIG)
        monitors = build_monitors(kernel)
        for monitor in monitors:
            engine.register(monitor)
        spawn_mixed_workload(kernel, monitors, buggy_release=True)
        kernel.spawn(supervisor_process(supervise(engine), rounds=4), "engine")
        kernel.run()
        kernel.raise_failures()
        stats = FaultStatistics.from_engine(engine)
        assert stats.total_reports == len(engine.reports)
        counters = stats.counters
        assert counters["atomic_sections"] == 4
        assert counters["captures_taken"] == 12
        assert counters["evaluations_run"] == 12
        assert counters["worldstop_seconds"] > 0
        assert "atomic sections" in stats.render()
