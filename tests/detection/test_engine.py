"""DetectionEngine: batching, equivalence with per-monitor sessions,
registration surface, config validation, tap lifecycle."""

import pytest

from repro.apps import BoundedBuffer, SharedAccount, SingleResourceAllocator
from repro.detection import (
    DetectionEngine,
    DetectionSession,
    DetectorConfig,
    FaultClass,
    STRule,
    supervisor_process,
)
from repro.history import BoundedHistory, HistoryDatabase
from repro.injection import TriggeredHooks
from repro.kernel import Delay, RandomPolicy, SimKernel
from tests.conftest import supervise


def make_kernel(seed=0):
    return SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")


def spawn_mixed_workload(kernel, monitors, *, buggy_release=False):
    """Drive one buffer + one allocator + one account deterministically."""
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


def build_monitors(kernel):
    return (
        BoundedBuffer(kernel, capacity=2, history=HistoryDatabase()),
        SingleResourceAllocator(kernel, history=HistoryDatabase()),
        SharedAccount(kernel, 100, history=HistoryDatabase()),
    )


def report_keys(reports):
    return sorted((r.rule_id, r.detected_at, tuple(r.pids)) for r in reports)


class TestBatching:
    def test_one_atomic_section_per_interval_with_16_monitors(self):
        kernel = make_kernel()
        engine = DetectionEngine(kernel, DetectorConfig(interval=1.0))
        for i in range(16):
            engine.register(
                SingleResourceAllocator(
                    kernel, history=HistoryDatabase(), name=f"alloc{i}"
                )
            )
        kernel.spawn(supervisor_process(supervise(engine), rounds=5))
        kernel.run()
        kernel.raise_failures()
        assert engine.checkpoints_run == 5
        # The acceptance property: one world-stop per interval, not 16.
        assert engine.atomic_sections == 5
        # ...while every monitor was still checked at every interval.
        assert all(e.checkpoints_run == 5 for e in engine.entries)

    def test_register_requires_same_kernel(self):
        engine = DetectionEngine(make_kernel())
        other = SingleResourceAllocator(make_kernel(), history=HistoryDatabase())
        with pytest.raises(ValueError):
            engine.register(other)

    def test_duplicate_names_get_unique_labels(self):
        kernel = make_kernel()
        engine = DetectionEngine(kernel)
        for __ in range(3):
            engine.register(
                SingleResourceAllocator(kernel, history=HistoryDatabase())
            )
        assert engine.labels == ("allocator", "allocator#2", "allocator#3")
        assert set(engine.reports_by_monitor()) == set(engine.labels)

    def test_unregister_removes_from_checkpoints_and_detaches(self):
        kernel = make_kernel()
        engine = DetectionEngine(kernel)
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        entry = engine.register(allocator)
        assert allocator.history.listener_count == 1
        engine.unregister(allocator)
        assert allocator.history.listener_count == 0
        assert engine.entries == ()
        with pytest.raises(KeyError):
            engine.entry_for(entry.label)


class TestEquivalence:
    def test_engine_reports_match_independent_detectors(self):
        """The batched checkpoint must find exactly what N one-monitor
        sessions (the paper's per-monitor detectors) find."""
        config = DetectorConfig(interval=0.5, tmax=30.0, tio=30.0, tlimit=30.0)

        # Run A: one engine over three monitors.
        kernel_a = make_kernel(seed=5)
        monitors_a = build_monitors(kernel_a)
        engine = DetectionEngine(kernel_a, config)
        for target in monitors_a:
            engine.register(target)
        spawn_mixed_workload(kernel_a, monitors_a, buggy_release=True)
        kernel_a.spawn(supervisor_process(supervise(engine)), "engine")
        kernel_a.run(until=10)
        kernel_a.raise_failures()

        # Run B: three independent sessions on an identically seeded kernel.
        kernel_b = make_kernel(seed=5)
        monitors_b = build_monitors(kernel_b)
        detectors = [
            DetectionSession(kernel_b, monitors=[m], config=config)
            for m in monitors_b
        ]
        spawn_mixed_workload(kernel_b, monitors_b, buggy_release=True)
        for detector in detectors:
            detector.start()
        kernel_b.run(until=10)
        kernel_b.raise_failures()

        by_monitor = engine.reports_by_monitor()
        # The injected release-before-request is found by both topologies
        # and attributed to the allocator.
        assert any(
            r.rule is STRule.RELEASE_REQUIRES_REQUEST
            for r in by_monitor["allocator"]
        )
        assert report_keys(by_monitor["buffer"]) == report_keys(
            detectors[0].reports
        )
        assert report_keys(by_monitor["allocator"]) == report_keys(
            detectors[1].reports
        )
        assert report_keys(by_monitor["account"]) == report_keys(
            detectors[2].reports
        )
        assert FaultClass.RELEASE_BEFORE_REQUEST in engine.implicated_faults()
        assert not engine.clean

    def test_clean_multi_monitor_run(self):
        kernel = make_kernel(seed=2)
        monitors = build_monitors(kernel)
        engine = DetectionEngine(
            kernel, DetectorConfig(interval=0.5, tmax=30.0, tio=30.0, tlimit=30.0)
        )
        for target in monitors:
            engine.register(target)
        spawn_mixed_workload(kernel, monitors)
        kernel.spawn(supervisor_process(supervise(engine)), "engine")
        kernel.run(until=10)
        kernel.raise_failures()
        assert engine.clean
        assert engine.implicated_faults() == frozenset()
        assert all(not reports for reports in engine.reports_by_monitor().values())

    def test_engine_works_with_bounded_history(self):
        kernel = make_kernel()
        allocator = SingleResourceAllocator(kernel, history=BoundedHistory(64))
        engine = DetectionEngine(kernel, DetectorConfig(interval=0.5))
        engine.register(allocator)

        def user():
            for __ in range(5):
                yield Delay(0.1)
                yield from allocator.request()
                yield Delay(0.05)
                yield from allocator.release()

        kernel.spawn(user())
        kernel.spawn(supervisor_process(supervise(engine), rounds=6))
        kernel.run(until=10)
        kernel.raise_failures()
        assert engine.clean
        assert engine.checkpoints_run == 6


class TestFacadeCompatibility:
    """A one-monitor session is a one-entry engine with a live surface."""

    def test_detector_is_a_one_monitor_engine(self, kernel):
        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        session = DetectionSession(kernel, monitors=[buffer])
        (engine,) = session.engines
        assert isinstance(engine, DetectionEngine)
        assert engine.monitors == (buffer.monitor,)

    def test_facade_reports_are_live(self, kernel):
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        entry = DetectionSession(kernel).register(allocator)
        reports = entry.reports  # grabbed before the fault fires

        def buggy():
            yield from allocator.release()

        kernel.spawn(buggy())
        kernel.run(until=1.0)
        kernel.raise_failures()
        assert reports  # the same list object observed the new reports
        assert reports is entry.reports

    def test_stop_detaches_realtime_tap(self, kernel):
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        session = DetectionSession(kernel, monitors=[allocator])
        assert allocator.history.listener_count == 1
        session.stop()
        assert allocator.history.listener_count == 0
        assert session.stopped

    def test_stopped_detector_no_longer_observes_events(self, kernel):
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        session = DetectionSession(kernel, monitors=[allocator])
        session.stop()

        def buggy():
            yield from allocator.release()

        kernel.spawn(buggy())
        kernel.run(until=1.0)
        kernel.raise_failures()
        # Tap detached: the level-III fault is no longer reported live.
        assert session.reports == []


class TestConfigValidation:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            DetectorConfig(interval=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(interval=-1.0)

    @pytest.mark.parametrize("field", ["tmax", "tio", "tlimit"])
    def test_rejects_negative_timeouts(self, field):
        with pytest.raises(ValueError):
            DetectorConfig(**{field: -0.5})

    @pytest.mark.parametrize("field", ["tmax", "tio", "tlimit"])
    def test_none_disables_a_sweep(self, field):
        config = DetectorConfig(**{field: None})
        assert getattr(config, field) is None

    def test_defaults_are_valid(self):
        DetectorConfig()


class TestEdgeCases:
    """Degenerate lifecycles must not raise and must keep counters stable."""

    @pytest.fixture
    def kernel(self):
        return make_kernel()

    def test_checkpoint_with_zero_monitors(self, kernel):
        engine = DetectionEngine(kernel, DetectorConfig(interval=1.0))
        for __ in range(3):
            assert engine.checkpoint() == []
        assert engine.checkpoints_run == 3
        assert engine.atomic_sections == 3
        assert engine.reports == []
        assert engine.clean

    def test_unregister_between_checkpoints(self, kernel):
        monitors = build_monitors(kernel)
        buffer, allocator, __ = monitors
        engine = DetectionEngine(kernel, DetectorConfig(interval=1.0))
        for monitor in monitors:
            engine.register(monitor)
        spawn_mixed_workload(kernel, monitors)

        kernel.run(until=0.5)
        engine.checkpoint()
        engine.unregister(allocator)
        assert allocator.history.listener_count == 0
        assert len(engine.entries) == 2

        kernel.run(until=1.0)
        engine.checkpoint()
        kernel.run(until=2.5)
        engine.checkpoint()
        kernel.raise_failures()

        assert engine.checkpoints_run == 3
        assert engine.atomic_sections == 3
        # Survivors kept checking after the fleet shrank.
        assert engine.entry_for(buffer).checkpoints_run == 3

    def test_unregister_unknown_monitor_raises(self, kernel):
        monitors = build_monitors(kernel)
        engine = DetectionEngine(kernel, DetectorConfig(interval=1.0))
        engine.register(monitors[0])
        with pytest.raises(ValueError):
            engine.unregister(monitors[1])

    def test_double_stop_is_idempotent(self, kernel):
        monitors = build_monitors(kernel)
        engine = DetectionEngine(kernel, DetectorConfig(interval=1.0))
        for monitor in monitors:
            engine.register(monitor)
        engine.checkpoint()
        engine.stop()
        engine.stop()  # second stop: no exception, no double-detach blowup
        assert engine.stopped
        for monitor in monitors:
            assert monitor.history.listener_count == 0
        assert engine.checkpoints_run == 1
        assert engine.atomic_sections == 1

    def test_checkpoint_after_stop_still_counts(self, kernel):
        """A manual checkpoint on a stopped engine stays well-defined."""
        engine = DetectionEngine(kernel, DetectorConfig(interval=1.0))
        engine.register(build_monitors(kernel)[0])
        engine.stop()
        assert engine.checkpoint() == []
        assert engine.checkpoints_run == 1


class TestLatencyMemory:
    def test_latency_bookkeeping_is_flat_over_100k_phases(self, kernel):
        """Phase latencies live in fixed-bucket histograms, so a long
        session (or ``repro serve``) does not grow per checkpoint."""
        import tracemalloc

        engine = DetectionEngine(kernel, DetectorConfig(interval=1.0))
        tracemalloc.start()
        try:
            for __ in range(1_000):
                engine.checkpoint()
            baseline, __ = tracemalloc.get_traced_memory()
            for __ in range(100_000):
                engine.checkpoint()
            grown = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert engine.worldstop_latency.count == 101_000
        assert engine.evaluate_latency.count == 101_000
        # Two float-per-phase lists would have grown by megabytes.
        assert grown < 64 * 1024, grown
