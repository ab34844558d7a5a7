"""CheckpointSupervisor, CircuitBreaker quarantine, degraded-mode checking,
supervisor snapshot/restore, and the supervision config fields."""

import pytest

from repro.apps import BoundedBuffer, SingleResourceAllocator
from repro.detection import (
    BreakerState,
    CircuitBreaker,
    Confidence,
    DetectionEngine,
    DetectionSession,
    DetectorConfig,
    DROP_TOLERANT,
    STRule,
    is_drop_tolerant,
    supervisor_process,
)
from repro.history import BoundedHistory, HistoryDatabase
from repro.injection import sabotage_entry
from repro.kernel import Delay, RandomPolicy, SimKernel
from tests.conftest import supervise


def make_kernel(seed=0):
    return SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")


def spawn_buffer_load(kernel, buffer, items=10, *, pace=0.1):
    def producer():
        for item in range(items):
            yield Delay(pace)
            yield from buffer.send(item)

    def consumer():
        for __ in range(items):
            yield Delay(pace)
            yield from buffer.receive()

    kernel.spawn(producer(), "producer")
    kernel.spawn(consumer(), "consumer")


class TestCircuitBreaker:
    def test_opens_at_threshold_and_not_before(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=5.0)
        breaker.record_failure(1.0, "boom")
        breaker.record_failure(2.0, "boom")
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(3.0, "boom")
        assert breaker.state is BreakerState.OPEN
        assert breaker.quarantined
        assert breaker.times_opened == 1

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=5.0)
        breaker.record_failure(1.0, "boom")
        breaker.record_success(2.0)
        breaker.record_failure(3.0, "boom")
        assert breaker.state is BreakerState.CLOSED

    def test_denies_during_cooldown_then_probes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2.0)
        breaker.record_failure(1.0, "boom")
        assert not breaker.allow(2.0)
        assert not breaker.allow(2.9)
        assert breaker.allow(3.0)  # cooldown over: HALF_OPEN probe
        assert breaker.state is BreakerState.HALF_OPEN

    def test_failed_probe_reopens_successful_probe_recloses(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2.0)
        breaker.record_failure(0.0, "boom")
        assert breaker.allow(2.0)
        breaker.record_failure(2.0, "still broken")
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 2
        assert breaker.allow(4.0)
        breaker.record_success(4.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.times_reclosed == 1
        assert not breaker.quarantined

    def test_transitions_audit_trail(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0)
        breaker.record_failure(1.0, "boom")
        breaker.allow(2.0)
        breaker.record_success(2.0)
        assert [state for __, state in breaker.transitions] == [
            BreakerState.OPEN,
            BreakerState.HALF_OPEN,
            BreakerState.CLOSED,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


class TestQuarantineInEngine:
    def build(self, *, failures=2, threshold=2, cooldown=1.0):
        kernel = make_kernel()
        buffer = BoundedBuffer(kernel, capacity=3, history=HistoryDatabase())
        broken = SingleResourceAllocator(
            kernel, history=HistoryDatabase(), name="broken"
        )
        config = DetectorConfig(
            interval=0.5,
            tmax=60.0,
            tio=60.0,
            tlimit=60.0,
            breaker_failure_threshold=threshold,
            breaker_cooldown=cooldown,
        )
        engine = DetectionEngine(kernel, config)
        healthy = engine.register(buffer)
        entry = engine.register(broken)
        sabotage_entry(entry, failures=failures)
        spawn_buffer_load(kernel, buffer)
        return kernel, engine, healthy, entry

    def test_broken_monitor_quarantined_fleet_keeps_checking(self):
        kernel, engine, healthy, entry = self.build()
        supervisor = supervise(engine)
        kernel.spawn(supervisor_process(supervisor, rounds=12), "supervisor")
        kernel.run(until=30)
        kernel.raise_failures()
        # Checkpoints keep completing even while one checker raises.
        assert supervisor.checkpoints_completed == 12
        assert supervisor.checkpoints_abandoned == 0
        assert healthy.checkpoints_run == 12
        # The broken entry opened, was skipped, probed, and re-closed.
        assert entry.breaker.times_opened >= 1
        assert entry.breaker.times_reclosed >= 1
        assert entry.breaker.state is BreakerState.CLOSED
        assert entry.checkpoints_skipped >= 1
        assert entry.checkpoints_run < 12
        assert engine.check_failures == 2

    def test_failing_probe_extends_quarantine(self):
        # 3 evaluator failures with threshold 2: open, failed probe
        # re-opens, second probe heals.
        kernel, engine, __, entry = self.build(failures=3)
        supervisor = supervise(engine)
        kernel.spawn(supervisor_process(supervisor, rounds=14), "supervisor")
        kernel.run(until=30)
        kernel.raise_failures()
        assert entry.breaker.times_opened == 2
        assert entry.breaker.times_reclosed == 1
        assert entry.breaker.state is BreakerState.CLOSED

    def test_quarantine_report_lists_lifecycle(self):
        kernel, engine, __, entry = self.build()
        supervisor = supervise(engine)
        kernel.spawn(supervisor_process(supervisor, rounds=10), "supervisor")
        kernel.run(until=30)
        records = engine.quarantine_report()
        assert [record.label for record in records] == [entry.label]
        rendered = records[0].render()
        assert "opened x" in rendered and entry.label in rendered
        assert repr(engine).count("quarantined=0")  # back to closed

    def test_engine_never_raises_out_of_checkpoint(self):
        kernel, engine, __, ___ = self.build(failures=50, cooldown=100.0)
        supervisor = supervise(engine)
        kernel.spawn(supervisor_process(supervisor, rounds=10), "supervisor")
        kernel.run(until=30)
        kernel.raise_failures()  # nothing escaped to the kernel
        assert supervisor.checkpoints_completed == 10


def make_flaky(target, failing_attempts, attr="checkpoint"):
    """Make ``target.<attr>`` fail for its first N calls."""
    inner = getattr(target, attr)
    state = {"left": failing_attempts}

    def flaky():
        if state["left"] > 0:
            state["left"] -= 1
            raise RuntimeError("transient checkpoint failure")
        return inner()

    setattr(target, attr, flaky)


class TestSupervisorRetries:
    CONFIG = DetectorConfig(
        interval=0.5, tmax=60.0, tio=60.0, tlimit=60.0,
        checkpoint_retries=2, retry_backoff=0.05,
    )

    def build_flaky(self, failing_attempts):
        """Engine whose checkpoint fails for the first N attempts."""
        kernel = make_kernel()
        buffer = BoundedBuffer(kernel, capacity=3, history=HistoryDatabase())
        engine = DetectionEngine(kernel, self.CONFIG)
        engine.register(buffer)
        make_flaky(engine, failing_attempts)
        spawn_buffer_load(kernel, buffer)
        return kernel, engine

    def run_flaky(self, pacing, failing_attempts, rounds):
        """Pace a flaky checkpoint for ``rounds`` supervised rounds.

        ``pacing`` is ``"engine"`` (a bare engine under
        ``supervisor_process``) or ``"session"`` (a one-shard session, the
        capture phase of its shard's engine made flaky: the shard's
        supervisor holds ``ClusterShard.checkpoint`` itself).  Returns the
        supervisor and, for the session, its shard-0 retries and abandoned
        samples.
        """
        if pacing == "engine":
            kernel, engine = self.build_flaky(failing_attempts)
            supervisor = supervise(engine)
            kernel.spawn(
                supervisor_process(supervisor, rounds=rounds), "supervisor"
            )
        else:
            kernel = make_kernel()
            buffer = BoundedBuffer(
                kernel, capacity=3, history=HistoryDatabase()
            )
            session = DetectionSession(
                kernel, monitors=[buffer], config=self.CONFIG, shards=1
            )
            shard = session.shards[0]
            supervisor = shard.supervisor
            make_flaky(shard.engine, failing_attempts, "capture_phase")
            spawn_buffer_load(kernel, buffer)
            session.start(rounds=rounds)
        kernel.run(until=20)
        kernel.raise_failures()
        if pacing == "engine":
            return supervisor, None
        registry = session.metrics()
        return supervisor, tuple(
            registry.value(name, {"shard": "0"})
            for name in (
                "repro_supervisor_retries_total",
                "repro_supervisor_abandoned_total",
            )
        )

    # Both pacings run every round through CheckpointSupervisor.run_round;
    # each test drives both.

    def test_transient_failure_retried_with_backoff(self):
        for pacing in ("engine", "session"):
            supervisor, samples = self.run_flaky(
                pacing, failing_attempts=1, rounds=4
            )
            assert supervisor.checkpoints_completed == 4, pacing
            assert supervisor.checkpoints_abandoned == 0, pacing
            assert supervisor.retries_performed == 1, pacing
            kinds = [event.kind for event in supervisor.events]
            assert "failure" in kinds and "retry" in kinds, pacing
            assert samples in (None, (1, 0)), pacing

    def test_round_abandoned_after_exhausting_retries(self):
        # retries=2 -> 3 attempts per round; 3 consecutive failures burn
        # exactly one round, the next round completes.
        for pacing in ("engine", "session"):
            supervisor, samples = self.run_flaky(
                pacing, failing_attempts=3, rounds=3
            )
            assert supervisor.checkpoints_abandoned == 1, pacing
            assert supervisor.checkpoints_completed == 2, pacing
            assert supervisor.retries_performed == 2, pacing
            assert any(
                event.kind == "gave-up" for event in supervisor.events
            ), pacing
            assert samples in (None, (2, 1)), pacing

    def test_attempt_never_raises(self):
        kernel, engine = self.build_flaky(failing_attempts=1)
        supervisor = supervise(engine)
        completed, reports = supervisor.attempt()
        assert (completed, reports) == (False, [])
        completed, reports = supervisor.attempt()
        assert completed is True


class TestStallWatchdog:
    def test_stall_flagged_once_per_episode_and_rearmed(self):
        kernel = make_kernel()
        buffer = BoundedBuffer(kernel, capacity=3, history=HistoryDatabase())
        config = DetectorConfig(interval=0.5, stall_timeout=2.0)
        engine = DetectionEngine(kernel, config)
        engine.register(buffer)
        supervisor = supervise(engine)

        def idle():
            yield Delay(10.0)

        kernel.spawn(idle(), "idle")
        kernel.run(until=0.1)
        assert supervisor.check_stall() is False
        kernel.run(until=5.0)
        # Past the timeout with no completed checkpoint: flagged once.
        assert supervisor.check_stall() is True
        assert supervisor.check_stall() is True
        assert supervisor.stalls_detected == 1
        assert supervisor.stalled
        # A completed checkpoint re-arms the watchdog.
        completed, __ = supervisor.attempt()
        assert completed
        assert not supervisor.stalled
        assert supervisor.check_stall() is False

    def test_disabled_without_timeout(self):
        kernel = make_kernel()
        buffer = BoundedBuffer(kernel, capacity=3, history=HistoryDatabase())
        engine = DetectionEngine(kernel, DetectorConfig(interval=0.5))
        engine.register(buffer)
        supervisor = supervise(engine)
        assert supervisor.config.stall_timeout is None
        assert supervisor.check_stall() is False


class TestDegradedMode:
    def build(self, capacity=4):
        kernel = make_kernel()
        buffer = BoundedBuffer(
            kernel, capacity=3, history=BoundedHistory(capacity=capacity)
        )
        config = DetectorConfig(interval=2.0, tmax=60.0, tio=60.0, tlimit=60.0)
        engine = DetectionEngine(kernel, config)
        entry = engine.register(buffer)
        spawn_buffer_load(kernel, buffer, items=12, pace=0.05)
        return kernel, engine, entry

    def test_lossy_window_yields_no_confirmed_reports(self):
        kernel, engine, entry = self.build()
        kernel.run(until=2.0)
        reports = engine.checkpoint()
        assert entry.dropped_in_windows > 0
        assert entry.degraded_windows >= 1
        assert all(r.confidence is Confidence.DEGRADED for r in reports)
        assert all(is_drop_tolerant(r.rule) for r in engine.reports)
        assert engine.confirmed_clean

    def test_complete_window_stays_confirmed(self):
        kernel, engine, entry = self.build(capacity=4096)
        kernel.run(until=2.0)
        engine.checkpoint()
        assert entry.degraded_windows == 0
        assert all(
            r.confidence is Confidence.CONFIRMED for r in engine.reports
        )

    def test_later_complete_windows_confirmed_again(self):
        # After a lossy window, Algorithm-2 re-bases its cumulative
        # counters: the quiet tail of the run must not report ST-7a.
        kernel, engine, entry = self.build()
        kernel.run(until=2.0)
        engine.checkpoint()
        assert entry.degraded_windows >= 1
        assert entry.algorithm2 is not None
        assert entry.algorithm2.resyncs >= 1
        kernel.run(until=10.0)  # workload drains; windows shrink
        engine.checkpoint()
        engine.checkpoint()
        assert engine.confirmed_clean

    def test_drop_tolerant_set_is_the_timer_and_snapshot_rules(self):
        assert DROP_TOLERANT == frozenset(
            {
                STRule.TMAX_EXCEEDED,
                STRule.TIO_EXCEEDED,
                STRule.REQUEST_NOT_RELEASED,
                STRule.WAIT_FOR_CYCLE,
            }
        )

    def test_degraded_tmax_still_reported(self):
        # A process wedged inside the monitor is witnessed by the timer
        # sweep even on a lossy window — downgraded, not dropped.
        kernel = make_kernel()
        buffer = BoundedBuffer(
            kernel, capacity=3, history=BoundedHistory(capacity=2)
        )
        config = DetectorConfig(interval=1.0, tmax=0.5, tio=60.0, tlimit=60.0)
        engine = DetectionEngine(kernel, config)
        entry = engine.register(buffer)

        def wedged():
            yield from buffer.monitor.enter("Send")
            yield Delay(30.0)  # never exits

        def knocker(index):
            # Each produces an Enter event against the held monitor, so
            # the capacity-2 window drops events and goes degraded.
            yield Delay(0.2 * (index + 1))
            yield from buffer.monitor.enter("Receive")

        kernel.spawn(wedged(), "wedged")
        for index in range(6):
            kernel.spawn(knocker(index), f"knocker-{index}")
        kernel.run(until=2.0)
        reports = engine.checkpoint()
        assert entry.degraded_windows == 1
        tmax_reports = [
            r for r in reports if r.rule is STRule.TMAX_EXCEEDED
        ]
        assert tmax_reports
        assert all(r.confidence is Confidence.DEGRADED for r in tmax_reports)
        assert all(r.degraded for r in tmax_reports)
        assert "(degraded)" in tmax_reports[0].render()


class TestSnapshotRestore:
    def build(self):
        kernel = make_kernel()
        buffer = BoundedBuffer(
            kernel, capacity=3, history=BoundedHistory(capacity=64)
        )
        config = DetectorConfig(interval=0.5, tmax=60.0, tio=60.0, tlimit=60.0)
        engine = DetectionEngine(kernel, config)
        entry = engine.register(buffer)
        return kernel, buffer, engine, entry

    def test_roundtrip_resumes_windows(self):
        import json

        kernel, buffer, engine, entry = self.build()
        spawn_buffer_load(kernel, buffer, items=6, pace=0.1)
        supervisor = supervise(engine)
        kernel.spawn(supervisor_process(supervisor, rounds=2), "supervisor")
        kernel.run(until=1.2)
        entry.breaker.record_failure(kernel.now(), "simulated")
        snapshot = json.loads(
            json.dumps(supervisor.snapshot_state(engine.entries))
        )

        # A "restarted" supervisor on a fresh engine over the same sinks.
        engine2 = DetectionEngine(kernel, engine.config)
        entry2 = engine2.register(buffer)
        supervisor2 = supervise(engine2)
        restored = supervisor2.restore_state(snapshot, engine2.entries)
        assert restored == [entry2.label]
        assert supervisor2.checkpoints_completed == 2
        assert entry2.checkpoints_run == entry.checkpoints_run
        assert (
            entry2.breaker.consecutive_failures
            == entry.breaker.consecutive_failures
        )
        # The restored engine keeps checking from the snapshot base.
        kernel.run(until=3.0)
        engine2.checkpoint()
        assert entry2.checkpoints_run == entry.checkpoints_run + 1
        assert engine2.confirmed_clean

    def test_refuses_a_monitor_row_with_an_extra_field(self):
        # A monitor row is positional: a field past the declared ones
        # (per-monitor state of a retired feature, say) is refused,
        # naming the monitor and the last declared field, before any of
        # the snapshot is applied.
        from repro.errors import RecoveryError

        kernel, buffer, engine, entry = self.build()
        spawn_buffer_load(kernel, buffer, items=6, pace=0.1)
        supervisor = supervise(engine)
        kernel.spawn(supervisor_process(supervisor, rounds=2), "supervisor")
        kernel.run(until=1.2)
        snapshot = supervisor.snapshot_state(engine.entries)
        __, __, [row] = snapshot
        row.append(12.5)

        engine2 = DetectionEngine(kernel, engine.config)
        entry2 = engine2.register(buffer)
        supervisor2 = supervise(engine2)
        with pytest.raises(RecoveryError, match="past 'algorithm3'"):
            supervisor2.restore_state(snapshot, engine2.entries)
        assert supervisor2.checkpoints_completed == 0
        assert entry2.checkpoints_run == 0

    def test_rejects_foreign_snapshot(self):
        from repro.errors import RecoveryError

        __, ___, engine, ____ = self.build()
        supervisor = supervise(engine)
        with pytest.raises(RecoveryError, match="supervisor row"):
            supervisor.restore_state({"kind": "sink"}, engine.entries)

    def test_rejects_mismatched_monitor_fleet(self):
        from repro.errors import RecoveryError

        kernel, buffer, engine, entry = self.build()
        supervisor = supervise(engine)
        engine.checkpoint()
        snapshot = supervisor.snapshot_state(engine.entries)

        # Restarted engine registers a *different* fleet: restoring the
        # snapshot silently onto the wrong monitors must be refused.
        engine2 = DetectionEngine(kernel, engine.config)
        engine2.register(buffer, label="renamed")
        supervisor2 = supervise(engine2)
        with pytest.raises(RecoveryError) as excinfo:
            supervisor2.restore_state(snapshot, engine2.entries)
        message = str(excinfo.value)
        assert entry.label in message and "renamed" in message

    def test_rejects_partial_fleet(self):
        from repro.errors import RecoveryError

        kernel, buffer, engine, ____ = self.build()
        supervisor = supervise(engine)
        engine.checkpoint()
        snapshot = supervisor.snapshot_state(engine.entries)

        engine2 = DetectionEngine(kernel, engine.config)
        supervisor2 = supervise(engine2)  # nothing registered
        with pytest.raises(RecoveryError):
            supervisor2.restore_state(snapshot, engine2.entries)


class TestSupervisionConfig:
    def test_defaults_off(self):
        config = DetectorConfig()
        assert config.stall_timeout is None
        assert config.checkpoint_retries == 2
        assert config.breaker_failure_threshold == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_retries": -1},
            {"retry_backoff": 0.0},
            {"stall_timeout": -2.0},
            {"breaker_failure_threshold": 0},
            {"breaker_cooldown": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)


class TestRetryBackoff:
    def test_exact_exponential_backoff(self):
        kernel = make_kernel()
        supervisor = supervise(
            DetectionEngine(kernel, DetectorConfig(retry_backoff=0.25))
        )
        assert [supervisor.retry_delay(a) for a in range(4)] == [
            0.25, 0.5, 1.0, 2.0
        ]
