"""Crash-recovery campaign: kill the detector, restart, compare fault sets."""

import random
import time

import pytest

from repro.apps import SingleResourceAllocator
from repro.detection import DetectorConfig
from repro.detection.durability import SNAPSHOT_SLOTS
from repro.errors import InjectionError
from repro.history.wal import WriteAheadLog
from repro.injection import (
    CrashPoint,
    CrashRecoveryConfig,
    run_crash_recovery_campaign,
)
from repro.injection.chaos import SimulatedCrash, _CrashContext
from repro.kernel import Delay, RandomPolicy, SimKernel
from repro.kernel.threads import ThreadKernel


class TestConfigValidation:
    def test_rejects_too_many_crashes(self):
        with pytest.raises(InjectionError):
            CrashRecoveryConfig(rounds=10, crashes=9)

    def test_rejects_unknown_backend(self):
        with pytest.raises(InjectionError):
            CrashRecoveryConfig(backend="processes")

    def test_rejects_empty_crash_points(self):
        with pytest.raises(InjectionError):
            CrashRecoveryConfig(crash_points=())

    def test_config_or_overrides_not_both(self):
        with pytest.raises(InjectionError):
            run_crash_recovery_campaign(CrashRecoveryConfig(), seed=1)


class TestSimCampaign:
    def test_default_campaign_passes_strict(self):
        result = run_crash_recovery_campaign(
            seed=0, rounds=30, crashes=3, backend="sim"
        )
        assert result.passed, result.summary()
        value = result.registry.value
        assert value("repro_campaign_golden_reports") > 0
        assert value("repro_campaign_recovered_reports") == value(
            "repro_campaign_golden_reports"
        )
        assert value("repro_campaign_missing_keys") == 0
        assert value("repro_campaign_extra_keys") == 0
        assert value("repro_campaign_duplicate_keys") == 0
        assert value("repro_campaign_recoveries") == 3
        assert [result.gate.name for result in result.gates] == [
            "no-kernel-failure",
            "every-crash-injected",
            "every-crash-recovered",
            "golden-run-reports",
            "no-missing-report",
            "no-extra-report",
            "no-duplicated-report",
        ]
        assert len(result.notes) == 3
        assert all(note.startswith("crash in round") for note in result.notes)

    def test_each_incarnation_exports_under_its_label(self):
        result = run_crash_recovery_campaign(
            seed=0, rounds=30, crashes=3, backend="sim"
        )
        value = result.registry.value
        # Incarnation 0 is the first start; each later one recovered once.
        assert value("repro_recoveries_total", {"incarnation": "0"}) == 0
        for incarnation in ("1", "2", "3"):
            assert value(
                "repro_recoveries_total", {"incarnation": incarnation}
            ) == 1
        assert value("repro_recoveries_total") == 3

    def test_each_crash_point_recovers(self):
        # One campaign per point, so a regression names its culprit.
        for point in CrashPoint:
            result = run_crash_recovery_campaign(
                seed=11,
                rounds=20,
                crashes=2,
                backend="sim",
                crash_points=(point,),
            )
            assert result.passed, f"{point.value}:\n{result.summary()}"

    def test_each_torn_snapshot_falls_back_once(self):
        result = run_crash_recovery_campaign(
            seed=7,
            rounds=20,
            crashes=2,
            backend="sim",
            crash_points=(CrashPoint.MID_SNAPSHOT_WRITE,),
        )
        assert result.passed, result.summary()
        assert result.registry.value("repro_campaign_snapshot_fallbacks") == 2

    def test_torn_tails_are_truncated_on_recovery(self):
        result = run_crash_recovery_campaign(
            seed=2,
            rounds=20,
            crashes=2,
            backend="sim",
            crash_points=(CrashPoint.MID_WAL_APPEND,),
        )
        assert result.passed, result.summary()
        assert result.registry.value("repro_campaign_torn_tails") == 2

    def test_summary_renders(self):
        result = run_crash_recovery_campaign(seed=1, rounds=16, crashes=1)
        text = result.summary()
        assert "crash-recovery campaign" in text
        assert ("PASS" in text) == result.passed


class TestThreadCampaign:
    def test_relaxed_comparison_passes_on_threads(self):
        result = run_crash_recovery_campaign(
            seed=0, rounds=20, crashes=2, backend="threads", operations=10
        )
        assert result.passed, result.summary()

    def test_restarts_never_kill_the_workload(self):
        # Each restart swaps the monitors' WALs while the workload threads
        # run; a transition between closing the old WAL and attaching the
        # new one used to fail its process with "append to a closed WAL".
        for __ in range(3):
            result = run_crash_recovery_campaign(
                seed=0, rounds=30, crashes=2, backend="threads"
            )
            failures = result.registry.value("repro_campaign_kernel_failures")
            assert failures == 0, result.summary()

    def test_restart_holds_the_workload_off_the_wals(
        self, tmp_path, monkeypatch
    ):
        # The same race made certain: a slow WAL close holds the window
        # open while a workload thread keeps calling the monitor.
        kernel = ThreadKernel(time_scale=0.002)
        allocator = SingleResourceAllocator(kernel, name="allocator")
        context = _CrashContext(
            kernel,
            tmp_path,
            [(allocator, "allocator")],
            DetectorConfig(interval=0.25, tmax=60.0, tio=60.0, tlimit=60.0),
            fsync="never",
            rng=random.Random(0),
        )
        close = WriteAheadLog.close

        def slow_close(wal):
            close(wal)
            time.sleep(0.02)

        monkeypatch.setattr(WriteAheadLog, "close", slow_close)
        restarted = []

        def user():
            while not restarted:
                yield from allocator.request()
                yield from allocator.release()
                yield Delay(0.001)

        def restarter():
            yield Delay(0.5)
            context.rebuild()
            restarted.append(True)

        kernel.spawn(user(), "user")
        kernel.spawn(restarter(), "restarter")
        # Returns once both processes end; the deadline (10 s of wall
        # time) only bounds a hung run.
        result = kernel.run(until=5_000.0)
        context.durable.close()
        assert result.live == ()
        assert context.recoveries == 1
        assert kernel.failures() == {}


class TestMidSnapshotWrite:
    def test_torn_slot_recovers_the_previous(self, tmp_path):
        kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
        allocator = SingleResourceAllocator(kernel, name="allocator")
        context = _CrashContext(
            kernel,
            tmp_path,
            [(allocator, "allocator")],
            DetectorConfig(interval=0.25, tmax=60.0, tio=60.0, tlimit=60.0),
            fsync="interval",
            rng=random.Random(0),
        )
        # After the baseline and these, the torn write lands on a slot
        # that already holds an older record.
        for __ in range(SNAPSHOT_SLOTS):
            context.session.checkpoint()
        previous, __ = context.durable.snapshots.load_latest()
        context.trigger(CrashPoint.MID_SNAPSHOT_WRITE)
        with pytest.raises(SimulatedCrash, match="mid-snapshot-write"):
            context.session.checkpoint()
        context.rebuild()
        assert context.snapshot_fallbacks == 1
        store = context.durable.snapshots
        assert store.load_latest()[0] == previous
        context.durable.close()
