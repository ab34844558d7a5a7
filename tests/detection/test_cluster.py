"""Sharded detection cluster: round-robin placement, staggered schedules,
merged-report determinism across shard counts, phase-2 evaluation on each
shard's pacing thread on the thread kernel, durable per-shard recovery,
and the retired quarantine-record fix."""

import pytest

from repro.apps import BoundedBuffer, SingleResourceAllocator
from repro.detection import (
    DetectionCluster,
    DetectionEngine,
    DetectionSession,
    DetectorConfig,
    FaultStatistics,
    supervisor_process,
)
from repro.history import HistoryDatabase
from repro.history.sink import merge_event_streams
from repro.injection import sabotage_entry
from repro.kernel import Delay, FifoPolicy, SimKernel, ThreadKernel
from tests.conftest import supervise

FAST = 0.002

#: Generous timeouts: no timer sweep fires, so every report is anchored
#: to its event time (capture-schedule independent) — the property the
#: determinism tests rely on.
QUIET = dict(tmax=120.0, tio=120.0, tlimit=120.0)


def make_kernel():
    # FifoPolicy consumes no RNG, so scheduling is identical no matter
    # how many detection pacing processes share the ready queue.
    return SimKernel(FifoPolicy(), on_deadlock="stop")


def build_allocators(kernel, count=3):
    return [
        SingleResourceAllocator(kernel, history=HistoryDatabase())
        for __ in range(count)
    ]


def spawn_allocator_workload(kernel, allocators, *, rogue_on=0):
    """Deterministic request/release cycles + one rogue bare release.

    The rogue process calls ``release()`` without a prior ``request()`` at
    a quiet instant — the real-time Algorithm-3 tap flags the order
    violation at the event time, which does not move when the checkpoint
    schedule is staggered.
    """
    for index, allocator in enumerate(allocators):

        def user(allocator=allocator, index=index):
            for __ in range(4):
                yield Delay(0.1 + 0.01 * index)
                yield from allocator.request()
                yield Delay(0.05)
                yield from allocator.release()

        kernel.spawn(user(), f"user-{index}")

    def rogue():
        # Long after the users above are done (4 cycles end well before
        # t=2), so the resource is free and nothing else is perturbed.
        yield Delay(3.0)
        yield from allocators[rogue_on].release()

    kernel.spawn(rogue(), "rogue")


class TestShardPolicies:
    def test_round_robin_spreads_in_registration_order(self):
        kernel = make_kernel()
        cluster = DetectionCluster(kernel, shards=3)
        monitors = build_allocators(kernel, 6)
        for monitor in monitors:
            cluster.register(monitor)
        assert [cluster.shard_of(m) for m in monitors] == [0, 1, 2, 0, 1, 2]

    def test_explicit_shard_pins_placement(self):
        kernel = make_kernel()
        cluster = DetectionCluster(kernel, shards=3)
        monitor = build_allocators(kernel, 1)[0]
        cluster.register(monitor, shard=2)
        assert cluster.shard_of(monitor) == 2

    def test_pinned_registration_keeps_round_robin_cursor(self):
        kernel = make_kernel()
        cluster = DetectionCluster(kernel, shards=3)
        first, pinned, second, third = build_allocators(kernel, 4)
        cluster.register(first)
        cluster.register(pinned, shard=0)
        cluster.register(second)
        cluster.register(third)
        placed = [cluster.shard_of(m) for m in (first, second, third)]
        assert placed == [0, 1, 2]

    def test_invalid_shard_index_rejected(self):
        kernel = make_kernel()
        cluster = DetectionCluster(kernel, shards=2)
        monitor = build_allocators(kernel, 1)[0]
        with pytest.raises(ValueError, match="out of range"):
            cluster.register(monitor, shard=5)

    def test_shard_count_validated(self):
        kernel = make_kernel()
        with pytest.raises(ValueError, match="shard count"):
            DetectionSession(kernel, shards=0)
        with pytest.raises(ValueError, match="shard count"):
            DetectionCluster(kernel, shards=0)

    def test_duplicate_labels_unique_across_shards(self):
        kernel = make_kernel()
        cluster = DetectionCluster(kernel, shards=2)
        monitors = build_allocators(kernel, 3)
        for monitor in monitors:
            cluster.register(monitor)
        assert len(set(cluster.labels)) == 3


class TestStagger:
    def test_offsets_divide_interval_across_active_shards(self):
        kernel = make_kernel()
        cluster = DetectionCluster(
            kernel, DetectorConfig(interval=1.0), shards=4
        )
        monitors = build_allocators(kernel, 4)
        for monitor in monitors:
            cluster.register(monitor)
        assert cluster.offsets == (0.0, 0.25, 0.5, 0.75)

    def test_rebalance_on_unregister(self):
        kernel = make_kernel()
        cluster = DetectionCluster(
            kernel, DetectorConfig(interval=1.0), shards=2
        )
        first, second = build_allocators(kernel, 2)
        cluster.register(first)
        cluster.register(second)
        assert cluster.offsets == (0.0, 0.5)
        cluster.unregister(second)
        # Only one shard still has monitors; no stagger needed.
        assert cluster.offsets == (0.0, 0.0)

    def test_staggered_captures_never_coincide(self):
        kernel = make_kernel()
        config = DetectorConfig(interval=0.5, **QUIET)
        cluster = DetectionCluster(kernel, config, shards=2)
        for monitor in build_allocators(kernel, 2):
            cluster.register(monitor)
        capture_times = {0: [], 1: []}
        for shard in cluster.shards:
            original = shard.engine.capture_phase

            def traced(shard=shard, original=original):
                capture_times[shard.index].append(kernel.now())
                return original()

            shard.engine.capture_phase = traced
        cluster.spawn_processes()
        kernel.run(until=4.0)
        cluster.stop()
        assert capture_times[0] and capture_times[1]
        overlap = set(capture_times[0]) & set(capture_times[1])
        assert not overlap


def run_determinism_workload(shards):
    kernel = make_kernel()
    allocators = build_allocators(kernel, 3)
    spawn_allocator_workload(kernel, allocators)
    config = DetectorConfig(interval=0.25, **QUIET)
    cluster = DetectionCluster(kernel, config, shards=shards)
    for allocator in allocators:
        cluster.register(allocator)
    cluster.spawn_processes()
    kernel.run(until=8.0)
    cluster.stop()
    return cluster


class TestMergedReportDeterminism:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_same_reports_as_single_shard(self, shards):
        baseline = run_determinism_workload(1)
        sharded = run_determinism_workload(shards)

        def tuples(cluster):
            return sorted(
                (
                    report.rule_id,
                    report.pids,
                    report.detected_at,
                    report.confidence,
                )
                for report in cluster.reports
            )

        assert tuples(baseline), "workload must produce at least one report"
        assert tuples(sharded) == tuples(baseline)

    def test_merge_order_is_deterministic(self):
        cluster = run_determinism_workload(2)
        merged = cluster.reports
        keys = [(r.detected_at,) for r in merged]
        assert keys == sorted(keys)
        # Merged view equals the union of the per-monitor streams.
        per_monitor = cluster.reports_by_monitor()
        assert sum(len(v) for v in per_monitor.values()) == len(merged)

    def test_reporting_surface_matches_single_engine(self):
        cluster = run_determinism_workload(2)
        kernel = make_kernel()
        allocators = build_allocators(kernel, 3)
        spawn_allocator_workload(kernel, allocators)
        engine = DetectionEngine(
            kernel, DetectorConfig(interval=0.25, **QUIET)
        )
        for allocator in allocators:
            engine.register(allocator)
        kernel.spawn(supervisor_process(supervise(engine)), "engine")
        kernel.run(until=8.0)
        engine.stop()
        assert cluster.clean == engine.clean
        assert cluster.confirmed_clean == engine.confirmed_clean
        assert cluster.implicated_faults() == engine.implicated_faults()
        assert {
            r.rule_id for r in cluster.reports
        } == {r.rule_id for r in engine.reports}

    def test_statistics_from_cluster(self):
        cluster = run_determinism_workload(2)
        stats = FaultStatistics.from_engine(cluster)
        assert stats.total_reports == len(cluster.reports)
        assert stats.counters["checkpoints_run"] > 0

    def test_hot_path_counters_aggregate_across_shards(self):
        cluster = run_determinism_workload(2)
        # Every evaluated window is either a carried hit or a rebase.
        assert (
            cluster.incremental_hits + cluster.incremental_rebases
            == cluster.evaluations_run
        )
        assert cluster.incremental_hits > 0
        assert cluster.staged_flushes > 0
        # One world-stop observation per phase-1 atomic section, across
        # shards.
        assert (
            cluster.metrics().histogram_count(
                "repro_phase_latency_seconds", {"phase": "capture"}
            )
            == cluster.atomic_sections
        )
        p50 = cluster.worldstop_percentile(0.5)
        p99 = cluster.worldstop_percentile(0.99)
        assert 0.0 < p50 <= p99 <= cluster.worldstop_max
        assert cluster.incremental_hits == sum(
            shard.engine.incremental_hits for shard in cluster.shards
        )
        assert cluster.staged_flushes == sum(
            shard.engine.staged_flushes for shard in cluster.shards
        )


class TestWorkerPool:
    """Phase 2 on the thread kernel runs on each shard's pacing thread."""

    def test_thread_kernel_evaluates_in_pool(self):
        # 4 virtual seconds span 100 ms of wall clock, so each shard wakes
        # for several checkpoints even on a loaded machine.
        kernel = ThreadKernel(time_scale=0.025)
        allocators = [
            SingleResourceAllocator(kernel, history=HistoryDatabase())
            for __ in range(4)
        ]
        config = DetectorConfig(interval=0.5, **QUIET)
        cluster = DetectionCluster(kernel, config, shards=2)
        for allocator in allocators:
            cluster.register(allocator)

        def user(allocator):
            for __ in range(4):
                yield Delay(0.1)
                yield from allocator.request()
                yield Delay(0.05)
                yield from allocator.release()

        for index, allocator in enumerate(allocators):
            kernel.spawn(user(allocator), f"user-{index}")
        cluster.spawn_processes()
        kernel.run(until=4.0)
        cluster.stop()
        # Join the pacing threads (each leaves at its next wake), so no
        # round is in flight when the counts are read.
        assert not kernel.run(until=200.0).live
        assert cluster.clean
        assert cluster.captures_taken > 0
        # Every capture was evaluated on its shard's pacing thread.
        assert cluster.evaluations_run == cluster.captures_taken
        assert cluster.checkpoints_run > 0

    def test_manual_checkpoint_awaits_pool(self):
        kernel = ThreadKernel(time_scale=FAST)
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        cluster = DetectionCluster(
            kernel, DetectorConfig(interval=0.5, **QUIET), shards=1
        )
        cluster.register(allocator)
        kernel.run(until=0.2)
        cluster.checkpoint()
        cluster.stop()
        assert cluster.evaluations_run == cluster.captures_taken


class TestShardFailureIsolation:
    def test_sabotaged_shard_quarantines_while_others_detect(self):
        kernel = make_kernel()
        allocators = build_allocators(kernel, 2)
        spawn_allocator_workload(kernel, allocators, rogue_on=1)
        config = DetectorConfig(interval=0.25, **QUIET)
        cluster = DetectionCluster(kernel, config, shards=2)
        broken = cluster.register(allocators[0], shard=0)
        cluster.register(allocators[1], shard=1)
        sabotage_entry(broken)
        cluster.spawn_processes()
        kernel.run(until=8.0)
        cluster.stop()
        # Shard 0's monitor tripped its breaker (it may have reclosed by
        # now once the sabotage healed); shard 1 still reported the rogue
        # release.
        assert broken.breaker.times_opened >= 1
        assert any(
            record.label == broken.label
            for record in cluster.quarantine_report()
        )
        shard1_reports = cluster.reports_by_monitor()[
            cluster.entries[1].label
        ]
        assert shard1_reports, "healthy shard must keep detecting"


class TestUnregisterQuarantineRecord:
    def test_unregister_retires_quarantine_record(self):
        kernel = make_kernel()
        engine = DetectionEngine(
            kernel, DetectorConfig(interval=0.25, **QUIET)
        )
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        entry = engine.register(allocator)
        sabotage_entry(entry)
        kernel.spawn(iter([Delay(2.0)]), "clock")
        kernel.spawn(supervisor_process(supervise(engine), rounds=5), "engine")
        kernel.run(until=3.0)
        assert entry.breaker.transitions or entry.breaker.consecutive_failures
        before = engine.quarantine_report()
        assert any(record.label == entry.label for record in before)
        engine.unregister(entry)
        after = engine.quarantine_report()
        # The record survives unregistration instead of leaking away.
        assert any(record.label == entry.label for record in after)
        assert engine.retired_quarantines

    def test_unregister_without_breaker_history_retires_nothing(self):
        kernel = make_kernel()
        engine = DetectionEngine(kernel)
        allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
        entry = engine.register(allocator)
        engine.unregister(entry)
        assert engine.retired_quarantines == []
        assert engine.quarantine_report() == []


class TestDurableCluster:
    def test_crash_one_shard_recovery(self, tmp_path):
        def build(root):
            kernel = make_kernel()
            allocators = build_allocators(kernel, 2)
            spawn_allocator_workload(kernel, allocators, rogue_on=0)
            config = DetectorConfig(interval=0.25, **QUIET)
            cluster = DetectionCluster(
                kernel, config, shards=2, durable_root=root
            )
            cluster.register(allocators[0], shard=0)
            cluster.register(allocators[1], shard=1)
            return kernel, cluster

        kernel, cluster = build(tmp_path / "state")
        cluster.baseline()
        cluster.spawn_processes()
        kernel.run(until=8.0)
        cluster.stop()
        delivered = [
            (r.rule_id, r.pids, r.detected_at)
            for r in cluster.delivered_reports
        ]
        assert delivered, "rogue release must be journaled"

        # "Crash": drop the cluster without closing anything else, then
        # rebuild the same fleet over the same root and recover.
        kernel2, restarted = build(tmp_path / "state")
        summaries = restarted.recover()
        assert len(summaries) == 2
        recovered = [
            (r.rule_id, r.pids, r.detected_at)
            for r in restarted.delivered_reports
        ]
        assert recovered == delivered
        restarted.close()

    def test_durability_counters_summed(self, tmp_path):
        kernel = make_kernel()
        cluster = DetectionCluster(
            kernel,
            DetectorConfig(interval=0.5, **QUIET),
            shards=2,
            durable_root=tmp_path / "d",
        )
        for monitor in build_allocators(kernel, 2):
            cluster.register(monitor)
        cluster.baseline()
        cluster.spawn_processes()
        kernel.run(until=2.0)
        cluster.stop()
        counters = cluster.durability_counters
        assert counters["snapshots_written"] >= 2


class TestMergedEvents:
    def test_merge_event_streams_orders_by_time(self):
        kernel = make_kernel()
        allocators = build_allocators(kernel, 2)
        spawn_allocator_workload(kernel, allocators)
        cluster = DetectionCluster(
            kernel, DetectorConfig(interval=0.5, **QUIET), shards=2
        )
        for allocator in allocators:
            cluster.register(allocator)
        kernel.run(until=1.0)
        merged = cluster.merged_events
        assert merged
        times = [event.time for event in merged]
        assert times == sorted(times)
        streams = [entry.history.pending_events for entry in cluster.entries]
        assert merge_event_streams(streams) == merged
        assert len(merged) == sum(len(stream) for stream in streams)
