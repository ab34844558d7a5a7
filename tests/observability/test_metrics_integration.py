"""End-to-end metrics tests: instrumented engine/cluster/session/server."""

import io
import math

import pytest

from repro.detection.config import DetectorConfig
from repro.detection.session import DetectionSession
from repro.detection.statistics import FaultStatistics
from repro.kernel.policies import RandomPolicy
from repro.kernel.sim import SimKernel
from repro.observability.export import (
    to_json_dict,
    to_prometheus_text,
    write_metrics_json,
)
from repro.workloads.scenarios import WorkloadSpec, build_fleet

CONFIG = DetectorConfig(interval=0.5, tmax=120.0, tio=120.0, tlimit=120.0)
SPEC = WorkloadSpec(processes=4, operations=30, think_time=0.05)


def run_session(seed=3, shards=2, durable_dir=None):
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    session = DetectionSession(
        kernel,
        config=CONFIG,
        shards=shards,
        durable_dir=durable_dir,
    )
    for run in build_fleet(kernel, 4, SPEC):
        session.register(run.monitor)
        run.spawn_all(kernel)
    session.start()
    kernel.run(until=15.0, max_steps=20_000_000)
    kernel.raise_failures()
    session.stop()
    return session


class TestEngineMetrics:
    def test_engine_families_present_with_shard_labels(self):
        session = run_session()
        registry = session.metrics()
        assert registry.value("repro_engine_checkpoints_total") > 0
        assert registry.value("repro_engine_captures_total") > 0
        assert registry.value("repro_engine_evaluations_total") > 0
        assert registry.value("repro_engine_monitors") == 4
        # Per-shard children exist for both shards.
        for shard in ("0", "1"):
            assert (
                registry.value(
                    "repro_engine_checkpoints_total", {"shard": shard}
                )
                > 0
            )

    def test_phase_histograms_cover_capture_and_evaluate(self):
        session = run_session()
        registry = session.metrics()
        for phase in ("capture", "evaluate"):
            count = registry.histogram_count(
                "repro_phase_latency_seconds", {"phase": phase}
            )
            assert count > 0, phase
        # Histogram sums mirror the legacy counters the engine keeps.
        capture_sum = registry.histogram_sum(
            "repro_phase_latency_seconds", {"phase": "capture"}
        )
        worldstop = sum(
            shard.engine.worldstop_seconds for shard in session.shards
        )
        assert capture_sum == pytest.approx(worldstop)

    def test_metrics_returns_fresh_registry_each_call(self):
        session = run_session()
        first = session.metrics()
        second = session.metrics()
        assert first is not second
        # Sampling twice must not double-count.
        assert first.value(
            "repro_engine_checkpoints_total"
        ) == second.value("repro_engine_checkpoints_total")


class TestDurableMetrics:
    def test_wal_and_recovery_families(self, tmp_path):
        session = run_session(durable_dir=tmp_path / "state")
        registry = session.metrics()
        assert registry.value("repro_wal_bytes_written_total") > 0
        assert registry.value("repro_snapshots_written_total") > 0
        assert (
            registry.histogram_count(
                "repro_phase_latency_seconds", {"phase": "wal_append"}
            )
            > 0
        )

    def test_snapshot_latency_observed_per_snapshot(self, tmp_path):
        session = run_session(durable_dir=tmp_path / "state")
        registry = session.metrics()
        written = 0
        for shard in session.shards:
            labels = {"shard": str(shard.index), "phase": "snapshot"}
            count = registry.histogram_count(
                "repro_phase_latency_seconds", labels
            )
            assert count == shard.durable.snapshots_written > 0
            written += count
        assert written == registry.value("repro_snapshots_written_total")

    def test_wal_append_latency_samples_one_append_in_64(self, tmp_path):
        session = run_session(durable_dir=tmp_path / "state")
        appends = [entry.history.appends for entry in session.entries]
        assert max(appends) > 64
        sampled = session.metrics().histogram_count(
            "repro_phase_latency_seconds", {"phase": "wal_append"}
        )
        assert sampled == sum(math.ceil(count / 64) for count in appends)

    def test_recover_latency_observed(self, tmp_path):
        state = tmp_path / "state"
        run_session(durable_dir=state)
        kernel = SimKernel(RandomPolicy(seed=3), on_deadlock="stop")
        session = DetectionSession(
            kernel, config=CONFIG, shards=2, durable_dir=state
        )
        for run in build_fleet(kernel, 4, SPEC):
            session.register(run.monitor)
        session.recover()
        registry = session.metrics()
        assert registry.value("repro_recoveries_total") == 2
        assert (
            registry.histogram_count(
                "repro_phase_latency_seconds", {"phase": "recover"}
            )
            == 2
        )


class TestSessionExport:
    def test_prometheus_text_from_live_session(self):
        session = run_session()
        text = to_prometheus_text(session.metrics())
        assert "# TYPE repro_engine_checkpoints_total counter" in text
        assert 'repro_engine_checkpoints_total{shard="0"}' in text
        assert "# TYPE repro_phase_latency_seconds histogram" in text

    def test_sim_kernel_stable_export_is_byte_identical(self):
        def export() -> str:
            session = run_session(seed=11)
            stream = io.StringIO()
            write_metrics_json(
                stream, session.metrics(), stable_only=True
            )
            return stream.getvalue()

        assert export() == export()


class TestServerMetrics:
    def test_service_families_from_fed_frames(self):
        from repro.bench.service_bench import build_window_corpus
        from repro.service.framing import encode_frame
        from repro.service.server import DetectionServer

        frames, hello, _events = build_window_corpus(
            seed=0, rounds=6, operations=30
        )
        kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
        server = DetectionServer(kernel, config=CONFIG)
        server.connect(1)
        server.feed(1, encode_frame(hello))
        server.poll()
        for payload in frames:
            server.feed(1, payload)
            server.poll()
        registry = server.metrics()
        assert registry.value("repro_service_frames_received_total") == 1 + len(
            frames
        )
        assert registry.value("repro_service_frames_sent_total") > 0
        assert registry.value("repro_service_windows_accepted_total") == len(
            frames
        )
        assert (
            registry.histogram_count(
                "repro_phase_latency_seconds", {"phase": "ack"}
            )
            > 0
        )
        assert server.stats()["frames_sent"] > 0
        server.close()


class TestStatisticsRebase:
    def test_from_engine_uses_metrics_registry(self):
        session = run_session()
        stats = FaultStatistics.from_engine(session)
        assert stats.counters["checkpoints_run"] > 0
        assert stats.counters["captures_taken"] > 0
        assert stats.counters["worldstop_seconds"] > 0
        assert "wal_bytes_written" not in stats.counters

    def test_durable_counters_included(self, tmp_path):
        session = run_session(durable_dir=tmp_path / "state")
        stats = session.statistics()
        assert stats.counters["wal_bytes_written"] > 0
        assert stats.counters["snapshots_written"] > 0

    def test_render_includes_engine_counters(self):
        session = run_session()
        stats = session.statistics()
        if stats.total_reports:
            assert "engine:" in stats.render()


class TestClusterSupervisionMetrics:
    def test_supervisor_and_pool_families_exported(self):
        session = run_session()
        registry = session.metrics()
        # Healthy run: families exist with zero values (not absent).
        assert registry.value("repro_supervisor_retries_total") == 0
        assert registry.value("repro_breaker_opened_total") == 0


def test_stable_json_roundtrip_through_bench_envelope():
    """Bench envelopes embed the same schema the gates runner reads."""
    from repro.observability.export import metric_samples

    session = run_session()
    doc = to_json_dict(session.metrics())
    entries = metric_samples(
        {"command": "metrics", "seed": 3, "results": doc}
    )
    assert {entry["name"] for entry in entries} == {
        entry["name"] for entry in doc["metrics"]
    }
