"""The traced run's call sites and the per-layer metrics built from them.

Every site is a public function or method of the package, wrapped from
outside by :class:`~perfbench.spans.Tracer`.  Self times are divided by
the number of traced iterations, so each per-layer figure is a cost per
iteration and does not grow with the time budget.  ``kernel.self_s`` is
the kernel's run loop minus every span below it, so it also holds the
workload's own process bodies and the shards' pacing loops.

Which end-to-end metric each layer should move, and on which workload:

* ``kernel.*``, ``monitor.*`` — ``monitor_ops_per_s`` on ``table1``.
* ``history.record_s``, ``history.cut_s``, ``history.staged_flushes`` —
  ``overhead_ratio`` on ``table1``; ``history.wal_*`` — ``overhead_ratio``
  on ``durable-fleet``.  All of them stay at zero on ``remote``.
* ``engine.capture_*`` (the world-stop) — ``overhead_ratio`` and
  ``window_latency_*`` on ``durable-fleet``.
* ``engine.evaluate_s``, ``engine.alg*``, ``engine.windows_evaluated``,
  ``engine.incremental_hit_ratio`` — ``events_checked_per_s`` on
  ``remote``, and only slightly ``overhead_ratio`` on ``table1``.
* ``durability.*`` — ``overhead_ratio`` and ``recover_s`` on
  ``durable-fleet``.
* ``supervisor.*``, ``cluster.reports_s`` — the error rate and detection
  latency on every workload.
* ``wire.*``, ``framing.decode_s``, ``service.*`` —
  ``events_checked_per_s`` and ``window_latency_*`` on ``remote``.
* ``observability.*`` — ``peak_rss_mb`` and ``monitor_ops_per_s`` on
  ``durable-fleet``.

``trace.coverage`` is the share of the traced sections' time that root
spans cover; on ``durable-fleet`` the rebuild of the fleet before
``recover()`` is the part left uncovered.
"""

from __future__ import annotations

from typing import Optional

from perfbench.harness import percentile
from perfbench.spans import Tracer

__all__ = ["PER_LAYER", "make_tracer", "layer_metrics"]

#: Every per-layer metric (units and directions are in BENCHMARK.json).
PER_LAYER: tuple[str, ...] = (
    "kernel.self_s",
    "kernel.atomic_calls",
    "monitor.transition_calls",
    "monitor.transition_s",
    "history.record_calls",
    "history.record_s",
    "history.cut_s",
    "history.staged_flushes",
    "history.wal_flush_s",
    "history.wal_fsyncs",
    "history.wal_bytes_per_event",
    "engine.capture_calls",
    "engine.capture_s",
    "engine.capture_p50_us",
    "engine.capture_p99_us",
    "engine.evaluate_s",
    "engine.windows_evaluated",
    "engine.alg1_s",
    "engine.alg2_s",
    "engine.alg3_tap_calls",
    "engine.alg3_tap_s",
    "engine.alg3_sweep_s",
    "engine.incremental_hit_ratio",
    "durability.snapshot_calls",
    "durability.snapshot_s",
    "durability.snapshot_bytes",
    "durability.journal_s",
    "durability.recover_s",
    "supervisor.self_s",
    "supervisor.retries",
    "supervisor.check_failures",
    "cluster.reports_s",
    "wire.encode_s",
    "wire.decode_s",
    "framing.decode_s",
    "wire.bytes_per_event",
    "service.feed_s",
    "service.poll_s",
    "service.journal_s",
    "service.frames_accepted",
    "service.frames_rejected",
    "service.backpressure_frames",
    "service.client_capture_s",
    "observability.snapshot_s",
    "observability.series",
    "recover_s",
    "detection_latency_p50_vs",
    "detection_latency_max_vs",
    "error_rate",
    "trace.coverage",
    "trace.overhead_ratio_traced",
    "trace.overhead_ratio_untraced",
    "trace.events_checked_per_s_traced",
    "trace.events_checked_per_s_untraced",
)

#: Span name -> per-layer time metric fed by its self time.
_SELF_TIME = {
    "kernel.run": "kernel.self_s",
    "monitor.transition": "monitor.transition_s",
    "history.record": "history.record_s",
    "history.flush": "history.record_s",
    "history.cut": "history.cut_s",
    "history.wal_flush": "history.wal_flush_s",
    "engine.capture": "engine.capture_s",
    "engine.evaluate": "engine.evaluate_s",
    "engine.alg1": "engine.alg1_s",
    "engine.alg2": "engine.alg2_s",
    "engine.alg3_tap": "engine.alg3_tap_s",
    "engine.alg3_sweep": "engine.alg3_sweep_s",
    "durability.snapshot": "durability.snapshot_s",
    "durability.journal": "durability.journal_s",
    "durability.recover": "durability.recover_s",
    "supervisor.attempt": "supervisor.self_s",
    "cluster.reports": "cluster.reports_s",
    "wire.encode": "wire.encode_s",
    "wire.decode": "wire.decode_s",
    "framing.decode": "framing.decode_s",
    "service.feed": "service.feed_s",
    "service.poll": "service.poll_s",
    "service.journal": "service.journal_s",
    "service.client_capture": "service.client_capture_s",
}

#: Span name -> per-layer call-count metric.
_CALLS = {
    "kernel.atomic": "kernel.atomic_calls",
    "monitor.transition": "monitor.transition_calls",
    "history.record": "history.record_calls",
    "engine.capture": "engine.capture_calls",
    "engine.alg3_tap": "engine.alg3_tap_calls",
    "durability.snapshot": "durability.snapshot_calls",
}


def _snapshot_bytes(tracer: Tracer, path) -> None:
    tracer.add("durability.snapshot_bytes", path.stat().st_size)


def make_tracer() -> Tracer:
    """A tracer over every layer boundary the benchmark attributes."""
    from repro.detection import algorithm1, algorithm2, algorithm3, engine
    from repro.detection import cluster, durability, supervision
    from repro.history import sink, wal
    from repro.kernel.sim import SimKernel
    from repro.monitor.core import MonitorCore
    from repro.service import client, framing, protocol, server

    tracer = Tracer()
    tracer.target(SimKernel, "run", "kernel.run")
    tracer.target(SimKernel, "atomic", "kernel.atomic", count_only=True)
    for name in ("enter", "wait", "signal_exit", "signal", "exit", "broadcast"):
        tracer.target(MonitorCore, name, "monitor.transition")
    tracer.target(sink.EventSink, "record", "history.record")
    tracer.target(sink.EventSink, "flush_staged", "history.flush")
    tracer.target(sink.EventSink, "cut", "history.cut")
    tracer.target(wal.WriteAheadLog, "flush", "history.wal_flush")
    tracer.target(
        engine.DetectionEngine, "capture_phase", "engine.capture",
        keep_samples=True,
    )
    tracer.target(engine.DetectionEngine, "evaluate_phase", "engine.evaluate")
    tracer.target(
        algorithm1.IncrementalConcurrencyChecker, "check_window", "engine.alg1"
    )
    tracer.target(
        algorithm2.ResourceStateChecker, "check_window", "engine.alg2"
    )
    tracer.target(
        algorithm3.CallingOrderChecker, "on_event", "engine.alg3_tap"
    )
    tracer.target(engine, "sweep_request_list", "engine.alg3_sweep")
    tracer.target(
        algorithm3.CallingOrderChecker, "periodic", "engine.alg3_sweep"
    )
    tracer.target(
        durability.SnapshotStore, "write", "durability.snapshot",
        on_result=_snapshot_bytes,
    )
    tracer.target(durability.ReportJournal, "admit", "durability.journal")
    tracer.target(durability.DurableEngine, "recover", "durability.recover")
    tracer.target(
        supervision.CheckpointSupervisor, "attempt", "supervisor.attempt"
    )
    tracer.target(cluster.DetectionCluster, "reports", "cluster.reports")
    tracer.target(protocol, "segment_to_wire", "wire.encode")
    tracer.target(server, "segment_from_wire", "wire.decode")
    tracer.target(framing.FrameDecoder, "feed", "framing.decode")
    tracer.target(server.DetectionServer, "feed", "service.feed")
    tracer.target(server.DetectionServer, "poll", "service.poll")
    tracer.target(server.ServiceJournal, "admit", "service.journal")
    tracer.target(client.DetectionClient, "capture", "service.client_capture")
    return tracer


def layer_metrics(
    tracer: Tracer,
    *,
    iterations: int,
    counts: dict[str, float],
    setup_tracer: Optional[Tracer] = None,
) -> dict[str, float]:
    """Per-layer metrics from the spans, per traced iteration.

    ``counts`` carries totals over the traced iterations that the
    program keeps itself (flushes, fsyncs, retries, frames, windows),
    plus the ratio inputs; ``setup_tracer`` holds the spans of one
    traced set-up (client capture and wire encoding on ``remote``), which
    are reported per set-up.
    """
    per = float(max(iterations, 1))
    out = dict.fromkeys(PER_LAYER, 0.0)
    for span, metric in _SELF_TIME.items():
        out[metric] += tracer.self_seconds.get(span, 0.0) / per
    for span, metric in _CALLS.items():
        out[metric] += tracer.calls.get(span, 0) / per
    if setup_tracer is not None:
        for span in ("wire.encode", "service.client_capture"):
            out[_SELF_TIME[span]] += setup_tracer.self_seconds.get(span, 0.0)
    captures = tracer.samples.get("engine.capture") or []
    if captures:
        out["engine.capture_p50_us"] = 1e6 * percentile(captures, 0.5)
        out["engine.capture_p99_us"] = 1e6 * percentile(captures, 0.99)
    out["durability.snapshot_bytes"] = (
        tracer.extra.get("durability.snapshot_bytes", 0.0) / per
    )
    for key in (
        "history.staged_flushes",
        "history.wal_fsyncs",
        "engine.windows_evaluated",
        "supervisor.retries",
        "supervisor.check_failures",
        "service.frames_accepted",
        "service.frames_rejected",
        "service.backpressure_frames",
    ):
        out[key] = counts.get(key, 0.0) / per
    events = counts.get("events", 0.0)
    if events:
        out["history.wal_bytes_per_event"] = counts.get("wal_bytes", 0.0) / events
        out["wire.bytes_per_event"] = counts.get("wire_bytes", 0.0) / events
    windows = counts.get("engine.windows_evaluated", 0.0)
    if windows:
        out["engine.incremental_hit_ratio"] = (
            counts.get("incremental_hits", 0.0) / windows
        )
    if tracer.section_seconds:
        out["trace.coverage"] = tracer.root_seconds / tracer.section_seconds
    return out

