"""Experiment E3 — scaling: per-monitor detection vs one shared session.

The paper's architecture (Figure 1) gives each monitor its own fault
detection routine, and each routine pays one suspend-the-world ("all
other running processes are suspended") section per checking interval.
:func:`scaling_bench` quantifies what batching buys: it drives the same
multi-monitor fleet (round-robin over the three scenario types) twice —
``mode="per-monitor"``, one :class:`DetectionSession` per monitor, and
``mode="session"``, one session over the whole fleet — at fleet sizes 1,
4 and 16, and records:

* ``atomic_sections`` — world-stop sections entered for checking.
  Per-monitor detection enters one per monitor per interval (linear in
  fleet size); a one-shard session enters exactly one per interval
  (constant in fleet size) — the headline amortisation.
* ``worldstop_seconds`` vs ``evaluate_seconds`` — the two-phase split of
  ``checking_seconds``: phase 1 (snapshot + cut inside the atomic
  section) is the only part that stalls the workload, phase 2 (rule
  evaluation over the frozen captures) runs off the critical path.

With ``shards`` the grid compares shard counts of the shared session
instead, plus per-shard detail (``shard_*`` gauges) so the staggered
world-stop claim is auditable from the output alone.

:func:`planes_bench` compares phase-2 evaluation planes: the same seeded
sim fleet is driven once per plane (pooled worker *threads* vs one
evaluator worker *process* per shard), every checkpoint is drained
synchronously so the timed wall clock covers the full capture→evaluate
round trip, and the merged report streams are compared against an
inline 1-shard baseline.

Both kernels are supported by :func:`scaling_bench`; the thread backend
adds the real lock acquisition cost to every atomic section, which is
where the linear term hurts most.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Sequence

from repro.bench.harness import make_kernel, record, run_kernel
from repro.detection.config import DetectorConfig
from repro.detection.session import DetectionSession
from repro.kernel.syscalls import Delay
from repro.observability.registry import MetricsRegistry
from repro.workloads.scenarios import WorkloadSpec, build_fleet

__all__ = ["scaling_bench", "planes_bench"]

#: Fleet sizes exercised by default (the acceptance grid).
DEFAULT_COUNTS: tuple[int, ...] = (1, 4, 16)

#: Short workload: scaling is about per-checkpoint cost, not trace length.
SCALING_SPEC = WorkloadSpec(processes=4, operations=40, think_time=0.05)
QUICK_SCALING_SPEC = WorkloadSpec(processes=2, operations=10, think_time=0.05)

#: Generous bounds — the fleet is healthy; the sweeps' cost is the point.
SCALING_CONFIG = DetectorConfig(interval=0.5, tmax=120.0, tio=120.0, tlimit=120.0)


def _measure(
    registry: MetricsRegistry,
    monitors: int,
    mode: str,
    shards: int,
    backend: str,
    spec: WorkloadSpec,
) -> None:
    kernel = make_kernel(backend, spec.seed)
    fleet = build_fleet(kernel, monitors, spec)
    for index, run in enumerate(fleet):
        run.spawn_all(kernel, prefix=f"m{index}-")
    groups = [[run] for run in fleet] if mode == "per-monitor" else [fleet]
    sessions = []
    for group in groups:
        session = DetectionSession(
            kernel, config=SCALING_CONFIG, shards=shards, supervised=False
        )
        for run in group:
            session.register(run.monitor)
        session.start()
        sessions.append(session)
    run_kernel(kernel, spec.operations * spec.think_time * 40 + 60)
    for session in sessions:
        # Await offloaded evaluations before reading the counters.
        session.stop()

    def total(name: str) -> float:
        return sum(getattr(session, name) for session in sessions)

    labels = {"monitors": monitors, "mode": mode, "shards": shards}
    record(
        registry,
        labels,
        atomic_sections=total("atomic_sections"),
        checkpoints=total("checkpoints_run"),
        checking_seconds=total("checking_seconds"),
        worldstop_seconds=total("worldstop_seconds"),
        worldstop_max=max(session.worldstop_max for session in sessions),
        evaluate_seconds=total("evaluate_seconds"),
        reports=sum(len(session.reports) for session in sessions),
        events=sum(run.monitor.history.total_recorded for run in fleet),
        dropped_events=total("dropped_events"),
    )
    if mode == "session" and shards > 1:
        for shard in sessions[0].shards:
            record(
                registry,
                {**labels, "shard": shard.index},
                shard_monitors=len(shard.engine.entries),
                shard_offset=shard.offset,
                shard_checkpoints=shard.engine.checkpoints_run,
                shard_worldstop_max=shard.engine.worldstop_max,
                shard_evaluate_seconds=shard.engine.evaluate_seconds,
            )


def scaling_bench(
    *,
    counts: Sequence[int] = DEFAULT_COUNTS,
    shards: Optional[Sequence[int]] = None,
    backend: str = "sim",
    spec: Optional[WorkloadSpec] = None,
) -> MetricsRegistry:
    """``{monitors, mode, shards}`` cells: per-monitor vs one shared
    session at every fleet size, or — with ``shards`` — one shared session
    per shard count, so N-shard world-stops read against the 1-shard
    baseline directly."""
    spec = spec or SCALING_SPEC
    topologies = (
        [("session", count) for count in shards]
        if shards
        else [("per-monitor", 1), ("session", 1)]
    )
    registry = MetricsRegistry()
    record(registry, {"backend": backend}, backend_info=1)
    for monitors in counts:
        for mode, shard_count in topologies:
            _measure(registry, monitors, mode, shard_count, backend, spec)
    return registry


#: Evaluate-bound plane-comparison workload: full-window Algorithm-1
#: sweeps (no incremental carry) and phase-2 order replay (no real-time
#: tap) maximise the rule-evaluation share of each checkpoint, which is
#: exactly the work the process plane parallelises.
PLANES_SPEC = WorkloadSpec(processes=8, operations=100, think_time=0.005)
QUICK_PLANES_SPEC = WorkloadSpec(processes=3, operations=20, think_time=0.02)
PLANES_CONFIG = DetectorConfig(
    interval=2.0,
    tmax=120.0,
    tio=120.0,
    tlimit=120.0,
    realtime_orders=False,
    incremental_checking=False,
    stagger=False,
)

#: Allocator monitors run all three algorithms per window (general
#: checking, resource counters, order replay) — the heaviest
#: rule-evaluation per event of the scenario set.
PLANES_SCENARIOS: tuple[str, ...] = ("allocator",)

#: Fleet size of the plane comparison.
PLANES_MONITORS = 8


def _measure_plane(
    plane: str, workers: int, spec: WorkloadSpec
) -> tuple[dict, list[str]]:
    """Run one evaluation plane; return its figures and rendered stream.

    Every checkpoint is drained before the sim advances, so the timed
    wall clock covers the complete evaluation round trip and the report
    stream is deterministic regardless of plane.
    """
    kernel = make_kernel("sim", spec.seed)
    fleet = build_fleet(kernel, PLANES_MONITORS, spec, names=PLANES_SCENARIOS)
    session = DetectionSession(
        kernel,
        config=PLANES_CONFIG,
        shards=1 if plane == "inline" else workers,
        evaluation=plane,
        supervised=False,
    )
    for index, run in enumerate(fleet):
        session.register(run.monitor, label=f"{run.name}-{index}")
        run.spawn_all(kernel, prefix=f"m{index}-")
    wall = [0.0]

    def pacer():
        while True:
            yield Delay(PLANES_CONFIG.interval)
            started = time.perf_counter()
            session.checkpoint()
            wall[0] += time.perf_counter() - started

    kernel.spawn(pacer(), "plane-pacer")
    run_kernel(kernel, spec.operations * spec.think_time * 40 + 60)
    session.stop()
    figures = {
        "evaluate_wall": wall[0],
        "evaluate_seconds": session.evaluate_seconds,
        "worldstop_p50": session.worldstop_percentile(0.5),
        "worldstop_p99": session.worldstop_percentile(0.99),
        "checkpoints": session.checkpoints_run,
        "reports": len(session.reports),
        "events": sum(run.monitor.history.total_recorded for run in fleet),
    }
    return figures, [report.render() for report in session.reports]


def planes_bench(
    *,
    workers: int = 4,
    spec: Optional[WorkloadSpec] = None,
    repeats: int = 2,
) -> MetricsRegistry:
    """Threads vs processes under the identical workload, plus an inline
    1-shard baseline for the byte-identical-stream check.

    Each pooled plane runs ``repeats`` times and keeps its best wall clock
    (pool start-up and OS noise shouldn't decide the comparison); its
    report stream must not vary across repeats.  ``cpu_count`` lets the
    processes-beat-threads gate skip on hosts without cores to scale onto.
    """
    spec = spec or PLANES_SPEC
    registry = MetricsRegistry()
    record(registry, {"backend": "sim"}, backend_info=1)
    walls: dict[str, float] = {}
    streams: dict[str, list[str]] = {}
    for plane in ("inline", "threads", "processes"):
        best: Optional[dict] = None
        for repeat in range(1 if plane == "inline" else repeats):
            figures, stream = _measure_plane(plane, workers, spec)
            if plane in streams and streams[plane] != stream:
                raise AssertionError(
                    f"{plane} plane produced a different report stream on "
                    f"repeat {repeat}"
                )
            streams[plane] = stream
            if best is None or figures["evaluate_wall"] < best["evaluate_wall"]:
                best = figures
        record(registry, {"plane": plane}, **best)
        walls[plane] = best["evaluate_wall"]
    record(
        registry,
        {},
        streams_identical=(
            streams["inline"] == streams["threads"] == streams["processes"]
        ),
        plane_speedup=(
            walls["threads"] / walls["processes"] if walls["processes"] else 0.0
        ),
        cpu_count=os.cpu_count() or 1,
    )
    return registry
