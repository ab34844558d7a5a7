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

Both kernels are supported; the thread backend adds the real lock
acquisition cost to every atomic section, which is where the linear term
hurts most.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.harness import make_kernel, record, run_kernel
from repro.detection.config import DetectorConfig
from repro.detection.session import DetectionSession
from repro.observability.registry import MetricsRegistry
from repro.workloads.scenarios import WorkloadSpec, build_fleet

__all__ = ["scaling_bench"]

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
    groups = [[run] for run in fleet] if mode == "per-monitor" else [fleet]
    sessions = []
    for group in groups:
        session = DetectionSession(kernel, config=SCALING_CONFIG, shards=shards)
        for run in group:
            session.register(run.monitor)
        sessions.append(session)
    # Register before spawning: thread-kernel processes run from spawn,
    # and the Algorithm-3 tap must see every event from the first.
    for index, run in enumerate(fleet):
        run.spawn_all(kernel, prefix=f"m{index}-")
    for session in sessions:
        session.start()
    run_kernel(kernel, spec.operations * spec.think_time * 40 + 60)
    for session in sessions:
        session.stop()
    if backend == "threads":
        kernel.run()  # join the pacing threads: no round is in flight

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
