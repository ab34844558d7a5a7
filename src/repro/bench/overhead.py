"""Experiment E1 — Table 1: detection overhead versus checking interval.

The paper's Table 1 reports, for checking intervals from 0.5 s to 3.0 s,
"the overhead calculated as the average ratio between the time spent on
executing monitor operations with the extension and that without the
extension", observing ratios near 7 at T = 0.5 s falling toward 4 at
T = 3.0 s.  The reproduced quantity is the same ratio::

    ratio(T) = (monitor-op seconds with recording  +  checking seconds at T)
               -----------------------------------------------------------
                      monitor-op seconds of the plain construct

measured over an identical deterministic workload.  Absolute magnitudes
differ from a 2001 JVM; the *shape* — ratio > 1, monotonically
non-increasing in T, similar across the three monitor types — is the
reproduction target (see EXPERIMENTS.md).

Both kernels are supported: the simulation kernel measures pure CPU cost
deterministically (used by the pytest benchmarks), the thread kernel adds
real lock contention (``backend="threads"``).

Besides Table 1 this module holds the two other ``repro overhead`` modes:
:func:`wal_bench` (write-ahead-log recording cost per fsync policy) and
:func:`fleet_bench` (incremental vs full-re-walk phase-2 evaluation).
Every bench returns a :class:`MetricsRegistry` (see
:mod:`repro.bench.harness`).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from repro._tables import render_table
from repro.bench.harness import make_kernel, record, run_kernel
from repro.detection.config import DetectorConfig
from repro.detection.session import DetectionSession
from repro.history.bounded import BoundedHistory
from repro.history.database import HistoryDatabase
from repro.history.wal import FSYNC_POLICIES, WriteAheadLog
from repro.kernel.sim import SimKernel
from repro.observability.registry import MetricsRegistry
from repro.workloads.scenarios import WorkloadSpec, build_fleet, build_scenario

__all__ = [
    "PAPER_INTERVALS",
    "PAPER_SCENARIOS",
    "overhead_bench",
    "table1_pivot",
    "wal_bench",
    "fleet_bench",
]

#: The paper's Table 1 grid.
PAPER_INTERVALS: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
PAPER_SCENARIOS: tuple[str, ...] = ("coordinator", "allocator", "manager")

#: Default workload: long enough (about 30 virtual seconds) that even
#: T = 3 s sees ten checkpoints, so the interval sweep is meaningful.
BENCH_SPEC = WorkloadSpec(processes=6, operations=300, think_time=0.1)

#: Generous bounds: the workloads are healthy; the sweeps stay enabled
#: because their cost is part of what Table 1 measures.
_QUIET = dict(tmax=120.0, tio=120.0, tlimit=120.0)


def _horizon(spec: WorkloadSpec) -> float:
    return spec.operations * spec.think_time * 40 + 60


def _run_scenario(kernel, run, session: Optional[DetectionSession]) -> None:
    """Run one scenario; the session stops once the last workload process
    finishes, so small intervals are not charged for checkpoints over an
    idle monitor after the workload has drained."""
    remaining = [len(run.bodies)]

    def finishing(body):
        result = yield from body
        remaining[0] -= 1
        if remaining[0] == 0 and session is not None:
            session.stop()
        return result

    for index, body in enumerate(run.bodies):
        kernel.spawn(finishing(body), f"{run.name}-{index}")
    if session is not None:
        session.start()
    run_kernel(kernel, _horizon(run.spec))


def _table1_once(
    scenario: str,
    backend: str,
    spec: WorkloadSpec,
    interval: Optional[float],
    bounded: Optional[int],
) -> dict:
    """One workload execution; ``interval=None`` runs the plain construct
    (no history, no session) — the baseline.  ``bounded`` records through
    a :class:`BoundedHistory` ring buffer of that capacity."""
    kernel = make_kernel(backend, spec.seed)
    if interval is None:
        history = None
    elif bounded is not None:
        history = BoundedHistory(capacity=bounded)
    else:
        history = HistoryDatabase()
    run = build_scenario(scenario, kernel, history, spec)
    session = None
    if interval is not None:
        session = DetectionSession(
            kernel,
            monitors=[run.monitor],
            config=DetectorConfig(interval=interval, **_QUIET),
        )
    _run_scenario(kernel, run, session)
    sample = {"op_seconds": run.monitor.monitor.op_seconds}
    if session is not None:
        sample.update(
            checking_seconds=session.checking_seconds,
            worldstop_seconds=session.worldstop_seconds,
            worldstop_max=session.worldstop_max,
            evaluate_seconds=session.evaluate_seconds,
            events=history.total_recorded,
            checkpoints=session.checkpoints_run,
            dropped_events=history.dropped_events,
        )
    return sample


def overhead_bench(
    *,
    intervals: Sequence[float] = PAPER_INTERVALS,
    scenarios: Sequence[str] = PAPER_SCENARIOS,
    backend: str = "sim",
    spec: Optional[WorkloadSpec] = None,
    repeats: int = 3,
    bounded: Optional[int] = None,
) -> MetricsRegistry:
    """The Table-1 grid: one ``{scenario, interval}`` cell each.

    Each cell takes ``repeats`` paired runs and keeps the minimum of each
    timing — the standard low-noise estimator, since scheduler and
    allocator noise only ever adds time.
    """
    spec = spec or BENCH_SPEC
    registry = MetricsRegistry()
    record(registry, {"backend": backend}, backend_info=1)
    for scenario in scenarios:
        for interval in intervals:
            pairs = [
                (
                    _table1_once(scenario, backend, spec, None, None),
                    _table1_once(scenario, backend, spec, interval, bounded),
                )
                for __ in range(repeats)
            ]
            base = min(plain["op_seconds"] for plain, __ in pairs)
            samples = [detected for __, detected in pairs]
            best = {
                name: min(sample[name] for sample in samples)
                for name in samples[0]
            }
            last = samples[-1]
            record(
                registry,
                {"scenario": scenario, "interval": f"{interval:g}"},
                overhead_ratio=(
                    (best["op_seconds"] + best["checking_seconds"]) / base
                    if base > 0
                    else float("nan")
                ),
                base_seconds=base,
                extended_seconds=best["op_seconds"],
                checking_seconds=best["checking_seconds"],
                worldstop_seconds=best["worldstop_seconds"],
                worldstop_max=best["worldstop_max"],
                evaluate_seconds=best["evaluate_seconds"],
                events=last["events"],
                checkpoints=last["checkpoints"],
                dropped_events=last["dropped_events"],
            )
    return registry


def table1_pivot(registry: MetricsRegistry) -> str:
    """The grid in the paper's layout: one row per scenario, one column
    per checking interval, overhead ratios in the cells."""
    cells: dict[str, dict[float, float]] = {}
    for labels, child in registry.get("repro_bench_overhead_ratio").samples():
        cells.setdefault(labels["scenario"], {})[
            float(labels["interval"])
        ] = child.value
    intervals = sorted({interval for row in cells.values() for interval in row})
    return render_table(
        ["monitor type"] + [f"T={interval:g}s" for interval in intervals],
        [
            [scenario]
            + [f"{row.get(interval, float('nan')):.3f}" for interval in intervals]
            for scenario, row in cells.items()
        ],
        title="Table 1 (reproduced): overhead ratio vs checking interval",
    )


# ------------------------------------------------------------ WAL overhead


def _wal_once(
    scenario: str,
    backend: str,
    spec: WorkloadSpec,
    interval: float,
    policy: Optional[str],
) -> dict:
    """One workload run against one recording sink: the in-memory
    :class:`HistoryDatabase` for ``policy=None`` (the baseline), else a
    :class:`WriteAheadLog` with that fsync policy.  The session checks at
    ``interval`` either way, so the WAL's cut-time flush work is part of
    what gets measured."""
    kernel = make_kernel(backend, spec.seed)
    wal_dir = None
    if policy is None:
        history = HistoryDatabase()
    else:
        wal_dir = Path(tempfile.mkdtemp(prefix="repro-wal-bench-"))
        history = WriteAheadLog(
            wal_dir,
            fsync=policy,
            virtual_clock=isinstance(kernel, SimKernel),
        )
    try:
        run = build_scenario(scenario, kernel, history, spec)
        session = DetectionSession(
            kernel,
            monitors=[run.monitor],
            config=DetectorConfig(interval=interval, **_QUIET),
        )
        _run_scenario(kernel, run, session)
        sample = {
            "op_seconds": run.monitor.monitor.op_seconds,
            "events": history.total_recorded,
            "wal_bytes_written": 0,
            "wal_fsyncs": 0,
            "wal_segments": 0,
        }
        if wal_dir is not None:
            history.flush(sync=False)
            sample.update(
                wal_bytes_written=history.bytes_written,
                wal_fsyncs=history.fsyncs,
                wal_segments=history.segment_count,
            )
            history.close()
        return sample
    finally:
        if wal_dir is not None:
            shutil.rmtree(wal_dir, ignore_errors=True)


def wal_bench(
    *,
    scenarios: Sequence[str] = PAPER_SCENARIOS,
    backend: str = "sim",
    spec: Optional[WorkloadSpec] = None,
    interval: float = 1.0,
    repeats: int = 3,
) -> MetricsRegistry:
    """WAL recording cost: every scenario x (memory + each fsync policy).

    ``ratio_vs_memory`` is what durability costs the monitor-operation
    path; ``ratio_vs_memory_worst{policy}`` is its maximum across
    scenarios, so one gate selector bounds a policy over the whole grid.
    """
    spec = spec or BENCH_SPEC
    registry = MetricsRegistry()
    record(registry, {"backend": backend}, backend_info=1)
    worst: dict[str, float] = {}
    for scenario in scenarios:
        base = float("nan")
        for policy in (None, *FSYNC_POLICIES):
            samples = [
                _wal_once(scenario, backend, spec, interval, policy)
                for __ in range(repeats)
            ]
            ops = min(sample["op_seconds"] for sample in samples)
            if policy is None:
                base = ops
            last = samples[-1]
            ratio = ops / base if base > 0 else float("nan")
            name = policy or "memory"
            worst[name] = max(worst.get(name, ratio), ratio)
            record(
                registry,
                {"scenario": scenario, "policy": name},
                ratio_vs_memory=ratio,
                op_seconds=ops,
                events=last["events"],
                events_per_second=(
                    last["events"] / ops if ops > 0 else float("nan")
                ),
                wal_bytes_written=last["wal_bytes_written"],
                wal_bytes_per_event=(
                    last["wal_bytes_written"] / last["events"]
                    if last["events"]
                    else 0.0
                ),
                wal_fsyncs=last["wal_fsyncs"],
                wal_segments=last["wal_segments"],
            )
    for policy, ratio in worst.items():
        record(registry, {"policy": policy}, ratio_vs_memory_worst=ratio)
    return registry


# --------------------------------------------------------- fleet hot path


#: Fleet benchmark workload: short busy phase, long idle tail, so both
#: the replay hot path (busy windows) and the zero-event fast path (idle
#: windows) contribute to the measured phase-2 split.
FLEET_SPEC = WorkloadSpec(processes=4, operations=60, think_time=0.05)

#: Checkpoints per fleet run: enough busy rounds to drain the workload
#: (~3 virtual seconds at 0.25 s intervals) plus a long idle tail.
FLEET_INTERVAL = 0.25
FLEET_ROUNDS = 240


def _fleet_once(
    backend: str,
    spec: WorkloadSpec,
    fleet: int,
    incremental: bool,
) -> dict:
    """One fleet execution with a fixed checkpoint count.

    The session runs exactly ``FLEET_ROUNDS`` checkpoints rather than
    stopping when the workload drains: the post-workload idle windows are
    the fast-path territory the incremental mode is built for, and a fair
    comparison must charge the full re-walk for them too.
    """
    kernel = make_kernel(backend, spec.seed)
    session = DetectionSession(
        kernel,
        config=DetectorConfig(
            interval=FLEET_INTERVAL, incremental_checking=incremental, **_QUIET
        ),
    )
    runs = build_fleet(kernel, fleet, spec)
    for run in runs:
        session.register(run.monitor)
        run.spawn_all(kernel)
    session.start(rounds=FLEET_ROUNDS)
    run_kernel(kernel, FLEET_ROUNDS * FLEET_INTERVAL + 60)
    session.stop()
    if backend == "threads":
        kernel.run()  # join the pacing threads: no round is in flight
    ops = sum(run.monitor.monitor.op_seconds for run in runs)
    events = sum(entry.history.total_recorded for entry in session.entries)
    return {
        "evaluate_seconds": session.evaluate_seconds,
        "worldstop_seconds": session.worldstop_seconds,
        "worldstop_p50": session.worldstop_percentile(0.5),
        "worldstop_p99": session.worldstop_percentile(0.99),
        "events_per_second": events / ops if ops > 0 else float("nan"),
        "events": events,
        "checkpoints": session.checkpoints_run,
        "incremental_hits": session.incremental_hits,
        "incremental_rebases": session.incremental_rebases,
        "incremental_fastpaths": session.incremental_fastpaths,
        "staged_events": session.staged_events,
        "staged_flushes": session.staged_flushes,
    }


def fleet_bench(
    fleet: int,
    *,
    backend: str = "sim",
    spec: Optional[WorkloadSpec] = None,
    repeats: int = 3,
) -> MetricsRegistry:
    """Paired ``{mode=incremental|full}`` fleet measurement.

    Both modes run the identical seeded workload and checkpoint schedule;
    only :attr:`DetectorConfig.incremental_checking` differs, so
    ``evaluate_seconds`` isolates what the carried checking lists save.
    The repeats run as alternating incremental/full pairs, so a slow
    stretch of the machine lands on both modes rather than on one mode's
    whole batch.  Timings are the best over ``repeats`` runs per mode
    (noise only adds); the hot-path counters are deterministic and taken
    from the last run.
    """
    spec = spec or FLEET_SPEC
    registry = MetricsRegistry()
    record(registry, {"backend": backend}, backend_info=1)
    runs: dict[str, list[dict]] = {"incremental": [], "full": []}
    for __ in range(repeats):
        for mode, samples in runs.items():
            samples.append(
                _fleet_once(backend, spec, fleet, mode == "incremental")
            )
    for mode, samples in runs.items():
        values = dict(samples[-1])
        for name in (
            "evaluate_seconds", "worldstop_seconds",
            "worldstop_p50", "worldstop_p99",
        ):
            values[name] = min(sample[name] for sample in samples)
        values["events_per_second"] = max(
            sample["events_per_second"] for sample in samples
        )
        record(registry, {"mode": mode}, fleet_size=fleet, **values)
    return registry
