"""Workload ``durable-fleet``: a crash-durable, sharded fleet with faults.

Twelve healthy monitors (four per scenario) plus two allocators that
each carry one injected fault run on one kernel under a
:class:`~repro.DetectionSession` with two shards, ``T = 0.25`` s and
``durable_dir`` set: every monitor records into a write-ahead log, every
checkpoint writes a snapshot, and reports go through the report
journal.  Each iteration pairs the detected run with the same seeded
fleet on plain constructs, alternating which goes first.  When the
workload ends the session is closed as if the process crashed; a
rebuilt session then calls ``recover()``, whose journal must equal the
live report stream.

The WALs run with ``fsync="never"`` (snapshots still fsync): on a shared
disk the latency of the WAL's hundreds of fsyncs per run varies between
runs by more than the code's own cost, and would hide it.
"""

from __future__ import annotations

from typing import Optional

from repro import (
    DetectionSession,
    DetectorConfig,
    RandomPolicy,
    SimKernel,
    SingleResourceAllocator,
    WorkloadSpec,
)
from repro.detection.durability import report_key
from repro.detection.supervision import CheckpointSupervisor
from repro.workloads import build_fleet

from perfbench.faults import detection_latencies, fault_scripts, fault_user
from perfbench.harness import (
    Run,
    Tally,
    clock,
    idle_pacer,
    instrument,
    run_kernel,
    spawn_workload,
)
from perfbench.spans import Probe, Tracer

__all__ = ["measure"]

FLEET = 12
SHARDS = 2
SPEC = WorkloadSpec(processes=4, operations=40, think_time=0.05)
CONFIG = DetectorConfig(interval=0.25, tmax=5.0, tio=10.0, tlimit=1.0)
FAULT_LABELS = ("fault-release", "fault-hold")
#: Fault start times are drawn from this window (virtual seconds).
FAULT_WINDOW = (0.5, 1.5)
#: Fault users cycle until every fault (a hold lasts ``2 * Tlimit``) is
#: over, plus half a second.
FAULT_USERS_UNTIL = FAULT_WINDOW[1] + 2 * CONFIG.tlimit + 0.5
#: Iterations cycle through this many schedules derived from the seed.
SEED_CYCLE = 8


class _Fleet:
    """The fleet and its fault users on one fresh kernel."""

    def __init__(self, seed: int) -> None:
        self.kernel = SimKernel(RandomPolicy(seed=seed))
        # Durable registration attaches a WAL to every monitor, so no
        # sink is built here either way.
        self.runs = build_fleet(self.kernel, FLEET, SPEC, sink_factory=lambda: None)
        self.labels = [f"{run.name}-{index}" for index, run in enumerate(self.runs)]
        self.scripts = fault_scripts(
            seed,
            FAULT_LABELS,
            tlimit=CONFIG.tlimit,
            earliest=FAULT_WINDOW[0],
            latest=FAULT_WINDOW[1],
        )
        self.allocators = [
            SingleResourceAllocator(self.kernel, name=label)
            for label in FAULT_LABELS
        ]

    def monitors(self):
        yield from zip(self.labels, (run.monitor for run in self.runs))
        yield from zip(FAULT_LABELS, self.allocators)

    def bodies(self):
        for index, run in enumerate(self.runs):
            for number, body in enumerate(run.bodies):
                yield f"{self.labels[index]}-p{number}", body
        for script, allocator in zip(self.scripts, self.allocators):
            yield script.label, fault_user(
                self.kernel, allocator, [script], until=FAULT_USERS_UNTIL
            )

    def ops(self) -> int:
        return sum(monitor.monitor.op_count for __, monitor in self.monitors())


def _plain(seed: int) -> tuple[float, int]:
    fleet = _Fleet(seed)
    finished: list[bool] = []
    spawn_workload(fleet.kernel, fleet.bodies(), lambda: finished.append(True))
    # One idle pacer per shard, on the shard's staggered schedule.
    for shard in range(SHARDS):
        fleet.kernel.spawn(
            idle_pacer(
                fleet.kernel,
                interval=CONFIG.interval,
                offset=CONFIG.interval * shard / SHARDS,
                done=lambda: bool(finished),
            ),
            f"idle-pacer-{shard}",
        )
    return run_kernel(fleet.kernel), fleet.ops()


def _session(fleet: _Fleet, directory) -> DetectionSession:
    session = DetectionSession(
        fleet.kernel,
        config=CONFIG,
        shards=SHARDS,
        durable_dir=directory,
        fsync="never",
        evaluation="inline",
    )
    for label, monitor in fleet.monitors():
        session.register(monitor, label=label)
    return session


class _Detected:
    """The fleet under a durable session, ready to run."""

    def __init__(self, seed: int, directory) -> None:
        self.seed = seed
        self.directory = directory
        self.fleet = _Fleet(seed)
        self.session = _session(self.fleet, directory)
        spawn_workload(self.fleet.kernel, self.fleet.bodies(), self._stop_pacing)
        self.session.start()

    def _stop_pacing(self) -> None:
        # No clean shutdown: no final checkpoint or snapshot, and the
        # crash comes next.
        for engine in self.session.engines:
            engine.stop()

    def execute(self) -> float:
        """Run to the end and read the merged reports; return seconds."""
        started = clock()
        run_kernel(self.fleet.kernel)
        self.reports = self.session.reports
        return clock() - started

    def crash_and_recover(self) -> tuple[float, DetectionSession]:
        """Close the session as a crash would; rebuild it and recover."""
        self.session.close()
        started = clock()
        rebuilt = _session(_Fleet(self.seed), self.directory)
        rebuilt.recover()
        return clock() - started, rebuilt


def _check(run: Run, detected: _Detected, recovered, latencies: list) -> None:
    """No report on a healthy monitor, each fault reported by its rule,
    and the recovered journal equal to the live reports."""
    session = detected.session
    seed = detected.seed
    by_label = session.reports_by_monitor()
    for label in detected.fleet.labels:
        count = len(by_label.get(label, ()))
        run.check(count == 0, f"seed {seed}: {count} report(s) on healthy {label}")
    found, missed = detection_latencies(detected.fleet.scripts, by_label)
    latencies.extend(found)
    for line in missed:
        run.check(False, f"seed {seed}: {line}")
    run.check(
        session.check_failures == 0,
        f"seed {seed}: {session.check_failures} check failure(s)",
    )
    run.check(
        session.degraded_windows == 0,
        f"seed {seed}: {session.degraded_windows} degraded window(s)",
    )
    live = sorted(report_key(report) for report in detected.reports)
    journal = [report_key(report) for report in recovered.delivered_reports]
    run.check(
        len(journal) == len(set(journal)),
        f"seed {seed}: duplicate report keys in the recovered journal",
    )
    run.check(
        sorted(journal) == live,
        f"seed {seed}: recovered journal ({len(journal)}) differs from the "
        f"live reports ({len(live)})",
    )


def measure(run: Run, seed: int, tracer: Optional[Tracer]) -> dict:
    """Pairs until the time budget is spent; metrics as for ``table1``,
    plus a crash and recovery after every detected run."""
    tally = Tally()
    session = None
    for iteration in run.iterations():
        schedule = seed * 1000 + iteration.index % SEED_CYCLE
        if iteration.traced:
            tracer.begin_iteration()
        probe = Probe(CheckpointSupervisor, "attempt", clock=clock)

        def detected_section(detected):
            with instrument(iteration, tracer, probe):
                return detected.execute(), None

        def recover_section(detected):
            with instrument(iteration, tracer):
                return detected.crash_and_recover()

        detected, plain, detected_run, (recover,) = run.paired(
            iteration,
            set_up=lambda: _Detected(schedule, run.scratch_dir("fleet")),
            plain=lambda: _plain(schedule),
            detected=detected_section,
            after=[recover_section],
        )
        recovered = recover.value
        if not iteration.traced:
            tally.recoveries.append(recover.ref)
        tally.window_latencies(probe.samples, detected_run)
        session = detected.session
        ops = detected.fleet.ops()
        run.check(
            ops == plain.value,
            f"seed {schedule}: {ops} monitor ops detected vs {plain.value} plain",
        )
        _check(run, detected, recovered, tally.detection)
        entries = session.entries
        events = sum(entry.history.total_recorded for entry in entries)
        run.attempted += session.evaluations_run
        if iteration.traced:
            tally.count_session(session)
            tally.count("history.wal_fsyncs", sum(e.history.fsyncs for e in entries))
            tally.count("wal_bytes", sum(e.history.bytes_written for e in entries))
            tally.count("events", events)
        recovered.close()
        tally.pair(
            iteration,
            ratio=detected_run.seconds / plain.seconds,
            events=events,
            events_over=(
                detected_run.seconds - plain.seconds,
                detected_run.ref - plain.ref,
            ),
            ops=ops,
            ops_over=(detected_run.seconds, detected_run.ref),
        )
    if tracer is not None:
        return tally.traced_outcome(run, session.metrics)
    return tally.end_to_end(run)
