"""Workload ``table1``: the paper's Table-1 overhead ratio.

Each iteration runs the paper's three monitor types (coordinator,
allocator, manager) twice on the same seeded schedule: once on the plain
construct (no event sink, no session) and once with a one-monitor
:class:`~repro.DetectionSession` checking every ``T = 0.5`` s with
inline evaluation.  The two runs of a pair alternate which goes first.
The workload is fault-free, so any report is a false positive.
"""

from __future__ import annotations

from typing import Optional

from repro import (
    DetectionSession,
    DetectorConfig,
    HistoryDatabase,
    RandomPolicy,
    SimKernel,
    WorkloadSpec,
    build_scenario,
)
from repro.detection.supervision import CheckpointSupervisor

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

SCENARIOS = ("coordinator", "allocator", "manager")
SPEC = WorkloadSpec(processes=4, operations=60, think_time=0.05)
#: Generous timeouts: the workload is healthy, and the sweeps stay on
#: because their cost is part of what Table 1 measures.
CONFIG = DetectorConfig(interval=0.5, tmax=120.0, tio=120.0, tlimit=120.0)
#: Iterations cycle through this many schedules derived from the seed.
SEED_CYCLE = 8


def _bodies(run) -> list:
    return [(f"{run.name}-{index}", body) for index, body in enumerate(run.bodies)]


def _plain(name: str, seed: int) -> tuple[float, int]:
    kernel = SimKernel(RandomPolicy(seed=seed))
    run = build_scenario(name, kernel, None, SPEC)
    finished: list[bool] = []
    spawn_workload(kernel, _bodies(run), lambda: finished.append(True))
    kernel.spawn(
        idle_pacer(kernel, interval=CONFIG.interval, done=lambda: bool(finished)),
        "idle-pacer",
    )
    return run_kernel(kernel), run.monitor.monitor.op_count


class _Detected:
    """One scenario under a session; the session stops when the last
    workload process ends."""

    def __init__(self, name: str, seed: int) -> None:
        self.kernel = SimKernel(RandomPolicy(seed=seed))
        self.history = HistoryDatabase()
        self.run = build_scenario(name, self.kernel, self.history, SPEC)
        self.session = DetectionSession(
            self.kernel,
            monitors=[self.run.monitor],
            config=CONFIG,
            evaluation="inline",
        )
        spawn_workload(self.kernel, _bodies(self.run), self.session.stop)
        self.session.start()

    def execute(self) -> float:
        """Run to the end and read the merged reports; return seconds."""
        started = clock()
        run_kernel(self.kernel)
        self.reports = self.session.reports
        return clock() - started


def measure(run: Run, seed: int, tracer: Optional[Tracer]) -> dict:
    """Pairs until the time budget is spent.

    Per iteration (the three scenarios together): ``overhead_ratio`` is
    detected over plain seconds, ``monitor_ops_per_s`` is monitor
    operations over detected reference seconds, and
    ``events_checked_per_s`` is recorded-and-checked events over the
    reference seconds detection added (detected minus plain).  Window
    latency is the pause of each paced checkpoint.
    """
    tally = Tally()
    session = None
    for iteration in run.iterations():
        schedule = seed * 1000 + iteration.index % SEED_CYCLE
        if iteration.traced:
            tracer.begin_iteration()
        plain_seconds = plain_ref = seconds = ref = 0.0
        ops = events = 0
        for name in SCENARIOS:
            probe = Probe(CheckpointSupervisor, "attempt", clock=clock)

            def detected_section(detected):
                with instrument(iteration, tracer, probe):
                    return detected.execute(), None

            detected, plain, detected_run, __ = run.paired(
                iteration,
                set_up=lambda: _Detected(name, schedule),
                plain=lambda: _plain(name, schedule),
                detected=detected_section,
            )
            plain_seconds += plain.seconds
            plain_ref += plain.ref
            seconds += detected_run.seconds
            ref += detected_run.ref
            tally.window_latencies(probe.samples, detected_run)
            session = detected.session
            run.check(
                not detected.reports,
                f"{name} seed {schedule}: {len(detected.reports)} report(s) "
                "on a fault-free run",
            )
            detected_ops = detected.run.monitor.monitor.op_count
            run.check(
                detected_ops == plain.value,
                f"{name} seed {schedule}: {detected_ops} monitor ops "
                f"detected vs {plain.value} plain",
            )
            ops += detected_ops
            events += detected.history.total_recorded
            run.attempted += session.evaluations_run
            if iteration.traced:
                tally.count_session(session)
        tally.pair(
            iteration,
            ratio=seconds / plain_seconds,
            events=events,
            events_over=(seconds - plain_seconds, ref - plain_ref),
            ops=ops,
            ops_over=(seconds, ref),
        )
    if tracer is not None:
        return tally.traced_outcome(run, session.metrics)
    return tally.end_to_end(run)
