"""Chaos injection against the *detector's* environment (not the workload).

The campaign machinery in :mod:`repro.injection.campaigns` injects faults
into the monitored system and asserts the detector finds them.  This
module inverts the direction: the workload is healthy, and the faults are
injected into the detection pipeline itself —

* **rule evaluators that raise** — one registered monitor's ``check()`` is
  sabotaged to throw for its first N invocations, exercising the
  per-monitor circuit breaker (CLOSED → OPEN → HALF_OPEN probe → CLOSED),
* **transient checkpoint failures** — the engine's batched checkpoint
  raises on a seeded subset of rounds (first attempt only), exercising the
  supervisor's retry-with-backoff,
* **delayed checkpoints** — seeded extra delays before a round's first
  attempt, exercising the checkpoint pacing and stall watchdog,
* **event-drop bursts** — seeded ``force_drop`` bursts against the fleet's
  :class:`~repro.history.bounded.BoundedHistory` sinks, exercising
  degraded-mode evaluation (incomplete windows must downgrade, never
  false-positive).

Everything is driven by one ``random.Random(seed)`` on the sim kernel, so
a campaign is exactly reproducible: same seed, same injections, same
counters.  :func:`run_chaos_campaign` is the acceptance harness — a
campaign *passes* when the supervisor completes every round, nothing
crashes the kernel, the healthy fleet stays CONFIRMED-clean and checked
every round, and the broken monitor's breaker opens and re-closes, so
that every breaker ends CLOSED.  Each campaign returns a
:class:`CampaignResult`: the run's metrics, and that predicate as gates
over them.

**Crash injection** (:func:`run_crash_recovery_campaign`) extends the menu
from "the detector misbehaves" to "the detector *dies*": seeded rounds
kill a one-shard durable :class:`~repro.detection.session.DetectionSession`
at one of four :class:`CrashPoint`\\ s — mid-capture, mid-evaluate,
mid-snapshot-write, mid-WAL-append — then rebuild it from its durable
root and :meth:`~repro.detection.cluster.DetectionCluster.recover`.  The
campaign passes when the recovered run's delivered fault set equals an
uninterrupted golden run's, with zero duplicate reports.
"""

from __future__ import annotations

import enum
import os
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.apps.bounded_buffer import BoundedBuffer
from repro.apps.resource_allocator import SingleResourceAllocator
from repro.apps.shared_account import SharedAccount
from repro.detection.config import DetectorConfig
from repro.detection.durability import DurableEngine, report_key
from repro.detection.session import DetectionSession
from repro.detection.engine import DetectionEngine, RegisteredMonitor
from repro.detection.reports import FaultReport
from repro.detection.supervision import CheckpointSupervisor, supervisor_process
from repro.errors import InjectionError
from repro.history.bounded import BoundedHistory
from repro.history.wal import WriteAheadLog
from repro.kernel.policies import RandomPolicy
from repro.kernel.sim import SimKernel
from repro.kernel.threads import ThreadKernel
from repro.kernel.syscalls import Delay, Syscall
from repro.monitor.construct import MonitorBase
from repro.observability.export import to_json_dict
from repro.observability.gates import (
    GateResult,
    MetricsView,
    parse_gate_specs,
    render_gate_table,
    run_gates,
)
from repro.observability.registry import MetricsRegistry
from repro.workloads import spawn_misuse_workload

__all__ = [
    "CampaignResult",
    "ChaosError",
    "ChaosConfig",
    "SabotagedCheck",
    "sabotage_entry",
    "ChaosInjector",
    "run_chaos_campaign",
    "CrashPoint",
    "SimulatedCrash",
    "CrashRecoveryConfig",
    "run_crash_recovery_campaign",
]


class ChaosError(InjectionError):
    """The exception type every injected detector-environment fault raises."""


@dataclass(frozen=True)
class CampaignResult:
    """One campaign run: its metrics, the gates that are its verdict, notes.

    ``registry`` holds every count of the run: the families the engine,
    supervisor, server or session export, plus one ``repro_campaign_*``
    gauge per tally only the campaign keeps (injections, crashes, report
    comparisons).  ``gates`` are the acceptance predicate, one gate per
    conjunct, evaluated over that registry by the gate engine; ``notes``
    hold what a count cannot carry (failure messages, crash descriptions,
    report keys).
    """

    title: str
    registry: MetricsRegistry
    gates: tuple[GateResult, ...]
    notes: tuple[str, ...] = ()

    @classmethod
    def judge(
        cls,
        title: str,
        registry: MetricsRegistry,
        gates: list[tuple],
        notes: Iterable[str] = (),
    ) -> "CampaignResult":
        """Evaluate gates over ``registry``.  Each gate is the fields of a
        ``[[gate]]`` table, ``(name, metric, op, threshold[, labels])``;
        the threshold is a number or a ``{"metric": ...}`` table."""
        tables = [
            {"name": name, "metric": metric, "op": op,
             "threshold": threshold, "labels": dict(*labels)}
            for name, metric, op, threshold, *labels in gates
        ]
        view = MetricsView(to_json_dict(registry)["metrics"])
        results = run_gates(parse_gate_specs({"gate": tables}), view)
        return cls(title, registry, tuple(results), tuple(notes))

    @property
    def passed(self) -> bool:
        return all(result.status == "pass" for result in self.gates)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return "\n".join(
            [f"{self.title}: {verdict}", render_gate_table(self.gates)]
            + [f"  {note}" for note in self.notes]
        )


def tally(registry: MetricsRegistry, **counts: float) -> None:
    """Set the gauge ``repro_campaign_<name>`` to each keyword's value."""
    for name, value in counts.items():
        registry.gauge(f"repro_campaign_{name}").labels().set(value)


def kernel_failures(*kernels) -> list[str]:
    """One note per process failure the kernels recorded."""
    return [
        f"kernel failure: {type(exc).__name__}: {exc}"
        for kernel in kernels
        for exc in kernel.failures().values()
    ]


@dataclass(frozen=True)
class ChaosConfig:
    """Tunables of one chaos campaign (all draws from one seeded RNG)."""

    seed: int = 0
    #: Supervised checkpoint rounds to run.
    rounds: int = 60
    #: Checking interval of the supervised engine (virtual seconds).
    interval: float = 0.25
    #: Probability a round's first checkpoint attempt raises.
    checkpoint_failure_rate: float = 0.2
    #: Probability a round starts with an injected extra delay.
    delay_rate: float = 0.25
    #: Upper bound of an injected delay (virtual seconds).
    max_delay: float = 0.3
    #: Probability a round opens with an event-drop burst.
    drop_burst_rate: float = 0.25
    #: Events force-dropped from every bounded sink per burst.
    burst_size: int = 6
    #: How many times the sabotaged monitor's check raises before healing.
    evaluator_failures: int = 3
    #: Breaker tuning for the fleet (kept tight so the lifecycle completes
    #: well inside the campaign).
    breaker_failure_threshold: int = 2
    breaker_cooldown: float = 0.6

    def __post_init__(self) -> None:
        for name in (
            "rounds", "burst_size", "evaluator_failures",
            "breaker_failure_threshold",
        ):
            if getattr(self, name) < 1:
                raise InjectionError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}"
                )
        for name in ("interval", "breaker_cooldown"):
            if getattr(self, name) <= 0.0:
                raise InjectionError(
                    f"{name} must be > 0, got {getattr(self, name)!r}"
                )
        if self.max_delay < 0.0:
            raise InjectionError(
                f"max_delay must be >= 0, got {self.max_delay!r}"
            )
        for name in ("checkpoint_failure_rate", "delay_rate", "drop_burst_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InjectionError(
                    f"{name} must be within [0, 1], got {value!r}"
                )


class SabotagedCheck:
    """Wraps one registered monitor's ``evaluate`` to raise N times, then heal.

    Installed with :func:`sabotage_entry`; deterministic by construction
    (the first ``failures`` invocations raise :class:`ChaosError`, every
    later one delegates to the original evaluator).  Wrapping ``evaluate``
    sabotages the *phase-2* rule evaluation of the two-phase checkpoint —
    the phase-1 snapshot/cut still succeeds, so this exercises exactly the
    "checker throws off the critical path, breaker must still open" seam.
    ``entry.check()`` goes through the same wrapper.  Because a
    quarantined monitor is *skipped*, invocations only burn down while the
    breaker actually lets the check run — which is exactly what makes the
    OPEN → HALF_OPEN probe → OPEN → … → CLOSED lifecycle observable.
    """

    def __init__(self, entry: RegisteredMonitor, failures: int) -> None:
        if failures < 1:
            raise InjectionError(f"failures must be >= 1, got {failures}")
        self._inner = entry.evaluate
        self.entry = entry
        self.remaining = failures
        self.raised = 0
        entry.evaluate = self  # type: ignore[method-assign]

    def __call__(self, capture) -> list[FaultReport]:
        if self.remaining > 0:
            self.remaining -= 1
            self.raised += 1
            raise ChaosError(
                f"injected rule-evaluator failure in {self.entry.label!r} "
                f"({self.remaining} left)"
            )
        return self._inner(capture)

    @property
    def healed(self) -> bool:
        return self.remaining == 0


def sabotage_entry(entry: RegisteredMonitor, *, failures: int = 3) -> SabotagedCheck:
    """Make ``entry``'s next ``failures`` checks raise; returns the wrapper."""
    return SabotagedCheck(entry, failures)


class ChaosInjector:
    """Seeded source of detector-environment faults for one campaign.

    ``arm`` wraps the engine's checkpoint so a round marked unlucky fails
    its *first* attempt (the supervisor's retry then succeeds — transient,
    as advertised).  ``round_prelude`` is spliced into
    :func:`~repro.detection.supervision.supervisor_process` before each
    round and performs the delay / drop-burst draws.
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.failures_injected = 0
        self.delays_injected = 0
        self.bursts_injected = 0
        self.events_dropped = 0
        self._engine: Optional[DetectionEngine] = None
        self._sinks: tuple[BoundedHistory, ...] = ()
        self._fail_next_attempt = False

    def arm(
        self,
        engine: DetectionEngine,
        sinks: tuple[BoundedHistory, ...],
    ) -> None:
        """Attach to the engine and the fleet's bounded sinks."""
        self._engine = engine
        self._sinks = sinks
        inner = engine.checkpoint

        def flaky_checkpoint() -> list[FaultReport]:
            if self._fail_next_attempt:
                self._fail_next_attempt = False
                self.failures_injected += 1
                raise ChaosError("injected transient checkpoint failure")
            return inner()

        engine.checkpoint = flaky_checkpoint  # type: ignore[method-assign]

    def round_prelude(self) -> Iterator[Syscall]:
        """One round's worth of injections (generator, spliced before the
        round's first checkpoint attempt)."""
        if self._engine is None:
            raise InjectionError("round_prelude() before arm()")
        config = self.config
        if self.rng.random() < config.delay_rate:
            delay = self.rng.uniform(config.max_delay / 2, config.max_delay)
            self.delays_injected += 1
            yield Delay(delay)
        if self.rng.random() < config.drop_burst_rate:
            self.bursts_injected += 1
            for sink in self._sinks:
                self.events_dropped += sink.force_drop(config.burst_size)
        self._fail_next_attempt = (
            self.rng.random() < config.checkpoint_failure_rate
        )


def _fleet_workload(
    kernel: SimKernel,
    buffer: BoundedBuffer,
    allocator: SingleResourceAllocator,
    account: SharedAccount,
    broken: SingleResourceAllocator,
    *,
    operations: int,
) -> None:
    """Spawn a healthy, long-running workload over all four monitors."""

    def producer() -> Iterator[Syscall]:
        for item in range(operations):
            yield Delay(0.11)
            yield from buffer.send(item)

    def consumer() -> Iterator[Syscall]:
        for __ in range(operations):
            yield Delay(0.12)
            yield from buffer.receive()

    def alloc_user(index: int, target: SingleResourceAllocator) -> Iterator[Syscall]:
        for __ in range(operations):
            yield Delay(0.13 + 0.04 * index)
            yield from target.request()
            yield Delay(0.05)
            yield from target.release()

    def banker() -> Iterator[Syscall]:
        for __ in range(operations):
            yield Delay(0.17)
            yield from account.deposit(3)

    kernel.spawn(producer(), "producer")
    kernel.spawn(consumer(), "consumer")
    for index in range(2):
        kernel.spawn(alloc_user(index, allocator), f"alloc-user-{index}")
    kernel.spawn(alloc_user(2, broken), "broken-user")
    kernel.spawn(banker(), "banker")


def run_chaos_campaign(
    config: Optional[ChaosConfig] = None, **overrides
) -> CampaignResult:
    """Run one seeded chaos campaign on the sim kernel.

    Builds a four-monitor fleet (buffer, allocator, account — all healthy —
    plus one allocator whose *checker* is sabotaged), supervises the shared
    engine through :func:`supervisor_process`, injects the full chaos menu,
    and returns the deterministic :class:`CampaignResult`: the engine's
    and the supervisor's families plus the injection tallies, and one
    gate per conjunct of the acceptance predicate (module docstring).

    ``overrides`` are :class:`ChaosConfig` fields for ad-hoc runs:
    ``run_chaos_campaign(seed=7, rounds=80)``.
    """
    if config is None:
        config = ChaosConfig(**overrides)
    elif overrides:
        raise InjectionError("pass either a ChaosConfig or field overrides")

    kernel = SimKernel(RandomPolicy(seed=config.seed), on_deadlock="stop")
    buffer = BoundedBuffer(
        kernel, capacity=3, history=BoundedHistory(capacity=96)
    )
    allocator = SingleResourceAllocator(
        kernel, history=BoundedHistory(capacity=96), name="allocator"
    )
    account = SharedAccount(
        kernel, 100, history=BoundedHistory(capacity=96)
    )
    broken = SingleResourceAllocator(
        kernel, history=BoundedHistory(capacity=96), name="broken"
    )

    detector_config = DetectorConfig(
        interval=config.interval,
        # Generous behavioural bounds: the workload is healthy, and the
        # campaign's claim is "no false positives", not timeout coverage.
        tmax=60.0,
        tio=60.0,
        tlimit=60.0,
        checkpoint_retries=3,
        retry_backoff=0.02,
        stall_timeout=8.0 * config.interval,
        breaker_failure_threshold=config.breaker_failure_threshold,
        breaker_cooldown=config.breaker_cooldown,
    )
    engine = DetectionEngine(kernel, detector_config)
    healthy_entries = [
        engine.register(target) for target in (buffer, allocator, account)
    ]
    broken_entry = engine.register(broken)
    saboteur = sabotage_entry(
        broken_entry, failures=config.evaluator_failures
    )

    injector = ChaosInjector(config)
    sinks = tuple(
        entry.history
        for entry in (*healthy_entries, broken_entry)
        if isinstance(entry.history, BoundedHistory)
    )
    injector.arm(engine, sinks)

    # ``engine.checkpoint`` is the flaky wrapper ``arm`` installed.
    supervisor = CheckpointSupervisor(
        engine.checkpoint, kernel, detector_config
    )
    _fleet_workload(
        kernel,
        buffer,
        allocator,
        account,
        broken,
        # Keep the workload busy for the whole campaign horizon.
        operations=max(20, config.rounds),
    )
    kernel.spawn(
        supervisor_process(
            supervisor, rounds=config.rounds, prelude=injector.round_prelude
        ),
        "chaos-supervisor",
    )

    horizon = config.rounds * (config.interval + config.max_delay) + 30.0
    kernel.run(until=horizon, max_steps=50_000_000)

    registry = engine.metrics()
    supervisor.metrics(registry)
    failures = kernel_failures(kernel)
    tally(
        registry,
        checkpoint_failures=injector.failures_injected,
        delays=injector.delays_injected,
        drop_bursts=injector.bursts_injected,
        dropped_events=injector.events_dropped,
        evaluator_failures=saboteur.raised,
        kernel_failures=len(failures),
    )
    completed = {"metric": "repro_supervisor_completed_total"}
    gates = [
        ("no-kernel-failure", "repro_campaign_kernel_failures", "==", 0),
        ("no-round-abandoned", "repro_supervisor_abandoned_total", "==", 0),
        ("every-round-completed", "repro_supervisor_completed_total", ">=",
         config.rounds),
        ("no-confirmed-report", "repro_reports_total", "==", 0,
         {"confidence": "confirmed"}),
        ("breaker-opened", "repro_breaker_opened_total", ">=", 1),
        ("breaker-reclosed", "repro_breaker_reclosed_total", ">=", 1),
        ("every-breaker-closed", "repro_engine_breakers", "==",
         {"metric": "repro_engine_monitors"}, {"state": "closed"}),
        *(
            (f"{entry.label}-checked-every-round",
             "repro_monitor_checkpoints_total", "==", completed,
             {"monitor": entry.label})
            for entry in healthy_entries
        ),
        ("checkpoint-failures-injected", "repro_campaign_checkpoint_failures",
         ">", 0),
        ("delays-injected", "repro_campaign_delays", ">", 0),
        ("events-dropped", "repro_campaign_dropped_events", ">", 0),
    ]
    return CampaignResult.judge(
        f"chaos campaign (seed={config.seed}, rounds={config.rounds})",
        registry,
        gates,
        failures,
    )


# ------------------------------------------------------------ crash injection


class CrashPoint(enum.Enum):
    """Where inside a durable checkpoint the simulated crash strikes."""

    #: Die partway through the phase-1 capture sweep: some monitors' sinks
    #: are cut, others are not, and nothing was snapshotted.
    MID_CAPTURE = "mid-capture"
    #: Die partway through the phase-2 drain: some captures evaluated (and
    #: their reports produced in memory), the rest lost un-evaluated.
    MID_EVALUATE = "mid-evaluate"
    #: Die halfway through writing a snapshot record into its slot: the
    #: torn slot fails its checksum and the previous snapshot is loaded.
    MID_SNAPSHOT_WRITE = "mid-snapshot-write"
    #: Die halfway through a WAL append, leaving a torn final line.
    MID_WAL_APPEND = "mid-wal-append"


class SimulatedCrash(ChaosError):
    """Raised at a :class:`CrashPoint` to kill the detector incarnation."""


@dataclass(frozen=True)
class CrashRecoveryConfig:
    """Tunables of one crash/restart campaign."""

    seed: int = 0
    #: Checkpoint rounds the driver runs (golden and crashed alike).
    rounds: int = 40
    #: Checking interval (virtual seconds).
    interval: float = 0.25
    #: Crashes injected over the run (each at a seeded round and point).
    crashes: int = 4
    #: ``"sim"`` (strict report equality, timestamps included) or
    #: ``"threads"`` (relaxed: rule/monitor/pids — wall-clock timestamps
    #: are not reproducible across two real-time runs).
    backend: str = "sim"
    #: WAL fsync policy of the durable engine under test.
    fsync: str = "interval"
    #: Crash points to sample from (None = all four).
    crash_points: Optional[tuple[CrashPoint, ...]] = None
    #: Operations per workload process.
    operations: int = 30
    #: Root directory for the two durable roots (None = fresh temp dir,
    #: removed afterwards).
    root: Optional[str] = None

    def __post_init__(self) -> None:
        if self.rounds < 4:
            raise InjectionError(f"rounds must be >= 4, got {self.rounds}")
        if not 1 <= self.crashes <= self.rounds - 2:
            raise InjectionError(
                f"crashes must be within [1, rounds - 2], got {self.crashes}"
            )
        if self.interval <= 0:
            raise InjectionError(
                f"interval must be > 0, got {self.interval!r}"
            )
        if self.backend not in ("sim", "threads"):
            raise InjectionError(
                f"backend must be 'sim' or 'threads', got {self.backend!r}"
            )
        if self.operations < 1:
            raise InjectionError(
                f"operations must be >= 1, got {self.operations}"
            )
        if self.crash_points is not None and not self.crash_points:
            raise InjectionError("crash_points must not be empty")

    @property
    def strict(self) -> bool:
        """Strict (timestamped) report comparison — sim backend only."""
        return self.backend == "sim"


def _relaxed_key(report: FaultReport) -> str:
    """Backend-portable report identity: rule, monitor, implicated pids."""
    pids = ",".join(str(pid) for pid in report.pids)
    return f"{report.rule_id}|{report.monitor}|{pids}"


def _comparison_keys(reports, strict: bool) -> tuple[str, ...]:
    """Keys compared between the golden and the recovered run.

    Sim runs replay deterministically, so every report compares, with its
    timestamp.  Thread runs cannot reproduce wall-clock timing: only
    event-triggered reports (``event_seq`` set) are deterministic there —
    checkpoint-derived timer sweeps (ST-5/ST-8c) fire once per interval a
    condition persists, and scheduling jitter changes how many intervals
    that is.  Exactly-once delivery is still enforced for *all* reports on
    both backends via strict-key uniqueness of the recovered stream.
    """
    if strict:
        return tuple(report_key(report) for report in reports)
    return tuple(
        _relaxed_key(report)
        for report in reports
        if report.event_seq is not None
    )


class _CrashContext:
    """One run's one-shard durable session plus the kill/rebuild machinery."""

    def __init__(
        self,
        kernel,
        root: Path,
        targets: list[tuple[MonitorBase, str]],
        detector_config: DetectorConfig,
        *,
        fsync: str,
        rng: random.Random,
    ) -> None:
        self.kernel = kernel
        self.root = root
        self.targets = targets
        self.detector_config = detector_config
        self.fsync = fsync
        self.rng = rng
        self.crashes: list[tuple[int, str]] = []
        self.recoveries = 0
        self.events_replayed = 0
        self.torn_tails = 0
        self.snapshot_fallbacks = 0
        #: Every retired incarnation's metrics, under an ``incarnation``
        #: label: persisted counters carry over a restart, so an
        #: unlabelled sum would count them twice.
        self.registry = MetricsRegistry()
        self.session = self._build()
        self.session.baseline()

    def _build(self) -> DetectionSession:
        session = DetectionSession(
            self.kernel,
            config=self.detector_config,
            durable_dir=self.root,
            fsync=self.fsync,
        )
        for target, label in self.targets:
            session.register(target, label=label)
        return session

    @property
    def durable(self) -> DurableEngine:
        return self.session.shards[0].durable

    def wals(self) -> list[WriteAheadLog]:
        return [entry.history for entry in self.session.entries]

    def trigger(self, point: CrashPoint) -> None:
        """Arm (or immediately take) one crash at ``point``.

        ``MID_WAL_APPEND`` dies on the spot, leaving a torn tail on one
        seeded sink.  The other points install one-shot wrappers that blow
        up partway through the next checkpoint.
        """
        engine = self.session.shards[0].engine
        if point is CrashPoint.MID_WAL_APPEND:
            self.rng.choice(self.wals()).simulate_torn_append()
            raise SimulatedCrash("died mid-WAL-append (torn tail left)")
        if point is CrashPoint.MID_SNAPSHOT_WRITE:
            store = self.durable.snapshots

            def tear_the_slot(fd: int, record: bytes) -> None:
                store.before_write = None
                torn = len(record) // 2
                os.pwrite(fd, record[:torn], 0)
                raise SimulatedCrash(
                    f"died mid-snapshot-write ({torn}/{len(record)} bytes "
                    f"written)"
                )

            store.before_write = tear_the_slot
            return
        if point is CrashPoint.MID_CAPTURE:
            original = engine.capture_phase

            def crashing_capture() -> int:
                entries = engine._entries
                keep = self.rng.randrange(len(entries) + 1) if entries else 0
                engine._entries = entries[:keep]
                try:
                    original()
                finally:
                    engine._entries = entries
                raise SimulatedCrash(
                    f"died mid-capture ({keep}/{len(entries)} cut)"
                )

            engine.capture_phase = crashing_capture  # type: ignore[method-assign]
            return
        assert point is CrashPoint.MID_EVALUATE
        original_evaluate = engine.evaluate_phase

        def crashing_evaluate() -> list[FaultReport]:
            pending = engine._pending_captures
            keep = self.rng.randrange(len(pending) + 1) if pending else 0
            engine._pending_captures = pending[:keep]
            original_evaluate()
            raise SimulatedCrash(
                f"died mid-evaluate ({keep}/{len(pending)} evaluated)"
            )

        engine.evaluate_phase = crashing_evaluate  # type: ignore[method-assign]

    def rebuild(self) -> None:
        """The restart: a fresh session over the same durable root,
        recovered.

        One atomic section: on the thread kernel the workload keeps
        running, and a monitor transition between closing the old WALs
        and attaching the new ones would append to a closed WAL.
        """
        self.kernel.atomic(self._restart)

    def retire(self) -> None:
        """Absorb the live incarnation's metrics, then close it."""
        self.registry.absorb(
            self.session.metrics(), {"incarnation": self.recoveries}
        )
        self.session.close()

    def _restart(self) -> None:
        self.retire()
        self.session = self._build()
        [summary] = self.session.recover()
        self.recoveries += 1
        self.events_replayed += summary.events_replayed
        self.torn_tails += sum(
            wal.torn_tails_truncated for wal in self.wals()
        )
        self.snapshot_fallbacks += self.durable.snapshots.corrupt_skipped


def _crash_driver(
    context: _CrashContext, config: CrashRecoveryConfig, plan: dict
) -> Iterator[Syscall]:
    """Kernel process pacing the durable checkpoints and taking the kills.

    A crashed round is *re-run after recovery at the same virtual time* —
    the restarted detector's first act is to redo the interrupted
    checkpoint, whose re-derived reports the journal deduplicates.
    """
    for round_index in range(config.rounds):
        yield Delay(config.interval)
        point = plan.get(round_index)
        while True:
            try:
                if point is not None:
                    pending, point = point, None
                    context.trigger(pending)
                context.session.checkpoint()
                break
            except SimulatedCrash as crash:
                context.crashes.append((round_index, str(crash)))
                context.rebuild()
    context.durable.flush()


def _run_crash_instance(
    config: CrashRecoveryConfig, root: Path, plan: dict
) -> _CrashContext:
    """One full kernel run (golden when ``plan`` is empty)."""
    if config.backend == "sim":
        kernel = SimKernel(RandomPolicy(seed=config.seed), on_deadlock="stop")
    else:
        kernel = ThreadKernel(time_scale=0.002)
    buffer = BoundedBuffer(kernel, capacity=3)
    allocator = SingleResourceAllocator(kernel, name="allocator")
    detector_config = DetectorConfig(
        interval=config.interval,
        tmax=60.0,
        tio=60.0,
        # Small enough that the misuser's long hold trips the periodic
        # ST-8c sweep; large enough that a brief good-user wait does not.
        tlimit=2.0 * config.interval,
    )
    rng = random.Random((config.seed << 8) ^ 0xC4A54)
    context = _CrashContext(
        kernel,
        root,
        [(buffer, "buffer"), (allocator, "allocator")],
        detector_config,
        fsync=config.fsync,
        rng=rng,
    )
    # Deterministic faults on both sides of every crash.
    spawn_misuse_workload(
        kernel,
        buffer,
        allocator,
        operations=config.operations,
        interval=config.interval,
        phase=config.rounds * config.interval * 0.45,
        good_user=True,
    )
    kernel.spawn(_crash_driver(context, config, plan), "crash-driver")
    # On threads each crash's rebuild (WAL replay, snapshot fsync) spends
    # real time that the virtual clock also counts, so a tight horizon can
    # end the run before the last recovery.  The thread kernel returns as
    # soon as every process is done, so the generous slack costs nothing.
    slack = 30.0 if config.strict else 500.0
    horizon = config.rounds * config.interval + slack
    kernel.run(until=horizon, max_steps=50_000_000)
    context.retire()
    return context


def run_crash_recovery_campaign(
    config: Optional[CrashRecoveryConfig] = None, **overrides
) -> CampaignResult:
    """Kill the detector N times and prove recovery changed nothing.

    Runs the same seeded workload twice: a *golden* run whose durable
    checkpoints are never interrupted, and a *crashed* run where seeded
    rounds die at seeded :class:`CrashPoint`\\ s and restart through
    :meth:`~repro.detection.cluster.DetectionCluster.recover`.  Passes
    when every crash was injected and recovered and both runs deliver
    the same fault set with zero duplicates.  The result's registry holds
    each crashed-run incarnation's session metrics under an
    ``incarnation`` label, plus the crash and comparison tallies.

    ``overrides`` are :class:`CrashRecoveryConfig` fields:
    ``run_crash_recovery_campaign(seed=7, crashes=2, backend="threads")``.
    """
    if config is None:
        config = CrashRecoveryConfig(**overrides)
    elif overrides:
        raise InjectionError(
            "pass either a CrashRecoveryConfig or field overrides"
        )

    planner = random.Random(config.seed)
    candidate_rounds = list(range(1, config.rounds - 1))
    rounds = sorted(planner.sample(candidate_rounds, config.crashes))
    points = (
        list(config.crash_points)
        if config.crash_points is not None
        else list(CrashPoint)
    )
    plan = {index: planner.choice(points) for index in rounds}

    base = Path(config.root) if config.root else Path(tempfile.mkdtemp())
    cleanup = config.root is None
    try:
        golden = _run_crash_instance(config, base / "golden", {})
        crashed = _run_crash_instance(config, base / "crashed", plan)
    finally:
        if cleanup:
            shutil.rmtree(base, ignore_errors=True)

    golden_keys = set(_comparison_keys(golden.durable.reports, config.strict))
    recovered_keys = set(
        _comparison_keys(crashed.durable.reports, config.strict)
    )
    missing = sorted(golden_keys - recovered_keys)
    extra = sorted(recovered_keys - golden_keys)
    delivered = Counter(report_key(r) for r in crashed.durable.reports)
    duplicated = sorted(key for key, count in delivered.items() if count > 1)
    failures = kernel_failures(golden.kernel, crashed.kernel)
    registry = crashed.registry
    tally(
        registry,
        crashes=len(crashed.crashes),
        recoveries=crashed.recoveries,
        wal_events_replayed=crashed.events_replayed,
        torn_tails=crashed.torn_tails,
        snapshot_fallbacks=crashed.snapshot_fallbacks,
        golden_reports=len(golden.durable.reports),
        recovered_reports=len(crashed.durable.reports),
        missing_keys=len(missing),
        extra_keys=len(extra),
        duplicate_keys=len(duplicated),
        kernel_failures=len(failures),
    )
    gates = [
        ("no-kernel-failure", "repro_campaign_kernel_failures", "==", 0),
        ("every-crash-injected", "repro_campaign_crashes", "==", config.crashes),
        ("every-crash-recovered", "repro_campaign_recoveries", "==",
         config.crashes),
        ("golden-run-reports", "repro_campaign_golden_reports", ">", 0),
        ("no-missing-report", "repro_campaign_missing_keys", "==", 0),
        ("no-extra-report", "repro_campaign_extra_keys", "==", 0),
        ("no-duplicated-report", "repro_campaign_duplicate_keys", "==", 0),
    ]
    notes = [f"crash in round {index}: {text}" for index, text in crashed.crashes]
    for kind, keys in (
        ("missing", missing), ("extra", extra), ("duplicated", duplicated)
    ):
        notes += [f"{kind}: {key}" for key in keys]
    mode = "strict" if config.strict else "relaxed"
    return CampaignResult.judge(
        f"crash-recovery campaign (seed={config.seed}, "
        f"backend={config.backend}, rounds={config.rounds}, "
        f"crashes={config.crashes}, fsync={config.fsync}, "
        f"{mode} report keys)",
        registry,
        gates,
        notes + failures,
    )
