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
crashes the kernel, the healthy fleet stays CONFIRMED-clean, and the
broken monitor's breaker both opens and re-closes.

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
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro.apps.bounded_buffer import BoundedBuffer
from repro.apps.resource_allocator import SingleResourceAllocator
from repro.apps.shared_account import SharedAccount
from repro.detection.config import DetectorConfig
from repro.detection.durability import DurableEngine, report_key
from repro.detection.session import DetectionSession
from repro.detection.engine import DetectionEngine, RegisteredMonitor
from repro.detection.reports import Confidence, FaultReport
from repro.detection.supervision import (
    BreakerState,
    CheckpointSupervisor,
    supervisor_process,
)
from repro.errors import InjectionError
from repro.history.bounded import BoundedHistory
from repro.history.wal import WriteAheadLog
from repro.kernel.policies import RandomPolicy
from repro.kernel.sim import SimKernel
from repro.kernel.threads import ThreadKernel
from repro.kernel.syscalls import Delay, Syscall
from repro.monitor.construct import MonitorBase
from repro.workloads import spawn_misuse_workload

__all__ = [
    "ChaosError",
    "ChaosConfig",
    "SabotagedCheck",
    "sabotage_entry",
    "ChaosInjector",
    "ChaosCampaignResult",
    "run_chaos_campaign",
    "CrashPoint",
    "SimulatedCrash",
    "CrashRecoveryConfig",
    "CrashRecoveryResult",
    "run_crash_recovery_campaign",
]


class ChaosError(InjectionError):
    """The exception type every injected detector-environment fault raises."""


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
        self.delay_seconds_injected = 0.0
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
            self.delay_seconds_injected += delay
            yield Delay(delay)
        if self.rng.random() < config.drop_burst_rate:
            self.bursts_injected += 1
            for sink in self._sinks:
                self.events_dropped += sink.force_drop(config.burst_size)
        self._fail_next_attempt = (
            self.rng.random() < config.checkpoint_failure_rate
        )


@dataclass(frozen=True)
class ChaosCampaignResult:
    """Everything :func:`run_chaos_campaign` observed, plus the verdict."""

    config: ChaosConfig
    #: Supervised rounds that completed a checkpoint (retries included).
    checkpoints_completed: int
    #: Rounds abandoned after exhausting retries (must be 0 to pass).
    checkpoints_abandoned: int
    retries_performed: int
    stalls_detected: int
    #: Injection tallies — the campaign must actually have injected things.
    failures_injected: int
    delays_injected: int
    bursts_injected: int
    events_dropped: int
    evaluator_failures_raised: int
    #: Detection outcome on the (fault-free) workload.
    confirmed_reports: int
    degraded_reports: int
    degraded_windows: int
    #: Breaker lifecycle of the sabotaged monitor.
    breaker_opened: int
    breaker_reclosed: int
    breaker_final_state: BreakerState
    broken_checkpoints_run: int
    broken_checkpoints_skipped: int
    #: Checkpoints run by each healthy monitor (fleet keeps checking).
    healthy_checkpoints: tuple[int, ...]
    #: Exceptions that escaped to the kernel (must be empty to pass).
    kernel_failures: tuple[str, ...]
    end_time: float

    @property
    def passed(self) -> bool:
        """The acceptance predicate, in one place (see module docstring)."""
        return (
            not self.kernel_failures
            and self.checkpoints_abandoned == 0
            and self.checkpoints_completed >= self.config.rounds
            and self.confirmed_reports == 0
            and self.breaker_opened >= 1
            and self.breaker_reclosed >= 1
            and self.breaker_final_state is BreakerState.CLOSED
            and all(
                count == self.checkpoints_completed
                for count in self.healthy_checkpoints
            )
            and self.failures_injected > 0
            and self.delays_injected > 0
            and self.events_dropped > 0
        )

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return "\n".join(
            [
                f"chaos campaign (seed={self.config.seed}, "
                f"rounds={self.config.rounds}): {verdict}",
                f"  checkpoints: {self.checkpoints_completed} completed, "
                f"{self.checkpoints_abandoned} abandoned, "
                f"{self.retries_performed} retries, "
                f"{self.stalls_detected} stalls flagged",
                f"  injected: {self.failures_injected} checkpoint failures, "
                f"{self.delays_injected} delays, {self.bursts_injected} "
                f"drop bursts ({self.events_dropped} events), "
                f"{self.evaluator_failures_raised} evaluator exceptions",
                f"  reports: {self.confirmed_reports} confirmed / "
                f"{self.degraded_reports} degraded "
                f"({self.degraded_windows} degraded windows)",
                f"  quarantine: opened x{self.breaker_opened}, re-closed "
                f"x{self.breaker_reclosed}, final "
                f"{self.breaker_final_state.value}; broken monitor checked "
                f"{self.broken_checkpoints_run}, skipped "
                f"{self.broken_checkpoints_skipped}",
                f"  healthy fleet checkpoints: "
                f"{list(self.healthy_checkpoints)}",
            ]
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
) -> ChaosCampaignResult:
    """Run one seeded chaos campaign on the sim kernel.

    Builds a four-monitor fleet (buffer, allocator, account — all healthy —
    plus one allocator whose *checker* is sabotaged), supervises the shared
    engine through :func:`supervisor_process`, injects the full chaos menu,
    and returns the deterministic :class:`ChaosCampaignResult`.

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
    result = kernel.run(until=horizon, max_steps=50_000_000)

    by_confidence = engine.reports_by_confidence()
    breaker = broken_entry.breaker
    return ChaosCampaignResult(
        config=config,
        checkpoints_completed=supervisor.checkpoints_completed,
        checkpoints_abandoned=supervisor.checkpoints_abandoned,
        retries_performed=supervisor.retries_performed,
        stalls_detected=supervisor.stalls_detected,
        failures_injected=injector.failures_injected,
        delays_injected=injector.delays_injected,
        bursts_injected=injector.bursts_injected,
        events_dropped=injector.events_dropped,
        evaluator_failures_raised=saboteur.raised,
        confirmed_reports=len(by_confidence[Confidence.CONFIRMED]),
        degraded_reports=len(by_confidence[Confidence.DEGRADED]),
        degraded_windows=engine.degraded_windows,
        breaker_opened=breaker.times_opened,
        breaker_reclosed=breaker.times_reclosed,
        breaker_final_state=breaker.state,
        broken_checkpoints_run=broken_entry.checkpoints_run,
        broken_checkpoints_skipped=broken_entry.checkpoints_skipped,
        healthy_checkpoints=tuple(
            entry.checkpoints_run for entry in healthy_entries
        ),
        kernel_failures=tuple(
            f"{type(exc).__name__}: {exc}"
            for exc in kernel.failures().values()
        ),
        end_time=result.end_time,
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
    #: Die after the snapshot temp file is written but before the rename:
    #: the previous snapshot stays the latest.
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

            def die_before_rename() -> None:
                store.before_rename = None
                raise SimulatedCrash("died mid-snapshot-write (temp only)")

            store.before_rename = die_before_rename
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

    def _restart(self) -> None:
        self.session.close()
        self.session = self._build()
        [summary] = self.session.recover()
        self.recoveries += 1
        self.events_replayed += summary.events_replayed
        self.torn_tails += sum(
            wal.torn_tails_truncated for wal in self.wals()
        )
        self.snapshot_fallbacks = self.durable.snapshots.corrupt_skipped


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


@dataclass(frozen=True)
class _CrashRunOutcome:
    keys: tuple[str, ...]
    strict_keys: tuple[str, ...]
    reports: int
    crashes: tuple[tuple[int, str], ...]
    recoveries: int
    events_replayed: int
    torn_tails: int
    snapshot_fallbacks: int
    durability_counters: dict
    kernel_failures: tuple[str, ...]
    end_time: float


def _run_crash_instance(
    config: CrashRecoveryConfig, root: Path, plan: dict
) -> _CrashRunOutcome:
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
    result = kernel.run(until=horizon, max_steps=50_000_000)
    context.session.close()
    return _CrashRunOutcome(
        keys=_comparison_keys(context.durable.reports, config.strict),
        strict_keys=tuple(
            report_key(report) for report in context.durable.reports
        ),
        reports=len(context.durable.reports),
        crashes=tuple(context.crashes),
        recoveries=context.recoveries,
        events_replayed=context.events_replayed,
        torn_tails=context.torn_tails,
        snapshot_fallbacks=context.snapshot_fallbacks,
        durability_counters=context.durable.durability_counters,
        kernel_failures=tuple(
            f"{type(exc).__name__}: {exc}"
            for exc in kernel.failures().values()
        ),
        end_time=result.end_time,
    )


@dataclass(frozen=True)
class CrashRecoveryResult:
    """Golden-vs-recovered comparison of one crash campaign."""

    config: CrashRecoveryConfig
    #: ``(round, description)`` of every injected crash.
    crashes_injected: tuple[tuple[int, str], ...]
    recoveries: int
    events_replayed: int
    torn_tails_truncated: int
    snapshot_fallbacks: int
    golden_reports: int
    recovered_reports: int
    #: Golden keys the recovered run never delivered (must be empty).
    missing_keys: tuple[str, ...]
    #: Recovered keys absent from the golden run (must be empty).
    extra_keys: tuple[str, ...]
    #: Strict report keys the recovered run delivered more than once
    #: (must be empty — this is the exactly-once claim).
    duplicate_keys: tuple[str, ...]
    durability_counters: dict
    kernel_failures: tuple[str, ...]
    end_time: float

    @property
    def passed(self) -> bool:
        return (
            not self.kernel_failures
            and len(self.crashes_injected) == self.config.crashes
            and self.recoveries == self.config.crashes
            and self.golden_reports > 0
            and not self.missing_keys
            and not self.extra_keys
            and not self.duplicate_keys
        )

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        mode = "strict" if self.config.strict else "relaxed"
        lines = [
            f"crash-recovery campaign (seed={self.config.seed}, "
            f"backend={self.config.backend}, rounds={self.config.rounds}, "
            f"crashes={self.config.crashes}, fsync={self.config.fsync}): "
            f"{verdict}",
            f"  crashes: "
            + (
                "; ".join(
                    f"round {index}: {desc}"
                    for index, desc in self.crashes_injected
                )
                or "none"
            ),
            f"  recovery: {self.recoveries} recoveries, "
            f"{self.events_replayed} WAL events replayed, "
            f"{self.torn_tails_truncated} torn tails truncated, "
            f"{self.snapshot_fallbacks} corrupt snapshots skipped",
            f"  reports ({mode} keys): golden {self.golden_reports}, "
            f"recovered {self.recovered_reports}; "
            f"missing {len(self.missing_keys)}, extra {len(self.extra_keys)}, "
            f"duplicated {len(self.duplicate_keys)}",
            f"  durability: {self.durability_counters}",
        ]
        if self.kernel_failures:
            lines.append(f"  kernel failures: {list(self.kernel_failures)}")
        return "\n".join(lines)


def run_crash_recovery_campaign(
    config: Optional[CrashRecoveryConfig] = None, **overrides
) -> CrashRecoveryResult:
    """Kill the detector N times and prove recovery changed nothing.

    Runs the same seeded workload twice: a *golden* run whose durable
    checkpoints are never interrupted, and a *crashed* run where seeded
    rounds die at seeded :class:`CrashPoint`\\ s and restart through
    :meth:`~repro.detection.cluster.DetectionCluster.recover`.  Passes
    when both runs deliver the same fault set with zero duplicates (see
    :attr:`CrashRecoveryResult.passed`).

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

    golden_keys = set(golden.keys)
    recovered_keys = set(crashed.keys)
    from collections import Counter

    strict_counts = Counter(crashed.strict_keys)
    duplicates = tuple(
        sorted(key for key, count in strict_counts.items() if count > 1)
    )
    return CrashRecoveryResult(
        config=config,
        crashes_injected=crashed.crashes,
        recoveries=crashed.recoveries,
        events_replayed=crashed.events_replayed,
        torn_tails_truncated=crashed.torn_tails,
        snapshot_fallbacks=crashed.snapshot_fallbacks,
        golden_reports=golden.reports,
        recovered_reports=crashed.reports,
        missing_keys=tuple(sorted(golden_keys - recovered_keys)),
        extra_keys=tuple(sorted(recovered_keys - golden_keys)),
        duplicate_keys=duplicates,
        durability_counters=crashed.durability_counters,
        kernel_failures=golden.kernel_failures + crashed.kernel_failures,
        end_time=crashed.end_time,
    )
