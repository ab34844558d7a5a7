"""Seeded network-chaos campaign for the detection service.

Runs N clients against one :class:`~repro.service.server.DetectionServer`
over a :class:`~repro.service.transport.SimNetwork`, with a deterministic
fault driver injecting the service's whole failure menu — connection
drops, partial frames, slow-consumer stalls, and a full server
crash/restart over a durable journal — then asserts the robustness
contract end to end:

* **zero client-side exceptions**: every client's ``errors`` list is
  empty — disconnects, stalls and the server outage were absorbed by
  buffering and reconnect, never raised into the workload;
* **loss is never silent**: every window that arrived lossy (ring drops,
  shed replay windows, sequence gaps, post-restart resync) was evaluated
  in degraded mode — reports from such windows carry
  :attr:`~repro.detection.reports.Confidence.DEGRADED`, not CONFIRMED;
* **exactly-once delivery**: after the crash and recovery, the journal
  holds no duplicate reports (confidence-blind keys are unique);
* the faults actually happened: reconnects observed, windows replayed,
  at least one report delivered.

Everything is driven by one seed: the kernel scheduling policy, the
fault schedule and the client backoff jitter all derive from it, so a
failing campaign replays bit-for-bit.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro.apps.bounded_buffer import BoundedBuffer
from repro.apps.resource_allocator import SingleResourceAllocator
from repro.detection.config import DetectorConfig
from repro.detection.reports import Confidence
from repro.kernel.policies import RandomPolicy
from repro.kernel.sim import SimKernel
from repro.kernel.syscalls import Delay, Syscall
from repro.service.client import DetectionClient, client_process
from repro.service.server import DetectionServer, service_report_key
from repro.service.transport import SimNetwork, network_process
from repro.workloads import spawn_misuse_workload

__all__ = [
    "NetworkChaosConfig",
    "NetworkChaosResult",
    "run_network_chaos_campaign",
]


@dataclass(frozen=True)
class NetworkChaosConfig:
    """One seeded network-chaos campaign.

    Fault rates are per driver round (one round per checkpoint
    interval).  ``crash_at`` places the server's ungraceful death at that
    fraction of the run (:attr:`crash_round`; round 14 of the default
    36); after ``crash_outage`` virtual seconds a new incarnation
    recovers from the same durable journal and the network starts
    accepting again.  ``None`` disables the crash.
    """

    seed: int = 0
    clients: int = 3
    rounds: int = 36
    interval: float = 5.0
    replay_limit: int = 12
    operations: int = 40
    drop_rate: float = 0.12
    truncate_rate: float = 0.08
    stall_rate: float = 0.10
    stall_pumps: int = 4
    crash_at: Optional[float] = 14 / 36
    crash_outage: float = 12.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients!r}")
        if self.rounds < 4:
            raise ValueError(f"rounds must be >= 4, got {self.rounds!r}")
        if self.interval <= 0:
            raise ValueError(
                f"interval must be positive, got {self.interval!r}"
            )
        for name in ("drop_rate", "truncate_rate", "stall_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.crash_round is not None and not (
            1 <= self.crash_round < self.rounds
        ):
            raise ValueError(
                f"crash_at {self.crash_at!r} puts the crash at round "
                f"{self.crash_round}, outside [1, rounds)"
            )

    @property
    def crash_round(self) -> Optional[int]:
        """The round at which the server crashes (None: never)."""
        if self.crash_at is None:
            return None
        return round(self.rounds * self.crash_at)


@dataclass(frozen=True)
class NetworkChaosResult:
    """Outcome of one campaign, with the pass/fail contract attached."""

    config: NetworkChaosConfig
    faults_injected: tuple[tuple[float, str], ...]
    server_crashes: int
    connections_cut: int
    frames_truncated: int
    pumps_stalled: int
    reconnects: int
    windows_accepted: int
    windows_duplicate: int
    windows_evicted: int
    events_lost: int
    lossy_windows: int
    degraded_windows: int
    resync_windows: int
    delivered_reports: int
    degraded_reports: int
    confirmed_from_lossy: int
    duplicate_journal_keys: int
    journal_deduplicated: int
    client_errors: tuple[str, ...]
    kernel_failures: tuple[str, ...]
    end_time: float

    @property
    def passed(self) -> bool:
        checks = [
            not self.kernel_failures,
            not self.client_errors,
            self.duplicate_journal_keys == 0,
            # Every lossy window took the degraded evaluation path...
            self.degraded_windows == self.lossy_windows,
            # ...and no report born from one claims full confidence.
            self.confirmed_from_lossy == 0,
            self.delivered_reports > 0,
            self.windows_accepted > 0,
        ]
        if self.config.drop_rate > 0 or self.config.crash_round is not None:
            checks.append(self.reconnects > 0)
        if self.config.crash_round is not None:
            checks.append(self.server_crashes >= 1)
        return all(checks)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"network chaos [{verdict}] seed={self.config.seed} "
            f"clients={self.config.clients}: "
            f"{self.windows_accepted} windows "
            f"({self.windows_duplicate} dup-skipped, "
            f"{self.lossy_windows} lossy -> {self.degraded_windows} "
            f"degraded), {self.delivered_reports} reports "
            f"({self.degraded_reports} degraded, 0 dups expected: "
            f"{self.duplicate_journal_keys}), "
            f"faults: {self.connections_cut} cuts, "
            f"{self.frames_truncated} truncations, "
            f"{self.pumps_stalled} stalled pumps, "
            f"{self.server_crashes} crash(es); "
            f"{self.reconnects} reconnects, "
            f"{self.client_errors and 'CLIENT ERRORS' or 'no client errors'}"
        )


def _fault_driver(
    kernel: SimKernel,
    net: SimNetwork,
    config: NetworkChaosConfig,
    detector_config: DetectorConfig,
    durable_root: Path,
    rng: random.Random,
    incarnations: list[DetectionServer],
    faults: list[tuple[float, str]],
) -> Iterator[Syscall]:
    """Deterministic fault schedule, one decision per checkpoint round."""
    for round_index in range(config.rounds):
        yield Delay(config.interval)
        now = kernel.now()
        if config.crash_round is not None and round_index == config.crash_round:
            net.crash_server()
            faults.append((now, "server-crash"))
            yield Delay(config.crash_outage)
            replacement = DetectionServer(
                kernel, config=detector_config, durable_dir=durable_root
            )
            replacement.recover()
            incarnations.append(replacement)
            net.restart_server(replacement)
            faults.append((kernel.now(), "server-restart"))
            continue
        roll = rng.random()
        live = sorted(net.conns)
        if roll < config.drop_rate and live:
            victim = live[rng.randrange(len(live))]
            net.cut(victim)
            faults.append((now, f"cut-{victim}"))
        elif roll < config.drop_rate + config.truncate_rate and live:
            victim = live[rng.randrange(len(live))]
            net.truncate_next(victim, drop=1 + rng.randrange(9))
            faults.append((now, f"truncate-{victim}"))
        elif (
            roll < config.drop_rate + config.truncate_rate + config.stall_rate
        ):
            net.stall(config.stall_pumps)
            faults.append((now, f"stall-{config.stall_pumps}"))


def run_network_chaos_campaign(
    config: NetworkChaosConfig,
    *,
    durable_root: Optional[Path] = None,
) -> NetworkChaosResult:
    """Run one seeded campaign; see the module docstring for the contract."""
    owns_root = durable_root is None
    root = (
        Path(tempfile.mkdtemp(prefix="repro-netchaos-"))
        if owns_root
        else Path(durable_root)
    )
    try:
        return _run(config, root)
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)


def _run(config: NetworkChaosConfig, root: Path) -> NetworkChaosResult:
    kernel = SimKernel(RandomPolicy(seed=config.seed), on_deadlock="stop")
    detector_config = DetectorConfig(
        interval=config.interval,
        tmax=60.0,
        tio=60.0,
        tlimit=2.0 * config.interval,
    )
    server = DetectionServer(
        kernel, config=detector_config, durable_dir=root
    )
    server.recover()
    incarnations = [server]
    net = SimNetwork(server)
    clients: list[DetectionClient] = []
    for index in range(config.clients):
        buffer = BoundedBuffer(kernel, capacity=3)
        allocator = SingleResourceAllocator(kernel, name=f"alloc-{index}")
        client = DetectionClient(
            kernel,
            net.connect,
            name=f"client-{index}",
            interval=config.interval,
            replay_limit=config.replay_limit,
            backoff_base=0.5,
            backoff_max=2.0 * config.interval,
            seed=(config.seed << 4) ^ index,
        )
        client.attach(buffer, label="buffer")
        client.attach(allocator, label="allocator")
        clients.append(client)
        spawn_misuse_workload(
            kernel,
            buffer,
            allocator,
            operations=config.operations,
            interval=config.interval,
            phase=config.rounds * config.interval * 0.4 + 0.13 * index,
            start=0.35 + 0.07 * index,
            suffix=f"-{index}",
        )
        kernel.spawn(
            client_process(client, rounds=config.rounds, drain_rounds=30),
            f"client-{index}",
        )
    kernel.spawn(
        network_process(net, interval=config.interval / 2.0), "network"
    )
    faults: list[tuple[float, str]] = []
    fault_rng = random.Random((config.seed << 8) ^ 0x5E21CE)
    kernel.spawn(
        _fault_driver(
            kernel,
            net,
            config,
            detector_config,
            root,
            fault_rng,
            incarnations,
            faults,
        ),
        "fault-driver",
    )
    horizon = (config.rounds + 35) * config.interval + config.crash_outage
    result = kernel.run(until=horizon, max_steps=50_000_000)
    final = incarnations[-1]
    final.close()
    # ------------------------------------------------------------ verdicts
    keys = [service_report_key(r) for r in final.journal.reports]
    duplicate_journal_keys = len(keys) - len(set(keys))
    degraded_reports = sum(
        1
        for report in final.journal.reports
        if report.confidence is Confidence.DEGRADED
    )
    # A CONFIRMED report produced while evaluating a lossy window would be
    # a silent-loss bug.  Reports don't record their window's loss, but
    # the engine invariant does: every lossy window bumps
    # ``degraded_windows`` and its surviving reports are downgraded, so
    # lossy windows minus degraded evaluations exposes any leak.  Lossy
    # windows accepted but never evaluated (pending in a crashed
    # incarnation — the client replays them to the next one) are excluded.
    lossy = sum(s.lossy_windows for s in incarnations)
    unevaluated_lossy = sum(
        1
        for s in incarnations
        for capture in s.engine._pending_captures
        if capture.segment.dropped
    )
    lossy -= unevaluated_lossy
    degraded = sum(s.engine.degraded_windows for s in incarnations)
    return NetworkChaosResult(
        config=config,
        faults_injected=tuple(faults),
        server_crashes=net.server_crashes,
        connections_cut=net.connections_cut,
        frames_truncated=net.frames_truncated,
        pumps_stalled=net.pumps_stalled,
        reconnects=sum(c.disconnects for c in clients),
        windows_accepted=sum(s.windows_accepted for s in incarnations),
        windows_duplicate=sum(s.windows_duplicate for s in incarnations),
        windows_evicted=sum(
            c.stats()["windows_evicted"] for c in clients
        ),
        events_lost=sum(c.stats()["events_lost"] for c in clients),
        lossy_windows=lossy,
        degraded_windows=degraded,
        resync_windows=sum(s.resync_windows for s in incarnations),
        delivered_reports=len(final.journal.reports),
        degraded_reports=degraded_reports,
        confirmed_from_lossy=max(0, lossy - degraded),
        duplicate_journal_keys=duplicate_journal_keys,
        journal_deduplicated=sum(
            s.journal.deduplicated for s in incarnations
        ),
        client_errors=tuple(
            f"{client.name}: {error}"
            for client in clients
            for error in client.errors
        ),
        kernel_failures=tuple(
            f"{type(exc).__name__}: {exc}"
            for exc in kernel.failures().values()
        ),
        end_time=result.end_time,
    )
