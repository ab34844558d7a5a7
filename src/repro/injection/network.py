"""Seeded network-chaos campaign for the detection service.

Runs N clients against one :class:`~repro.service.server.DetectionServer`
over a :class:`~repro.service.transport.SimNetwork`, with a deterministic
fault driver injecting the service's whole failure menu — connection
drops, partial frames, slow-consumer stalls, and a full server
crash/restart over a durable journal — then asserts the robustness
contract end to end, as gates over the run's metrics (every server
incarnation's families, summed, plus the campaign's own tallies):

* **zero client-side exceptions**: every client's ``errors`` list is
  empty — disconnects, stalls and the server outage were absorbed by
  buffering and reconnect, never raised into the workload;
* **loss is never silent**: every window evaluated lossy (ring drops,
  shed replay windows, sequence gaps, post-restart resync) took the
  degraded path — ``repro_engine_degraded_windows_total`` equals
  ``repro_service_lossy_windows_total`` — so its reports carry
  :attr:`~repro.detection.reports.Confidence.DEGRADED`, not CONFIRMED;
* **exactly-once delivery**: after the crash and recovery, the journal
  holds no duplicate reports (confidence-blind keys are unique);
* the faults actually happened: reconnects observed, windows accepted,
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
from repro.injection.chaos import CampaignResult, kernel_failures, tally
from repro.kernel.policies import RandomPolicy
from repro.kernel.sim import SimKernel
from repro.kernel.syscalls import Delay, Syscall
from repro.observability.registry import MetricsRegistry
from repro.service.client import DetectionClient, client_process
from repro.service.server import DetectionServer, service_report_key
from repro.service.transport import SimNetwork, network_process
from repro.workloads import spawn_misuse_workload

__all__ = [
    "NetworkChaosConfig",
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


def run_network_chaos_campaign(config: NetworkChaosConfig) -> CampaignResult:
    """Run one seeded campaign; see the module docstring for the contract."""
    root = Path(tempfile.mkdtemp(prefix="repro-netchaos-"))
    try:
        return _run(config, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run(config: NetworkChaosConfig, root: Path) -> CampaignResult:
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
    kernel.run(until=horizon, max_steps=50_000_000)
    incarnations[-1].close()
    # A lossy window counts when a server evaluates it, so windows a
    # crashed incarnation left pending count nowhere.
    registry = MetricsRegistry()
    for server in incarnations:
        registry.absorb(server.metrics())
    journal = incarnations[-1].journal.reports
    keys = [service_report_key(report) for report in journal]
    client_errors = [
        f"client error: {client.name}: {error}"
        for client in clients
        for error in client.errors
    ]
    failures = kernel_failures(kernel)
    stats = [client.stats() for client in clients]
    tally(
        registry,
        server_crashes=net.server_crashes,
        connections_cut=net.connections_cut,
        frames_truncated=net.frames_truncated,
        pumps_stalled=net.pumps_stalled,
        reconnects=sum(client["disconnects"] for client in stats),
        client_errors=len(client_errors),
        windows_evicted=sum(client["windows_evicted"] for client in stats),
        events_lost=sum(client["events_lost"] for client in stats),
        kernel_failures=len(failures),
        journal_reports=len(journal),
        journal_degraded_reports=sum(
            report.confidence is Confidence.DEGRADED for report in journal
        ),
        journal_duplicate_keys=len(keys) - len(set(keys)),
    )
    gates = [
        ("no-kernel-failure", "repro_campaign_kernel_failures", "==", 0),
        ("no-client-error", "repro_campaign_client_errors", "==", 0),
        ("no-duplicate-journal-key", "repro_campaign_journal_duplicate_keys",
         "==", 0),
        ("every-lossy-window-degraded", "repro_engine_degraded_windows_total",
         "==", {"metric": "repro_service_lossy_windows_total"}),
        ("reports-delivered", "repro_campaign_journal_reports", ">", 0),
        ("windows-accepted", "repro_service_windows_accepted_total", ">", 0),
    ]
    if config.drop_rate > 0 or config.crash_round is not None:
        gates.append(("clients-reconnected", "repro_campaign_reconnects", ">", 0))
    if config.crash_round is not None:
        gates.append(("server-crashed", "repro_campaign_server_crashes", ">=", 1))
    return CampaignResult.judge(
        f"network chaos campaign (seed={config.seed}, "
        f"clients={config.clients}, rounds={config.rounds})",
        registry,
        gates,
        [f"fault at {time:g}: {fault}" for time, fault in faults]
        + client_errors
        + failures,
    )
