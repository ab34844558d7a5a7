"""Reconnect storm: simultaneous disconnects must not perturb reports.

N clients all lose their connections at once (several times); every
client reconnects, resumes from its acked watermark and replays.  The
merged report stream must be byte-identical to a never-disconnected
baseline: same rules, same timestamps, same confidence — remote
evaluation is input-deterministic, and buffered replay makes the cuts
invisible to the checker.

The baseline run spawns the same saboteur process executing the same
delays (it just skips the cuts), so both runs present the sim kernel
with identical process structures and the workload interleaving — and
therefore every shipped window — is identical.
"""

import json

from repro.detection.durability import report_to_dict
from repro.kernel.syscalls import Delay
from repro.service.client import DetectionClient, client_process
from repro.service.server import DetectionServer, service_report_key
from repro.service.transport import SimNetwork, network_process
from tests.service.workload import attach_workload, make_kernel

CLIENTS = 3
ROUNDS = 10
INTERVAL = 5.0
STORMS = (17.0, 14.0, 23.0)  # inter-storm delays: 3 simultaneous cuts


def run_fleet(*, storm: bool):
    kernel = make_kernel(11)
    server = DetectionServer(kernel)
    net = SimNetwork(server)
    clients = []
    for index in range(CLIENTS):
        client = DetectionClient(
            kernel,
            net.connect,
            name=f"c{index}",
            interval=INTERVAL,
            backoff_base=0.5,
            backoff_max=4.0,
            seed=index,
        )
        attach_workload(
            kernel, client, operations=24, misuse=True, tag=str(index)
        )
        kernel.spawn(
            client_process(client, rounds=ROUNDS), f"client{index}"
        )
        clients.append(client)

    def saboteur():
        for pause in STORMS:
            yield Delay(pause)
            if storm:
                net.cut_all()  # every client drops in the same instant

    kernel.spawn(network_process(net, interval=0.5), "net")
    kernel.spawn(saboteur(), "saboteur")
    kernel.run(until=(ROUNDS + 30) * INTERVAL)
    kernel.raise_failures()
    return server, clients


def merged_stream(server):
    return [
        json.dumps(report_to_dict(report), sort_keys=True)
        for report in server.delivered
    ]


def test_storm_report_stream_matches_undisturbed_baseline():
    baseline_server, baseline_clients = run_fleet(storm=False)
    storm_server, storm_clients = run_fleet(storm=True)

    # The storm really happened: every client reconnected, repeatedly.
    for client in storm_clients:
        assert client.stats()["connects"] >= 1 + len(STORMS)
        assert client.stats()["errors"] == []
    for client in baseline_clients:
        assert client.stats()["connects"] == 1

    # Every window made it back after the reconnects, none were lossy.
    for client in storm_clients:
        stats = client.stats()
        assert stats["windows_acked"] == stats["windows_captured"] > 0
        assert stats["pending_windows"] == 0
    assert storm_server.stats()["lossy_windows"] == 0

    # No duplicates slipped through the replays.
    keys = [service_report_key(r) for r in storm_server.delivered]
    assert len(keys) == len(set(keys))

    # The merged report stream is byte-identical, order included.
    baseline = merged_stream(baseline_server)
    stormed = merged_stream(storm_server)
    assert len(baseline) > 0
    assert stormed == baseline
