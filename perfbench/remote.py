"""Workload ``remote``: window ingest by a durable detection server.

Set-up records a deterministic corpus of window frames from two
:class:`~repro.service.client.DetectionClient` s on one sim kernel, each
shipping a bounded buffer and an allocator; client 1's allocator carries
both injected faults.  The clients' connector never connects, so every
captured window stays in the replay buffer, as in
``repro.bench.service_bench.build_window_corpus``.  The workload runs
for the whole capture period, so every window carries events (except
while the faulty user holds its resource).

Each iteration replays the corpus over two connections into a fresh
durable :class:`~repro.service.server.DetectionServer`, in a closed
loop: ``feed`` one frame, ``poll`` for its ack, and only then the next
frame.  The server is then closed and restarted with ``recover()``.
The iteration is paired with a run of the same seeded workload on plain
constructs.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterator, Optional

from repro import (
    BoundedBuffer,
    Delay,
    DetectorConfig,
    RandomPolicy,
    SimKernel,
    SingleResourceAllocator,
)
from repro.service.client import DetectionClient, client_process
from repro.service.framing import FrameDecoder, encode_frame
from repro.service.protocol import hello_frame
from repro.service.server import DetectionServer, service_report_key

from perfbench.faults import detection_latencies, fault_scripts, fault_user
from perfbench.harness import (
    Run,
    Tally,
    clock,
    idle_pacer,
    instrument,
    run_kernel,
    timed,
)
from perfbench.layers import make_tracer
from perfbench.spans import Tracer

__all__ = ["measure"]


INTERVAL = 0.25
ROUNDS = 24
HORIZON = ROUNDS * INTERVAL
CONFIG = DetectorConfig(interval=INTERVAL, tmax=5.0, tio=10.0, tlimit=1.0)
#: Items each producer sends and each consumer takes: the consumer's
#: pace keeps both busy through the whole capture period.
ITEMS = 500
CLIENTS = ("client-0", "client-1")
FAULT_LABEL = "client-1:allocator"
#: Frames replayed between two calibration chunks.
BLOCK = 16
#: Corpus builds in set-up (all must agree; ``setup_s`` is their median).
SETUPS = 5


class _Workload:
    """Two clients' monitors and processes on one kernel.

    With ``capture`` each client's monitors record into a
    :class:`DetectionClient`; without, they are plain constructs and an
    idle pacer stands in for each client's capture loop.
    """

    def __init__(self, seed: int, *, capture: bool) -> None:
        self.kernel = SimKernel(RandomPolicy(seed=seed))
        self.scripts = fault_scripts(
            seed,
            (FAULT_LABEL, FAULT_LABEL),
            tlimit=CONFIG.tlimit,
            earliest=1.0,
            latest=2.5,
        )
        self.monitors = []
        self.clients: list[DetectionClient] = []
        for name in CLIENTS:
            buffer = BoundedBuffer(self.kernel, capacity=3)
            allocator = SingleResourceAllocator(self.kernel)
            self.monitors += [buffer, allocator]
            self._spawn(name, buffer, allocator)
            if capture:
                client = DetectionClient(
                    self.kernel,
                    lambda: None,  # never connects: every window stays buffered
                    name=name,
                    interval=INTERVAL,
                    replay_limit=1_000_000,
                    seed=seed,
                )
                client.attach(buffer, label="buffer", capacity=100_000)
                client.attach(allocator, label="allocator", capacity=100_000)
                self.clients.append(client)
        for index, name in enumerate(CLIENTS):
            if capture:
                body = client_process(
                    self.clients[index], rounds=ROUNDS, drain_rounds=0
                )
            else:
                body = idle_pacer(self.kernel, interval=INTERVAL, rounds=ROUNDS)
            self.kernel.spawn(body, f"{name}-pacer")

    def _spawn(self, name: str, buffer, allocator) -> None:
        kernel = self.kernel

        def producer() -> Iterator:
            for item in range(ITEMS):
                yield Delay(0.011)
                yield from buffer.send(item)

        def consumer() -> Iterator:
            for __ in range(ITEMS):
                yield Delay(0.012)
                yield from buffer.receive()

        def user(pause: float) -> Iterator:
            while kernel.now() < HORIZON:
                yield Delay(pause)
                yield from allocator.request()
                yield Delay(0.003)
                yield from allocator.release()

        kernel.spawn(producer(), f"{name}-producer")
        kernel.spawn(consumer(), f"{name}-consumer")
        if name == CLIENTS[1]:
            kernel.spawn(
                fault_user(kernel, allocator, self.scripts, until=HORIZON),
                f"{name}-fault-user",
            )
        else:
            kernel.spawn(user(0.021), f"{name}-user-0")
            kernel.spawn(user(0.029), f"{name}-user-1")

    def ops(self) -> int:
        return sum(monitor.monitor.op_count for monitor in self.monitors)


class _Corpus:
    """The frames two clients shipped, in capture order."""

    def __init__(self, seed: int) -> None:
        workload = _Workload(seed, capture=True)
        run_kernel(workload.kernel)
        self.scripts = workload.scripts
        self.ops = workload.ops()
        self.hellos: list[bytes] = []
        self.last_seq: dict[str, int] = {}
        per_client: list[list[bytes]] = []
        self.events = 0
        #: Windows without events outside the fault stream (whose user
        #: idles while it holds the resource).
        self.empty_windows = 0
        for client in workload.clients:
            streams = client.streams
            self.hellos.append(
                encode_frame(
                    hello_frame(
                        client.name,
                        client.token,
                        [stream.spec() for stream in streams.values()],
                        {label: -1 for label in streams},
                    )
                )
            )
            frames = []
            pending = {
                f"{client.name}:{label}": list(stream.pending)
                for label, stream in streams.items()
            }
            for index in range(max(len(items) for items in pending.values())):
                for label, items in pending.items():
                    if index < len(items):
                        frame = items[index]
                        count = len(frame["segment"]["events"])
                        self.events += count
                        self.empty_windows += count == 0 and label != FAULT_LABEL
                        frames.append(encode_frame(frame))
            for label, stream in streams.items():
                self.last_seq[f"{client.name}:{label}"] = stream.next_seq - 1
            per_client.append(frames)
        #: ``(connection id, frame bytes)`` in ship order, clients alternating.
        self.frames: list[tuple[int, bytes]] = []
        for index in range(max(len(frames) for frames in per_client)):
            for conn, frames in enumerate(per_client, start=1):
                if index < len(frames):
                    self.frames.append((conn, frames[index]))
        self.bytes = sum(len(payload) for __, payload in self.frames)

    def same_as(self, other: "_Corpus") -> bool:
        return self.frames == other.frames and self.hellos == other.hellos


def _handshake(server: DetectionServer, corpus: _Corpus) -> dict[str, int]:
    """Connect both clients; return the watermarks the welcomes carry."""
    watermarks: dict[str, int] = {}
    for conn, hello in enumerate(corpus.hellos, start=1):
        server.connect(conn)
        reply = server.feed(conn, hello)
        server.poll()
        for frame in FrameDecoder().feed(reply):
            if frame.get("type") == "welcome":
                name = CLIENTS[conn - 1]
                for label, seq in frame["watermarks"].items():
                    watermarks[f"{name}:{label}"] = seq
    return watermarks


class _Replay:
    """One replay of the corpus into a fresh durable server."""

    def __init__(self, corpus: _Corpus, directory) -> None:
        self.corpus = corpus
        self.directory = directory
        self.server = DetectionServer(
            SimKernel(), config=CONFIG, durable_dir=directory
        )
        _handshake(self.server, corpus)
        self.missing_acks = 0
        self.replies = 0

    def block(self, start: int) -> tuple[float, list[float]]:
        """Feed ``BLOCK`` frames from ``start``, each after the previous
        one's ack; return the seconds and the per-frame latencies."""
        server = self.server
        latencies: list[float] = []
        started = clock()
        for conn, payload in self.corpus.frames[start:start + BLOCK]:
            frame_started = clock()
            reply = server.feed(conn, payload)
            acks = server.poll()
            latencies.append(clock() - frame_started)
            self.replies += bool(reply)
            self.missing_acks += conn not in acks
        return clock() - started, latencies

    def restart(self) -> tuple[float, tuple[DetectionServer, dict]]:
        """Close the server and bring up a new one on its journal."""
        self.server.close()
        started = clock()
        server = DetectionServer(
            SimKernel(), config=CONFIG, durable_dir=self.directory
        )
        server.recover()
        watermarks = _handshake(server, self.corpus)
        return clock() - started, (server, watermarks)


def _check(run: Run, replay: _Replay, restarted, watermarks, baseline, latencies):
    """Every window accepted and acked, nothing lossy or rejected, the
    faults and only the faults reported, and one report stream across
    iterations and across the restart."""
    server = replay.server
    frames = len(replay.corpus.frames)
    run.check(
        server.windows_accepted == frames,
        f"{server.windows_accepted} of {frames} windows accepted",
    )
    for name, value in (
        ("quarantined connections", len(server.quarantines)),
        ("replies other than acks", replay.replies),
        ("frames without an ack", replay.missing_acks),
        ("lossy windows", server.lossy_windows),
        ("sequence gaps", server.gaps_detected),
        ("duplicate windows", server.windows_duplicate),
        ("backpressure frames", server.backpressure_sent),
        ("check failures", server.engine.check_failures),
        ("degraded windows", server.engine.degraded_windows),
    ):
        run.check(value == 0, f"{value} {name}")
    keys = [service_report_key(report) for report in server.delivered]
    run.check(len(keys) == len(set(keys)), "duplicate journal keys")
    by_label = server.engine.reports_by_monitor()
    for label, reports in by_label.items():
        run.check(
            label == FAULT_LABEL or not reports,
            f"{len(reports)} report(s) on fault-free stream {label}",
        )
    found, missed = detection_latencies(replay.corpus.scripts, by_label)
    latencies.extend(found)
    for line in missed:
        run.check(False, line)
    if not baseline:
        baseline.extend(keys)
    run.check(keys == baseline, "report stream differs between iterations")
    recovered = [service_report_key(r) for r in restarted.journal.reports]
    run.check(recovered == keys, "report stream differs across the restart")
    run.check(
        watermarks == replay.corpus.last_seq,
        f"restart resumes at {watermarks}, expected {replay.corpus.last_seq}",
    )


def measure(run: Run, seed: int, tracer: Optional[Tracer]) -> dict:
    """Replays until the time budget is spent.

    Per iteration: ``overhead_ratio`` is the replay's seconds over the
    plain workload's, ``events_checked_per_s`` is events over the
    replay's reference seconds, and ``monitor_ops_per_s`` is the plain
    workload's own rate (the detector runs out of process).  Window
    latency is the time from feeding a frame to its ack.
    """
    setup_tracer = make_tracer() if tracer is not None else None

    def build(traced: bool):
        with setup_tracer if traced else nullcontext():
            return timed(lambda: _Corpus(seed))

    with run.quiet():
        builds = run.bracketed(
            [lambda: build(setup_tracer is not None)]
            + [lambda: build(False)] * (SETUPS - 1)
        )
    run.setup.extend(section.ref for section in builds)
    corpora = [section.value for section in builds]
    corpus = corpora[0]
    run.check(
        all(corpus.same_as(other) for other in corpora[1:]),
        "corpus differs between set-ups of one seed",
    )
    run.check(corpus.empty_windows == 0, f"{corpus.empty_windows} empty windows")
    run.info["frames"] = len(corpus.frames)
    run.info["events"] = corpus.events
    tally = Tally()
    baseline: list[str] = []
    server = None
    for iteration in run.iterations():
        if iteration.traced:
            tracer.begin_iteration()
        replay = _Replay(corpus, run.scratch_dir("remote"))

        def plain_section():
            workload = _Workload(seed, capture=False)
            return run_kernel(workload.kernel), workload.ops()

        def block_section(start):
            def section():
                with instrument(iteration, tracer):
                    return replay.block(start)

            return section

        def restart_section():
            with instrument(iteration, tracer):
                return replay.restart()

        blocks = [block_section(start) for start in range(0, len(corpus.frames), BLOCK)]
        if iteration.plain_first:
            replayed = run.bracketed([plain_section] + blocks + [restart_section])
            plain = replayed.pop(0)
        else:
            replayed = run.bracketed(blocks + [plain_section, restart_section])
            plain = replayed.pop(-2)
        restart = replayed.pop()
        restarted, watermarks = restart.value
        for block in replayed:
            tally.window_latencies(block.value, block)
        if not iteration.traced:
            tally.recoveries.append(restart.ref)
        run.check(
            plain.value == corpus.ops,
            f"{plain.value} monitor ops plain vs {corpus.ops} recorded",
        )
        _check(run, replay, restarted, watermarks, baseline, tally.detection)
        server = replay.server
        run.attempted += server.engine.evaluations_run
        if iteration.traced:
            for key, value in (
                ("engine.windows_evaluated", server.engine.evaluations_run),
                ("incremental_hits", server.engine.incremental_hits),
                ("supervisor.check_failures", server.engine.check_failures),
                ("supervisor.retries", server.supervisor.retries_performed),
                ("service.frames_accepted", server.windows_accepted),
                ("service.frames_rejected", len(server.quarantines)),
                ("service.backpressure_frames", server.backpressure_sent),
                ("wire_bytes", corpus.bytes),
                ("events", corpus.events),
            ):
                tally.count(key, value)
        restarted.close()
        replay_seconds = sum(block.seconds for block in replayed)
        tally.pair(
            iteration,
            ratio=replay_seconds / plain.seconds,
            events=corpus.events,
            events_over=(replay_seconds, sum(block.ref for block in replayed)),
            ops=plain.value,
            ops_over=(plain.seconds, plain.ref),
        )
    if tracer is not None:
        outcome = tally.traced_outcome(run, server.metrics)
        outcome["setup_tracer"] = setup_tracer
        return outcome
    return tally.end_to_end(run)
