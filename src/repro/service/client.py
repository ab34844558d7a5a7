"""The fault-tolerant detection client: record locally, ship windows remotely.

:class:`RemoteEventSink` is a drop-in
:class:`~repro.history.sink.EventSink` — a bounded ring with the same
drop accounting as :class:`~repro.history.bounded.BoundedHistory` — whose
cut windows are handed to a :class:`DetectionClient` instead of a local
engine.  The client runs phase 1 of the two-phase checkpoint itself
(:meth:`DetectionClient.capture` snapshots and cuts every attached stream
inside one ``kernel.atomic`` section) and ships the frozen windows as
protocol frames.

The client is built to *degrade, never block, never raise*:

* **Disconnected?**  Windows keep accumulating in a bounded per-stream
  replay buffer.  When the buffer overflows, the oldest window is shed
  and its event count folded into the next surviving window's
  ``lost_events`` — so the loss reaches the server as explicit
  accounting and the post-reconnect window is evaluated DEGRADED, never
  silently CONFIRMED.
* **Reconnect.**  Exponential backoff with seeded jitter; the handshake
  carries the session resume token and the last-acked watermark per
  stream, so the server skips replayed duplicates and the client prunes
  windows the server already processed.
* **Silent death.**  Heartbeat pings; a connection that stops answering
  is cut and the reconnect machinery takes over.
* **No exception escapes.**  Every transport interaction is wrapped;
  failures increment counters and flip the state machine to
  ``disconnected``.  The workload being monitored never sees them.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Optional

from repro.history.bounded import BoundedHistory
from repro.history.sink import Segment
from repro.kernel.base import Kernel
from repro.kernel.syscalls import Delay, Syscall
from repro.monitor.declaration import MonitorDeclaration
from repro.service.framing import FrameDecoder, FrameError, encode_frame
from repro.service.protocol import (
    STREAM_OVERRIDES,
    bye_frame,
    frame_type,
    hello_frame,
    ping_frame,
    window_frame,
)

__all__ = ["RemoteEventSink", "DetectionClient", "client_process"]


class RemoteEventSink(BoundedHistory):
    """A bounded event sink whose cut windows ship to a detection daemon.

    Behaves exactly like :class:`~repro.history.bounded.BoundedHistory`
    for recording (ring eviction, drop accounting, staging); every
    :meth:`cut` additionally enqueues the window with the owning
    :class:`DetectionClient` for asynchronous shipping.
    """

    def __init__(
        self, client: "DetectionClient", label: str, capacity: int
    ) -> None:
        super().__init__(capacity)
        self._client = client
        self._label = label

    @property
    def label(self) -> str:
        return self._label

    def cut(self, current_state) -> Segment:
        segment = super().cut(current_state)
        self._client._on_window(self._label, segment)
        return segment


class _Stream:
    """Client-side state of one monitored stream."""

    def __init__(
        self,
        label: str,
        monitor,
        sink: RemoteEventSink,
        declaration_text: str,
        overrides: dict,
    ) -> None:
        self.label = label
        self.monitor = monitor
        self.sink = sink
        self.declaration_text = declaration_text
        self.overrides = overrides
        #: Window frames captured but not yet acked (replay buffer).
        self.pending: list[dict] = []
        #: Prefix of ``pending`` already sent on the *current* connection.
        self.sent = 0
        #: Highest window sequence the server has acked.
        self.acked = -1
        self.next_seq = 0
        #: Loss accounting carried into the next captured window: windows
        #: shed from the replay buffer and the events they held.
        self.carried_lost_windows = 0
        self.carried_lost_events = 0
        self.windows_captured = 0
        self.windows_evicted = 0
        self.events_lost = 0

    def spec(self) -> dict:
        entry = {"label": self.label, "declaration": self.declaration_text}
        entry.update(self.overrides)
        return entry


class DetectionClient:
    """Ships checkpoint windows to a :class:`DetectionServer`, resiliently.

    Parameters
    ----------
    kernel:
        The workload's kernel — capture timestamps, backoff scheduling
        and heartbeats all run on its clock.
    connector:
        Zero-argument callable returning a connection (an object with
        ``send(bytes) -> bool``, ``receive() -> bytes``, ``close()``,
        ``alive``) or ``None`` when the server is unreachable.  May
        raise; the client treats that as unreachable too.
    name:
        Human-readable client name (prefixes server-side stream labels).
    interval:
        Checkpoint period, in kernel time (drives heartbeat defaults).
    replay_limit:
        Per-stream bound on buffered unacked windows; beyond it the
        oldest window is shed with explicit loss accounting.
    seed:
        Seeds backoff jitter and the deterministic resume token.
    """

    def __init__(
        self,
        kernel: Kernel,
        connector: Callable[[], object],
        *,
        name: str = "client",
        interval: float = 5.0,
        replay_limit: int = 64,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        backoff_base: float = 0.5,
        backoff_max: float = 30.0,
        jitter: float = 0.25,
        seed: int = 0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        if replay_limit < 1:
            raise ValueError(
                f"replay_limit must be >= 1, got {replay_limit!r}"
            )
        self.kernel = kernel
        self.connector = connector
        self.name = name
        self.interval = interval
        self.replay_limit = replay_limit
        self.heartbeat_interval = (
            2.0 * interval if heartbeat_interval is None else heartbeat_interval
        )
        self.heartbeat_timeout = (
            6.0 * interval if heartbeat_timeout is None else heartbeat_timeout
        )
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.jitter = jitter
        self._rng = random.Random(seed)
        #: Deterministic resume token: stable across client restarts with
        #: the same name/seed, which is what lets the server resume the
        #: session's streams.
        self.token = f"{name}-{seed}"
        self._streams: dict[str, _Stream] = {}
        self._conn = None
        self._decoder: Optional[FrameDecoder] = None
        #: "disconnected" | "handshaking" | "ready"
        self.state = "disconnected"
        self._retry_at = 0.0
        self._attempts = 0
        self._handshake_started = 0.0
        self._last_rx = 0.0
        self._last_ping = float("-inf")
        self.credits = 0
        self.connects = 0
        self.disconnects = 0
        self.reconnect_delays: list[float] = []
        self.windows_shipped = 0
        self.windows_acked = 0
        self.heartbeats_sent = 0
        self.backpressure_seen = 0
        self.server_resumed = 0
        #: Server error frames received (quarantines); should stay empty.
        self.server_errors: list[str] = []
        #: Unexpected local failures; the campaign asserts this is empty.
        self.errors: list[str] = []

    # -------------------------------------------------------------- streams

    def attach(
        self,
        target,
        *,
        label: Optional[str] = None,
        capacity: int = 256,
        tmax: Optional[float] = None,
        tio: Optional[float] = None,
        tlimit: Optional[float] = None,
    ):
        """Wire a monitor's history into this client as one stream.

        Returns the attached :class:`RemoteEventSink`.  The monitor's
        declaration is rendered and shipped in the handshake, so the
        server can build the shadow checker without sharing any code
        objects — the declaration text is the entire contract.
        """
        monitor = getattr(target, "monitor", target)
        name = label or monitor.name
        if name in self._streams:
            raise ValueError(f"stream {name!r} already attached")
        sink = RemoteEventSink(self, name, capacity)
        overrides = {
            key: value
            for key, value in zip(STREAM_OVERRIDES, (tmax, tio, tlimit))
            if value is not None
        }
        declaration: MonitorDeclaration = monitor.declaration
        stream = _Stream(name, monitor, sink, declaration.render(), overrides)
        self._streams[name] = stream
        monitor.core.attach_history(sink)
        if not sink.opened:
            sink.open(monitor.core.snapshot())
        return sink

    @property
    def streams(self) -> dict[str, _Stream]:
        return self._streams

    @property
    def pending_windows(self) -> int:
        return sum(len(s.pending) for s in self._streams.values())

    @property
    def connected(self) -> bool:
        return self.state == "ready"

    # -------------------------------------------------------------- capture

    def capture(self) -> int:
        """Phase 1 for every stream, inside one atomic section.

        Snapshots and cuts all attached sinks at one consistent instant;
        the resulting windows land in the replay buffers via
        :meth:`RemoteEventSink.cut` → :meth:`_on_window`.  Returns the
        number of windows captured.
        """
        streams = list(self._streams.values())
        if not streams:
            return 0

        def _cut_all() -> int:
            for stream in streams:
                snapshot = stream.monitor.core.snapshot()
                stream.sink.cut(snapshot)
            return len(streams)

        return self.kernel.atomic(_cut_all)

    def _on_window(self, label: str, segment: Segment) -> None:
        stream = self._streams.get(label)
        if stream is None:
            return  # sink detached or foreign cut: nothing to ship
        frame = window_frame(
            label,
            stream.next_seq,
            self.kernel.now(),
            segment,
            lost_windows=stream.carried_lost_windows,
            lost_events=stream.carried_lost_events,
        )
        stream.carried_lost_windows = 0
        stream.carried_lost_events = 0
        stream.next_seq += 1
        stream.pending.append(frame)
        stream.windows_captured += 1
        while len(stream.pending) > self.replay_limit:
            shed = stream.pending.pop(0)
            if stream.sent > 0:
                stream.sent -= 1
            lost = (
                len(shed["segment"]["events"])
                + shed["segment"]["dropped"]
                + shed["lost_events"]
            )
            # The shed window's loss rides on the *oldest unsent*
            # window so the server hears about the gap on this
            # connection's next send — never on a frame already on the
            # wire, whose bytes were encoded at send time.  The frame
            # just appended is always unsent, so the index is in range.
            survivor = stream.pending[stream.sent]
            survivor["lost_windows"] += 1 + shed["lost_windows"]
            survivor["lost_events"] += lost
            stream.windows_evicted += 1
            stream.events_lost += lost

    # ------------------------------------------------------------- transport

    def _safe_close(self) -> None:
        conn, self._conn = self._conn, None
        self._decoder = None
        if conn is not None:
            try:
                conn.close()
            except Exception:  # noqa: BLE001 — transport must never raise out
                pass

    def _schedule_retry(self, reason: str) -> None:
        delay = min(
            self.backoff_base * (2.0 ** min(self._attempts, 16)),
            self.backoff_max,
        )
        delay *= 1.0 + self._rng.random() * self.jitter
        self._attempts += 1
        self._retry_at = self.kernel.now() + delay
        self.reconnect_delays.append(delay)
        del reason  # kept for debuggability in subclasses / tracing

    def _drop_connection(self, reason: str) -> None:
        if self._conn is not None or self.state != "disconnected":
            self.disconnects += 1
        self._safe_close()
        self.state = "disconnected"
        self.credits = 0
        for stream in self._streams.values():
            stream.sent = 0  # unacked frames will replay on reconnect
        self._schedule_retry(reason)

    def _try_connect(self) -> None:
        now = self.kernel.now()
        if now < self._retry_at:
            return
        try:
            conn = self.connector()
        except Exception as exc:  # noqa: BLE001 — unreachable server is data
            conn = None
            del exc
        if conn is None or not getattr(conn, "alive", False):
            self._schedule_retry("connect failed")
            return
        self._conn = conn
        self._decoder = FrameDecoder()
        hello = hello_frame(
            self.name,
            self.token,
            [stream.spec() for stream in self._streams.values()],
            {label: s.acked for label, s in self._streams.items()},
        )
        if not self._send_bytes(encode_frame(hello)):
            self._drop_connection("hello send failed")
            return
        self.state = "handshaking"
        self._handshake_started = now
        self._last_rx = now
        self._last_ping = float("-inf")
        self.connects += 1

    def _send_bytes(self, payload: bytes) -> bool:
        conn = self._conn
        if conn is None:
            return False
        try:
            return bool(conn.send(payload))
        except Exception as exc:  # noqa: BLE001 — dead socket is data
            del exc
            return False

    # --------------------------------------------------------------- frames

    def _apply_watermarks(self, watermarks: dict) -> None:
        for label, mark in watermarks.items():
            stream = self._streams.get(label)
            if stream is None or not isinstance(mark, int):
                continue
            if mark > stream.acked:
                stream.acked = mark
            while stream.pending and stream.pending[0]["seq"] <= mark:
                stream.pending.pop(0)
                if stream.sent > 0:
                    stream.sent -= 1
                self.windows_acked += 1

    def _handle_frame(self, frame: dict) -> None:
        kind = frame_type(frame)
        self._last_rx = self.kernel.now()
        if kind == "welcome":
            self._apply_watermarks(frame.get("watermarks", {}))
            self.credits = int(frame.get("credits", 0))
            if frame.get("resumed"):
                self.server_resumed += 1
            self.state = "ready"
            self._attempts = 0
        elif kind == "ack":
            self._apply_watermarks(frame.get("watermarks", {}))
            self.credits = int(frame.get("credits", 0))
        elif kind == "backpressure":
            self.backpressure_seen += 1
            self.credits = 0
        elif kind == "pong":
            pass  # _last_rx update above is the point
        elif kind == "error":
            self.server_errors.append(str(frame.get("reason", "")))
            self._drop_connection("server error frame")
        # Unknown/unexpected kinds are ignored: a newer server may speak
        # frames this client does not know, and ignoring them is safe.

    def _receive(self) -> bool:
        """Drain the connection's inbound bytes; False = connection died."""
        conn, decoder = self._conn, self._decoder
        if conn is None or decoder is None:
            return False
        try:
            data = conn.receive()
        except Exception as exc:  # noqa: BLE001 — dead socket is data
            del exc
            return False
        if data:
            try:
                frames = decoder.feed(data)
            except FrameError:
                return False  # garbled server stream: reconnect
            for frame in frames:
                self._handle_frame(frame)
                if self.state == "disconnected":
                    return True  # error frame already tore us down
        return getattr(conn, "alive", False)

    # ----------------------------------------------------------------- tick

    def tick(self) -> None:
        """One turn of the client state machine.  Never raises."""
        try:
            self._tick()
        except Exception as exc:  # noqa: BLE001 — the workload must survive
            self.errors.append(f"{type(exc).__name__}: {exc}")
            try:
                self._drop_connection("internal error")
            except Exception:  # noqa: BLE001 — last-ditch containment
                self.state = "disconnected"
                self._conn = None

    def _tick(self) -> None:
        if self.state == "disconnected":
            self._try_connect()
            if self.state == "disconnected":
                return
        if not self._receive():
            self._drop_connection("connection lost")
            return
        if self.state == "disconnected":
            return  # torn down while draining (server error frame)
        now = self.kernel.now()
        if now - self._last_rx > self.heartbeat_timeout:
            self._drop_connection("heartbeat timeout")
            return
        if self.state == "handshaking":
            if now - self._handshake_started > self.heartbeat_timeout:
                self._drop_connection("handshake timeout")
            return
        # state == "ready": ship unsent windows while credits last,
        # round-robin across streams so one chatty stream cannot starve
        # the others.
        streams = [s for s in self._streams.values() if s.sent < len(s.pending)]
        while self.credits > 0 and streams:
            for stream in list(streams):
                if self.credits <= 0:
                    break
                if stream.sent >= len(stream.pending):
                    streams.remove(stream)
                    continue
                frame = stream.pending[stream.sent]
                if not self._send_bytes(encode_frame(frame)):
                    self._drop_connection("window send failed")
                    return
                stream.sent += 1
                self.credits -= 1
                self.windows_shipped += 1
            streams = [
                s for s in streams if s.sent < len(s.pending)
            ]
        if (
            now - self._last_rx > self.heartbeat_interval
            and now - self._last_ping > self.heartbeat_interval
        ):
            if self._send_bytes(encode_frame(ping_frame(now))):
                self._last_ping = now
                self.heartbeats_sent += 1
            else:
                self._drop_connection("ping send failed")

    def close(self) -> None:
        """Orderly goodbye (best effort) and teardown."""
        if self._conn is not None and self.state == "ready":
            self._send_bytes(encode_frame(bye_frame()))
        self._safe_close()
        self.state = "disconnected"

    # ------------------------------------------------------------ inspection

    def stats(self) -> dict:
        return {
            "state": self.state,
            "connects": self.connects,
            "disconnects": self.disconnects,
            "windows_captured": sum(
                s.windows_captured for s in self._streams.values()
            ),
            "windows_shipped": self.windows_shipped,
            "windows_acked": self.windows_acked,
            "windows_evicted": sum(
                s.windows_evicted for s in self._streams.values()
            ),
            "events_lost": sum(s.events_lost for s in self._streams.values()),
            "pending_windows": self.pending_windows,
            "heartbeats_sent": self.heartbeats_sent,
            "backpressure_seen": self.backpressure_seen,
            "server_errors": list(self.server_errors),
            "errors": list(self.errors),
        }

    def __repr__(self) -> str:
        return (
            f"DetectionClient({self.name!r}, state={self.state}, "
            f"streams={len(self._streams)}, pending={self.pending_windows})"
        )


def client_process(
    client: DetectionClient,
    *,
    rounds: int,
    drain_rounds: int = 25,
) -> Iterator[Syscall]:
    """Kernel process running a client's capture/ship loop.

    Every ``client.interval`` it captures one window per stream and turns
    the state machine; after ``rounds`` captures it keeps ticking (up to
    ``drain_rounds`` extra intervals) until the replay buffers drain, so
    a run that ends while disconnected still delivers its tail after the
    reconnect, then says goodbye.
    """
    for _ in range(rounds):
        yield Delay(client.interval)
        client.capture()
        client.tick()
    for _ in range(drain_rounds):
        if client.pending_windows == 0 and client.state == "ready":
            break
        yield Delay(client.interval)
        client.tick()
    client.close()
