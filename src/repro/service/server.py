"""The detection ingestion daemon: remote windows into a local engine.

:class:`DetectionServer` is deliberately sans-IO: it consumes bytes
(:meth:`DetectionServer.feed`), produces reply bytes, and runs one
supervised evaluation round per :meth:`DetectionServer.poll`.  Transports
— the in-memory :class:`~repro.service.transport.SimNetwork` for
deterministic tests and chaos campaigns, or the real unix-socket loop in
:func:`serve` — only move bytes.

How a remote window is checked
------------------------------
The client runs phase 1 of the two-phase checkpoint *locally* (snapshot +
cut inside its own kernel's atomic section) and ships the frozen window.
The server parses the handshake's rendered declaration into a **shadow
monitor** registered with an ordinary
:class:`~repro.detection.engine.DetectionEngine` (``realtime_orders``
forced off: Algorithm 3 replays the shipped events, and the ``Tlimit``
sweep runs off the replayed Request-List).  Each window the shadow
monitor's breaker admits becomes a
:class:`~repro.detection.engine.CheckpointCapture` appended to the
engine's pending queue; :meth:`poll` drains the queue under the existing
:class:`~repro.detection.supervision.CheckpointSupervisor` discipline.
Everything downstream — per-monitor breakers, degraded-mode evaluation of
lossy windows, report streams — is the unmodified in-process machinery.

Exactly-once across reconnects and restarts
-------------------------------------------
Windows carry per-stream sequence numbers.  The server acks a window only
after its reports are journaled (:class:`ServiceJournal`, a report
journal like a durable shard's, plus stream watermarks) and the
per-stream watermark is advanced — so a client that never saw the ack
replays the window, the watermark skips the duplicate, and re-derived
reports are deduplicated by a **confidence-blind** key
(:func:`service_report_key`): a replayed window re-evaluated after a
server restart may only differ in confidence (the post-restart window is
stamped DEGRADED), and the journal keeps the first derivation.

Loss is visible, never silent
-----------------------------
A sequence gap (client shed windows), client-reported ``lost_events``,
the first window after a server restart (cold checker state), or a window
before it that the shadow monitor's breaker refused (acked, never
evaluated: the breaker is OPEN, or HALF_OPEN with its one probe window
already queued) all bump the reconstructed segment's ``dropped`` count,
which routes evaluation through the engine's degraded path: drop-tolerant
rules only, reports stamped
:attr:`~repro.detection.reports.Confidence.DEGRADED`, Algorithm-2
counters resynced.  A malformed frame or quota-abusing client quarantines
*that connection* — never the fleet.

Counters
--------
The server's own counters are declared once, in :data:`SERVICE_COUNTERS`;
:meth:`DetectionServer.metrics` and :meth:`DetectionServer.stats` both read
that table.  The shadow engine (its counters and breaker transitions) and
the round supervisor (its counters and audit-log events) export their own
families into the same registry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Optional, Union

from repro.detection.config import DetectorConfig
from repro.detection.engine import CheckpointCapture, DetectionEngine
from repro.detection.durability import (
    ExactlyOnceJournal,
    service_report_key,
)
from repro.detection.reports import FaultReport
from repro.detection.supervision import BreakerState, CheckpointSupervisor
from repro.errors import DeclarationError, RecoveryError, ServiceError
from repro.history.serialize import is_wire_time
from repro.history.sink import Segment
from repro.monitor.construct import Monitor
from repro.observability.export import write_metrics_json
from repro.observability.registry import Histogram, MetricsRegistry
from repro.monitor.declaration import MonitorDeclaration
from repro.service.framing import FrameDecoder, FrameError, encode_frame
from repro.service.protocol import (
    PROTOCOL_VERSION,
    STREAM_OVERRIDES,
    ProtocolError,
    ack_frame,
    backpressure_frame,
    error_frame,
    frame_type,
    pong_frame,
    segment_from_wire,
    welcome_frame,
)

__all__ = [
    "service_report_key",
    "SERVICE_COUNTERS",
    "ServiceConfig",
    "ServiceJournal",
    "DetectionServer",
    "serve",
]

#: ``_on_window`` builds each window's capture as the plain tuple record
#: it is, once per window.
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the ingestion plane (quotas, framing, backpressure).

    * ``window_credits`` — windows one connection may have in flight
      (sent, not yet acked) before the server replies with an explicit
      ``backpressure`` frame.  A connection exceeding **twice** this
      quota is quarantined as abusive.
    * ``max_frame_bytes`` — framing-level bound on one frame's body.
    * ``max_events_per_window`` — a window announcing more events is a
      protocol violation (poisoned client), not a big window.
    * ``max_streams`` — streams one handshake may register.
    """

    window_credits: int = 16
    max_frame_bytes: int = 8 << 20
    max_events_per_window: int = 50_000
    max_streams: int = 64

    def __post_init__(self) -> None:
        for name in (
            "window_credits",
            "max_events_per_window",
            "max_streams",
        ):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}"
                )
        if self.max_frame_bytes < 2:
            raise ValueError(
                f"max_frame_bytes must be >= 2, got {self.max_frame_bytes!r}"
            )


class ServiceJournal(ExactlyOnceJournal):
    """The server's exactly-once state: delivered reports + stream watermarks.

    A report journal (:class:`~repro.detection.durability
    .ExactlyOnceJournal`) keyed by the confidence-blind
    :func:`service_report_key`, whose file also holds ``watermark``
    records (``token``/``stream``/``seq``): ``advance`` records the
    highest durably-processed window per (token, stream).  With
    ``path=None`` it is memory-only (sim tests, ephemeral daemons).  A
    watermark line needs a str ``token`` and ``stream`` and an int
    ``seq`` >= 0, or reopening raises
    :class:`~repro.errors.RecoveryError` naming the file and the line.
    """

    key = staticmethod(service_report_key)

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        # Before the base loads the file: its watermark lines land here.
        self.watermarks: dict[tuple[str, str], int] = {}
        super().__init__(path)

    def _load_record(self, record: dict) -> None:
        if record.get("kind") != "watermark":
            super()._load_record(record)  # a report, or RecoveryError
            return
        token = record.get("token")
        stream = record.get("stream")
        seq = record.get("seq")
        # Exact types, not coercion: ``"seq": true`` read as 1 would skip
        # a replaying client's real window 1 as a duplicate.
        if (
            type(token) is not str
            or type(stream) is not str
            or type(seq) is not int
            or seq < 0
        ):
            raise RecoveryError(f"malformed watermark record {record!r}")
        if seq > self.watermarks.get((token, stream), -1):
            self.watermarks[(token, stream)] = seq

    def advance(self, token: str, stream: str, seq: int) -> None:
        """Record that windows of ``stream`` through ``seq`` are durably
        processed (evaluated + reports journaled)."""
        key = (token, stream)
        if seq <= self.watermarks.get(key, -1):
            return
        self.watermarks[key] = seq
        self._write(
            {"kind": "watermark", "token": token, "stream": stream, "seq": seq}
        )


class StreamState:
    """Server-side state of one (client token, stream label) pair."""

    def __init__(
        self,
        label: str,
        entry,
        declaration_text: str,
        watermark: int,
        *,
        resync_pending: bool,
    ) -> None:
        self.label = label
        #: The shadow monitor's RegisteredMonitor in the server engine.
        self.entry = entry
        self.declaration_text = declaration_text
        #: Highest durably-processed window sequence (−1 = none).
        self.watermark = watermark
        #: Highest *accepted* sequence — runs ahead of the watermark while
        #: windows sit in the evaluation queue.  Duplicate and gap checks
        #: use this, not the watermark: a burst of in-flight windows is
        #: continuous, not lossy.
        self.accepted = watermark
        #: True until the first window after a server restart has been
        #: applied: checker state is cold, so that window is forced lossy
        #: (evaluated degraded + Algorithm-2 resync) instead of silently
        #: CONFIRMED on a mid-stream cold start.
        self.resync_pending = resync_pending
        #: Events of a window the breaker refused, added to the next
        #: window's ``dropped`` count.
        self.owed = 0


class ClientSession:
    """Everything keyed by one resume token (survives reconnects)."""

    def __init__(self, token: str, name: str) -> None:
        self.token = token
        self.name = name
        self.streams: dict[str, StreamState] = {}
        #: conn_id currently bound to this session (None = disconnected).
        self.conn_id: Optional[int] = None


class _Connection:
    """Per-connection transport state (dies with the connection)."""

    def __init__(self, conn_id: int, max_frame_bytes: int) -> None:
        self.conn_id = conn_id
        self.decoder = FrameDecoder(max_frame_bytes=max_frame_bytes)
        self.session: Optional[ClientSession] = None
        self.alive = True
        self.quarantined = False
        #: Windows accepted from this connection, not yet acked.
        self.in_flight = 0
        self.ack_due = False


@dataclass(frozen=True)
class _WindowMeta:
    """Bookkeeping for one pending capture: who to ack, what to advance."""

    conn_id: int
    session: ClientSession
    stream: StreamState
    seq: int


#: The counters of a :class:`DetectionServer`, each declared once as
#: ``(attribute, family, help)``.  :meth:`DetectionServer.metrics` exports
#: one family per row; :meth:`DetectionServer.stats` reports each under its
#: attribute name.
SERVICE_COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("frames_received", "repro_service_frames_received_total",
     "Frames ingested from client connections."),
    ("frames_sent", "repro_service_frames_sent_total",
     "Frames emitted to clients (welcome/ack/backpressure/...)."),
    ("windows_accepted", "repro_service_windows_accepted_total",
     "Event windows admitted for evaluation."),
    ("windows_duplicate", "repro_service_windows_duplicate_total",
     "Windows rejected as already-delivered duplicates."),
    ("gaps_detected", "repro_service_gaps_total",
     "Sequence gaps detected in client streams."),
    ("lossy_windows", "repro_service_lossy_windows_total",
     "Windows evaluated with acknowledged client-side loss."),
    ("resync_windows", "repro_service_resync_windows_total",
     "Windows evaluated degraded after a stream resync."),
    ("backpressure_sent", "repro_service_backpressure_total",
     "Backpressure frames sent to over-credit connections."),
    ("quarantined_connections", "repro_service_quarantined_total",
     "Connections quarantined for protocol violations."),
    ("delivered_reports", "repro_service_delivered_reports_total",
     "Reports delivered through the service journal."),
    ("journal_deduplicated", "repro_service_journal_deduplicated_total",
     "Re-derived reports rejected by the service journal."),
)


class DetectionServer:
    """Sans-IO ingestion daemon core.

    Parameters
    ----------
    kernel:
        Substrate the shadow monitors live on.  Never *run* — the server
        only uses its clock (supervisor events, breaker timestamps).
        Pass the sim kernel in deterministic tests, a
        :class:`~repro.kernel.threads.ThreadKernel` in the real daemon.
    config:
        Base :class:`DetectorConfig` for shadow registrations
        (``realtime_orders`` is forced off — remote windows replay).
    service:
        :class:`ServiceConfig` quotas and framing bounds.
    durable_dir:
        When set, the :class:`ServiceJournal` lives at
        ``durable_dir/service.jsonl`` and :meth:`recover` resumes
        watermarks and delivered-report dedup after a restart.
    """

    def __init__(
        self,
        kernel,
        *,
        config: Optional[DetectorConfig] = None,
        service: Optional[ServiceConfig] = None,
        durable_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.kernel = kernel
        base = config or DetectorConfig()
        self.engine = DetectionEngine(
            kernel, replace(base, realtime_orders=False)
        )
        self.service = service or ServiceConfig()
        self.durable_dir = None if durable_dir is None else Path(durable_dir)
        journal_path = (
            None
            if self.durable_dir is None
            else self.durable_dir / "service.jsonl"
        )
        self.journal = ServiceJournal(journal_path)
        #: Supervises :meth:`_evaluation_round`, so retries and the stall
        #: watchdog apply to remote ingestion exactly as they do to local
        #: checkpoints.
        self.supervisor = CheckpointSupervisor(
            self._evaluation_round, kernel, self.engine.config
        )
        self._connections: dict[int, _Connection] = {}
        self._sessions: dict[str, ClientSession] = {}
        #: Watermarks loaded by :meth:`recover`, consumed by handshakes.
        self._recovered: dict[tuple[str, str], int] = {}
        self._pending_meta: list[_WindowMeta] = []
        #: Reports evaluated but not yet journal-admitted: a round that
        #: dies between ``evaluate_phase`` (destructive drain) and the
        #: journal write parks them here so the retry delivers them
        #: instead of acking their windows with the findings lost.
        self._pending_reports: list[FaultReport] = []
        #: Journal reports loaded at start-up (delivered by an earlier
        #: incarnation); :attr:`delivered` is the journal past them.
        self._preloaded = len(self.journal.reports)
        self.windows_accepted = 0
        self.windows_duplicate = 0
        self.gaps_detected = 0
        self.lossy_windows = 0
        self.resync_windows = 0
        self.backpressure_sent = 0
        self.quarantines: list[tuple[int, str]] = []
        self.frames_received = 0
        #: Frames emitted to clients (welcomes, acks, backpressure,
        #: pongs, errors) — the out half of frames in/out accounting.
        self.frames_sent = 0
        #: Wall-clock duration of each supervised evaluation round —
        #: the window-to-ack service latency histogram.
        self.ack_latency = Histogram()
        self._closed = False

    # ------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop accepting work and close the journal (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.engine.stop()
        self.journal.close()

    def recover(self) -> dict:
        """Resume exactly-once state from the durable journal.

        Loads delivered-report keys and per-stream watermarks (the
        journal did that at construction); marks every recovered stream
        ``resync_pending`` so its first post-restart window is evaluated
        degraded — the checker state is cold and mid-stream, and a cold
        window must never be silently CONFIRMED.  Streams re-register on
        the client's next handshake (it re-sends the declarations).
        """
        self._recovered = dict(self.journal.watermarks)
        return {
            "reports": len(self.journal.reports),
            "streams": len(self._recovered),
            "watermarks": {
                f"{token}/{stream}": seq
                for (token, stream), seq in sorted(self._recovered.items())
            },
        }

    # ----------------------------------------------------------- connections

    def connect(self, conn_id: int) -> None:
        """Register a new transport connection."""
        if conn_id in self._connections:
            raise ServiceError(f"connection {conn_id} already registered")
        self._connections[conn_id] = _Connection(
            conn_id, self.service.max_frame_bytes
        )

    def disconnect(self, conn_id: int) -> None:
        """Drop a transport connection (its session state survives)."""
        conn = self._connections.pop(conn_id, None)
        if conn is None:
            return
        conn.alive = False
        if conn.session is not None and conn.session.conn_id == conn_id:
            conn.session.conn_id = None

    def connection_alive(self, conn_id: int) -> bool:
        conn = self._connections.get(conn_id)
        return conn is not None and conn.alive and not conn.quarantined

    def connection_quarantined(self, conn_id: int) -> bool:
        conn = self._connections.get(conn_id)
        return conn is not None and conn.quarantined

    def _quarantine(self, conn: _Connection, reason: str) -> bytes:
        conn.quarantined = True
        conn.alive = False
        self.quarantines.append((conn.conn_id, reason))
        if conn.session is not None and conn.session.conn_id == conn.conn_id:
            conn.session.conn_id = None
        return encode_frame(error_frame(reason))

    # ---------------------------------------------------------------- ingest

    def feed(self, conn_id: int, data: bytes) -> bytes:
        """Consume bytes from one connection; return immediate replies.

        A framing or protocol violation quarantines the connection: the
        reply ends with an ``error`` frame and the transport should close
        the connection after delivering it.  Other connections are
        untouched — one poisoned client never stalls the fleet.
        """
        conn = self._connections.get(conn_id)
        if conn is None:
            raise ServiceError(f"feed from unknown connection {conn_id}")
        if not conn.alive or self._closed:
            return b""
        replies: list[bytes] = []
        try:
            frames = conn.decoder.feed(data)
        except FrameError as exc:
            return self._quarantine(conn, f"malformed frame: {exc}")
        for frame in frames:
            self.frames_received += 1
            try:
                kind = frame_type(frame)
                if kind == "hello":
                    replies.append(self._on_hello(conn, frame))
                elif kind == "window":
                    reply = self._on_window(conn, frame)
                    if reply:
                        replies.append(reply)
                elif kind == "ping":
                    replies.append(
                        encode_frame(pong_frame(frame.get("sent_at", 0.0)))
                    )
                elif kind == "bye":
                    conn.alive = False
                    break
                elif kind in ("pong", "ack", "welcome", "backpressure"):
                    # Server-to-client frames echoed back: ignore quietly.
                    continue
                else:
                    raise ProtocolError(f"unexpected frame type {kind!r}")
            except ProtocolError as exc:
                replies.append(self._quarantine(conn, str(exc)))
                break
            if conn.quarantined or not conn.alive:
                # A handler quarantined the connection itself (e.g. the
                # ingest quota): the rest of the batch is dead bytes.
                break
        self.frames_sent += len(replies)
        return b"".join(replies)

    def _on_hello(self, conn: _Connection, frame: dict) -> bytes:
        version = frame.get("version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: server {PROTOCOL_VERSION}, "
                f"client {version!r}"
            )
        token = frame.get("token")
        name = frame.get("name", "client")
        streams = frame.get("streams")
        resume = frame.get("resume", {})
        if not isinstance(token, str) or not token:
            raise ProtocolError("hello without a session token")
        if not isinstance(streams, list) or not streams:
            raise ProtocolError("hello without streams")
        if not isinstance(resume, dict):
            raise ProtocolError(f"malformed resume map: {resume!r}")
        for label, mark in resume.items():
            # Exact type: a bool or a float here would resume past windows
            # the server never saw, skipping them as duplicates.
            if type(mark) is not int or mark < -1:
                raise ProtocolError(
                    f"stream {label!r}: malformed resume watermark {mark!r}"
                )
        if len(streams) > self.service.max_streams:
            raise ProtocolError(
                f"hello registers {len(streams)} streams > "
                f"max_streams {self.service.max_streams}"
            )
        session = self._sessions.get(token)
        resumed = session is not None
        if session is None:
            session = ClientSession(token, str(name))
            self._sessions[token] = session
        if session.conn_id is not None and session.conn_id != conn.conn_id:
            # The token moved to a new connection (silent death of the
            # old one): the newest handshake wins, the stale connection
            # is cut loose.
            stale = self._connections.get(session.conn_id)
            if stale is not None:
                stale.alive = False
        session.conn_id = conn.conn_id
        conn.session = session
        for spec in streams:
            self._register_stream(session, spec, resume)
        watermarks = {
            label: stream.watermark
            for label, stream in session.streams.items()
        }
        credits = max(0, self.service.window_credits - conn.in_flight)
        return encode_frame(
            welcome_frame(
                watermarks,
                credits,
                resumed=resumed
                or any(key[0] == token for key in self._recovered),
            )
        )

    def _register_stream(
        self, session: ClientSession, spec: dict, resume: dict
    ) -> None:
        if not isinstance(spec, dict):
            raise ProtocolError(f"malformed stream spec: {spec!r}")
        label = spec.get("label")
        text = spec.get("declaration")
        if not isinstance(label, str) or not label:
            raise ProtocolError(f"stream spec without a label: {spec!r}")
        if not isinstance(text, str) or not text:
            raise ProtocolError(f"stream {label!r} without a declaration")
        existing = session.streams.get(label)
        if existing is not None:
            if existing.declaration_text != text:
                raise ProtocolError(
                    f"stream {label!r} re-registered with a different "
                    "declaration"
                )
            return
        try:
            declaration = MonitorDeclaration.parse(text)
        except DeclarationError as exc:
            raise ProtocolError(
                f"stream {label!r}: undeclarable monitor: {exc}"
            ) from exc
        overrides = {
            key: spec[key]
            for key in STREAM_OVERRIDES
            if key in spec
        }
        for key, value in overrides.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ProtocolError(
                    f"stream {label!r}: override {key} must be a number, "
                    f"got {value!r}"
                )
        try:
            entry_config = replace(
                self.engine.config, realtime_orders=False, **overrides
            )
        except (TypeError, ValueError) as exc:
            # Out-of-range overrides (tmax=-1, ...) are the client's
            # fault, not the fleet's: quarantine this connection.
            raise ProtocolError(
                f"stream {label!r}: invalid override: {exc}"
            ) from exc
        shadow = Monitor(self.kernel, declaration)
        entry = self.engine.register(
            shadow, entry_config, label=f"{session.name}:{label}"
        )
        recovered = self._recovered.get((session.token, label), -1)
        watermark = max(recovered, resume.get(label, -1))
        session.streams[label] = StreamState(
            label,
            entry,
            text,
            watermark,
            resync_pending=recovered >= 0,
        )

    def _on_window(self, conn: _Connection, frame: dict) -> bytes:
        session = conn.session
        if session is None:
            raise ProtocolError("window before hello")
        label = frame.get("stream")
        stream = session.streams.get(label) if isinstance(label, str) else None
        if stream is None:
            raise ProtocolError(f"window for unknown stream {label!r}")
        try:
            seq = frame["seq"]
            taken_at = frame["taken_at"]
            raw_segment = frame["segment"]
        except KeyError as exc:
            raise ProtocolError(f"malformed window frame: {exc}") from exc
        lost_windows = frame.get("lost_windows", 0)
        lost_events = frame.get("lost_events", 0)
        # Exact types, not coercion: ``"seq": true`` read as 1 would ack
        # watermark 1 and skip the client's real window 1 as a duplicate.
        for name, value in (
            ("seq", seq),
            ("lost_windows", lost_windows),
            ("lost_events", lost_events),
        ):
            if type(value) is not int or value < 0:
                raise ProtocolError(
                    f"window {name} must be a non-negative int, got {value!r}"
                )
        if not is_wire_time(taken_at):
            raise ProtocolError(
                f"window taken_at must be a finite number, got {taken_at!r}"
            )
        taken_at = float(taken_at)
        events = raw_segment.get("events") if isinstance(raw_segment, dict) else None
        if not isinstance(events, list):
            raise ProtocolError("window without an event list")
        if len(events) > self.service.max_events_per_window:
            raise ProtocolError(
                f"window carries {len(events)} events > "
                f"max_events_per_window {self.service.max_events_per_window}"
            )
        if seq <= stream.accepted:
            # Replayed duplicate — already durably processed, or already
            # accepted and awaiting evaluation (the client missed our
            # ack): skip, but make sure the next poll re-acks so the
            # client prunes it.
            self.windows_duplicate += 1
            conn.ack_due = True
            return b""
        quota = self.service.window_credits
        if conn.in_flight >= 2 * quota:
            return self._quarantine(
                conn,
                f"ingest quota exceeded: {conn.in_flight} windows in "
                f"flight > {2 * quota}",
            )
        segment = segment_from_wire(raw_segment)
        gap = seq - stream.accepted - 1 if stream.accepted >= 0 else 0
        extra = lost_events + stream.owed
        stream.owed = 0
        if gap > 0:
            self.gaps_detected += 1
            if extra == 0:
                extra = 1  # continuity lost, size unknown: still lossy
        if stream.resync_pending:
            self.resync_windows += 1
            if segment.dropped + extra == 0:
                extra = 1  # cold post-restart checker: force degraded
        stream.resync_pending = False
        if extra:
            segment = Segment(
                segment.previous,
                segment.events,
                segment.current,
                segment.dropped + extra,
            )
        entry = stream.entry
        if entry.breaker.allow(taken_at) and not self._probe_queued(entry):
            self.engine._pending_captures.append(
                _new_tuple(
                    CheckpointCapture,
                    (entry, segment.current, segment, None, taken_at),
                )
            )
        else:
            # Quarantined shadow monitor, or a half-open one whose probe
            # window is still queued: the window sits out, as a local
            # capture would, but its events are gone with it — the next
            # window owes them as loss (degraded + Algorithm-2 resync).
            entry.checkpoints_skipped += 1
            stream.owed = len(segment.events) + segment.dropped
        self._pending_meta.append(
            _WindowMeta(conn.conn_id, session, stream, seq)
        )
        conn.in_flight += 1
        stream.accepted = seq
        self.windows_accepted += 1
        if conn.in_flight >= quota:
            self.backpressure_sent += 1
            return encode_frame(
                backpressure_frame(
                    f"{conn.in_flight} windows in flight >= credit "
                    f"quota {quota}",
                    in_flight=conn.in_flight,
                )
            )
        return b""

    def _probe_queued(self, entry) -> bool:
        """Whether ``entry``'s breaker is HALF_OPEN with its probe window
        already queued.  The breaker is asked at feed time, so without
        this every window fed before the next poll would be queued as a
        probe, and those behind a failing probe would be checked on a
        monitor the probe has just quarantined again."""
        return entry.breaker.state is BreakerState.HALF_OPEN and any(
            capture.entry is entry for capture in self.engine._pending_captures
        )

    # ------------------------------------------------------------ evaluation

    def _evaluation_round(self) -> list[FaultReport]:
        """One supervised round: evaluate pending captures, journal, ack.

        Called by the :class:`CheckpointSupervisor`; an exception here is
        a supervisor ``failure`` event and the round is retried with
        backoff.
        """
        round_started = perf_counter()
        meta = self._pending_meta
        pending = self._pending_reports
        self.lossy_windows += sum(
            1
            for capture in self.engine._pending_captures
            if capture.segment.dropped
        )
        pending.extend(self.engine.evaluate_phase())
        admitted: list[FaultReport] = []
        while pending:
            # Pop only after a successful admit: if the journal throws
            # mid-drain, the retry resumes at the exact report that
            # failed (admit itself dedups, so no double delivery).
            report = pending[0]
            if self.journal.admit(report):
                admitted.append(report)
            pending.pop(0)
        for item in meta:
            if item.seq > item.stream.watermark:
                item.stream.watermark = item.seq
            self.journal.advance(
                item.session.token, item.stream.label, item.seq
            )
        self._pending_meta = []
        for item in meta:
            conn = self._connections.get(item.conn_id)
            if conn is not None and conn.alive:
                if conn.in_flight > 0:
                    conn.in_flight -= 1
                conn.ack_due = True
        self.engine.checkpoints_run += 1
        self.ack_latency.observe(perf_counter() - round_started)
        return admitted

    def poll(self) -> dict[int, bytes]:
        """Run one supervised evaluation round; return acks per connection.

        Safe to call on every transport tick: with nothing pending it
        only feeds the stall watchdog and flushes due re-acks.
        """
        if self._closed:
            return {}
        if self.engine._pending_captures or self._pending_meta:
            # _pending_meta alone means a previous round died *after*
            # evaluate_phase drained the captures (journal write failed):
            # the un-acked windows still need their journal/ack half, and
            # a backpressured client will never send the new window that
            # used to be the only retry trigger.
            self.supervisor.attempt()
        else:
            self.supervisor.note_idle()
        self.supervisor.check_stall()
        out: dict[int, bytes] = {}
        for conn in self._connections.values():
            if not conn.alive or not conn.ack_due or conn.session is None:
                continue
            conn.ack_due = False
            watermarks = {
                label: stream.watermark
                for label, stream in conn.session.streams.items()
            }
            credits = max(0, self.service.window_credits - conn.in_flight)
            out[conn.conn_id] = encode_frame(ack_frame(watermarks, credits))
        self.frames_sent += len(out)
        return out

    # ------------------------------------------------------------ inspection

    @property
    def delivered(self) -> list[FaultReport]:
        """Reports this incarnation's journal admitted, in delivery order."""
        return self.journal.reports[self._preloaded:]

    @property
    def quarantined_connections(self) -> int:
        return len(self.quarantines)

    @property
    def delivered_reports(self) -> int:
        return len(self.delivered)

    @property
    def journal_deduplicated(self) -> int:
        return self.journal.deduplicated

    def metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """The shadow engine's and the round supervisor's families, plus
        the ingestion plane's.

        One family per :data:`SERVICE_COUNTERS` row, live connection,
        session and stream gauges, and the supervised-round
        (window-to-ack) latency histogram.
        """
        registry = self.engine.metrics(registry)
        self.supervisor.metrics(registry)
        registry.count_table(self, SERVICE_COUNTERS)

        def gauge(name: str, help: str, value: float) -> None:
            registry.gauge(name, help).labels().set(value)

        gauge(
            "repro_service_connections",
            "Live transport connections.",
            len(self._connections),
        )
        gauge(
            "repro_service_sessions",
            "Known client sessions (resume tokens).",
            len(self._sessions),
        )
        gauge(
            "repro_service_streams",
            "Registered client streams across sessions.",
            sum(len(s.streams) for s in self._sessions.values()),
        )
        registry.histogram(
            "repro_phase_latency_seconds",
            "Wall-clock latency per detection phase.",
            ("phase",),
        ).labels(phase="ack").merge(self.ack_latency)
        return registry

    def stats(self) -> dict:
        """Counters for the CLI envelope and campaign assertions."""
        return {
            "connections": len(self._connections),
            "sessions": len(self._sessions),
            "streams": sum(
                len(session.streams) for session in self._sessions.values()
            ),
            **{attr: getattr(self, attr) for attr, __, __ in SERVICE_COUNTERS},
            "evaluations_run": self.engine.evaluations_run,
            "degraded_windows": self.engine.degraded_windows,
            "supervisor_completed": self.supervisor.checkpoints_completed,
            "supervisor_retries": self.supervisor.retries_performed,
        }

    def __repr__(self) -> str:
        return (
            f"DetectionServer(sessions={len(self._sessions)}, "
            f"windows={self.windows_accepted}, "
            f"delivered={self.delivered_reports}, "
            f"quarantined={self.quarantined_connections})"
        )


# -------------------------------------------------------------- real daemon


def serve(
    socket_path: Union[str, Path],
    *,
    server: Optional[DetectionServer] = None,
    config: Optional[DetectorConfig] = None,
    service: Optional[ServiceConfig] = None,
    durable_dir: Optional[Union[str, Path]] = None,
    poll_interval: float = 0.05,
    runtime: Optional[float] = None,
    ready_file: Optional[Union[str, Path]] = None,
    metrics_path: Optional[Union[str, Path]] = None,
    metrics_every: Optional[float] = None,
) -> dict:
    """Run a :class:`DetectionServer` behind a unix stream socket.

    Blocks until ``runtime`` seconds elapse (None = until SIGTERM/SIGINT)
    and returns the server's final :meth:`~DetectionServer.stats`.
    ``ready_file`` is touched once the socket is listening, so
    orchestration (the ``service-smoke`` harness) can wait for it.  The
    loop is single-threaded: select, feed, poll, write — all ingestion
    robustness lives in the sans-IO core, not here.

    ``metrics_path`` opts into metrics export: the daemon dumps its
    :meth:`~DetectionServer.metrics` snapshot there as JSON on shutdown,
    and every ``metrics_every`` wall seconds while running (a scrape
    file for sidecar collectors).
    """
    import selectors
    import signal
    import socket as socketlib
    import time

    from repro.kernel.threads import ThreadKernel

    path = Path(socket_path)
    if server is None:
        server = DetectionServer(
            ThreadKernel(),
            config=config,
            service=service,
            durable_dir=durable_dir,
        )
        if durable_dir is not None:
            server.recover()
    stopping = False

    def _stop(signum, frame) -> None:  # noqa: ARG001 — signal signature
        nonlocal stopping
        stopping = True

    try:
        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    except ValueError:
        pass  # not the main thread (tests): rely on runtime
    if path.exists():
        path.unlink()
    listener = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    listener.bind(str(path))
    listener.listen(64)
    listener.setblocking(False)
    selector = selectors.DefaultSelector()
    selector.register(listener, selectors.EVENT_READ, data=None)
    sockets: dict[int, socketlib.socket] = {}
    outboxes: dict[int, bytearray] = {}
    next_id = 1
    if metrics_every is not None and metrics_every <= 0:
        raise ValueError(f"metrics_every must be positive, got {metrics_every}")
    if metrics_every is not None and metrics_path is None:
        raise ValueError("metrics_every requires metrics_path")
    if ready_file is not None:
        Path(ready_file).write_text("ready\n", encoding="utf-8")
    deadline = None if runtime is None else time.monotonic() + runtime
    next_dump = (
        None if metrics_every is None else time.monotonic() + metrics_every
    )

    def _enqueue(conn_id: int, payload: bytes) -> None:
        if payload and conn_id in sockets:
            outboxes[conn_id] += payload

    def _drop(conn_id: int) -> None:
        sock = sockets.pop(conn_id, None)
        outboxes.pop(conn_id, None)
        if sock is not None:
            try:
                selector.unregister(sock)
            except (KeyError, ValueError):
                pass
            sock.close()
        server.disconnect(conn_id)

    def _flush(conn_id: int) -> None:
        sock = sockets.get(conn_id)
        box = outboxes.get(conn_id)
        if sock is None or not box:
            return
        try:
            sent = sock.send(bytes(box))
            del box[:sent]
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            _drop(conn_id)

    try:
        while not stopping:
            if deadline is not None and time.monotonic() >= deadline:
                break
            events = selector.select(timeout=poll_interval)
            for key, __ in events:
                if key.data is None:
                    try:
                        sock, __addr = listener.accept()
                    except OSError:
                        continue
                    sock.setblocking(False)
                    conn_id = next_id
                    next_id += 1
                    sockets[conn_id] = sock
                    outboxes[conn_id] = bytearray()
                    selector.register(
                        sock, selectors.EVENT_READ, data=conn_id
                    )
                    server.connect(conn_id)
                    continue
                conn_id = key.data
                sock = sockets.get(conn_id)
                if sock is None:
                    continue
                try:
                    data = sock.recv(1 << 16)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    _drop(conn_id)
                    continue
                if not data:
                    _drop(conn_id)
                    continue
                _enqueue(conn_id, server.feed(conn_id, data))
            for conn_id, payload in server.poll().items():
                _enqueue(conn_id, payload)
            for conn_id in list(sockets):
                _flush(conn_id)
                if not server.connection_alive(conn_id) and not outboxes.get(
                    conn_id
                ):
                    _drop(conn_id)
            if next_dump is not None and time.monotonic() >= next_dump:
                write_metrics_json(str(metrics_path), server.metrics())
                next_dump = time.monotonic() + metrics_every
    finally:
        stats = server.stats()
        if metrics_path is not None:
            write_metrics_json(str(metrics_path), server.metrics())
        server.close()
        for conn_id in list(sockets):
            _drop(conn_id)
        selector.close()
        listener.close()
        if path.exists():
            path.unlink()
    return stats
