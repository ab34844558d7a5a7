"""Write-ahead logging for the history information database.

The paper's Section 3.1 history database is the audit trail every FD-Rule
is evaluated against — and in the in-memory sinks it dies with the
process.  :class:`WriteAheadLog` is an :class:`~repro.history.sink.EventSink`
that keeps the usual in-memory open window *and* appends every recorded
event to an on-disk JSONL segment (the compact JSON of one
:func:`~repro.history.serialize.event_to_row` row per line) before the
recording call returns, so a restarted detector can rebuild the window
it lost (see :mod:`repro.detection.durability`).

Durability model
----------------
The crash model is **process death**, not power loss: segment files are
opened line-buffered, so every complete line is in the OS page cache the
moment ``record`` returns and survives the process dying at any later
instant.  ``os.fsync`` hardening against machine crashes is the ``fsync``
policy:

* ``"always"`` — fsync after every appended event (safest, slowest),
* ``"interval"`` — fsync every ``fsync_every`` appends and at every
  checkpoint cut (bounded loss window, the default),
* ``"never"`` — never fsync and block-buffer writes (fastest; a crash
  may lose the buffered tail, which replay's torn-tail handling absorbs).

Under every policy an explicit ``flush(sync=True)`` fsyncs only when bytes
reached the log since its last fsync: a checkpoint's cut has usually just
synced, so the snapshot's flush that follows skips a second fsync.  The
policy is resolved once, when the log opens, into the number of unsynced
appends that triggers an fsync.

Timing
------
Every fsync is timed into ``fsync_latency`` (the ``wal_fsync`` phase).
Appends are sampled: the first append and every 64th after it are timed
into ``append_latency`` (the ``wal_append`` phase), so its count is
⌈appends / 64⌉.  Timing each one would add two clock reads and a locked
histogram update to every recorded event, about a third of an unsynced
append.

Segments rotate once the active file passes ``segment_bytes``; replay
(:meth:`iter_durable_events`) walks all segments in the order of their
numbers (:func:`file_number`).  Reopening and replay decode every line
through :func:`~repro.history.serialize.events_from_rows`, the decoder
of every other event boundary.  A torn tail — the signature of dying
mid-append: a final line that does not decode or holds a JSON scalar, or
digit lines left by a length prefix — is tolerated: it is physically
truncated away when the log is reopened and silently skipped during
replay.  Both find it with :func:`~repro.service.framing.good_jsonl_prefix`,
so they agree on which bytes are torn.  Any other line that is not an
event row, a torn line before the tail, a line that is not valid UTF-8,
a mistyped field or the keyed object of earlier versions, is corruption
and raises :class:`~repro.errors.HistoryError` naming the segment and
the line.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import IO, Iterator, Optional, Union

from repro.errors import HistoryError
from repro.history.events import SchedulingEvent
from repro.history.serialize import (
    event_to_json_line,
    event_to_json_line_reusing_time,
    events_from_rows,
)
from repro.history.sink import EventSink
from repro.history.states import SchedulingState
from repro.observability.registry import Histogram, MetricsRegistry
from repro.service.framing import good_jsonl_prefix

__all__ = ["FSYNC_POLICIES", "WriteAheadLog", "file_number"]

#: Valid values of the ``fsync`` policy parameter.
FSYNC_POLICIES = ("always", "interval", "never")

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"

#: ``append_latency`` times the first append and every this-many-th after
#: it (see "Timing" above).
_APPEND_SAMPLE_EVERY = 64


def file_number(path: Path) -> int:
    """The number in a ``<name>-<number>.<suffix>`` file name: WAL
    segments are ordered by it, not by name, so ``segment-1000000.jsonl``
    follows ``segment-999999.jsonl``."""
    return int(path.stem.rpartition("-")[2])


class WriteAheadLog(EventSink):
    """Append-only JSONL event sink with crash recovery support.

    Parameters
    ----------
    directory:
        Where segment files live; created if missing.  Reopening a
        directory with existing segments resumes appending to the last
        one (after truncating any torn tail) and continues its sequence
        numbering.
    fsync:
        One of :data:`FSYNC_POLICIES` (see the module docstring).
    fsync_every:
        Appends between fsyncs under the ``"interval"`` policy.
    segment_bytes:
        Rotation threshold: an append that finds the active segment at or
        past this size starts a new segment first.
    virtual_clock:
        True when event times come from a virtual clock (the sim
        kernel's), which gives every event at one instant the same float;
        lines are then encoded by
        :func:`~repro.history.serialize.event_to_json_line_reusing_time`.
        The durable shard and the WAL overhead bench set it from their
        kernel.

    The log never stages: every event is written before ``record``
    returns.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        fsync: str = "interval",
        fsync_every: int = 32,
        segment_bytes: int = 1 << 20,
        virtual_clock: bool = False,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise HistoryError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_every < 1:
            raise HistoryError(f"fsync_every must be >= 1, got {fsync_every}")
        if segment_bytes < 1:
            raise HistoryError(
                f"segment_bytes must be >= 1, got {segment_bytes}"
            )
        super().__init__()
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.fsync_every = fsync_every
        self.segment_bytes = segment_bytes
        self._open_window: list[SchedulingEvent] = []
        self._replaying = False
        self._encode_line = (
            event_to_json_line_reusing_time
            if virtual_clock
            else event_to_json_line
        )
        # The policy as the append path reads it: fsync once this many
        # appends are unsynced (0 = never).
        self._sync_every = {"always": 1, "interval": fsync_every}.get(fsync, 0)
        self._appends_since_fsync = 0
        #: Events appended to segment files by this process.
        self.appends = 0
        #: Bytes appended to segment files by this process (not file size).
        self.bytes_written = 0
        # ``bytes_written`` as of the last fsync; -1 leaves a (re)opened
        # log unsynced, so its first sync covers an earlier process's tail.
        self._synced_bytes = -1
        #: ``os.fsync`` calls issued by this process.
        self.fsyncs = 0
        #: Segment rotations performed by this process.
        self.segments_rotated = 0
        #: Torn final lines truncated away when the log was (re)opened.
        self.torn_tails_truncated = 0
        #: Wall-clock latency of segment writes, encoding included and
        #: fsync excluded: one observation for the first append and every
        #: ``_APPEND_SAMPLE_EVERY``-th after it.
        self.append_latency = Histogram()
        #: Wall-clock latency of flush + ``os.fsync`` calls.
        self.fsync_latency = Histogram()
        segments = self.segment_paths()
        if segments:
            self._truncate_torn_tail(segments[-1])
            self._seq = self._scan_highest_seq(segments) + 1
            active = segments[-1]
        else:
            active = self._segment_path(1)
        self._active_path = active
        self._handle: Optional[IO[str]] = self._open_handle(active)
        self._active_size = active.stat().st_size

    def _open_handle(self, path: Path) -> IO[str]:
        # Line buffering keeps every complete append OS-visible (the crash
        # model is process death, not power loss); the "never" policy trades
        # that away for block buffering and raw append speed.
        buffering = -1 if self.fsync_policy == "never" else 1
        return open(  # noqa: SIM115 — long-lived
            path, "a", buffering=buffering, encoding="utf-8"
        )

    # ------------------------------------------------------------ file layout

    @property
    def directory(self) -> Path:
        return self._directory

    def _segment_path(self, index: int) -> Path:
        return self._directory / f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"

    def segment_paths(self) -> list[Path]:
        """All segment files, oldest first (by number)."""
        return sorted(
            self._directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"),
            key=file_number,
        )

    @property
    def segment_count(self) -> int:
        return len(self.segment_paths())

    # --------------------------------------------------------- torn-tail scan

    def _truncate_torn_tail(self, path: Path) -> None:
        """Physically drop whatever a dying writer left after the last record.

        Dying mid-append can leave a line without its newline, a complete
        line that is not valid JSON, or — now that the wire protocol
        shares this file format — a dangling length prefix (a bare
        integer line) whose frame body never made it to disk.  The shared
        :func:`~repro.service.framing.good_jsonl_prefix` scanner finds
        the durable prefix (last complete line that is a JSON array or
        object) and the log resumes from there.
        """
        raw = path.read_bytes()
        good = good_jsonl_prefix(raw)
        if good == len(raw):
            return
        with open(path, "r+b") as handle:
            handle.truncate(good)
        self.torn_tails_truncated += 1

    def _scan_highest_seq(self, segments: list[Path]) -> int:
        """Highest event seq already durable (−1 when the log is empty)."""
        for path in reversed(segments):
            events = self._segment_events(path, final=path is segments[-1])
            highest = max((event.seq for event in events), default=-1)
            if highest >= 0:
                return highest
        return -1

    # ---------------------------------------------------------- storage hooks

    def _append(self, event: SchedulingEvent) -> None:
        self._open_window.append(event)
        if self._replaying:
            # Restoration replays events that are already durable on disk;
            # re-appending them would duplicate the physical log.
            return
        assert self._handle is not None, "append to a closed WAL"
        if self._active_size >= self.segment_bytes:
            self._rotate()
        appends = self.appends
        self.appends = appends + 1
        # Read as a plain attribute: CPython 3.11 leaves a method-style
        # call of an instance attribute unspecialised.
        encode_line = self._encode_line
        if appends % _APPEND_SAMPLE_EVERY:
            line = encode_line(event)
            self._handle.write(line)
        else:
            started = perf_counter()
            line = encode_line(event)
            self._handle.write(line)
            self.append_latency.observe(perf_counter() - started)
        size = len(line)
        self._active_size += size
        self.bytes_written += size
        if self._sync_every:
            self._appends_since_fsync += 1
            if self._appends_since_fsync >= self._sync_every:
                self._fsync()

    def _drain(self) -> tuple[SchedulingEvent, ...]:
        events = tuple(self._open_window)
        self._open_window.clear()
        return events

    def _on_cut(self, state: SchedulingState) -> None:
        # A checkpoint boundary is a durability boundary: under the
        # "interval" policy the cut flushes whatever the append counter
        # had not yet synced ("always" leaves nothing unsynced, "never"
        # counts nothing).
        if self._appends_since_fsync:
            self._fsync()

    def _fsync(self) -> None:
        assert self._handle is not None
        started = perf_counter()
        # Marked before the flush: an append racing the fsync leaves the
        # log unsynced again.
        self._synced_bytes = self.bytes_written
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.fsync_latency.observe(perf_counter() - started)
        self.fsyncs += 1
        self._appends_since_fsync = 0

    def _rotate(self) -> None:
        assert self._handle is not None
        if self.fsync_policy != "never":
            self._fsync()
        self._handle.close()
        self._active_path = self._segment_path(
            file_number(self._active_path) + 1
        )
        self._handle = self._open_handle(self._active_path)
        self._active_size = 0
        self.segments_rotated += 1

    # --------------------------------------------------------------- metrics

    def observe_metrics(
        self,
        registry: MetricsRegistry,
        *,
        labels: Optional[dict] = None,
    ) -> None:
        """Fold this log's counters and latency histograms into ``registry``.

        The duck-typed hook :meth:`DetectionEngine.metrics` calls on every
        registered sink; several logs sampled under the same labels merge
        additively (counters sum, histogram buckets add).
        """
        base = {str(k): str(v) for k, v in (labels or {}).items()}
        names = tuple(base)

        def counter(name: str, help: str, value: float) -> None:
            registry.counter(name, help, names).labels(**base).inc(value)

        counter(
            "repro_wal_bytes_written_total",
            "Bytes appended to WAL segment files.",
            self.bytes_written,
        )
        counter(
            "repro_wal_fsyncs_total",
            "os.fsync calls issued by the WAL.",
            self.fsyncs,
        )
        counter(
            "repro_wal_segments_rotated_total",
            "WAL segment rotations performed.",
            self.segments_rotated,
        )
        counter(
            "repro_wal_torn_tails_total",
            "Torn final lines truncated at WAL (re)open.",
            self.torn_tails_truncated,
        )
        phase_family = registry.histogram(
            "repro_phase_latency_seconds",
            "Wall-clock latency per detection phase.",
            names + ("phase",),
        )
        phase_family.labels(**base, phase="wal_append").merge(
            self.append_latency
        )
        phase_family.labels(**base, phase="wal_fsync").merge(
            self.fsync_latency
        )

    # -------------------------------------------------------------- recovery

    @contextmanager
    def replaying(self) -> Iterator[None]:
        """Context in which ``_append`` skips the disk write.

        Recovery restores a snapshot's pending window through
        :func:`repro.history.serialize.apply_sink_state`, whose events are
        already durable in this very log; inside this context they land in
        the in-memory window only.
        """
        self._replaying = True
        try:
            yield
        finally:
            self._replaying = False

    def restore_event(self, event: SchedulingEvent) -> None:
        """Re-admit one already-durable event into the open window.

        Used by WAL replay after a restart: bumps the sequence counter and
        total-recorded accounting like ``record`` would, but neither writes
        to disk nor invokes real-time listeners (the event already happened;
        the Algorithm-3 tap is replayed explicitly by the recovery layer).
        """
        self._open_window.append(event)
        self._total_recorded += 1
        if event.seq >= self._seq:
            self._seq = event.seq + 1

    def _segment_events(
        self, path: Path, *, final: bool
    ) -> Iterator[SchedulingEvent]:
        raw = path.read_bytes()
        if final:
            # The torn tail is the bytes past the durable prefix: the very
            # bytes a reopen truncates (``_truncate_torn_tail``), so replay
            # before and after a reopen reads the same events.
            raw = raw[: good_jsonl_prefix(raw)]
        # Decoded line by line: one undecodable byte is one corrupt line,
        # reported as such, not a failure to read the whole segment.
        for number, line in enumerate(raw.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # bad UTF-8 or bad JSON
                raise HistoryError(
                    f"{path.name} line {number}: corrupt WAL record: {exc}"
                ) from exc
            try:
                (event,) = events_from_rows((row,))
            except HistoryError as exc:
                raise HistoryError(f"{path.name} line {number}: {exc}") from exc
            yield event

    def iter_durable_events(self) -> Iterator[SchedulingEvent]:
        """Replay every durable event, oldest first (torn-tail tolerant)."""
        if self._handle is not None:
            self._handle.flush()
        segments = self.segment_paths()
        for path in segments:
            yield from self._segment_events(path, final=path is segments[-1])

    # -------------------------------------------------------------- lifecycle

    def flush(self, *, sync: bool = False) -> None:
        if self._handle is None:
            return
        if sync and self.bytes_written != self._synced_bytes:
            self._fsync()
        else:
            self._handle.flush()

    def close(self) -> None:
        """Close the active segment handle (idempotent)."""
        if self._handle is None:
            return
        self._handle.close()
        self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    # ------------------------------------------------------------- inspection

    @property
    def pending_events(self) -> tuple[SchedulingEvent, ...]:
        return tuple(self._open_window)

    # ----------------------------------------------------------------- chaos

    def simulate_torn_append(self) -> None:
        """Write a partial (newline-less) junk line and flush it.

        Crash injection's ``MID_WAL_APPEND`` point: emulates the process
        dying halfway through an append, leaving the torn tail that reopen
        must truncate.  No real event is lost — the junk never carried one.
        """
        assert self._handle is not None, "torn append on a closed WAL"
        junk = '[0,"Enter",1,"Se'
        self._handle.write(junk)
        self._handle.flush()
        self._active_size += len(junk)
        self.bytes_written += len(junk)

    def simulate_torn_length_prefix(self) -> None:
        """Write a complete length-prefix line whose body never follows.

        The frame-sharing crash signature: a writer using the wire's
        length-prefixed framing dies after the header line's newline but
        before any body byte.  The tail is a *complete* line of digits —
        valid JSON (an integer), but no record — which reopen must
        truncate exactly like a half-written line.
        """
        assert self._handle is not None, "torn append on a closed WAL"
        junk = "187\n"
        self._handle.write(junk)
        self._handle.flush()
        self._active_size += len(junk)
        self.bytes_written += len(junk)

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self._directory)!r}, "
            f"fsync={self.fsync_policy!r}, segments={self.segment_count}, "
            f"live={self.live_events}, bytes={self.bytes_written}, "
            f"fsyncs={self.fsyncs}, torn={self.torn_tails_truncated})"
        )
