"""Crash-durable detection: snapshots, a report journal, and recovery.

The paper assumes the fault detection routine outlives the computation it
watches; everything in our pipeline — open checking windows, Algorithm-2
counters, the Algorithm-3 Request-List, breaker state, pending reports —
lives in process memory and dies with the detector.  This module closes
that gap.  A durable session gives each of its shards a
:class:`DurableEngine` — the shard's durability, beside its engine and
supervisor — that keeps three artefacts under the shard's root directory:

* ``wal/<label>/`` — one :class:`~repro.history.wal.WriteAheadLog` per
  registered monitor (attached by :meth:`DurableEngine.attach`), so the
  Section 3.1 history database itself survives; on the sim kernel, whose
  virtual clock gives all events at one instant one float, the log
  reuses that time's text (``virtual_clock``),
* ``snapshots/`` — numbered, checksummed engine-state snapshots written
  after every checkpoint's phase-2 evaluation into a ring of four slot
  files: each snapshot overwrites the oldest slot in place, as one
  record (a header line with its number, length and sha256, then its
  payload's JSON, encoded once), synced with ``fdatasync`` before the
  write returns; a torn or corrupt newest slot falls back to the
  previous snapshot.  The payload is positional: the version tag
  :data:`SNAPSHOT_FORMAT`, the supervisor's row with one row per
  monitor (label, breaker fields, counters, sink row, one row per
  checker), and the engine's counter row.  Each component declares its
  row's fields beside its own codec; a sink row holds its base state
  and pending events as the rows of :mod:`repro.history.serialize`.
  Algorithm-1's checking lists are not stored: recovery rebuilds carried
  lists from the restored sink's base state,
* ``reports.jsonl`` — the **report journal**: every fault report is
  journaled *before* it is surfaced, keyed by :func:`report_key`, giving
  exactly-once delivery across restarts — a recovered detector re-derives
  the reports of the interrupted window and the journal deduplicates the
  re-derivations.

Snapshots are written *after* evaluation and journaling deliberately: a
crash anywhere inside a checkpoint then recovers from the previous
snapshot, replays the WAL past its offsets, re-runs the interrupted
checkpoint, and the journal absorbs every re-derived report.  A snapshot
taken between capture and evaluation would instead advance the sink's
base state past a window whose reports were never produced — losing them.

:meth:`DurableEngine.recover` is the restart path: load the journal, load
the latest valid snapshot (building on
:meth:`~repro.detection.supervision.CheckpointSupervisor.restore_state`,
which rejects a mismatched monitor fleet), replay WAL events past the
snapshot's per-sink offsets — re-driving the real-time Algorithm-3 tap —
and surface only reports the journal has not seen.  A payload that is
not a :data:`SNAPSHOT_FORMAT` row, such as the keyed payload or the
``rows-1`` payload (keyed states and events) of earlier formats, or a
row of the wrong shape, is refused with
:class:`~repro.errors.RecoveryError` naming the slot: there is no second
decoder and no silent cold start.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import IO, Callable, Iterable, Optional, Union

from repro._rows import LIST, STR, Fields, check_row
from repro.detection.engine import DetectionEngine, RegisteredMonitor

# The report codec lives with the report type; re-exported here because the
# journal format is this module's contract (import sites predate the move).
from repro.detection.reports import (
    FaultReport,
    report_from_dict,
    report_to_dict,
)
from repro.detection.supervision import CheckpointSupervisor
from repro.errors import RecoveryError
from repro.history.wal import WriteAheadLog
from repro.kernel.sim import SimKernel
from repro.observability.registry import Histogram, MetricsRegistry
from repro.service.framing import load_jsonl_journal

__all__ = [
    "service_report_key",
    "report_key",
    "report_to_dict",
    "report_from_dict",
    "ExactlyOnceJournal",
    "ReportJournal",
    "SnapshotStore",
    "SNAPSHOT_FORMAT",
    "RecoverySummary",
    "DurableEngine",
]


# ----------------------------------------------------------------- reports


def service_report_key(report: FaultReport) -> str:
    """Report identity for the detection service's dedup, *confidence-blind*.

    Everything that makes the finding *the same finding* — rule, monitor,
    implicated pids, triggering event, window and timestamps — and nothing
    presentation-only (the message).  Floats are keyed by ``repr`` so the
    key survives JSON round-trips bit-for-bit.  Re-deriving a replayed
    window after a server restart evaluates it in degraded mode, so the
    same finding can come back with a different confidence; deduping on
    this key keeps the first derivation and absorbs the re-derived twin.
    """
    return "|".join(
        (
            report.rule_id,
            report.monitor,
            repr(report.detected_at),
            ",".join(str(pid) for pid in report.pids),
            repr(report.event_seq),
            repr(report.window_start),
        )
    )


def report_key(report: FaultReport) -> str:
    """Stable identity of one fault report across process restarts:
    :func:`service_report_key` plus the report's confidence."""
    return f"{service_report_key(report)}|{report.confidence.value}"


class ExactlyOnceJournal:
    """Append-only JSONL journal giving exactly-once report delivery.

    ``admit`` is the single gate every surfaced report passes through:
    a report whose :attr:`key` the journal already holds is rejected (it
    was delivered by a previous incarnation of the process), otherwise it
    is appended *before* the caller may show it to anyone.  The file is
    line-buffered, so each record reaches the OS at its newline; with
    ``fsync`` each admit also forces it to disk.  Reopening truncates a
    torn tail with the WAL's :func:`~repro.service.framing.good_jsonl_prefix`
    scanner (through :func:`~repro.service.framing.load_jsonl_journal`):
    the interrupted append never surfaced its report, so dropping it
    loses nothing.  A corrupt or malformed line before the tail raises
    :class:`~repro.errors.RecoveryError` naming the file and the line.
    With ``path=None`` the journal is memory-only but keeps the same
    dedup semantics.

    The two users subclass it, each with its own key:
    :class:`ReportJournal` (durable shards) and
    :class:`~repro.service.server.ServiceJournal` (the detection server).
    """

    #: The dedup key of one report.
    key: Callable[[FaultReport], str]

    def __init__(
        self, path: Optional[Union[str, Path]], *, fsync: bool = False
    ) -> None:
        self.path = None if path is None else Path(path)
        self._fsync = fsync
        self.reports: list[FaultReport] = []
        self.seen: set[str] = set()
        self.journaled = 0
        self.deduplicated = 0
        self.torn_tails_truncated = 0
        self._handle: Optional[IO[str]] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                self.torn_tails_truncated += load_jsonl_journal(
                    self.path, self._load_record
                )
            self._handle = open(  # noqa: SIM115 — long-lived
                self.path, "a", buffering=1, encoding="utf-8"
            )

    def _load_record(self, record: dict) -> None:
        report = report_from_dict(record)
        self.reports.append(report)
        self.seen.add(self.key(report))

    def _write(self, record: dict) -> None:
        if self.path is None:
            return
        assert self._handle is not None, "write to a closed journal"
        self._handle.write(json.dumps(record) + "\n")
        if self._fsync:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def admit(self, report: FaultReport) -> bool:
        """Journal one report; False when it was already delivered."""
        key = self.key(report)
        if key in self.seen:
            self.deduplicated += 1
            return False
        self._write(report_to_dict(report))
        self.seen.add(key)
        self.reports.append(report)
        self.journaled += 1
        return True

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:
        path = None if self.path is None else str(self.path)
        return (
            f"{type(self).__name__}({path!r}, reports={len(self.reports)}, "
            f"journaled={self.journaled}, deduplicated={self.deduplicated})"
        )


class ReportJournal(ExactlyOnceJournal):
    """A durable shard's ``reports.jsonl``, keyed by :func:`report_key`."""

    key = staticmethod(report_key)


# --------------------------------------------------------------- snapshots


#: Slot files in a store's ring: snapshot number n overwrites slot
#: n mod ``SNAPSHOT_SLOTS``, so a write leaves the three before it intact.
SNAPSHOT_SLOTS = 4

#: Encodes every snapshot payload into exactly ``json.dumps``'s text (the
#: default separators, ASCII only), built once and without the
#: circular-reference check: a payload is rows of plain values.
_encode_payload = json.JSONEncoder(check_circular=False).encode

#: A snapshot record's header line; the payload's ``length`` bytes follow.
#: Compact, so that changing any one of its bytes changes what it says.
_HEADER = (
    b'{"kind":"engine-snapshot","number":%d,"length":%d,"sha256":"%s"}\n'
)


def _digest(number: int, payload: bytes) -> str:
    """The checksum of one record: the sha256 of its number's text line
    and its payload bytes, so a damaged number fails it too."""
    digest = hashlib.sha256(b"%d\n" % number)
    digest.update(payload)
    return digest.hexdigest()


def _parse_record(data: bytes) -> Optional[tuple[int, bytes]]:
    """``(number, payload bytes)`` of the record a slot file starts with,
    or None when it is torn, truncated or corrupt.  Bytes past the
    record's stated length are ignored."""
    newline = data.find(b"\n")
    if newline < 0:
        return None
    try:
        header = json.loads(data[:newline])
    except ValueError:
        return None
    if not isinstance(header, dict) or header.get("kind") != "engine-snapshot":
        return None
    number, length = header.get("number"), header.get("length")
    if type(number) is not int or type(length) is not int:
        return None
    start = newline + 1
    payload = data[start : start + length]
    if len(payload) != length:
        return None
    if header.get("sha256") != _digest(number, payload):
        return None
    return number, payload


class SnapshotStore:
    """Numbered, checksummed state snapshots in a ring of slot files.

    Snapshot number n overwrites ``slot-<n mod 4>.snapshot`` in place as
    one record: the header line ``{"kind":"engine-snapshot","number":n,
    "length":L,"sha256":H}``, then the L bytes of the payload's JSON,
    encoded once, in the payload's insertion order.  H is the sha256 of
    the number and those bytes (:func:`_digest`).  ``write`` puts the record
    at offset 0 with ``os.pwrite`` and makes it durable with
    ``os.fdatasync`` before it returns: past each slot's first write, no
    file is created, renamed, deleted, opened or closed.  The store opens
    each slot file at its first write and holds it until :meth:`close`
    (at most :data:`SNAPSHOT_SLOTS` descriptors); a store dropped without
    ``close``, as a crashed incarnation is, releases them when it is
    collected.  A lock guards each write and ``close`` takes it too, so
    on the thread kernel a close never releases a descriptor that a
    pacing thread is writing through; a write after ``close`` opens its
    slot again.  A shorter record leaves the end of a longer one behind
    it; readers ignore that stale tail.

    A write can only damage the slot it writes, and a torn or unsynced
    record fails its checksum.  ``load_latest`` reads every slot and
    returns the intact record with the highest number, so a crash
    mid-write falls back to the previous snapshot; each existing slot
    that fails is counted in ``corrupt_skipped``.  The store numbers on
    from the newest intact record (the one ``load_latest`` returned).

    A directory that still holds ``snapshot-<n>.json`` files, the
    earlier one-file-per-snapshot layout, is refused with
    :class:`~repro.errors.RecoveryError`: those files are not read, and
    starting cold beside them would silently drop the state they hold.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        old = sorted(
            path.name for path in self.directory.glob("snapshot-*.json")
        )
        if old:
            raise RecoveryError(
                f"{self.directory} holds snapshots in the old "
                f"one-file-per-snapshot layout, which is not read: "
                f"{', '.join(old)}"
            )
        self.written = 0
        self.corrupt_skipped = 0
        #: Crash-injection hook: called with the open slot's descriptor
        #: and the whole record just before the record is written.  None
        #: outside chaos campaigns.
        self.before_write: Optional[Callable[[int, bytes], None]] = None
        self._paths = tuple(
            self.directory / f"slot-{slot}.snapshot"
            for slot in range(SNAPSHOT_SLOTS)
        )
        #: Each slot's file, opened at the slot's first write.
        self._files: list[Optional[IO[bytes]]] = [None] * SNAPSHOT_SLOTS
        self._lock = threading.Lock()
        newest, __ = self._newest()
        self._next_number = 1 if newest is None else newest[0] + 1

    def _newest(self) -> tuple[Optional[tuple[int, bytes, Path]], int]:
        """The intact record with the highest number, as ``(number,
        payload bytes, slot path)`` (None when there is none), and how
        many existing slots failed."""
        newest: Optional[tuple[int, bytes, Path]] = None
        failed = 0
        for path in self._paths:
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                continue
            except OSError:
                failed += 1
                continue
            record = _parse_record(data)
            if record is None:
                failed += 1
            elif newest is None or record[0] > newest[0]:
                newest = (*record, path)
        return newest, failed

    def write(self, payload: object) -> Path:
        """Write ``payload`` as the next snapshot; durable on return.

        Returns the slot file written."""
        body = _encode_payload(payload).encode()
        with self._lock:
            number = self._next_number
            record = (
                _HEADER % (number, len(body), _digest(number, body).encode())
                + body
            )
            slot = number % SNAPSHOT_SLOTS
            handle = self._files[slot]
            if handle is None:
                handle = self._files[slot] = open(  # noqa: SIM115 — held
                    os.open(self._paths[slot], os.O_WRONLY | os.O_CREAT, 0o666),
                    "wb",
                    buffering=0,
                )
            fd = handle.fileno()
            if self.before_write is not None:
                self.before_write(fd, record)
            view = memoryview(record)
            written = 0
            while written < len(record):
                written += os.pwrite(fd, view[written:], written)
            os.fdatasync(fd)
            self._next_number = number + 1
            self.written += 1
        return self._paths[slot]

    def close(self) -> None:
        """Release the held slot files (waits for a write in flight)."""
        with self._lock:
            files = self._files
            for slot, handle in enumerate(files):
                if handle is not None:
                    files[slot] = None
                    handle.close()

    def load_latest(self) -> Optional[tuple[object, Path]]:
        """The newest intact snapshot and its slot, or None.

        Torn or corrupt slots are skipped (and counted), so a snapshot
        torn by a crash — or rotted on disk — falls back to the previous
        intact one instead of failing recovery.
        """
        newest, failed = self._newest()
        self.corrupt_skipped += failed
        if newest is None:
            return None
        number, payload, path = newest
        self._next_number = number + 1
        return json.loads(payload), path

    def __repr__(self) -> str:
        return (
            f"SnapshotStore({str(self.directory)!r}, "
            f"next={self._next_number}, written={self.written}, "
            f"corrupt_skipped={self.corrupt_skipped})"
        )


# ----------------------------------------------------------- durable engine

#: The version tag that opens every snapshot payload.
SNAPSHOT_FORMAT = "durable-engine/rows-2"

#: A snapshot payload: the tag, the supervisor's row (one row per
#: monitor inside it) and the engine's counter row.
_PAYLOAD_FIELDS: Fields = (
    ("format", STR),
    ("supervisor", LIST),
    ("engine", LIST),
)

#: The durability counters of a :class:`DurableEngine`, each declared once
#: as ``(attribute, family, help)``.  The two WAL totals carry no family:
#: every :class:`~repro.history.wal.WriteAheadLog` exports its own through
#: the engine's metrics.
DURABILITY_COUNTERS: tuple[tuple[str, Optional[str], Optional[str]], ...] = (
    ("wal_bytes_written", None, None),
    ("wal_fsyncs", None, None),
    ("snapshots_written", "repro_snapshots_written_total",
     "Checksummed state snapshots written."),
    ("recoveries", "repro_recoveries_total",
     "recover() runs completed in this process."),
    ("reports_deduplicated", "repro_reports_deduplicated_total",
     "Re-derived reports rejected by the exactly-once journal."),
)


@dataclass(frozen=True)
class RecoverySummary:
    """What one :meth:`DurableEngine.recover` call did."""

    #: Snapshot the state was restored from (None = cold start).
    snapshot_path: Optional[str]
    #: Corrupt snapshots skipped while finding a valid one.
    snapshot_fallbacks: int
    #: Durable WAL events replayed past the snapshot offsets.
    events_replayed: int
    #: Previously delivered reports reloaded from the journal.
    reports_restored: int
    #: Reports newly produced by the replayed real-time tap.
    reports_recovered: int
    #: Replay re-derivations the journal rejected as already delivered.
    reports_deduplicated: int

    def render(self) -> str:
        source = self.snapshot_path or "cold start (no snapshot)"
        return (
            f"recovered from {source} "
            f"(+{self.snapshot_fallbacks} corrupt skipped): "
            f"{self.events_replayed} events replayed, "
            f"{self.reports_restored} reports restored, "
            f"{self.reports_recovered} recovered, "
            f"{self.reports_deduplicated} deduplicated"
        )


class DurableEngine:
    """The durability of one cluster shard: WALs, snapshots, a journal.

    A :class:`~repro.detection.cluster.ClusterShard` with a durable root
    owns one of these beside its engine and supervisor.  :meth:`attach`
    gives each monitor the shard registers a fresh
    :class:`~repro.history.wal.WriteAheadLog` under ``root/wal/<label>``
    (replacing any previously attached sink — events recorded before
    registration are only as durable as that sink was), and
    :meth:`detach` retires a monitor the shard unregisters.  After each
    phase-2 evaluation the shard calls :meth:`commit`, which journals the
    new reports, then writes a state snapshot.  :meth:`baseline` writes
    the first snapshot once the fleet is assembled, so a crash before the
    first checkpoint still finds the true initial state.

    :attr:`reports` — not the entries' in-memory streams — is the
    canonical delivered-report stream: it reads the journal, which
    reloads it on restart, while the engine only carries what the current
    incarnation derived.
    """

    def __init__(
        self,
        engine: DetectionEngine,
        supervisor: CheckpointSupervisor,
        root: Union[str, Path],
        *,
        fsync: str = "interval",
    ) -> None:
        self.engine = engine
        #: The supervisor pacing the shard; its snapshot/restore of
        #: per-monitor state rides in every snapshot.
        self.supervisor = supervisor
        self.root = Path(root)
        self.fsync = fsync
        self.snapshots = SnapshotStore(self.root / "snapshots")
        self.journal = ReportJournal(
            self.root / "reports.jsonl", fsync=(fsync == "always")
        )
        #: Times :meth:`recover` ran in this process.
        self.recoveries = 0
        #: Wall-clock duration of each :meth:`recover` (snapshot restore
        #: plus WAL replay), for the recovery latency histogram.
        self.recover_latency = Histogram()
        #: Wall-clock duration of each snapshot written (WAL flush,
        #: payload and store write), for the snapshot latency histogram.
        self.snapshot_latency = Histogram()
        self._consumed: dict[str, int] = {}

    @property
    def reports(self) -> list[FaultReport]:
        """The durable delivered-report stream: the journal's own list."""
        return self.journal.reports

    @property
    def reports_deduplicated(self) -> int:
        """Re-derived reports the journal rejected (exactly-once at work);
        every admission goes through this shard."""
        return self.journal.deduplicated

    # ---------------------------------------------------------- registration

    def attach(self, monitor, label: str) -> None:
        """Give ``monitor`` a fresh WAL sink keyed by its unique ``label``.

        Called just before the engine registers the monitor under the
        same label, so re-registering the fleet after a restart (same
        order, same labels) reopens each monitor's own log.
        """
        old = monitor.history
        if isinstance(old, WriteAheadLog):
            old.close()
        wal = WriteAheadLog(
            self.root / "wal" / label.replace("/", "_"),
            fsync=self.fsync,
            virtual_clock=isinstance(self.engine.kernel, SimKernel),
        )
        monitor.core.attach_history(wal)
        self._consumed[label] = 0

    def detach(self, entry: RegisteredMonitor) -> None:
        """Retire a monitor the shard's engine has just unregistered.

        The engine no longer lists ``entry``, so :meth:`commit` would
        never see it again: its reports not yet journaled are journaled
        here, its WAL is closed and the monitor stops recording into it,
        and a snapshot of the remaining fleet replaces the one that still
        lists it — a rebuild without the monitor then recovers.
        """
        self._admit_new_reports((entry,))
        self._consumed.pop(entry.label, None)
        wal = entry.history
        if isinstance(wal, WriteAheadLog):

            def retire() -> None:
                entry.monitor.core.detach_history()
                wal.close()

            # Atomic, so no transition on another thread is mid-append.
            self.engine.kernel.atomic(retire)
        self._write_snapshot()

    def _wal_entries(self) -> list[tuple[RegisteredMonitor, WriteAheadLog]]:
        return [
            (entry, entry.history)
            for entry in self.engine.entries
            if isinstance(entry.history, WriteAheadLog)
        ]

    # -------------------------------------------------------------- checking

    def baseline(self) -> Path:
        """Persist the initial snapshot (call once after registration)."""
        return self._write_snapshot()

    def commit(self) -> list[FaultReport]:
        """Journal the new reports, then snapshot (after each evaluation).

        Returns only reports the journal had not delivered before — after
        a recovery, the re-run of an interrupted checkpoint re-derives the
        same findings and returns an empty list instead of duplicates.
        """
        fresh = self._admit_new_reports(self.engine.entries)
        self._write_snapshot()
        return fresh

    def _admit_new_reports(
        self, entries: Iterable[RegisteredMonitor]
    ) -> list[FaultReport]:
        """Offer every not-yet-journaled report of ``entries`` to the journal.

        Scans each entry's stream past a per-label consumed watermark, so
        reports from the real-time Algorithm-3 tap (which land between
        checkpoints) are journaled too, at the next checkpoint boundary.
        The watermark moves past a report only once ``admit`` returned,
        so a journal write that raises leaves the rest of the stream for
        the next call.
        """
        fresh: list[FaultReport] = []
        for entry in entries:
            consumed = self._consumed.get(entry.label, 0)
            for report in entry.reports[consumed:]:
                if self.journal.admit(report):
                    fresh.append(report)
                consumed += 1
                self._consumed[entry.label] = consumed
        return fresh

    # ------------------------------------------------------------- snapshots

    def _snapshot_payload(self) -> list:
        entries = self.engine.entries
        return [
            SNAPSHOT_FORMAT,
            self.supervisor.snapshot_state(entries),
            self.engine.counter_state(),
        ]

    def _write_snapshot(self) -> Path:
        started = perf_counter()
        # The WAL must be at least as new as the offsets the snapshot
        # records, or replay would start past events it never saw.
        for __, wal in self._wal_entries():
            wal.flush(sync=self.fsync != "never")
        # One atomic cut: a transition recorded between reading a sink and
        # reading its checkers would be missing from the sink's seq but
        # applied to the checker, and replay would apply it twice.
        payload = self.engine.kernel.atomic(self._snapshot_payload)
        path = self.snapshots.write(payload)
        self.snapshot_latency.observe(perf_counter() - started)
        return path

    def _restore_payload(self, payload: object, path: Path) -> None:
        if type(payload) is dict and payload.get("kind") == "durable-engine":
            raise RecoveryError(
                f"{path} holds a keyed durable-engine snapshot, the layout "
                f"before {SNAPSHOT_FORMAT!r} rows, which is not read"
            )
        try:
            tag, supervisor, counters = check_row(
                payload, _PAYLOAD_FIELDS, "snapshot"
            )
            if tag != SNAPSHOT_FORMAT:
                raise RecoveryError(
                    f"snapshot format {tag!r} is not {SNAPSHOT_FORMAT!r}"
                )
            self.supervisor.restore_state(supervisor, self.engine.entries)
            self.engine.restore_counter_state(counters)
        except RecoveryError as exc:
            raise RecoveryError(f"{path}: {exc}") from exc

    # -------------------------------------------------------------- recovery

    def recover(self) -> RecoverySummary:
        """Resume detection after a restart (call before running).

        Protocol: rebuild the fleet exactly as before the crash (same
        monitors, same registration order and labels, each given its WAL
        by :meth:`attach`), then call this once.  It restores the latest
        valid snapshot into the engine, replays each WAL's events past the
        snapshot's per-sink offsets into the open windows — re-driving the
        real-time Algorithm-3 check over them — and surfaces only reports
        the journal never delivered.  Without any snapshot (a crash before
        :meth:`baseline`) the whole WAL replays against the attach-time
        base state.
        """
        recover_started = perf_counter()
        restored = len(self.journal.reports)
        loaded = self.snapshots.load_latest()
        snapshot_path: Optional[str] = None
        watermarks: dict[str, int] = {}
        if loaded is not None:
            payload, path = loaded
            snapshot_path = str(path)
            with contextlib.ExitStack() as stack:
                for __, wal in self._wal_entries():
                    stack.enter_context(wal.replaying())
                self._restore_payload(payload, path)
            # Replay resumes where each restored sink's numbering stood.
            watermarks = {
                entry.label: wal.upcoming_seq
                for entry, wal in self._wal_entries()
            }
        events_replayed = 0
        recovered = 0
        deduplicated = 0
        for entry, wal in self._wal_entries():
            watermark = watermarks.get(entry.label, 0)
            for event in wal.iter_durable_events():
                if event.seq < watermark:
                    continue
                wal.restore_event(event)
                events_replayed += 1
                if entry.tapped and entry.algorithm3 is not None:
                    for report in entry.algorithm3.on_event(event):
                        entry.reports.append(report)
                        if self.journal.admit(report):
                            recovered += 1
                        else:
                            deduplicated += 1
            self._consumed[entry.label] = len(entry.reports)
        self.recoveries += 1
        self.recover_latency.observe(perf_counter() - recover_started)
        return RecoverySummary(
            snapshot_path=snapshot_path,
            snapshot_fallbacks=self.snapshots.corrupt_skipped,
            events_replayed=events_replayed,
            reports_restored=restored,
            reports_recovered=recovered,
            reports_deduplicated=deduplicated,
        )

    # -------------------------------------------------------------- lifecycle

    def flush(self) -> None:
        for __, wal in self._wal_entries():
            wal.flush(sync=self.fsync == "always")

    def close(self) -> None:
        """Close WAL, journal and snapshot handles (a crashed process
        never does)."""
        for __, wal in self._wal_entries():
            wal.close()
        self.journal.close()
        self.snapshots.close()

    # ------------------------------------------------------------- inspection

    def metrics(self, registry: MetricsRegistry, *, labels: dict) -> None:
        """Add the durability families to the shard's ``registry``.

        The engine's own sampling already folds in each monitor's WAL
        (append/fsync counters and latency); this adds snapshots, journal
        dedup, and the snapshot and recovery latency histograms.
        """
        registry.count_table(self, DURABILITY_COUNTERS, labels)
        base = {str(k): str(v) for k, v in labels.items()}
        names = tuple(base)
        registry.gauge(
            "repro_journal_reports",
            "Reports delivered through the durable journal.",
            names,
        ).labels(**base).set(len(self.reports))
        phases = registry.histogram(
            "repro_phase_latency_seconds",
            "Wall-clock latency per detection phase.",
            names + ("phase",),
        )
        phases.labels(**base, phase="snapshot").merge(self.snapshot_latency)
        phases.labels(**base, phase="recover").merge(self.recover_latency)

    @property
    def wal_bytes_written(self) -> int:
        """Bytes appended across this shard's WALs."""
        return sum(wal.bytes_written for __, wal in self._wal_entries())

    @property
    def wal_fsyncs(self) -> int:
        """``os.fsync`` calls issued across this shard's WALs."""
        return sum(wal.fsyncs for __, wal in self._wal_entries())

    @property
    def snapshots_written(self) -> int:
        """Snapshots this shard's store has written."""
        return self.snapshots.written

    @property
    def durability_counters(self) -> dict[str, int]:
        """The durability cost/benefit counters, bench- and stats-facing."""
        return {
            attr: getattr(self, attr) for attr, __, __ in DURABILITY_COUNTERS
        }

    def __repr__(self) -> str:
        counters = ", ".join(
            f"{key}={value}" for key, value in self.durability_counters.items()
        )
        return (
            f"DurableEngine(root={str(self.root)!r}, fsync={self.fsync!r}, "
            f"monitors={len(self.engine.entries)}, "
            f"reports={len(self.reports)}, {counters})"
        )
