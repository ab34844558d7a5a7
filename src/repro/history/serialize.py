"""Serialisation of scheduling histories: one positional codec per record.

The history information database is the system's audit trail; being able
to persist a trace and re-check it offline (on another machine, against a
different rule configuration, or long after the run) is what makes the
offline FD checker practically useful.

Section 3.1 defines two history records, and each has one codec: a JSON
array of its fields in order, a *row*.

* A scheduling event is ``[seq, kind, pid, pname, time, flag, cond]``
  (:class:`SchedulingEvent`'s field order, ``kind`` as its
  :class:`EventKind` value, ``cond`` null when absent).
  :func:`event_to_row` encodes one; :func:`events_from_rows` decodes a
  batch.
* A scheduling state is ``[time, entry_queue, cond_queues, running,
  urgent, resource_count]``: each queue a list of ``[pid, pname, since]``
  entries, ``cond_queues`` an object from condition name to queue.
  :func:`state_to_row` and :func:`state_from_row` encode and decode it.

Every boundary carries these rows: the detection service's window frames
(:func:`segment_to_dict`), WAL lines (the compact JSON of one event row
per line), a durable snapshot's sink rows (:func:`sink_state_to_row`)
and trace files (:func:`dump_trace`, one row per line).  The two decoders
check every field's type, so whatever reads a record from outside the
process (a socket, a WAL segment, a snapshot slot, a trace file) refuses
a malformed one with :class:`~repro.errors.HistoryError`, and the keyed
objects that earlier versions wrote are refused, never misread.

The write-ahead log encodes each event with :func:`event_to_json_line`.
When its times come from a virtual clock it uses
:func:`event_to_json_line_reusing_time` instead: the same bytes, but the
``repr`` text of the previous line's time is reused when the event's time
is the same float object.  The gain rests on one property of a virtual
clock: every event at one instant carries one float, and such events are
recorded back to back (an Enter and its Signal-Exit, several monitors in
one step), while a sim time often needs all 17 significant digits, the
costly case of ``repr``.  Keyed by identity, the reuse needs no guard: an
object prints as it printed before, so ``1`` against ``1.0`` or ``0.0``
against ``-0.0`` (equal, but printed differently) can never share text.

Round-trip guarantees are exact: ``load_trace(dump_trace(trace)) ==
trace`` (covered by property tests).
"""

from __future__ import annotations

import json
import sys
from types import MappingProxyType
from typing import IO, Iterable

from repro._rows import INT, LIST, OPTIONAL_LIST, Fields, check_row
from repro.errors import HistoryError, RecoveryError
from repro.history.events import EventKind, SchedulingEvent
from repro.history.sink import Segment
from repro.history.states import QueueEntry, SchedulingState

__all__ = [
    "event_to_row",
    "events_from_rows",
    "is_wire_time",
    "event_to_json_line",
    "event_to_json_line_reusing_time",
    "state_to_row",
    "state_from_row",
    "segment_to_dict",
    "segment_from_dict",
    "SINK_FIELDS",
    "sink_state_to_row",
    "apply_sink_state",
    "dump_trace",
    "load_trace",
]


# ------------------------------------------------------------------ events

#: Kind value → member, resolved once: ``EventKind(value)`` walks the
#: enum ``__call__`` machinery, and the decoder below runs once per event
#: of every window the service receives and of every WAL line recovery
#: replays.
_EVENT_KINDS: dict = {kind.value: kind for kind in EventKind}

#: The types a JSON number decodes to.  The decoders test ``type(x)``
#: exactly, so ``bool`` (an ``int`` subclass) is not a number here.
_NUMBER = (float, int)

#: A time must also lie in ``[-_MAX_TIME, _MAX_TIME]``.  ``json.loads``
#: reads ``NaN``, ``Infinity`` and overflowing literals such as ``1e999``
#: as floats (a NaN time compares false against every timeout), and reads
#: a long integer literal as an ``int`` too large for a float.  The
#: chained comparison is false for all of them and never raises:
#: ``math.isfinite`` raises ``OverflowError`` on such an ``int``.
_MAX_TIME = sys.float_info.max

#: The state and segment decoders build their records as the plain tuples
#: they are, around the checks they make themselves.
_new_tuple = tuple.__new__


def is_wire_time(value) -> bool:
    """Whether ``value`` may stand as a time in a decoded record: an
    ``int`` or ``float`` (not ``bool``) within the finite float range."""
    return type(value) in _NUMBER and -_MAX_TIME <= value <= _MAX_TIME


def event_to_row(event: SchedulingEvent) -> list:
    """One scheduling event as its row ``[seq, kind, pid, pname, time,
    flag, cond]``."""
    seq, kind, pid, pname, time, flag, cond = event
    return [seq, kind._value_, pid, pname, time, flag, cond]


def events_from_rows(rows) -> tuple:
    """Decode event rows (see :func:`event_to_row`) in one loop.

    Every event read from outside the process comes through here: a
    window's events, a WAL line, a snapshot's pending events, a trace
    line.  Each row must be a 7-element array with an int ``seq``,
    ``pid`` and ``flag``, a str ``pname``, a finite ``time``
    (:func:`is_wire_time`), a known ``kind`` and a str or null ``cond``
    (``bool`` is not an int here).  The loop then runs the
    :class:`SchedulingEvent` constructor's two checks inline — the flag is
    0 or 1, a Wait names its condition — and builds each event as the
    plain tuple record it is.  Any other shape, the keyed event object of
    earlier versions included, raises :class:`~repro.errors.HistoryError`.
    """
    kinds = _EVENT_KINDS
    wait = EventKind.WAIT
    number = _NUMBER
    top = _MAX_TIME
    bottom = -top
    new_event = tuple.__new__
    event_type = SchedulingEvent
    events = []
    append = events.append
    record = None
    try:
        for record in rows:
            if type(record) is not list:
                raise TypeError("not an array")
            seq, kind, pid, pname, time, flag, cond = record
            if (
                type(seq) is not int
                or type(pid) is not int
                or type(pname) is not str
                or type(time) not in number
                or type(flag) is not int
                or (cond is not None and type(cond) is not str)
            ):
                raise TypeError("a field has the wrong type")
            if not bottom <= time <= top:
                raise ValueError("time is not finite")
            if flag != 0 and flag != 1:
                raise ValueError(f"event flag must be 0 or 1, got {flag}")
            kind = kinds[kind]
            if cond is None and kind is wait:
                raise ValueError("Wait events require a condition name")
            append(
                new_event(
                    event_type, (seq, kind, pid, pname, time, flag, cond)
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise HistoryError(f"malformed event row {record!r}: {exc}") from exc
    return tuple(events)


# ------------------------------------------------------------ fused encoder

#: Memoised JSON string encodings — event kinds, process names and
#: condition names repeat constantly, and the append path is the
#: monitor-operation hot path the overhead bench measures.
_ESCAPED: dict[str, str] = {}


def _escape(value: str) -> str:
    """Encode a name the memo misses, and remember it."""
    escaped = _ESCAPED[value] = json.dumps(value)
    return escaped


#: JSON text of each event kind, keyed by the kind's string value: on
#: CPython 3.11 ``kind.value`` is an Enum property read and a dict keyed
#: by the member hashes it in Python, while ``kind._value_`` is a plain
#: instance attribute.
_KIND_JSON: dict[str, str] = {
    kind.value: json.dumps(kind.value) for kind in EventKind
}


def event_to_json_line(event: SchedulingEvent) -> str:
    """:func:`event_to_row` + compact ``json.dumps`` + newline, hand-fused.

    Produces byte-identical JSON to
    ``json.dumps(event_to_row(event), separators=(",", ":"))`` (floats
    via ``repr``, exactly as the json encoder emits them; pure ASCII, so
    ``len`` is the byte length) without building the intermediate list.
    The write-ahead log's append path is its main caller; names are read
    from the memo inline and :func:`_escape` runs only on a miss.
    """
    seq, kind, pid, pname, time, flag, cond = event
    escaped = _ESCAPED
    cond = "null" if cond is None else escaped.get(cond) or _escape(cond)
    return (
        f"[{seq},{_KIND_JSON[kind._value_]},{pid},"
        f"{escaped.get(pname) or _escape(pname)},{time!r},{flag},{cond}]\n"
    )


#: The time :func:`event_to_json_line_reusing_time` encoded last, and its
#: ``repr``: one tuple, replaced whole, so no reader on another thread
#: can pair one time with another time's text.  It is shared by every log
#: because the events of one instant span monitors: on ``durable-fleet``
#: 87.7% of appends carry the previous append's time object, against
#: 60.9% within one log.  Whatever it holds, every line comes out the same.
_last_time_text: tuple[object, str] = (object(), "")


def event_to_json_line_reusing_time(event: SchedulingEvent) -> str:
    """:func:`event_to_json_line` for times read from a virtual clock.

    The same bytes, but when the event's time *is* the time object the
    previous call encoded, that call's ``repr`` text is reused.  Being the
    same object, it prints the same, whatever its type or sign (``1`` and
    ``1.0``, ``0.0`` and ``-0.0`` are different objects).  A virtual
    clock (the sim kernel's) hands every event at one instant the same
    float, and those events are recorded back to back: an Enter and its
    Signal-Exit, several monitors in one step.  A wall clock (the thread
    kernel's) makes a new float at every reading, so there every line
    would pay the miss; :class:`~repro.history.wal.WriteAheadLog` uses
    this encoder only when its times come from a virtual clock.
    """
    global _last_time_text
    seq, kind, pid, pname, time, flag, cond = event
    escaped = _ESCAPED
    last = _last_time_text
    if time is last[0]:
        text = last[1]
    else:
        text = repr(time)
        _last_time_text = (time, text)
    cond = "null" if cond is None else escaped.get(cond) or _escape(cond)
    return (
        f"[{seq},{_KIND_JSON[kind._value_]},{pid},"
        f"{escaped.get(pname) or _escape(pname)},{text},{flag},{cond}]\n"
    )


# ------------------------------------------------------------------ states


def state_to_row(state: SchedulingState) -> list:
    """One scheduling state as its row ``[time, entry_queue, cond_queues,
    running, urgent, resource_count]``."""
    return [
        state.time,
        [list(e) for e in state.entry_queue],
        {
            cond: [list(e) for e in queue]
            for cond, queue in state.cond_queues.items()
        },
        [list(e) for e in state.running],
        [list(e) for e in state.urgent],
        state.resource_count,
    ]


def _queue(entries) -> tuple:
    """A JSON queue as :class:`QueueEntry` s: an array whose entries are
    each a ``[pid, pname, since]`` array of an int, a str and a finite
    number."""
    if type(entries) is not list:
        raise TypeError(f"queue {entries!r} is not an array")
    queue = []
    for entry in entries:
        if type(entry) is not list or len(entry) != 3:
            raise TypeError(f"queue entry {entry!r} is not a 3-element array")
        pid, pname, since = entry
        if (
            type(pid) is not int
            or type(pname) is not str
            or not is_wire_time(since)
        ):
            raise TypeError(
                f"queue entry {entry!r} is not [int, str, finite number]"
            )
        queue.append(QueueEntry(pid, pname, since))
    return tuple(queue)


def state_from_row(row) -> SchedulingState:
    """Decode a :func:`state_to_row` row.

    The row must be a 6-element array: a finite ``time``
    (:func:`is_wire_time`), queues of ``[int, str, finite number]``
    entries, an object of condition queues and an int or null resource
    count.  Anything else, the keyed state object of earlier versions
    included, raises :class:`~repro.errors.HistoryError`.
    """
    try:
        if type(row) is not list:
            raise TypeError("not an array")
        time, entry_queue, cond_queues, running, urgent, count = row
        if not is_wire_time(time):
            raise TypeError(f"state time {time!r} is not a finite number")
        if count is not None and type(count) is not int:
            raise TypeError(f"resource count {count!r} is not an int")
        if type(cond_queues) is not dict:
            raise TypeError(
                f"condition queues {cond_queues!r} are not an object"
            )
        return _new_tuple(
            SchedulingState,
            (
                time,
                _queue(entry_queue),
                MappingProxyType(
                    {
                        cond: _queue(queue)
                        for cond, queue in cond_queues.items()
                    }
                ),
                _queue(running),
                count,
                _queue(urgent),
            ),
        )
    except (TypeError, ValueError) as exc:
        raise HistoryError(f"malformed state row {row!r}: {exc}") from exc


# ---------------------------------------------------------------- segments


def segment_to_dict(segment: Segment) -> dict:
    """One cut checkpoint window in the detection service's wire form:
    the previous and current states and every event as rows.

    Reached only through :func:`repro.service.protocol.segment_to_wire`.
    The rows carry no key names, so the server's JSON parse builds no
    per-record dict.
    """
    return {
        "previous": state_to_row(segment.previous),
        "events": list(map(event_to_row, segment.events)),
        "current": state_to_row(segment.current),
        "dropped": segment.dropped,
    }


def segment_from_dict(raw: dict) -> Segment:
    """Rebuild a :class:`~repro.history.sink.Segment` from wire form.

    ``dropped`` must be a non-negative int: a negative count would cancel
    the server's own loss accounting and let a lossy window pass as
    complete.
    """
    try:
        dropped = raw.get("dropped", 0)
        if type(dropped) is not int or dropped < 0:
            raise ValueError(f"dropped {dropped!r} is not a count")
        return _new_tuple(
            Segment,
            (
                state_from_row(raw["previous"]),
                events_from_rows(raw["events"]),
                state_from_row(raw["current"]),
                dropped,
            ),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise HistoryError(f"malformed segment record {raw!r}: {exc}") from exc


# ------------------------------------------------------------------- sinks


#: The row :func:`sink_state_to_row` returns, field by field: the base
#: state is a state row (or null), the pending events are event rows.
SINK_FIELDS: Fields = (
    ("seq", INT),
    ("total_recorded", INT),
    ("last_state", OPTIONAL_LIST),
    ("pending", LIST),
    ("dropped_events", INT),
    ("pending_dropped", INT),
)


def sink_state_to_row(sink) -> list:
    """Snapshot an :class:`~repro.history.sink.EventSink`'s live state as
    a :data:`SINK_FIELDS` row.

    Captures everything a restarted checker needs to resume the sink's open
    checking window: the base state of the window (the last checkpoint's
    snapshot), the pending events, the sequence counter and the drop/total
    accounting.  The checkpoint supervisor persists one of these per
    registered monitor (see
    :meth:`repro.detection.supervision.CheckpointSupervisor.snapshot_state`).
    """
    last_state = sink.last_state
    return [
        sink._seq,
        sink._total_recorded,
        None if last_state is None else state_to_row(last_state),
        list(map(event_to_row, sink.pending_events)),
        sink.dropped_events,
        getattr(sink, "pending_dropped", 0),
    ]


def apply_sink_state(sink, row: list) -> None:
    """Restore a :func:`sink_state_to_row` row into a (fresh) sink.

    The whole row is decoded before the sink changes; a row of the wrong
    shape, or a base state or pending event that does not decode, raises
    :class:`~repro.errors.RecoveryError` naming the field.  The sink's
    storage is rebuilt through its own ``_append`` hook, so a bounded sink
    re-applies its capacity policy to the restored window.  Listeners are
    *not* invoked — restoration replays bookkeeping, not the recording hot
    path.
    """
    seq, total, last_state, pending, dropped, pending_dropped = check_row(
        row, SINK_FIELDS, "sink"
    )
    try:
        base = None if last_state is None else state_from_row(last_state)
    except HistoryError as exc:
        raise RecoveryError(f"sink field 'last_state': {exc}") from exc
    try:
        events = events_from_rows(pending)
    except HistoryError as exc:
        raise RecoveryError(f"sink field 'pending': {exc}") from exc
    sink._seq = seq
    sink._total_recorded = total
    sink._last_state = base
    for event in events:
        sink._append(event)
    if hasattr(sink, "_dropped_total"):
        # Bounded sinks: restore the drop accounting *after* the replay
        # above (replaying into a smaller buffer may itself evict and
        # count; the snapshot's totals are authoritative), so the next
        # cut's ``Segment.dropped`` matches what the crashed sink would
        # have reported.
        sink._dropped_total = dropped
        sink._dropped_in_window = pending_dropped


# ------------------------------------------------------------------- files


def dump_trace(
    stream: IO[str],
    events: Iterable[SchedulingEvent],
    states: Iterable[SchedulingState] = (),
) -> int:
    """Write checkpoint states, then events, one compact row per line.

    An event line is a WAL line (:func:`event_to_json_line`); a state
    line is the compact JSON of its :func:`state_to_row` row.  Returns the
    number of lines written.
    """
    written = 0
    for state in states:
        stream.write(
            json.dumps(state_to_row(state), separators=(",", ":")) + "\n"
        )
        written += 1
    for event in events:
        stream.write(event_to_json_line(event))
        written += 1
    return written


def load_trace(
    stream: IO[str],
) -> tuple[tuple[SchedulingEvent, ...], tuple[SchedulingState, ...]]:
    """Read a trace file back into (events, states).

    A 7-element row is an event, decoded by :func:`events_from_rows`; a
    6-element row is a state, decoded by :func:`state_from_row`.  Any
    other line raises :class:`~repro.errors.HistoryError` naming it.
    Events are re-sorted by sequence number so that concatenated or
    interleaved dumps still load as a well-ordered trace.
    """
    events: list[SchedulingEvent] = []
    states: list[SchedulingState] = []
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise HistoryError(
                f"line {line_number}: invalid JSON: {exc}"
            ) from exc
        width = len(row) if type(row) is list else None
        try:
            if width == 7:
                events += events_from_rows((row,))
            elif width == 6:
                states.append(state_from_row(row))
            else:
                raise HistoryError(f"not an event or a state row: {row!r}")
        except HistoryError as exc:
            raise HistoryError(f"line {line_number}: {exc}") from exc
    events.sort(key=lambda event: event.seq)
    states.sort(key=lambda state: state.time)
    return tuple(events), tuple(states)
