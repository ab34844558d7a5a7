"""Tests for history serialisation: event and state rows, trace files
and the WAL's line encoders."""

import io
import json
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import HistoryError
from repro.history.events import (
    EventKind,
    SchedulingEvent,
    enter_event,
    signal_exit_event,
    wait_event,
)
from repro.history.serialize import (
    dump_trace,
    event_to_json_line,
    event_to_json_line_reusing_time,
    event_to_row,
    events_from_rows,
    load_trace,
    state_from_row,
    state_to_row,
)
from repro.history.states import QueueEntry, SchedulingState


def sample_state():
    return SchedulingState(
        time=4.2,
        entry_queue=(QueueEntry(1, "Send", 1.0),),
        cond_queues={"full": (QueueEntry(2, "Send", 2.0),), "empty": ()},
        running=(QueueEntry(3, "Receive", 3.0),),
        urgent=(QueueEntry(4, "Send", 3.5),),
        resource_count=2,
    )


#: Field names of a state row, in order.
STATE_SLOTS = (
    "time", "entry_queue", "cond_queues", "running", "urgent",
    "resource_count",
)


def state_row_with(**fields):
    """:func:`sample_state`'s row with ``fields`` replaced."""
    row = state_to_row(sample_state())
    for name, value in fields.items():
        row[STATE_SLOTS.index(name)] = value
    return row


#: An event and a state in the keyed form earlier versions wrote; no
#: decoder reads either.
KEYED_EVENT = {
    "kind": "event", "event": "Enter", "seq": 0, "pid": 1, "pname": "Op",
    "time": 0.0, "flag": 1,
}
KEYED_STATE = {
    "kind": "state", "time": 4.2, "entry_queue": [], "cond_queues": {},
    "running": [], "urgent": [], "resource_count": None,
}


class TestDictRoundTrips:
    """Each record's row codec round-trips (through JSON where it says)."""

    def test_event_round_trip(self):
        event = signal_exit_event(7, 3, "Send", 1.25, flag=1, cond="empty")
        row = event_to_row(event)
        assert row == [7, "Signal-Exit", 3, "Send", 1.25, 1, "empty"]
        assert events_from_rows([row]) == (event,)

    def test_event_without_cond(self):
        event = enter_event(0, 1, "Op", 0.0, 1)
        row = event_to_row(event)
        assert row[6] is None
        assert events_from_rows(json.loads(json.dumps([row]))) == (event,)

    def test_state_round_trip(self):
        state = sample_state()
        row = state_to_row(state)
        assert row == [
            4.2,
            [[1, "Send", 1.0]],
            {"full": [[2, "Send", 2.0]], "empty": []},
            [[3, "Receive", 3.0]],
            [[4, "Send", 3.5]],
            2,
        ]
        loaded = state_from_row(json.loads(json.dumps(row)))
        assert loaded.time == state.time
        assert loaded.entry_queue == state.entry_queue
        assert dict(loaded.cond_queues) == dict(state.cond_queues)
        assert loaded.running == state.running
        assert loaded.urgent == state.urgent
        assert loaded.resource_count == state.resource_count

    def test_wrong_kind_rejected(self):
        # An event row is no state row, and a state row no event row.
        with pytest.raises(HistoryError):
            events_from_rows([state_to_row(sample_state())])
        with pytest.raises(HistoryError):
            state_from_row(event_to_row(enter_event(0, 1, "Op", 0.0, 1)))

    def test_malformed_event_rejected(self):
        with pytest.raises(HistoryError):
            events_from_rows([[0, "Nonsense", 1, "Op", 0.0, 0, None]])


#: Well-formed JSON event rows that a trace file may not hold.  The
#: first two reach the event constructor's own checks:
#: ``SchedulingEvent._make`` and ``_replace`` skip them and would accept
#: both, so these pin that the file reader gives every event those
#: checks.  The last two name no event kind.
INVALID_EVENTS = {
    "flag-2": [0, "Enter", 1, "Op", 0.0, 2, None],
    "wait-without-cond": [0, "Wait", 1, "Op", 0.0, 0, None],
    "unknown-kind": [0, "Nonsense", 1, "Op", 0.0, 0, None],
    "kind-array": [0, ["Enter"], 1, "Op", 0.0, 0, None],
}

#: A valid positional wire event: ``[seq, kind, pid, pname, time, flag,
#: cond]``.
VALID_WIRE = [3, "Wait", 2, "Op", 0.5, 0, "full"]


def _wire_with(slot, value):
    record = list(VALID_WIRE)
    record[slot] = value
    return record


#: Wire events that differ from :data:`VALID_WIRE` in exactly one slot:
#: its flag, its cond, its kind, its length or one field's type.  The
#: first two reach the constructor's two checks, which the decoder runs
#: inline before it builds the tuple.
INVALID_WIRE_EVENTS = {
    "flag-2": _wire_with(5, 2),
    "wait-without-cond": _wire_with(6, None),
    "unknown-kind": _wire_with(1, "Nonsense"),
    "kind-number": _wire_with(1, 0),
    "six-elements": VALID_WIRE[:6],
    "eight-elements": VALID_WIRE + [None],
    "seq-string": _wire_with(0, "3"),
    "seq-true": _wire_with(0, True),
    "seq-float": _wire_with(0, 3.0),
    "pid-string": _wire_with(2, "2"),
    "pid-null": _wire_with(2, None),
    "pid-false": _wire_with(2, False),
    "pname-number": _wire_with(3, 7),
    "pname-null": _wire_with(3, None),
    "time-string": _wire_with(4, "late"),
    "time-null": _wire_with(4, None),
    "time-true": _wire_with(4, True),
    "time-nan": _wire_with(4, float("nan")),
    "time-infinity": _wire_with(4, float("inf")),
    "time-minus-infinity": _wire_with(4, float("-inf")),
    "time-400-digit-int": _wire_with(4, 10**400),
    "flag-string": _wire_with(5, "0"),
    "flag-false": _wire_with(5, False),
    "flag-float": _wire_with(5, 0.0),
    "cond-number": _wire_with(6, 1),
    "cond-array": _wire_with(6, ["full"]),
}


class TestDecoderValidation:
    @pytest.mark.parametrize("name", sorted(INVALID_EVENTS))
    def test_event_from_dict_rejects(self, name):
        # The trace reader refuses the line, naming it.
        text = "\n" + json.dumps(INVALID_EVENTS[name]) + "\n"
        with pytest.raises(HistoryError, match="line 2"):
            load_trace(io.StringIO(text))

    @pytest.mark.parametrize("name", sorted(INVALID_WIRE_EVENTS))
    def test_events_from_wire_rejects(self, name):
        good = [0, "Enter", 2, "Op", 0.5, 1, None]
        assert events_from_rows([good, VALID_WIRE])
        with pytest.raises(HistoryError):
            events_from_rows([good, list(INVALID_WIRE_EVENTS[name])])

    def test_events_from_wire_decodes_valid_batch(self):
        events = (
            enter_event(0, 1, "Send", 0.1, 1),
            wait_event(1, 1, "Send", "full", 0.2),
            signal_exit_event(2, 2, "Receive", 0.3, 1, cond="full"),
            signal_exit_event(3, 2, "Receive", 4, 0),
        )
        records = [
            [0, "Enter", 1, "Send", 0.1, 1, None],
            [1, "Wait", 1, "Send", 0.2, 0, "full"],
            [2, "Signal-Exit", 2, "Receive", 0.3, 1, "full"],
            [3, "Signal-Exit", 2, "Receive", 4, 0, None],
        ]
        decoded = events_from_rows(records)
        assert decoded == events
        assert all(type(event) is SchedulingEvent for event in decoded)

    @pytest.mark.parametrize(
        "record",
        [
            KEYED_EVENT,
            dict(KEYED_EVENT, event="Wait", flag=0, cond="full"),
            (0, "Enter", 1, "Op", 0.0, 1, None),
            "Enter!!",
        ],
        ids=["keyed-object", "keyed-object-with-cond", "tuple", "string"],
    )
    def test_events_from_wire_takes_only_arrays(self, record):
        # The keyed object earlier versions wrote is not an event row;
        # nor is a 7-item sequence of another type, even though it would
        # unpack into seven fields.
        with pytest.raises(HistoryError):
            events_from_rows([record])

    @pytest.mark.parametrize("record", [None, 5, [1, 2, 3], "Enter"])
    def test_non_object_event_rejected(self, record):
        with pytest.raises(HistoryError):
            events_from_rows([record])
        with pytest.raises(HistoryError, match="line 1"):
            load_trace(io.StringIO(json.dumps(record) + "\n"))

    @pytest.mark.parametrize("record", [None, 5, [1, 2, 3]])
    def test_non_object_state_rejected(self, record):
        with pytest.raises(HistoryError):
            state_from_row(record)

    def test_keyed_state_rejected(self):
        with pytest.raises(HistoryError):
            state_from_row(KEYED_STATE)

    @pytest.mark.parametrize("cond_queues", [None, 5, [1, 2, 3], "full"])
    def test_non_object_cond_queues_rejected(self, cond_queues):
        with pytest.raises(HistoryError):
            state_from_row(state_row_with(cond_queues=cond_queues))

    @pytest.mark.parametrize(
        "entry",
        [
            "abc",
            ["a", "b", "c"],
            [3, "Receive"],
            [3, "Receive", 3.0, 1],
            [True, "Receive", 3.0],
            [3.0, "Receive", 3.0],
            [3, None, 3.0],
            [3, "Receive", "3.0"],
            [3, "Receive", None],
            [3, "Receive", True],
            [3, "Receive", float("nan")],
            [3, "Receive", float("inf")],
            [3, "Receive", float("-inf")],
            [3, "Receive", 10**400],
            {"pid": 3, "pname": "Receive", "since": 3.0},
        ],
        ids=[
            "string", "three-strings", "two-elements", "four-elements",
            "pid-true", "pid-float", "pname-null", "since-string",
            "since-null", "since-true", "since-nan", "since-infinity",
            "since-minus-infinity", "since-400-digit-int", "object",
        ],
    )
    @pytest.mark.parametrize(
        "queue", ["entry_queue", "running", "urgent", "cond_queue"]
    )
    def test_malformed_queue_entry_rejected(self, queue, entry):
        row = state_to_row(sample_state())
        if queue == "cond_queue":
            row[STATE_SLOTS.index("cond_queues")]["full"] = [entry]
        else:
            row[STATE_SLOTS.index(queue)] = [entry]
        with pytest.raises(HistoryError):
            state_from_row(row)

    @pytest.mark.parametrize("queue", ["entry_queue", "running", "urgent"])
    @pytest.mark.parametrize("value", [None, "abc", {}, 5])
    def test_non_array_queue_rejected(self, queue, value):
        with pytest.raises(HistoryError):
            state_from_row(state_row_with(**{queue: value}))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time", "late"),
            ("time", None),
            ("time", True),
            ("time", float("nan")),
            ("time", float("inf")),
            ("time", float("-inf")),
            pytest.param("time", -(10**400), id="time-minus-400-digit-int"),
            ("resource_count", "3"),
            ("resource_count", 3.0),
            ("resource_count", False),
        ],
    )
    def test_malformed_state_scalar_rejected(self, field, value):
        with pytest.raises(HistoryError):
            state_from_row(state_row_with(**{field: value}))

    @pytest.mark.parametrize("width", [5, 7])
    def test_state_row_of_another_width_rejected(self, width):
        row = state_to_row(sample_state())
        row = row[:width] if width < len(row) else [*row, None]
        with pytest.raises(HistoryError):
            state_from_row(row)

    def test_integer_since_is_a_number(self):
        row = state_row_with(running=[[3, "Receive", 3]])
        running = state_from_row(row).running
        assert running == (QueueEntry(3, "Receive", 3),)


class TestStreamRoundTrips:
    def test_dump_and_load(self):
        events = (
            enter_event(0, 1, "Send", 0.1, 1),
            wait_event(1, 1, "Send", "full", 0.2),
            signal_exit_event(2, 2, "Receive", 0.3, 1, cond="full"),
        )
        states = (sample_state(),)
        buffer = io.StringIO()
        written = dump_trace(buffer, events, states)
        assert written == 4
        # One compact row per line; an event line is a WAL line.
        lines = buffer.getvalue().splitlines(keepends=True)
        assert json.loads(lines[0]) == state_to_row(states[0])
        assert lines[1:] == [event_to_json_line(event) for event in events]
        buffer.seek(0)
        loaded_events, loaded_states = load_trace(buffer)
        assert loaded_events == events
        assert loaded_states == states

    def test_events_resorted_by_seq(self):
        events = (
            enter_event(5, 1, "Send", 0.5, 1),
            enter_event(2, 2, "Send", 0.2, 0),
        )
        buffer = io.StringIO()
        dump_trace(buffer, events)
        buffer.seek(0)
        loaded, __ = load_trace(buffer)
        assert [event.seq for event in loaded] == [2, 5]

    def test_blank_lines_skipped(self):
        buffer = io.StringIO('\n[0, "Enter", 1, "Op", 0.0, 1, null]\n\n')
        events, states = load_trace(buffer)
        assert len(events) == 1 and states == ()

    def test_invalid_json_rejected_with_line_number(self):
        buffer = io.StringIO("{not json}\n")
        with pytest.raises(HistoryError, match="line 1"):
            load_trace(buffer)

    def test_unknown_kind_rejected(self):
        buffer = io.StringIO('{"kind": "mystery"}\n')
        with pytest.raises(
            HistoryError, match="line 1: not an event or a state row"
        ):
            load_trace(buffer)

    @pytest.mark.parametrize(
        "record", [KEYED_EVENT, KEYED_STATE], ids=["event", "state"]
    )
    def test_keyed_trace_line_is_refused(self, record):
        # The keyed objects earlier versions wrote are refused, naming
        # the line, never misread.
        good = event_to_json_line(enter_event(0, 1, "Op", 0.0, 1))
        buffer = io.StringIO(good + json.dumps(record) + "\n")
        with pytest.raises(HistoryError, match="line 2"):
            load_trace(buffer)


# hypothesis strategies for arbitrary events
kinds = st.sampled_from(list(EventKind))


@st.composite
def events_strategy(draw):
    kind = draw(kinds)
    cond = draw(st.sampled_from(["full", "empty", None]))
    if kind is EventKind.WAIT and cond is None:
        cond = "full"
    flag = 0 if kind is EventKind.WAIT else draw(st.integers(0, 1))
    return SchedulingEvent(
        seq=draw(st.integers(0, 10_000)),
        kind=kind,
        pid=draw(st.integers(1, 500)),
        pname=draw(st.sampled_from(["Send", "Receive", "Request", "Op"])),
        time=draw(
            st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
        ),
        flag=flag,
        cond=cond,
    )


class TestPropertyRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(event=events_strategy())
    def test_any_event_round_trips(self, event):
        assert events_from_rows([event_to_row(event)]) == (event,)

    @settings(max_examples=50, deadline=None)
    @given(events=st.lists(events_strategy(), max_size=20))
    def test_any_trace_round_trips(self, events):
        unique = {event.seq: event for event in events}
        trace = tuple(sorted(unique.values(), key=lambda e: e.seq))
        buffer = io.StringIO()
        dump_trace(buffer, trace)
        buffer.seek(0)
        loaded, __ = load_trace(buffer)
        assert loaded == trace


#: Names with everything a JSON string escape has to get right: quotes,
#: backslashes, control characters and non-ASCII (astral included).
names = st.text(
    st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
    | st.characters()
)


def _needs_17_digits(value: float) -> bool:
    return float(f"{value:.16g}") != value


#: Finite times, including ones whose shortest repr needs all 17
#: significant digits, and integers (a JSON number may decode to either).
times = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).filter(_needs_17_digits)
    | st.integers(-(2**53), 2**53)
)


@st.composite
def any_events(draw):
    """Every kind, with and without ``cond``; any finite or integer time;
    names with quotes, backslashes, control and non-ASCII characters."""
    kind = draw(kinds)
    cond = draw(names if kind is EventKind.WAIT else st.none() | names)
    return SchedulingEvent(
        seq=draw(st.integers(0, 2**63)),
        kind=kind,
        pid=draw(st.integers(-1, 2**31)),
        pname=draw(names),
        time=draw(times),
        flag=0 if kind is EventKind.WAIT else draw(st.integers(0, 1)),
        cond=cond,
    )


queues = st.lists(
    st.builds(QueueEntry, st.integers(-1, 2**31), names, times), max_size=3
).map(tuple)


@st.composite
def any_states(draw):
    """States with such names and times in every queue."""
    return SchedulingState(
        time=draw(times),
        entry_queue=draw(queues),
        cond_queues=draw(st.dictionaries(names, queues, max_size=3)),
        running=draw(queues),
        urgent=draw(queues),
        resource_count=draw(st.none() | st.integers(-(2**31), 2**31)),
    )


def through_json(value):
    return json.loads(json.dumps(value))


class TestRowCodecProperties:
    """Each decoder inverts its encoder, through JSON, for any record."""

    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(any_events(), max_size=8))
    @example(
        events=[
            SchedulingEvent(
                2**63, EventKind.WAIT, -1, '"\\', 0.1 + 0.2, 0, "\x00"
            ),
            SchedulingEvent(0, EventKind.SIGNAL, 0, "\U0001f600", -0.0, 1),
            SchedulingEvent(1, EventKind.ENTER, 2, "Op", 2**53, 1),
        ]
    )
    def test_events_from_rows_inverts_event_to_row(self, events):
        rows = through_json([event_to_row(event) for event in events])
        decoded = events_from_rows(rows)
        assert decoded == tuple(events)
        assert [type(event.time) for event in decoded] == [
            type(event.time) for event in events
        ]

    @settings(max_examples=150, deadline=None)
    @given(state=any_states())
    def test_state_from_row_inverts_state_to_row(self, state):
        assert state_from_row(through_json(state_to_row(state))) == state


#: Times that text reused on equality, not identity, would print wrongly:
#: ``1`` and ``1.0`` compare equal but print differently, as do ``0.0``
#: and ``-0.0``; also the smallest subnormals, 17-digit times, and float
#: objects equal to, but distinct from, pooled ones.
HAZARD_TIMES = (
    1, 1.0, 0, 0.0, -0.0, 5e-324, -5e-324,
    0.30000000000000004, 1.0999999999999999, 2.0899999999999985,
    float("1"), float("0.30000000000000004"), float("-0"),
)
hazard_times = st.sampled_from(HAZARD_TIMES) | st.floats(
    allow_nan=False, allow_infinity=False
)


def time_event(seq, time):
    return SchedulingEvent(seq, EventKind.ENTER, 1, "Op", time, 1)


def compact_row(event):
    """The reference WAL line: the event row through compact
    ``json.dumps``."""
    return json.dumps(event_to_row(event), separators=(",", ":")) + "\n"


class TestFusedEncoder:
    """``event_to_json_line`` and ``event_to_json_line_reusing_time`` are
    the WAL's per-event encoders: both must stay byte-identical to the
    event row through compact ``json.dumps``."""

    @settings(max_examples=300, deadline=None)
    @given(event=any_events())
    @example(event=time_event(0, 2**53))
    @example(event=time_event(1, 0.30000000000000004))
    def test_matches_json_dumps_and_round_trips(self, event):
        line = event_to_json_line(event)
        assert line == compact_row(event)
        assert event_to_json_line_reusing_time(event) == line
        assert events_from_rows([json.loads(line)]) == (event,)

    @settings(max_examples=200, deadline=None)
    @given(times=st.lists(hazard_times, max_size=60))
    @example(times=[1.0, 1, 1.0, 0.0, -0.0, 0.0, 1, -0.0])
    def test_time_memo_keeps_each_times_own_text(self, times):
        # The pool hands out the same objects again, so the reusing
        # encoder meets both the same time object and equal ones.
        for seq, time in enumerate(times):
            event = time_event(seq, time)
            assert event_to_json_line_reusing_time(event) == compact_row(event)

    def test_concurrent_encoders_keep_each_times_own_text(self):
        # Four threads over disjoint sets of 17-digit times, each time
        # object used three times in a row, switching often, so one
        # thread's reuse interleaves with another's.
        failures = []

        def encode(base):
            times = [base + step / 7 for step in range(40)]
            for seq in range(4000):
                event = time_event(seq, times[seq // 3 % len(times)])
                if event_to_json_line_reusing_time(event) != compact_row(event):
                    failures.append(event)

        threads = [
            threading.Thread(target=encode, args=(base,))
            for base in (100, 200, 300, 400)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestEndToEnd:
    def test_dump_live_run_and_recheck_offline(self, kernel, tmp_path):
        """Persist a real run's trace to disk and re-check it offline."""
        from repro.apps import BoundedBuffer
        from repro.detection import check_full_trace
        from repro.history import HistoryDatabase
        from tests.conftest import consumer, producer

        history = HistoryDatabase(retain_full_trace=True)
        buffer = BoundedBuffer(kernel, capacity=3, history=history)
        kernel.spawn(producer(buffer, 10))
        kernel.spawn(consumer(buffer, 10))
        kernel.run(until=10)
        kernel.raise_failures()

        path = tmp_path / "trace.jsonl"
        with path.open("w") as stream:
            dump_trace(stream, history.full_trace, history.full_states)
        with path.open() as stream:
            events, states = load_trace(stream)
        assert events == history.full_trace
        reports = check_full_trace(buffer.declaration, events)
        assert reports == []


class TestSinkStateRoundTrip:
    """sink_state_to_row / apply_sink_state, including drop accounting."""

    @staticmethod
    def _state(t):
        return SchedulingState(
            time=t, entry_queue=(), cond_queues={}, running=()
        )

    def _saturated_bounded(self, capacity=4, recorded=10):
        from repro.history import BoundedHistory

        sink = BoundedHistory(capacity)
        sink.open(self._state(0.0))
        for seq in range(recorded):
            sink.record(enter_event(seq, 1, "Send", float(seq), 1))
        return sink

    def test_bounded_drop_accounting_round_trips(self):
        from repro.history import BoundedHistory
        from repro.history.serialize import (
            SINK_FIELDS,
            apply_sink_state,
            sink_state_to_row,
        )

        sink = self._saturated_bounded(capacity=4, recorded=10)
        assert sink.pending_dropped == 6
        record = sink_state_to_row(sink)
        assert dict(zip((name for name, __ in SINK_FIELDS), record))[
            "pending_dropped"
        ] == 6

        restored = BoundedHistory(4)
        restored.open(self._state(0.0))
        apply_sink_state(restored, record)
        assert restored.total_recorded == sink.total_recorded
        assert restored.dropped_events == sink.dropped_events
        assert restored.pending_dropped == sink.pending_dropped
        assert restored.pending_events == sink.pending_events
        # The restored sink's next cut reports the same window losses the
        # crashed sink would have: degraded-mode confidence survives a
        # restart instead of silently resetting to "complete".
        original_cut = sink.cut(self._state(20.0))
        restored_cut = restored.cut(self._state(20.0))
        assert restored_cut.dropped == original_cut.dropped
        assert restored_cut.complete == original_cut.complete

    def test_restore_into_smaller_buffer_keeps_authoritative_totals(self):
        from repro.history import BoundedHistory
        from repro.history.serialize import (
            apply_sink_state,
            sink_state_to_row,
        )

        sink = self._saturated_bounded(capacity=8, recorded=6)
        assert sink.dropped_events == 0
        record = sink_state_to_row(sink)
        # Replaying 6 pending events into capacity 2 evicts 4 of them —
        # but those evictions happened during *restoration*, not in the
        # monitored run; the snapshot's accounting is authoritative.
        restored = BoundedHistory(2)
        restored.open(self._state(0.0))
        apply_sink_state(restored, record)
        assert restored.dropped_events == 0
        assert restored.pending_dropped == 0
        assert restored.live_events == 2

    def test_unbounded_sink_round_trips(self):
        from repro.history import HistoryDatabase
        from repro.history.serialize import (
            apply_sink_state,
            sink_state_to_row,
        )

        sink = HistoryDatabase()
        sink.open(self._state(0.0))
        for seq in range(5):
            sink.record(enter_event(seq, 2, "Receive", float(seq), 1))
        record = sink_state_to_row(sink)
        restored = HistoryDatabase()
        restored.open(self._state(0.0))
        apply_sink_state(restored, record)
        assert restored.pending_events == sink.pending_events
        assert restored.total_recorded == sink.total_recorded
        assert restored.dropped_events == 0
