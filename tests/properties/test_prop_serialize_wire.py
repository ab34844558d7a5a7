"""Property tests: the window and report wire codecs round-trip exactly.

The detection service receives checking windows as JSON and journals
fault reports the same way — segments, states and reports all cross
through :mod:`repro.history.serialize` and
:mod:`repro.detection.reports`.  Whatever the sim produces,
``decode(encode(x)) == x`` must hold bit-for-bit (structural equality on
the frozen dataclasses), including lossy windows where the bounded sink
dropped events (``Segment.dropped > 0``), because the service's shadow
checkers must see exactly the window the client cut.  A window's states
and events travel as rows, so the round trips below run through the
service's own framing.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detection.reports import (
    Confidence,
    FaultReport,
    report_from_dict,
    report_to_dict,
)
from repro.detection.rules import FDRule, STRule
from repro.history import BoundedHistory
from repro.history.events import EventKind, SchedulingEvent
from repro.history.serialize import (
    events_from_rows,
    segment_from_dict,
    segment_to_dict,
    state_from_row,
    state_to_row,
)
from repro.history.sink import Segment
from repro.history.states import QueueEntry, SchedulingState
from repro.kernel import Delay, FifoPolicy, SimKernel
from repro.service.framing import FrameDecoder, encode_frame
from repro.service.protocol import segment_from_wire, segment_to_wire
from tests.history.test_serialize import any_events, events_strategy


# --------------------------------------------------------- strategies


@st.composite
def queue_entries(draw):
    return QueueEntry(
        draw(st.integers(1, 500)),
        draw(st.sampled_from(["Send", "Receive", "Request"])),
        draw(st.floats(0, 1e6, allow_nan=False, allow_infinity=False)),
    )


@st.composite
def states_strategy(draw):
    conds = draw(
        st.dictionaries(
            st.sampled_from(["full", "empty", "ready"]),
            st.tuples(queue_entries()),
            max_size=3,
        )
    )
    return SchedulingState(
        time=draw(st.floats(0, 1e6, allow_nan=False, allow_infinity=False)),
        entry_queue=tuple(draw(st.lists(queue_entries(), max_size=3))),
        cond_queues=conds,
        running=tuple(draw(st.lists(queue_entries(), max_size=2))),
        urgent=tuple(draw(st.lists(queue_entries(), max_size=2))),
        resource_count=draw(st.integers(0, 5)),
    )


@st.composite
def segments_strategy(draw):
    events = draw(st.lists(events_strategy(), max_size=12))
    return Segment(
        previous=draw(states_strategy()),
        events=tuple(events),
        current=draw(states_strategy()),
        # Lossy windows included: dropped > 0 is the DEGRADED-confidence
        # path and must survive the wire unchanged.
        dropped=draw(st.integers(0, 5)),
    )


def window_of(events) -> Segment:
    state = SchedulingState(
        time=1.0,
        entry_queue=(QueueEntry(4, 'say "hi"\\', 0.1 + 0.2),),
        cond_queues={"c\u00e9\n": (QueueEntry(5, "x", 1),)},
        running=(),
    )
    return Segment(
        previous=state, events=tuple(events), current=state, dropped=0
    )


@st.composite
def reports_strategy(draw):
    rule = draw(st.sampled_from(list(STRule) + list(FDRule)))
    return FaultReport(
        rule=rule,
        message=draw(st.sampled_from(["boom", "late exit", "pid 3 stuck"])),
        monitor=draw(st.sampled_from(["alloc", "buffer"])),
        detected_at=draw(
            st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
        ),
        pids=tuple(draw(st.lists(st.integers(1, 500), max_size=3))),
        event_seq=draw(st.one_of(st.none(), st.integers(0, 10_000))),
        window_start=draw(
            st.one_of(
                st.none(),
                st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
            )
        ),
        confidence=draw(st.sampled_from(list(Confidence))),
    )


# ------------------------------------------------------ arbitrary inputs


class TestWireRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(segment=segments_strategy())
    def test_any_segment_round_trips(self, segment):
        assert segment_from_dict(segment_to_dict(segment)) == segment

    @settings(max_examples=100, deadline=None)
    @given(events=st.lists(any_events(), max_size=12))
    def test_batch_event_decoder_matches_reference(self, events):
        # Reference codec: each event as the array of its fields in
        # order, the kind by value; decoded one constructor call each.
        reference = [
            [e.seq, e.kind.value, e.pid, e.pname, e.time, e.flag, e.cond]
            for e in events
        ]
        assert segment_to_dict(window_of(events))["events"] == reference
        records = json.loads(json.dumps(reference))
        decoded = events_from_rows(records)
        assert decoded == tuple(
            SchedulingEvent(r[0], EventKind(r[1]), *r[2:]) for r in records
        )
        assert decoded == tuple(events)

    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(any_events(), max_size=12))
    @example(events=[])
    @example(
        events=[
            SchedulingEvent(
                2**63, EventKind.WAIT, -1, '"\\', 0.1 + 0.2, 0, "\x00"
            ),
            SchedulingEvent(0, EventKind.SIGNAL, 0, "\U0001f600", -0.0, 1),
        ]
    )
    def test_any_event_list_survives_the_wire(self, events):
        segment = window_of(events)
        frame = encode_frame(segment_to_wire(segment))
        (decoded,) = FrameDecoder().feed(frame)
        rebuilt = segment_from_wire(decoded)
        assert rebuilt == segment
        assert all(type(event) is SchedulingEvent for event in rebuilt.events)

    @settings(max_examples=150, deadline=None)
    @given(report=reports_strategy())
    def test_any_report_round_trips(self, report):
        record = report_to_dict(report)
        assert report_from_dict(json.loads(json.dumps(record))) == report


# ------------------------------------------------------ seeded sim runs


def run_detected_workload(*, bounded=None, seed_delay=0.1):
    """A seeded allocator run with a bare-release order violation.

    Returns the session's engine after the workload drained: its report
    stream is non-empty (the replay checker flags the rogue release) and,
    with ``bounded``, its capture windows carry ``dropped > 0``.
    """
    from repro.apps import SingleResourceAllocator
    from repro.detection import DetectionEngine, DetectorConfig
    from repro.history import HistoryDatabase

    kernel = SimKernel(FifoPolicy(), on_deadlock="stop")
    history = BoundedHistory(bounded) if bounded else HistoryDatabase()
    allocator = SingleResourceAllocator(kernel, history=history)
    config = DetectorConfig(
        interval=0.5,
        tmax=120.0,
        tio=120.0,
        tlimit=120.0,
        realtime_orders=False,
        incremental_checking=False,
    )
    engine = DetectionEngine(kernel, config)
    engine.register(allocator)

    def user():
        for __ in range(6):
            yield Delay(seed_delay)
            yield from allocator.request()
            yield Delay(0.05)
            yield from allocator.release()

    def rogue():
        yield Delay(3.0)
        yield from allocator.release()

    kernel.spawn(user(), "user")
    kernel.spawn(rogue(), "rogue")
    return kernel, engine


class TestSeededSimWindows:
    def _captures(self, *, bounded=None):
        kernel, engine = run_detected_workload(bounded=bounded)
        captures = []

        def pacer():
            while True:
                yield Delay(0.5)
                engine.capture_phase()
                captures.extend(engine._pending_captures)
                engine.evaluate_phase()

        kernel.spawn(pacer(), "pacer")
        kernel.run(until=6.0)
        return captures, engine

    def test_sim_lossy_windows_round_trip_with_drop_count(self):
        captures, engine = self._captures(bounded=3)
        dropped = [c for c in captures if c.segment.dropped > 0]
        assert dropped, "bounded sink produced no lossy windows"
        for capture in dropped:
            decoded = segment_from_dict(segment_to_dict(capture.segment))
            assert decoded == capture.segment
            assert decoded.dropped == capture.segment.dropped
            assert not decoded.complete

    def test_sim_reports_round_trip(self):
        captures, engine = self._captures()
        reports = engine.reports
        assert reports, "rogue release produced no fault report"
        for report in reports:
            record = json.loads(json.dumps(report_to_dict(report)))
            assert report_from_dict(record) == report

    def test_sim_states_round_trip(self):
        captures, engine = self._captures()
        for capture in captures:
            row = json.loads(json.dumps(state_to_row(capture.snapshot)))
            assert state_from_row(row) == capture.snapshot
