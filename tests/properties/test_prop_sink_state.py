"""Property tests: sink-state snapshots round-trip for every sink type.

The checkpoint supervisor and the durability layer both persist live sink
state via :func:`sink_state_to_row` and rebuild it with
:func:`apply_sink_state`.  For arbitrary event streams and arbitrary ring
capacities, the restored sink must be observationally identical: same
pending window, same sequence counter, same drop accounting — and its
next cut must report the same losses (so degraded-mode confidence
survives a restart).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.history import BoundedHistory, HistoryDatabase, SchedulingEvent
from repro.history.serialize import apply_sink_state, sink_state_to_row
from repro.history.states import SchedulingState
from tests.history.test_serialize import events_strategy


def blank_state(t=0.0):
    return SchedulingState(time=t, entry_queue=(), cond_queues={}, running=())


def fill(sink, events):
    sink.open(blank_state())
    for seq, event in enumerate(events):
        # Recorded seqs must be unique and increasing for replay parity.
        # Rebuilt through the validating constructor, not ``_replace``.
        sink.record(SchedulingEvent(seq, *event[1:]))
    return sink


def assert_round_trips(sink, fresh):
    record = sink_state_to_row(sink)
    fresh.open(blank_state())
    apply_sink_state(fresh, record)
    assert fresh.pending_events == sink.pending_events
    assert fresh.total_recorded == sink.total_recorded
    assert fresh.dropped_events == sink.dropped_events
    assert fresh.next_seq() == sink.next_seq()
    original_cut = sink.cut(blank_state(1e9))
    restored_cut = fresh.cut(blank_state(1e9))
    assert restored_cut.events == original_cut.events
    assert restored_cut.dropped == original_cut.dropped
    assert restored_cut.complete == original_cut.complete


class TestBoundedSinkStateProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        events=st.lists(events_strategy(), max_size=30),
        capacity=st.integers(1, 12),
    )
    def test_bounded_round_trip_any_stream(self, events, capacity):
        sink = fill(BoundedHistory(capacity), events)
        assert_round_trips(sink, BoundedHistory(capacity))

    @settings(max_examples=50, deadline=None)
    @given(events=st.lists(events_strategy(), max_size=30))
    def test_unbounded_round_trip_any_stream(self, events):
        sink = fill(HistoryDatabase(), events)
        assert_round_trips(sink, HistoryDatabase())

    @settings(max_examples=50, deadline=None)
    @given(
        events=st.lists(events_strategy(), min_size=5, max_size=30),
        capacity=st.integers(1, 4),
    )
    def test_pending_dropped_survives_restart(self, events, capacity):
        sink = fill(BoundedHistory(capacity), events)
        fresh = BoundedHistory(capacity)
        fresh.open(blank_state())
        apply_sink_state(fresh, sink_state_to_row(sink))
        assert fresh.pending_dropped == sink.pending_dropped
