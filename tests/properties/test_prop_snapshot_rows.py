"""Property tests: every positional row of a durable snapshot round-trips.

A durable snapshot stores each component's state as a row whose fields
the component declares beside its codec: the supervisor's
``SNAPSHOT_FIELDS`` and ``MONITOR_FIELDS`` (breaker fields), the
counter rows, ``SINK_FIELDS`` and each checker's ``STATE_FIELDS``.  For
arbitrary states a row must survive JSON and restore an equal object.  A
row one field short or long, or with any one field of a wrong type, must
be refused with :class:`~repro.errors.RecoveryError` naming that field,
never an ``IndexError`` or ``TypeError`` from inside a restore.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BoundedBuffer
from repro.detection import DetectionEngine, DetectorConfig
from repro.detection.algorithm1 import (
    STATE_FIELDS as ALGORITHM1_FIELDS,
    IncrementalConcurrencyChecker,
)
from repro.detection.algorithm2 import (
    STATE_FIELDS as ALGORITHM2_FIELDS,
    ResourceStateChecker,
)
from repro.detection.algorithm3 import (
    STATE_FIELDS as ALGORITHM3_FIELDS,
    CallingOrderChecker,
)
from repro.detection.engine import (
    _ENGINE_FIELDS,
    _ENGINE_PERSISTED,
    _MONITOR_FIELDS,
    _MONITOR_PERSISTED,
)
from repro.detection.supervision import (
    MONITOR_FIELDS,
    BreakerState,
    CheckpointSupervisor,
)
from repro.errors import RecoveryError
from repro.history import BoundedHistory
from repro.history.serialize import (
    SINK_FIELDS,
    apply_sink_state,
    sink_state_to_row,
)
from repro.kernel import RandomPolicy, SimKernel
from tests.detection.test_algorithms import (
    allocator_declaration,
    coordinator_declaration,
)
from tests.properties.test_prop_serialize_wire import states_strategy
from tests.properties.test_prop_sink_state import blank_state, fill
from tests.history.test_serialize import events_strategy

counts = st.integers(0, 10**6)
times = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)

#: Values of every JSON type; a damaged field takes one whose type its
#: table does not allow.
WRONG_VALUES = ("x", 1.5, 7, True, None, [], {})


def through_json(row):
    """The row as a snapshot slot stores and loads it."""
    return json.loads(json.dumps(row))


@st.composite
def damaged(draw, row, fields):
    """A copy of ``row`` one field short or long, or with one field of a
    wrong type, and the name of the field its refusal must give."""
    how = draw(st.sampled_from(("short", "long", "type")))
    if how == "short":
        cut = draw(st.integers(0, len(fields) - 1))
        return row[:cut], fields[cut][0]
    if how == "long":
        return [*row, 0], fields[-1][0]
    index = draw(st.integers(0, len(fields) - 1))
    name, types = fields[index]
    copy = list(row)
    copy[index] = draw(
        st.sampled_from([v for v in WRONG_VALUES if type(v) not in types])
    )
    return copy, name


def assert_refused(restore, row, name):
    with pytest.raises(RecoveryError, match=re.escape(repr(name))):
        restore(row)


def buffer_entry():
    """A fresh engine over one bounded buffer, and its entry."""
    kernel = SimKernel(RandomPolicy(seed=0))
    engine = DetectionEngine(kernel, DetectorConfig())
    return engine, engine.register(BoundedBuffer(kernel, capacity=3))


# ------------------------------------------------- breaker fields, counters


@st.composite
def monitor_records(draw):
    state = draw(st.sampled_from(list(BreakerState)))
    opened_at = draw(st.one_of(st.none(), times))
    counters = draw(
        st.lists(
            counts,
            min_size=len(_MONITOR_PERSISTED),
            max_size=len(_MONITOR_PERSISTED),
        )
    )
    return state, draw(counts), draw(counts), draw(counts), opened_at, counters


def observe_monitor(entry):
    breaker = entry.breaker
    return (
        breaker.state,
        breaker.consecutive_failures,
        breaker.times_opened,
        breaker.times_reclosed,
        breaker.opened_at,
        [getattr(entry, attr) for attr in _MONITOR_PERSISTED],
    )


def supervisor_of(engine):
    return CheckpointSupervisor(
        engine.checkpoint, engine.kernel, engine.config
    )


class TestMonitorRows:
    @settings(max_examples=50, deadline=None)
    @given(record=monitor_records(), rounds=st.tuples(counts, counts))
    def test_breaker_fields_and_counters_round_trip(self, record, rounds):
        engine, entry = buffer_entry()
        state, failures, opened, reclosed, opened_at, counters = record
        breaker = entry.breaker
        breaker.state = state
        breaker.consecutive_failures = failures
        breaker.times_opened = opened
        breaker.times_reclosed = reclosed
        breaker.opened_at = opened_at
        for attr, value in zip(_MONITOR_PERSISTED, counters):
            setattr(entry, attr, value)
        supervisor = supervisor_of(engine)
        supervisor.checkpoints_completed, supervisor.checkpoints_abandoned = (
            rounds
        )
        row = through_json(supervisor.snapshot_state(engine.entries))

        engine2, entry2 = buffer_entry()
        supervisor2 = supervisor_of(engine2)
        assert supervisor2.restore_state(row, engine2.entries) == [
            entry2.label
        ]
        assert observe_monitor(entry2) == observe_monitor(entry)
        assert (
            supervisor2.checkpoints_completed,
            supervisor2.checkpoints_abandoned,
        ) == rounds
        assert supervisor2.snapshot_state(engine2.entries) == row

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_damaged_monitor_row_is_refused(self, data):
        engine, __ = buffer_entry()
        completed, abandoned, [row] = supervisor_of(engine).snapshot_state(
            engine.entries
        )
        bad, name = data.draw(damaged(row, MONITOR_FIELDS))
        engine2, __ = buffer_entry()
        supervisor2 = supervisor_of(engine2)
        assert_refused(
            lambda r: supervisor2.restore_state(
                [completed, abandoned, [r]], engine2.entries
            ),
            bad,
            name,
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_damaged_counter_row_is_refused(self, data):
        __, entry = buffer_entry()
        bad, name = data.draw(damaged(entry.counter_state(), _MONITOR_FIELDS))
        assert_refused(entry.restore_counter_state, bad, name)

    def test_unknown_breaker_state_is_refused(self):
        engine, __ = buffer_entry()
        completed, abandoned, [row] = supervisor_of(engine).snapshot_state(
            engine.entries
        )
        row[1] = "ajar"
        engine2, __ = buffer_entry()
        with pytest.raises(RecoveryError, match="'breaker_state'"):
            supervisor_of(engine2).restore_state(
                [completed, abandoned, [row]], engine2.entries
            )


# ---------------------------------------------------------------- sinks


class TestSinkRows:
    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(events_strategy(), max_size=20),
        capacity=st.integers(1, 8),
        base=states_strategy(),
    )
    def test_bounded_sink_round_trips(self, events, capacity, base):
        sink = fill(BoundedHistory(capacity), events)
        sink._last_state = base
        row = through_json(sink_state_to_row(sink))
        fresh = BoundedHistory(capacity)
        fresh.open(blank_state())
        apply_sink_state(fresh, row)
        assert fresh.last_state == sink.last_state
        assert fresh.pending_events == sink.pending_events
        assert fresh.upcoming_seq == sink.upcoming_seq
        assert fresh.total_recorded == sink.total_recorded
        assert fresh.dropped_events == sink.dropped_events
        assert fresh.pending_dropped == sink.pending_dropped
        assert sink_state_to_row(fresh) == row

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), events=st.lists(events_strategy(), max_size=5))
    def test_damaged_sink_row_is_refused(self, data, events):
        row = sink_state_to_row(fill(BoundedHistory(3), events))
        bad, name = data.draw(damaged(row, SINK_FIELDS))
        fresh = BoundedHistory(3)
        fresh.open(blank_state())
        assert_refused(lambda r: apply_sink_state(fresh, r), bad, name)

    @pytest.mark.parametrize(
        "index, value, name",
        [
            (2, ["noon", [], {}, [], [], None], "last_state"),
            (3, [[0, "Enter", 1, "Op", "late", 1, None]], "pending"),
            # The keyed objects that rows-1 snapshots held.
            (2, {"kind": "state", "time": 0.0}, "last_state"),
            (3, [{"kind": "event", "seq": 0}], "pending"),
        ],
    )
    def test_undecodable_state_or_event_is_refused(self, index, value, name):
        row = sink_state_to_row(fill(BoundedHistory(3), []))
        row[index] = value
        fresh = BoundedHistory(3)
        fresh.open(blank_state())
        assert_refused(lambda r: apply_sink_state(fresh, r), row, name)


# -------------------------------------------------------------- checkers


class TestCheckerRows:
    @settings(max_examples=50, deadline=None)
    @given(
        counters=st.tuples(counts, counts, counts),
        carried=st.booleans(),
        basis=states_strategy(),
    )
    def test_algorithm1_round_trips(self, counters, carried, basis):
        decl = coordinator_declaration()
        row = through_json([*counters, carried])
        checker = IncrementalConcurrencyChecker(decl)
        checker.restore_state(row, basis=basis)
        assert checker.state_dict() == row
        assert checker.carried is carried
        # Without a base state there are no lists to carry.
        checker.restore_state(row)
        assert checker.state_dict() == [*counters, False]

    @settings(max_examples=50, deadline=None)
    @given(counters=st.tuples(counts, counts, counts))
    def test_algorithm2_round_trips(self, counters):
        checker = ResourceStateChecker(coordinator_declaration())
        checker.sends, checker.receives, checker.resyncs = counters
        restored = ResourceStateChecker(coordinator_declaration())
        restored.restore_state(through_json(checker.state_dict()))
        assert (restored.sends, restored.receives, restored.resyncs) == (
            counters
        )

    @settings(max_examples=50, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(st.integers(1, 500), times), max_size=6
        ),
        automata=st.dictionaries(
            st.integers(1, 500), st.integers(0, 8), max_size=6
        ),
    )
    def test_algorithm3_round_trips_with_int_pids(self, requests, automata):
        checker = CallingOrderChecker(allocator_declaration())
        checker.request_list = list(requests)
        checker._dfa_state = dict(automata)
        restored = CallingOrderChecker(allocator_declaration())
        restored.restore_state(through_json(checker.state_dict()))
        assert restored.request_list == checker.request_list
        assert restored._dfa_state == checker._dfa_state
        assert all(type(pid) is int for pid in restored._dfa_state)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_checker_rows_are_refused(self, data):
        checker1 = IncrementalConcurrencyChecker(coordinator_declaration())
        checker2 = ResourceStateChecker(coordinator_declaration())
        checker3 = CallingOrderChecker(allocator_declaration())
        checker3.request_list = [(1, 0.5)]
        checker3._dfa_state = {1: 1}
        checker, fields = data.draw(
            st.sampled_from(
                [
                    (checker1, ALGORITHM1_FIELDS),
                    (checker2, ALGORITHM2_FIELDS),
                    (checker3, ALGORITHM3_FIELDS),
                ]
            )
        )
        bad, name = data.draw(damaged(checker.state_dict(), fields))
        assert_refused(checker.restore_state, bad, name)

    @pytest.mark.parametrize(
        "row, name",
        [
            ([[[1]], []], "since"),
            ([[[1, "later"]], []], "since"),
            ([[], [["1", 2]]], "pid"),
            ([[], [[1, 2, 3]]], "state"),
        ],
    )
    def test_damaged_algorithm3_pairs_are_refused(self, row, name):
        checker = CallingOrderChecker(allocator_declaration())
        assert_refused(checker.restore_state, row, name)


# ---------------------------------------------------------------- engine


class TestEngineRows:
    @settings(max_examples=50, deadline=None)
    @given(
        counters=st.lists(
            counts,
            min_size=len(_ENGINE_PERSISTED),
            max_size=len(_ENGINE_PERSISTED),
        )
    )
    def test_engine_counters_round_trip(self, counters):
        engine, __ = buffer_entry()
        for attr, value in zip(_ENGINE_PERSISTED, counters):
            setattr(engine, attr, value)
        engine2, __ = buffer_entry()
        engine2.restore_counter_state(through_json(engine.counter_state()))
        assert [getattr(engine2, a) for a in _ENGINE_PERSISTED] == counters

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_damaged_engine_row_is_refused(self, data):
        engine, __ = buffer_entry()
        bad, name = data.draw(damaged(engine.counter_state(), _ENGINE_FIELDS))
        assert_refused(engine.restore_counter_state, bad, name)
