"""Unit tests for scheduling-state snapshots."""

import pytest

from repro.history.states import QueueEntry, SchedulingState


def entry(pid, pname="Op", since=0.0):
    return QueueEntry(pid, pname, since)


def make_state(**overrides):
    base = dict(
        time=10.0,
        entry_queue=(entry(1), entry(2)),
        cond_queues={"full": (entry(3),), "empty": ()},
        running=(entry(4),),
        resource_count=2,
    )
    base.update(overrides)
    return SchedulingState(**base)


class TestQueueEntry:
    def test_timer(self):
        assert entry(1, since=3.0).timer(10.0) == 7.0

    def test_str(self):
        assert str(entry(1, "Send", 2.5)) == "P1(Send)@2.5"

    def test_repr_names_every_field(self):
        assert repr(entry(1, "Send", 2.5)) == (
            "QueueEntry(pid=1, pname='Send', since=2.5)"
        )

    def test_immutable(self):
        queued = entry(1)
        with pytest.raises(AttributeError):
            queued.since = 5.0


class TestAccessors:
    def test_pid_views(self):
        state = make_state()
        assert state.entry_pids == (1, 2)
        assert state.running_pids == (4,)
        assert state.cond_pids("full") == (3,)
        assert state.cond_pids("unknown") == ()

    def test_all_waiting_pids(self):
        assert make_state().all_waiting_pids() == frozenset({1, 2, 3})

    def test_find(self):
        state = make_state()
        assert state.find(4) == "running"
        assert state.find(1) == "entry"
        assert state.find(3) == "full"
        assert state.find(99) is None

    def test_find_urgent(self):
        state = make_state(urgent=(entry(8),))
        assert state.find(8) == "urgent"


class TestImmutability:
    def test_cond_queues_frozen(self):
        state = make_state()
        with pytest.raises(TypeError):
            state.cond_queues["full"] = ()

    def test_describe_mentions_everything(self):
        text = make_state().describe()
        assert "Running" in text
        assert "EQ" in text
        assert "CQ[full]" in text
        assert "R#" in text
