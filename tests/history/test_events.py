"""Unit tests for scheduling events."""

import pytest

from repro.history.events import (
    EventKind,
    SchedulingEvent,
    enter_event,
    signal_event,
    signal_exit_event,
    wait_event,
)


class TestConstructors:
    def test_enter_event(self):
        event = enter_event(0, 5, "Send", 1.5, flag=1)
        assert event.kind is EventKind.ENTER
        assert event.pid == 5
        assert event.pname == "Send"
        assert event.time == 1.5
        assert event.flag == 1
        assert event.cond is None
        assert event.is_enter and not event.is_wait

    def test_wait_event_flag_always_zero(self):
        event = wait_event(1, 5, "Send", "full", 2.0)
        assert event.flag == 0
        assert event.cond == "full"
        assert event.is_wait

    def test_signal_exit_with_and_without_cond(self):
        with_cond = signal_exit_event(2, 5, "Send", 3.0, flag=1, cond="empty")
        plain = signal_exit_event(3, 5, "Send", 3.5, flag=0)
        assert with_cond.cond == "empty"
        assert plain.cond is None
        assert with_cond.is_signal_exit and plain.is_signal_exit

    def test_signal_event(self):
        event = signal_event(4, 2, "PickUp", "self0", 1.0, 1)
        assert event.kind is EventKind.SIGNAL
        assert event.is_signal


class TestValidation:
    def test_bad_flag_rejected(self):
        with pytest.raises(ValueError):
            SchedulingEvent(
                seq=0, kind=EventKind.ENTER, pid=1, pname="Op", time=0.0, flag=2
            )

    def test_wait_requires_condition(self):
        with pytest.raises(ValueError):
            SchedulingEvent(
                seq=0, kind=EventKind.WAIT, pid=1, pname="Op", time=0.0
            )


class TestSemantics:
    def test_releases_monitor(self):
        assert wait_event(0, 1, "Op", "c", 0.0).releases_monitor
        assert signal_exit_event(1, 1, "Op", 0.0, 0).releases_monitor
        assert not enter_event(2, 1, "Op", 0.0, 1).releases_monitor
        assert not signal_event(3, 1, "Op", "c", 0.0, 1).releases_monitor

    def test_str_rendering(self):
        text = str(wait_event(0, 7, "Send", "full", 1.25))
        assert "Wait" in text and "P7" in text and "full" in text

    def test_events_are_immutable(self):
        event = enter_event(0, 1, "Op", 0.0, 1)
        with pytest.raises(AttributeError):
            event.pid = 2
        with pytest.raises(AttributeError):
            event.extra = 2


class TestRecordShape:
    def test_fields_and_defaults(self):
        assert SchedulingEvent._fields == (
            "seq", "kind", "pid", "pname", "time", "flag", "cond"
        )
        event = SchedulingEvent(3, EventKind.ENTER, 1, "Op", 0.5)
        assert (event.flag, event.cond) == (0, None)

    def test_repr_names_every_field(self):
        event = signal_exit_event(2, 5, "Send", 3.0, flag=1, cond="empty")
        assert repr(event) == (
            "SchedulingEvent(seq=2, kind=<EventKind.SIGNAL_EXIT: "
            "'Signal-Exit'>, pid=5, pname='Send', time=3.0, flag=1, "
            "cond='empty')"
        )

    def test_str_rendering_exact(self):
        event = signal_exit_event(2, 5, "Send", 3.0, flag=1, cond="empty")
        assert str(event) == "Signal-Exit(P5, Send, empty, t=3, flag=1)"

    def test_keyword_and_positional_construction_agree(self):
        assert wait_event(1, 5, "Send", "full", 2.0) == SchedulingEvent(
            seq=1, kind=EventKind.WAIT, pid=5, pname="Send", time=2.0,
            cond="full",
        )
