"""Scheduling events — the paper's EVENTset.

Section 3.1 defines::

    EVENTset = { Enter(Pid, Pname, t, flag),
                 Wait(Pid, Pname, Cond, t, flag),
                 Signal-Exit(Pid, Pname, Cond, t, flag) }

Section 3.3.1 then trims the recorded form (flag dropped from ``Wait``,
resumption does not rewrite the original event) so that checking never needs
to trace backwards.  We record the trimmed form but keep the timestamp on
every event: it costs one float and the timeout rules (``Tio``, ``Tmax``,
``Tlimit``) need a time base anyway.

Flag semantics (paper Section 3.1):

* ``Enter``: 1 = admitted immediately, 0 = blocked on the entry queue.  A
  later resumption is *not* re-recorded; it is inferred by the checker from
  the ``Wait``/``Signal-Exit`` event that released the monitor.
* ``Wait``: always recorded with flag 0 (the caller blocks by definition).
* ``Signal-Exit``: 1 = a process waiting on the named condition queue was
  resumed, 0 = no waiter was resumed (plain exit).
* ``Signal`` (extension, not in the paper): same flag convention as
  Signal-Exit, for the Hoare signal-and-wait and Mesa signal-and-continue
  disciplines.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from repro.ids import Cond, Pid, Pname

__all__ = [
    "EventKind",
    "SchedulingEvent",
    "enter_event",
    "wait_event",
    "signal_exit_event",
    "signal_event",
]


class EventKind(enum.Enum):
    """The kind of monitor primitive that generated an event."""

    ENTER = "Enter"
    WAIT = "Wait"
    SIGNAL_EXIT = "Signal-Exit"
    #: Extension: a signal that does not exit the monitor (Hoare
    #: signal-and-wait or Mesa signal-and-continue disciplines).
    SIGNAL = "Signal"


#: Read once for the constructor's check: on CPython 3.11 every
#: ``EventKind.X`` read goes through the Enum metaclass's ``__getattr__``.
_WAIT = EventKind.WAIT


class _EventFields(NamedTuple):
    """:class:`SchedulingEvent`'s fields, in order.  A NamedTuple may not
    override ``__new__``, so the validating subclass below adds it."""

    seq: int
    kind: EventKind
    pid: Pid
    pname: Pname
    time: float
    flag: int = 0
    cond: Optional[Cond] = None


class SchedulingEvent(_EventFields):
    """One element of a scheduling event sequence ``L``.

    ``seq`` is a monitor-local sequence number making the order total (it is
    the index ``i`` of ``l_i`` in the paper's notation).  ``cond`` is None
    for Enter events and for a Signal-Exit that signals no condition (a
    plain exit).

    A validated, immutable tuple record.  The constructor checks that the
    flag is 0 or 1 and that a Wait names its condition; ``_make`` and
    ``_replace`` skip both checks, so code builds events through the
    constructor or the four helpers below, with two exceptions that
    build the tuple directly (``tuple.__new__(SchedulingEvent, ...)``)
    because they run once per event:

    * the record hook, :meth:`repro.monitor.core.MonitorCore._record`:
      every flag it is passed is the literal 0 or 1 or a local only ever
      set to one of them, and ``wait`` passes its condition only after
      checking that the monitor declares it (a declared condition name
      is a string);
    * the event row decoder,
      :func:`repro.history.serialize.events_from_rows`, which every
      event read from outside the process passes (the wire, WAL lines,
      snapshots, trace files): it runs both checks inline before
      building the tuple.
    """

    __slots__ = ()

    def __new__(cls, seq, kind, pid, pname, time, flag=0, cond=None):
        if flag not in (0, 1):
            raise ValueError(f"event flag must be 0 or 1, got {flag}")
        if cond is None and kind is _WAIT:
            raise ValueError("Wait events require a condition name")
        return tuple.__new__(cls, (seq, kind, pid, pname, time, flag, cond))

    @property
    def is_enter(self) -> bool:
        return self.kind is EventKind.ENTER

    @property
    def is_wait(self) -> bool:
        return self.kind is EventKind.WAIT

    @property
    def is_signal_exit(self) -> bool:
        return self.kind is EventKind.SIGNAL_EXIT

    @property
    def is_signal(self) -> bool:
        return self.kind is EventKind.SIGNAL

    @property
    def releases_monitor(self) -> bool:
        """True when this event takes its caller out of the Running set.

        These are exactly the events after which the head of a waiting queue
        may be admitted: every ``Wait`` and every ``Signal-Exit``.
        """
        return self.kind in (EventKind.WAIT, EventKind.SIGNAL_EXIT)

    def __str__(self) -> str:
        cond = f", {self.cond}" if self.cond is not None else ""
        return (
            f"{self.kind.value}(P{self.pid}, {self.pname}{cond}, "
            f"t={self.time:g}, flag={self.flag})"
        )


def enter_event(
    seq: int, pid: Pid, pname: Pname, time: float, flag: int
) -> SchedulingEvent:
    """``Enter(Pid, Pname, t, flag)``."""
    return SchedulingEvent(seq, EventKind.ENTER, pid, pname, time, flag)


def wait_event(
    seq: int, pid: Pid, pname: Pname, cond: Cond, time: float
) -> SchedulingEvent:
    """``Wait(Pid, Pname, Cond, t)`` — flag is always 0 in the trimmed form."""
    return SchedulingEvent(seq, EventKind.WAIT, pid, pname, time, 0, cond)


def signal_exit_event(
    seq: int,
    pid: Pid,
    pname: Pname,
    time: float,
    flag: int,
    cond: Optional[Cond] = None,
) -> SchedulingEvent:
    """``Signal-Exit(Pid, Pname, Cond, t, flag)``; cond=None is a plain exit."""
    return SchedulingEvent(
        seq, EventKind.SIGNAL_EXIT, pid, pname, time, flag, cond
    )


def signal_event(
    seq: int, pid: Pid, pname: Pname, cond: Cond, time: float, flag: int
) -> SchedulingEvent:
    """Extension event for non-exiting signal disciplines."""
    return SchedulingEvent(seq, EventKind.SIGNAL, pid, pname, time, flag, cond)
