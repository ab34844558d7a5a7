"""Algorithm-2: Consistency-Of-Resource-States Checking (Section 3.3.2).

Applies to communication-coordinator monitors.  The checker maintains the
counts of successful ``Send`` and ``Receive`` procedure calls (``s`` and
``r`` — a call is *successful* when its Signal-Exit is recorded) and the
``Resource-No`` shadow of ``R#`` (free buffer slots), and enforces the four
integrity constraints of Section 2.1:

* per event: ``0 <= r <= s <= r + Rmax`` on the cumulative counters
  (ST-Rule 7a),
* ``Wait(Send, full)`` only when Resource-No = 0 (ST-Rule 7c),
* ``Wait(Receive, empty)`` only when Resource-No = Rmax (ST-Rule 7d),
* at the checkpoint: ``R#(s_t) = R#(s_p) + r - s`` over the window's
  counters (ST-Rule 7b).

The checker is stateful across windows because the invariant in 7a is
cumulative over the whole execution, exactly as FD-Rule 6(a) states it.
"""

from __future__ import annotations

from typing import Optional

from repro._rows import INT, Fields, check_row
from repro.detection.reports import FaultReport
from repro.detection.rules import STRule
from repro.history.database import Segment
from repro.history.events import EventKind, SchedulingEvent
from repro.history.states import SchedulingState
from repro.monitor.declaration import MonitorDeclaration
from repro.monitor.semantics import Discipline

__all__ = ["ResourceStateChecker", "STATE_FIELDS", "completion_event_kind"]

#: Procedure/condition names the paper's constraints are phrased over.
SEND = "Send"
RECEIVE = "Receive"
COND_FULL = "full"
COND_EMPTY = "empty"

#: Read once: on CPython 3.11 every ``EventKind.X`` read goes through the
#: Enum metaclass's ``__getattr__`` hook, and the scan reads one per event.
_WAIT = EventKind.WAIT

#: The durable row of a :class:`ResourceStateChecker`: its cumulative
#: counters and how often it re-based them.
STATE_FIELDS: Fields = (("sends", INT), ("receives", INT), ("resyncs", INT))


def completion_event_kind(discipline: Discipline) -> EventKind:
    """Which event marks a procedure call as *successful* (completed).

    Under the paper's signal-exit discipline an operation completes at its
    Signal-Exit.  Under the extended non-exiting disciplines the operation
    has already taken effect when the body *signals* (the subsequent plain
    exit is bookkeeping), so the Signal event is the completion marker —
    otherwise a Hoare hand-off would let the receiver's exit be recorded
    before the sender's and transiently break ``r <= s``.
    """
    if discipline is Discipline.SIGNAL_EXIT:
        return EventKind.SIGNAL_EXIT
    return EventKind.SIGNAL


class ResourceStateChecker:
    """Stateful Algorithm-2 instance for one monitor."""

    def __init__(self, declaration: MonitorDeclaration) -> None:
        if declaration.rmax is None:
            raise ValueError(
                f"Algorithm-2 requires rmax on monitor {declaration.name!r}"
            )
        self._declaration = declaration
        self._rmax = declaration.rmax
        self._completion = completion_event_kind(declaration.discipline)
        #: Cumulative successful call counts over the whole execution.
        self.sends = 0
        self.receives = 0
        #: Times the cumulative counters were re-based after a lossy window.
        self.resyncs = 0

    @property
    def applicable(self) -> bool:
        """Algorithm-2 is phrased over Send/Receive; other coordinator
        monitors (different procedure names) fall back to Algorithm-1 only."""
        return SEND in self._declaration.procedures and (
            RECEIVE in self._declaration.procedures
        )

    def check_window(self, segment: Segment) -> list[FaultReport]:
        """Run both steps of Algorithm-2 over one checking window."""
        reports: list[FaultReport] = []
        name = self._declaration.name
        window_start = segment.previous.time
        resource_no = segment.previous.resource_count
        if resource_no is None:
            raise ValueError(
                f"monitor {name!r} snapshots carry no R# — attach a "
                "resource probe (override resource_count())"
            )

        def report(rule: STRule, message: str, time: float, pid=None, seq=None):
            reports.append(
                FaultReport(
                    rule=rule,
                    message=message,
                    monitor=name,
                    detected_at=time,
                    pids=(pid,) if pid is not None else (),
                    event_seq=seq,
                    window_start=window_start,
                )
            )

        rmax = self._rmax
        completion = self._completion
        sends = self.sends
        receives = self.receives
        for seq, kind, pid, pname, time, __, cond in segment.events:
            if kind is completion:
                if pname == SEND:
                    sends += 1
                    resource_no -= 1
                elif pname == RECEIVE:
                    receives += 1
                    resource_no += 1
                else:
                    continue
                if not 0 <= receives <= sends <= receives + rmax:
                    report(
                        STRule.RESOURCE_INVARIANT,
                        f"integrity violated after {pname} by "
                        f"P{pid}: r={receives}, s={sends}, "
                        f"Rmax={rmax} (need 0 <= r <= s <= r + Rmax)",
                        time,
                        pid=pid,
                        seq=seq,
                    )
            elif kind is _WAIT:
                if pname == SEND and cond == COND_FULL:
                    if resource_no != 0:
                        report(
                            STRule.SEND_WAIT_CONSISTENT,
                            f"P{pid} was delayed on Send although the "
                            f"buffer is not full (Resource-No={resource_no})",
                            time,
                            pid=pid,
                            seq=seq,
                        )
                elif pname == RECEIVE and cond == COND_EMPTY:
                    if resource_no != rmax:
                        report(
                            STRule.RECEIVE_WAIT_CONSISTENT,
                            f"P{pid} was delayed on Receive although "
                            f"the buffer is not empty "
                            f"(Resource-No={resource_no}, Rmax={rmax})",
                            time,
                            pid=pid,
                            seq=seq,
                        )
        window_sends = sends - self.sends
        window_receives = receives - self.receives
        self.sends = sends
        self.receives = receives

        expected = (
            segment.previous.resource_count + window_receives - window_sends
        )
        actual = segment.current.resource_count
        if actual is None:
            raise ValueError(
                f"monitor {name!r} current snapshot carries no R#"
            )
        if actual != expected:
            report(
                STRule.RESOURCE_DELTA_MATCHES,
                f"R# at checkpoint is {actual} but the event sequence "
                f"implies {segment.previous.resource_count} + "
                f"r({window_receives}) - s({window_sends}) = {expected}",
                segment.current.time,
            )
        return reports

    def state_dict(self) -> list:
        """The durable row of the cumulative counters, in
        :data:`STATE_FIELDS` order.

        Algorithm-2 *is* an incremental state object — the counters carry
        across windows by design (FD-Rule 6(a) is cumulative) — so its
        durable state is just the counters plus the resync count.
        """
        return [getattr(self, name) for name, __ in STATE_FIELDS]

    def restore_state(self, row: list) -> None:
        """Restore a :meth:`state_dict` row."""
        for (name, __), value in zip(
            STATE_FIELDS, check_row(row, STATE_FIELDS, "algorithm2")
        ):
            setattr(self, name, value)

    def resync(self, state: SchedulingState) -> None:
        """Re-base the cumulative counters on a state snapshot.

        The 7a invariant is cumulative, so a window whose sink dropped
        Send/Receive completions leaves ``sends``/``receives`` permanently
        out of step with the monitor's actual occupancy — every *later*,
        perfectly complete window would then report ST-7a on a healthy
        monitor.  The snapshot's Resource-No pins the counters' difference
        (occupancy = ``Rmax - R#``), which is all the invariant consumes,
        so after a lossy window the caller re-bases here and the checker
        is trustworthy again from the next complete window on.
        """
        resource_no = state.resource_count
        if resource_no is None:
            return
        occupancy = min(self._rmax, max(0, self._rmax - resource_no))
        self.sends = self.receives + occupancy
        self.resyncs += 1
