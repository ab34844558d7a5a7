"""Differential property: the fused per-event loops == the per-method code.

Algorithm-1's replay (``ReplayMachine.replay``), the Algorithm-3 tap
(``CallingOrderChecker.on_event``) and Algorithm-2's window scan
(``ResourceStateChecker.check_window``) each run as one loop over
unpacked events, with the list updates inline.  The classes below keep
the earlier form of that code — one method call per event and per list
operation — as the reference: for every discipline and every random
stream, faulty ones included, both must leave the same reports (every
field), the same checking lists and the same checker state.

The Algorithm-1 streams reuse ``test_prop_replay_index``'s strategies:
events by blocked pids, flag-1 Signal-Exits and Signals on empty queues,
Waits on an undeclared condition and a ``rebase`` mid-stream.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.algorithm2 import (
    ResourceStateChecker,
    completion_event_kind,
)
from repro.detection.algorithm3 import CallingOrderChecker
from repro.detection.replay import ReplayMachine
from repro.detection.reports import FaultReport
from repro.detection.rules import STRule
from repro.history.events import EventKind, SchedulingEvent
from repro.history.sink import Segment
from repro.history.states import QueueEntry, SchedulingState
from repro.ids import Cond, Pid, Pname
from repro.monitor import Discipline, MonitorDeclaration, MonitorType
from tests.properties.test_prop_replay_index import (
    PIDS,
    declaration,
    make_event,
    states,
    steps,
)

# ------------------------------------------------------------ reference code


class ReferenceReplayMachine(ReplayMachine):
    """Algorithm-1's replay as one method call per event and list step."""

    def replay(self, events) -> None:
        for event in events:
            self.process(event)

    def process(self, event: SchedulingEvent) -> None:
        seq, kind, pid, pname, time, flag, cond = event
        if pid in self._blocked:
            location = self._blocked_location(pid)
            self._report(
                STRule.EVENT_WHILE_BLOCKED,
                f"P{pid} generated {kind.value} while on the "
                f"{location}: a blocked process cannot act (it was resumed "
                "without being admitted)",
                time=time,
                pids=(pid,),
                event_seq=seq,
            )
        if kind is EventKind.ENTER:
            self._replay_enter(seq, pid, pname, time, flag)
        elif kind is EventKind.WAIT:
            self._replay_wait(seq, pid, pname, time, cond)
        elif kind is EventKind.SIGNAL_EXIT:
            self._replay_signal_exit(seq, pid, time, flag, cond)
        elif kind is EventKind.SIGNAL:
            self._replay_signal(seq, pid, time, flag, cond)
        running = self.running
        if len(running) > 1:
            self._report(
                STRule.ONE_INSIDE,
                f"{len(running)} processes inside the monitor after "
                f"{kind.value} by P{pid}: {[e.pid for e in running]}",
                time=time,
                pids=tuple(e.pid for e in running),
                event_seq=seq,
            )

    def _block(self, queue, entry: QueueEntry) -> None:
        queue.append(entry)
        blocked = self._blocked
        blocked[entry.pid] = blocked.get(entry.pid, 0) + 1

    def _unblock(self, entry: QueueEntry) -> QueueEntry:
        blocked = self._blocked
        count = blocked[entry.pid] - 1
        if count:
            blocked[entry.pid] = count
        else:
            del blocked[entry.pid]
        return entry

    def _remove_running(self, pid: Pid) -> Optional[QueueEntry]:
        for index, entry in enumerate(self.running):
            if entry.pid == pid:
                return self.running.pop(index)
        return None

    def _admit_next(self, time: float) -> None:
        if self.running:
            return
        if self.urgent:
            entry = self._unblock(self.urgent.pop())
        elif self.enter0:
            entry = self._unblock(self.enter0.popleft())
        else:
            return
        self.running.append(QueueEntry(entry.pid, entry.pname, time))

    def _replay_enter(
        self, seq: int, pid: Pid, pname: Pname, time: float, flag: int
    ) -> None:
        entry = QueueEntry(pid, pname, time)
        if flag == 1:
            already_busy = bool(self.running)
            self.running.append(entry)
            if already_busy:
                self._report(
                    STRule.ENTER_TAKES_FREE_MONITOR,
                    f"P{pid} entered successfully while "
                    f"{[e.pid for e in self.running[:-1]]} already inside "
                    "(Running-List was not {Pid} after a successful Enter)",
                    time=time,
                    pids=(pid,),
                    event_seq=seq,
                )
        else:
            if not self.running:
                self._report(
                    STRule.BLOCKED_MEANS_BUSY,
                    f"P{pid} was delayed on Enter although no process "
                    "was inside the monitor (unfair response)",
                    time=time,
                    pids=(pid,),
                    event_seq=seq,
                )
            self._block(self.enter0, entry)

    def _check_caller_running(
        self, seq: int, kind: EventKind, pid: Pid, time: float
    ) -> bool:
        for entry in self.running:
            if entry.pid == pid:
                return True
        self._report(
            STRule.CALLER_IS_RUNNING,
            f"P{pid} issued {kind.value} but the Running-List "
            f"is {[e.pid for e in self.running]} — the caller never "
            "(observably) entered the monitor",
            time=time,
            pids=(pid,),
            event_seq=seq,
        )
        return False

    def _replay_wait(
        self, seq: int, pid: Pid, pname: Pname, time: float, cond: Cond
    ) -> None:
        if self._check_caller_running(seq, EventKind.WAIT, pid, time):
            self._remove_running(pid)
        queue = self.wait_cond.get(cond)
        if queue is None:
            queue = self.wait_cond[cond] = deque()
        self._block(queue, QueueEntry(pid, pname, time))
        self._admit_next(time)

    def _replay_signal_exit(
        self, seq: int, pid: Pid, time: float, flag: int, cond: Optional[Cond]
    ) -> None:
        if self._check_caller_running(seq, EventKind.SIGNAL_EXIT, pid, time):
            self._remove_running(pid)
        queue = self.wait_cond.get(cond) if cond is not None else None
        if flag == 1:
            if not queue:
                self._report(
                    STRule.SIGNAL_CONSISTENT,
                    f"Signal-Exit by P{pid} claims it resumed a waiter "
                    f"on {cond!r} but the Wait-Cond-List is empty",
                    time=time,
                    pids=(pid,),
                    event_seq=seq,
                )
                self._admit_next(time)
            else:
                waiter = self._unblock(queue.popleft())
                self.running.append(QueueEntry(waiter.pid, waiter.pname, time))
        else:
            if queue:
                self._report(
                    STRule.SIGNAL_CONSISTENT,
                    f"Signal-Exit by P{pid} on {cond!r} resumed "
                    f"nobody although {[e.pid for e in queue]} were "
                    "waiting on the condition",
                    time=time,
                    pids=(pid,),
                    event_seq=seq,
                )
            self._admit_next(time)

    def _replay_signal(
        self, seq: int, pid: Pid, time: float, flag: int, cond: Optional[Cond]
    ) -> None:
        self._check_caller_running(seq, EventKind.SIGNAL, pid, time)
        queue = self.wait_cond.get(cond) if cond is not None else None
        if flag == 0:
            if queue:
                self._report(
                    STRule.SIGNAL_CONSISTENT,
                    f"Signal by P{pid} on {cond!r} resumed nobody "
                    f"although {[e.pid for e in queue]} were waiting",
                    time=time,
                    pids=(pid,),
                    event_seq=seq,
                )
            return
        if not queue:
            self._report(
                STRule.SIGNAL_CONSISTENT,
                f"Signal by P{pid} claims it resumed a waiter on "
                f"{cond!r} but the Wait-Cond-List is empty",
                time=time,
                pids=(pid,),
                event_seq=seq,
            )
            return
        waiter = self._unblock(queue.popleft())
        resumed = QueueEntry(waiter.pid, waiter.pname, time)
        if self._declaration.discipline is Discipline.SIGNAL_AND_WAIT:
            signaller = self._remove_running(pid)
            if signaller is not None:
                self._block(
                    self.urgent,
                    QueueEntry(signaller.pid, signaller.pname, time),
                )
            self.running.append(resumed)
        else:
            self._block(self.enter0, resumed)


class ReferenceOrderChecker(CallingOrderChecker):
    """The Algorithm-3 tap with ``any()`` scans and a list per event."""

    def on_event(self, event: SchedulingEvent) -> list[FaultReport]:
        reports: list[FaultReport] = []
        if event.kind is EventKind.ENTER:
            reports.extend(self._on_enter(event))
        elif event.kind is EventKind.SIGNAL_EXIT:
            if event.pname in self._release_names:
                self._drop_request(event.pid)
        return reports

    def _on_enter(self, event: SchedulingEvent) -> list[FaultReport]:
        reports: list[FaultReport] = []
        pname = event.pname
        if pname in self._acquire_names:
            if any(pid == event.pid for pid, __ in self.request_list):
                reports.append(
                    self._event_report(
                        STRule.NO_DUPLICATE_REQUEST,
                        f"P{event.pid} called {pname} while already holding "
                        "the resource (re-acquisition without release is a "
                        "self-deadlock)",
                        event,
                    )
                )
            self.request_list.append((event.pid, event.time))
        elif pname in self._release_names:
            if not any(pid == event.pid for pid, __ in self.request_list):
                reports.append(
                    self._event_report(
                        STRule.RELEASE_REQUIRES_REQUEST,
                        f"P{event.pid} called {pname} without an outstanding "
                        "Request (release before acquire)",
                        event,
                    )
                )
        if self._automaton is not None:
            state = self._dfa_state.get(event.pid, self._automaton.start)
            nxt = self._automaton.step(state, pname)
            if nxt is None:
                reports.append(
                    self._event_report(
                        STRule.CALL_ORDER_VIOLATED,
                        f"P{event.pid} invoked {pname} in violation of the "
                        f"declared order {self._automaton.source!r}",
                        event,
                    )
                )
            else:
                self._dfa_state[event.pid] = nxt
        return reports

    def _drop_request(self, pid: Pid) -> None:
        for index, (holder, __) in enumerate(self.request_list):
            if holder == pid:
                del self.request_list[index]
                return

    def _event_report(
        self, rule: STRule, message: str, event: SchedulingEvent
    ) -> FaultReport:
        return FaultReport(
            rule=rule,
            message=message,
            monitor=self._declaration.name,
            detected_at=event.time,
            pids=(event.pid,),
            event_seq=event.seq,
        )


class ReferenceResourceChecker(ResourceStateChecker):
    """Algorithm-2's scan with attribute reads and counters on ``self``."""

    def check_window(self, segment: Segment) -> list[FaultReport]:
        reports: list[FaultReport] = []
        name = self._declaration.name
        window_start = segment.previous.time
        resource_no = segment.previous.resource_count
        assert resource_no is not None
        window_sends = 0
        window_receives = 0

        def report(rule, message, time, pid=None, seq=None):
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

        completion = completion_event_kind(self._declaration.discipline)
        for event in segment.events:
            if event.kind is completion:
                if event.pname == "Send":
                    self.sends += 1
                    window_sends += 1
                    resource_no -= 1
                elif event.pname == "Receive":
                    self.receives += 1
                    window_receives += 1
                    resource_no += 1
                else:
                    continue
                if not 0 <= self.receives <= self.sends <= self.receives + self._rmax:
                    report(
                        STRule.RESOURCE_INVARIANT,
                        f"integrity violated after {event.pname} by "
                        f"P{event.pid}: r={self.receives}, s={self.sends}, "
                        f"Rmax={self._rmax} (need 0 <= r <= s <= r + Rmax)",
                        event.time,
                        pid=event.pid,
                        seq=event.seq,
                    )
            elif event.kind is EventKind.WAIT:
                if event.pname == "Send" and event.cond == "full":
                    if resource_no != 0:
                        report(
                            STRule.SEND_WAIT_CONSISTENT,
                            f"P{event.pid} was delayed on Send although the "
                            f"buffer is not full (Resource-No={resource_no})",
                            event.time,
                            pid=event.pid,
                            seq=event.seq,
                        )
                elif event.pname == "Receive" and event.cond == "empty":
                    if resource_no != self._rmax:
                        report(
                            STRule.RECEIVE_WAIT_CONSISTENT,
                            f"P{event.pid} was delayed on Receive although "
                            f"the buffer is not empty "
                            f"(Resource-No={resource_no}, Rmax={self._rmax})",
                            event.time,
                            pid=event.pid,
                            seq=event.seq,
                        )

        expected = (
            segment.previous.resource_count + window_receives - window_sends
        )
        actual = segment.current.resource_count
        assert actual is not None
        if actual != expected:
            report(
                STRule.RESOURCE_DELTA_MATCHES,
                f"R# at checkpoint is {actual} but the event sequence "
                f"implies {segment.previous.resource_count} + "
                f"r({window_receives}) - s({window_sends}) = {expected}",
                segment.current.time,
            )
        return reports


# --------------------------------------------------------------- event streams

KINDS = {
    "enter": EventKind.ENTER,
    "wait": EventKind.WAIT,
    "signal_exit": EventKind.SIGNAL_EXIT,
    "signal": EventKind.SIGNAL,
}


def any_event(seq: int, kind: str, pid: int, pname: str, flag: int, cond):
    """An event of any kind and procedure (the Enter form drops ``cond``,
    the Wait form ``flag``)."""
    time = 0.1 * (seq + 1)
    if kind == "enter":
        return SchedulingEvent(seq, EventKind.ENTER, pid, pname, time, flag)
    if kind == "wait":
        return SchedulingEvent(seq, EventKind.WAIT, pid, pname, time, 0, cond)
    return SchedulingEvent(seq, KINDS[kind], pid, pname, time, flag, cond)


# ----------------------------------------------------------------- Algorithm-1


def lists(machine: ReplayMachine) -> tuple:
    return (
        list(machine.enter0),
        {cond: list(queue) for cond, queue in machine.wait_cond.items()},
        list(machine.running),
        list(machine.urgent),
        dict(machine._blocked),
    )


def report_fields(reports) -> list[tuple]:
    """Every field the tests name, so a mismatch prints readably."""
    return [
        (r.rule, r.message, r.pids, r.event_seq, r.detected_at, r.window_start)
        for r in reports
    ]


@settings(max_examples=300, deadline=None)
@given(
    discipline=st.sampled_from(list(Discipline)),
    base=states,
    script=st.lists(steps, max_size=40),
    batch=st.integers(min_value=1, max_value=8),
)
def test_replay_matches_reference(discipline, base, script, batch):
    decl = declaration(discipline)
    fused = ReplayMachine(decl, base)
    reference = ReferenceReplayMachine(decl, base)
    pending: list[SchedulingEvent] = []

    def flush() -> None:
        # Whole batches through ``replay``, one event at a time through
        # ``process``: both entry points of the fused loop.
        if len(pending) == 1:
            fused.process(pending[0])
        else:
            fused.replay(tuple(pending))
        reference.replay(pending)
        pending.clear()
        assert report_fields(fused.violations) == report_fields(
            reference.violations
        )
        assert fused.violations == reference.violations
        assert lists(fused) == lists(reference)

    for seq, (kind, arg, flag, cond) in enumerate(script):
        if kind == "rebase":
            flush()
            fused.rebase(arg)
            reference.rebase(arg)
        else:
            pending.append(make_event(seq, kind, arg, flag, cond))
            if len(pending) >= batch:
                flush()
    flush()


# ----------------------------------------------------------------- Algorithm-3

ORDER_PNAMES = st.sampled_from(("Request", "Acquire", "Release", "Inspect"))

tap_steps = st.tuples(
    st.sampled_from(tuple(KINDS)),
    PIDS,
    ORDER_PNAMES,
    st.integers(0, 1),
)


@settings(max_examples=300, deadline=None)
@given(
    call_order=st.sampled_from(
        (None, "(Request ; Release)*", "((Acquire | Request) ; Release)*")
    ),
    script=st.lists(tap_steps, max_size=50),
)
def test_tap_matches_reference(call_order, script):
    decl = MonitorDeclaration(
        name="allocator",
        mtype=MonitorType.RESOURCE_ALLOCATOR,
        procedures=("Request", "Acquire", "Release", "Inspect"),
        conditions=("free",),
        call_order=call_order,
    )
    fused = CallingOrderChecker(decl)
    reference = ReferenceOrderChecker(decl)
    for seq, (kind, pid, pname, flag) in enumerate(script):
        event = any_event(seq, kind, pid, pname, flag, "free")
        found = fused.on_event(event)
        expected = reference.on_event(event)
        assert report_fields(found) == report_fields(expected)
        assert list(found) == expected
        assert fused.request_list == reference.request_list
        assert fused._dfa_state == reference._dfa_state
    assert fused.state_dict() == reference.state_dict()


# ----------------------------------------------------------------- Algorithm-2

RMAX = 3

resource_steps = st.tuples(
    st.sampled_from(tuple(KINDS)),
    PIDS,
    st.sampled_from(("Send", "Receive", "Peek")),
    st.integers(0, 1),
    st.sampled_from(("full", "empty", "other")),
)

windows = st.lists(
    st.tuples(
        st.integers(0, RMAX + 1),  # R# the checkpoint reports
        st.lists(resource_steps, max_size=12),
    ),
    min_size=1,
    max_size=6,
)


def resource_state(time: float, resource: int) -> SchedulingState:
    return SchedulingState(
        time=time,
        entry_queue=(),
        cond_queues={"full": (), "empty": ()},
        running=(),
        resource_count=resource,
    )


@settings(max_examples=300, deadline=None)
@given(
    discipline=st.sampled_from(list(Discipline)),
    start=st.integers(0, RMAX),
    plan=windows,
)
def test_resource_scan_matches_reference(discipline, start, plan):
    decl = MonitorDeclaration(
        name="buffer",
        mtype=MonitorType.COMMUNICATION_COORDINATOR,
        procedures=("Send", "Receive"),
        conditions=("full", "empty"),
        rmax=RMAX,
        discipline=discipline,
    )
    fused = ResourceStateChecker(decl)
    reference = ReferenceResourceChecker(decl)
    previous = resource_state(0.0, start)
    seq = 0
    for index, (resource, script) in enumerate(plan):
        events = []
        for kind, pid, pname, flag, cond in script:
            events.append(any_event(seq, kind, pid, pname, flag, cond))
            seq += 1
        current = resource_state(float(index + 1), resource)
        segment = Segment(previous, tuple(events), current)
        found = fused.check_window(segment)
        expected = reference.check_window(segment)
        assert report_fields(found) == report_fields(expected)
        assert found == expected
        assert fused.state_dict() == reference.state_dict()
        previous = current
