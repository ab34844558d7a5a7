"""The checking-list replay machine (paper Section 3.3.1).

This is the shared engine behind Algorithm-1 and the offline FD-rule
checker.  It maintains the paper's pseudo-historical checking lists —
Enter-0-List, the Wait-Cond-Lists, the Running-List (plus the urgent list
for the Hoare extension) — replays a scheduling event sequence against
them, and reports every state-transition rule violated along the way.

The replay applies *correct* monitor semantics to the recorded events; the
actual (possibly fault-perturbed) queues are only consulted at the
checkpoint comparison.  A fault therefore surfaces in one of three ways:

1. the event sequence itself is impossible under correct semantics (e.g. a
   blocked process generates an event — ST-Rule 4),
2. the reconstructed lists disagree with the actual state snapshot at the
   checkpoint (ST-Rules 1, 2 and the Running comparison),
3. a timer bound is exceeded (ST-Rules 5, 6).

Deviation from the paper's literal text (documented in DESIGN.md): the
published update rules pop the Enter-0-List head on *every* Wait or
Signal-Exit, which for a flag=1 Signal-Exit would admit two processes and
contradict ST-Rule 3(a).  We implement the consistent reading: a flag=1
Signal-Exit admits the condition-queue head; Wait and flag=0 Signal-Exit
admit the entry-queue head.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from repro.detection.reports import FaultReport
from repro.detection.rules import STRule
from repro.history.events import EventKind, SchedulingEvent
from repro.history.states import QueueEntry, SchedulingState
from repro.ids import Cond, Pid
from repro.monitor.declaration import MonitorDeclaration
from repro.monitor.semantics import Discipline

__all__ = ["ReplayMachine", "sweep_timers"]

#: The event kinds, read once: on CPython 3.11 every ``EventKind.X`` read
#: goes through the Enum metaclass's ``__getattr__`` hook (about 0.1 µs),
#: and the replay dispatches on the kind of every event.
_ENTER = EventKind.ENTER
_WAIT = EventKind.WAIT
_SIGNAL_EXIT = EventKind.SIGNAL_EXIT
_SIGNAL = EventKind.SIGNAL
#: The replay builds each ``QueueEntry`` as the plain tuple record it is:
#: the ``__new__`` that NamedTuple generates is a Python-level call that
#: checks nothing, and it would be most of the cost of an admission.
_new_tuple = tuple.__new__


def _entries_match(
    model: Sequence[QueueEntry], actual: tuple[QueueEntry, ...]
) -> bool:
    """Positional equality of a model checking list and an actual queue."""
    if len(model) != len(actual):
        return False
    for mine, theirs in zip(model, actual):
        if (
            mine.pid != theirs.pid
            or mine.since != theirs.since
            or mine.pname != theirs.pname
        ):
            return False
    return True


def sweep_timers(
    state: SchedulingState,
    monitor: str,
    *,
    tmax: Optional[float] = None,
    tio: Optional[float] = None,
    window_start: Optional[float] = None,
) -> list[FaultReport]:
    """ST-Rule 5/6 timer sweep directly over a state snapshot.

    The replay machine sweeps its *reconstructed* lists, which is exact on
    a complete window but misses any process whose events were dropped by a
    saturated sink.  The snapshot's queue entries carry their own ``since``
    timestamps, so this sweep needs no events at all — it is what
    degraded-mode checking uses on lossy windows (the reports are
    downgraded by the caller).
    """
    now = state.time
    reports: list[FaultReport] = []

    def report(rule: STRule, message: str, pid: Pid) -> None:
        reports.append(
            FaultReport(
                rule=rule,
                message=message,
                monitor=monitor,
                detected_at=now,
                pids=(pid,),
                window_start=window_start,
            )
        )

    if tmax is not None:
        for entry in state.running:
            if entry.timer(now) >= tmax:
                report(
                    STRule.TMAX_EXCEEDED,
                    f"P{entry.pid} ({entry.pname}) has been inside the "
                    f"monitor for {entry.timer(now):g} >= Tmax={tmax:g}",
                    entry.pid,
                )
        for cond, queue in state.cond_queues.items():
            for entry in queue:
                if entry.timer(now) >= tmax:
                    report(
                        STRule.TMAX_EXCEEDED,
                        f"P{entry.pid} has waited on condition {cond!r} "
                        f"for {entry.timer(now):g} >= Tmax={tmax:g}",
                        entry.pid,
                    )
    if tio is not None:
        for entry in state.entry_queue:
            if entry.timer(now) >= tio:
                report(
                    STRule.TIO_EXCEEDED,
                    f"P{entry.pid} has sat on the entry queue for "
                    f"{entry.timer(now):g} >= Tio={tio:g} (starved or "
                    "lost)",
                    entry.pid,
                )
    return reports


class ReplayMachine:
    """Replays one checking window's events against model checking lists.

    Replaying one event costs the same whatever the queue lengths: the
    FIFO lists (Enter-0-List and each Wait-Cond-List) are deques popped
    from the front, and a ``pid -> count`` index over the blocked lists
    (those two plus the urgent list) answers ST-Rule 4's "is the actor
    blocked?" without scanning them.  The index counts rather than flags
    because a faulty run can put one pid on two lists.
    """

    def __init__(
        self,
        declaration: MonitorDeclaration,
        base_state: SchedulingState,
    ) -> None:
        self._declaration = declaration
        self._monitor_name = declaration.name
        self._signal_and_wait = (
            declaration.discipline is Discipline.SIGNAL_AND_WAIT
        )
        # Initial list contents come from the last checkpoint's actual state
        # ("Initially, Enter-0-List is set to EQ", Section 3.3.1).
        self.enter0: deque[QueueEntry] = deque(base_state.entry_queue)
        self.wait_cond: dict[Cond, deque[QueueEntry]] = {
            cond: deque(base_state.cond_queues.get(cond, ()))
            for cond in declaration.conditions
        }
        self.running: list[QueueEntry] = list(base_state.running)
        self.urgent: list[QueueEntry] = list(base_state.urgent)
        #: How many entries each pid has on the blocked lists.
        self._blocked: dict[Pid, int] = {}
        self._index_blocked()
        self.violations: list[FaultReport] = []
        self._window_start = base_state.time

    # ------------------------------------------------------- incremental use

    def begin_window(self, window_start: float) -> None:
        """Open the next checking window on the carried lists.

        Used by the incremental Algorithm-1 checker when the lists were
        verified against the last checkpoint's snapshot: nothing is
        re-seeded, only the window anchor for report provenance moves.
        """
        self._window_start = window_start

    def rebase(self, base_state: SchedulingState) -> None:
        """Re-seed every checking list from an actual state snapshot.

        Equivalent to constructing a fresh machine on ``base_state`` but
        reuses the allocated lists: declared conditions are re-seeded from
        the snapshot, conditions picked up mid-window via undeclared Waits
        are cleared (a fresh machine would not know them either).
        """
        self.enter0.clear()
        self.enter0.extend(base_state.entry_queue)
        cond_queues = base_state.cond_queues
        declared = self._declaration.conditions
        for cond, queue in self.wait_cond.items():
            queue.clear()
            if cond in declared:
                queue.extend(cond_queues.get(cond, ()))
        self.running[:] = base_state.running
        self.urgent[:] = base_state.urgent
        self._index_blocked()
        self._window_start = base_state.time

    def matches(self, state: SchedulingState) -> bool:
        """True when the lists equal what a fresh machine would seed from
        ``state`` — i.e. carrying them into the next window is provably
        indistinguishable from re-basing on the snapshot."""
        if not _entries_match(self.running, state.running):
            return False
        if not _entries_match(self.enter0, state.entry_queue):
            return False
        if not _entries_match(self.urgent, state.urgent):
            return False
        cond_queues = state.cond_queues
        declared = self._declaration.conditions
        for cond in declared:
            model = self.wait_cond.get(cond)
            if not _entries_match(
                model if model is not None else [], cond_queues.get(cond, ())
            ):
                return False
        for cond, queue in self.wait_cond.items():
            if queue and cond not in declared:
                return False
        return True

    def take_violations(self) -> list[FaultReport]:
        """Hand over the violations found so far and reset the list."""
        found = self.violations
        self.violations = []
        return found

    # ------------------------------------------------------------- reporting

    def _report(
        self,
        rule: STRule,
        message: str,
        *,
        time: float,
        pids: tuple[Pid, ...] = (),
        event_seq: Optional[int] = None,
    ) -> None:
        self.violations.append(
            FaultReport(
                rule=rule,
                message=message,
                monitor=self._monitor_name,
                detected_at=time,
                pids=pids,
                event_seq=event_seq,
                window_start=self._window_start,
            )
        )

    def _report_not_running(
        self, seq: int, kind: EventKind, pid: Pid, time: float
    ) -> None:
        self._report(
            STRule.CALLER_IS_RUNNING,
            f"P{pid} issued {kind.value} but the Running-List "
            f"is {[e.pid for e in self.running]} — the caller never "
            "(observably) entered the monitor",
            time=time,
            pids=(pid,),
            event_seq=seq,
        )

    # ------------------------------------------------------------ list helpers

    def _index_blocked(self) -> None:
        blocked = self._blocked
        blocked.clear()
        for queue in (self.enter0, *self.wait_cond.values(), self.urgent):
            for entry in queue:
                blocked[entry.pid] = blocked.get(entry.pid, 0) + 1

    def _blocked_location(self, pid: Pid) -> Optional[str]:
        if any(e.pid == pid for e in self.enter0):
            return "Enter-0-List"
        for cond, queue in self.wait_cond.items():
            if any(e.pid == pid for e in queue):
                return f"Wait-Cond-List[{cond}]"
        if any(e.pid == pid for e in self.urgent):
            return "urgent list"
        return None

    # ----------------------------------------------------------- event replay

    def process(self, event: SchedulingEvent) -> None:
        """Replay one event, appending any rule violations found."""
        self.replay((event,))

    def replay(self, events: Iterable[SchedulingEvent]) -> None:
        """Replay ``events`` in order, appending any rule violations found.

        The one per-event loop of Algorithm-1 and of the offline FD
        checker.  Every blocked-list append and pop keeps ``_blocked``
        exact in place; a helper is called only to build a report or to
        replay the Hoare/Mesa ``Signal`` extension.
        """
        running = self.running
        enter0 = self.enter0
        wait_cond = self.wait_cond
        urgent = self.urgent
        blocked = self._blocked
        for seq, kind, pid, pname, time, flag, cond in events:
            if pid in blocked:
                self._report(
                    STRule.EVENT_WHILE_BLOCKED,
                    f"P{pid} generated {kind.value} while on the "
                    f"{self._blocked_location(pid)}: a blocked process "
                    "cannot act (it was resumed without being admitted)",
                    time=time,
                    pids=(pid,),
                    event_seq=seq,
                )
            if kind is _ENTER:
                if flag == 1:
                    busy = bool(running)
                    running.append(_new_tuple(QueueEntry, (pid, pname, time)))
                    if busy:
                        self._report(
                            STRule.ENTER_TAKES_FREE_MONITOR,
                            f"P{pid} entered successfully while "
                            f"{[e.pid for e in running[:-1]]} already inside "
                            "(Running-List was not {Pid} after a successful "
                            "Enter)",
                            time=time,
                            pids=(pid,),
                            event_seq=seq,
                        )
                else:
                    if not running:
                        self._report(
                            STRule.BLOCKED_MEANS_BUSY,
                            f"P{pid} was delayed on Enter although no process "
                            "was inside the monitor (unfair response)",
                            time=time,
                            pids=(pid,),
                            event_seq=seq,
                        )
                    enter0.append(_new_tuple(QueueEntry, (pid, pname, time)))
                    blocked[pid] = blocked.get(pid, 0) + 1
            elif kind is _WAIT or kind is _SIGNAL_EXIT:
                # The caller leaves the Running-List (ST-3(b) if absent).
                for entry in running:
                    if entry.pid == pid:
                        running.remove(entry)
                        break
                else:
                    self._report_not_running(seq, kind, pid, time)
                head = None
                if kind is _WAIT:
                    queue = wait_cond.get(cond)
                    if queue is None:
                        queue = wait_cond[cond] = deque()
                    queue.append(_new_tuple(QueueEntry, (pid, pname, time)))
                    blocked[pid] = blocked.get(pid, 0) + 1
                else:
                    queue = wait_cond.get(cond) if cond is not None else None
                    if flag == 1:
                        if queue:
                            head = queue.popleft()
                        else:
                            self._report(
                                STRule.SIGNAL_CONSISTENT,
                                f"Signal-Exit by P{pid} claims it resumed a "
                                f"waiter on {cond!r} but the Wait-Cond-List "
                                "is empty",
                                time=time,
                                pids=(pid,),
                                event_seq=seq,
                            )
                    elif queue:
                        self._report(
                            STRule.SIGNAL_CONSISTENT,
                            f"Signal-Exit by P{pid} on {cond!r} resumed "
                            f"nobody although {[e.pid for e in queue]} were "
                            "waiting on the condition",
                            time=time,
                            pids=(pid,),
                            event_seq=seq,
                        )
                # The monitor passes to the resumed waiter, else to the
                # correct admission: the urgent list, then Enter-0-List.
                if head is None and not running:
                    if urgent:
                        head = urgent.pop()
                    elif enter0:
                        head = enter0.popleft()
                if head is not None:
                    admitted, procedure, __ = head
                    count = blocked[admitted] - 1
                    if count:
                        blocked[admitted] = count
                    else:
                        del blocked[admitted]
                    running.append(
                        _new_tuple(QueueEntry, (admitted, procedure, time))
                    )
            elif kind is _SIGNAL:
                self._replay_signal(seq, pid, time, flag, cond)
            if len(running) > 1:
                self._report(
                    STRule.ONE_INSIDE,
                    f"{len(running)} processes inside the monitor after "
                    f"{kind.value} by P{pid}: {[e.pid for e in running]}",
                    time=time,
                    pids=tuple(e.pid for e in running),
                    event_seq=seq,
                )

    def _replay_signal(
        self, seq: int, pid: Pid, time: float, flag: int, cond: Optional[Cond]
    ) -> None:
        """Extension: non-exiting Signal under the Hoare/Mesa disciplines."""
        running = self.running
        for signaller in running:
            if signaller.pid == pid:
                break
        else:
            signaller = None
            self._report_not_running(seq, _SIGNAL, pid, time)
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
        blocked = self._blocked
        waiter = queue.popleft()
        count = blocked[waiter.pid] - 1
        if count:
            blocked[waiter.pid] = count
        else:
            del blocked[waiter.pid]
        resumed = QueueEntry(waiter.pid, waiter.pname, time)
        if self._signal_and_wait:
            if signaller is not None:
                running.remove(signaller)
                self.urgent.append(QueueEntry(pid, signaller.pname, time))
                blocked[pid] = blocked.get(pid, 0) + 1
            running.append(resumed)
        else:
            # Mesa: the waiter re-queues at the entry queue tail; the
            # signaller keeps the monitor.
            self.enter0.append(resumed)
            blocked[waiter.pid] = blocked.get(waiter.pid, 0) + 1

    # ----------------------------------------------------- checkpoint compare

    def compare_with(
        self,
        current: SchedulingState,
        *,
        tmax: Optional[float] = None,
        tio: Optional[float] = None,
    ) -> None:
        """Step 2 of Algorithm-1: compare lists with the actual state."""
        now = current.time
        model_eq = [e.pid for e in self.enter0]
        actual_eq = list(current.entry_pids)
        if model_eq != actual_eq:
            self._report(
                STRule.ENTRY_QUEUE_MATCHES,
                f"Enter-0-List {model_eq} != actual EQ {actual_eq}",
                time=now,
                pids=tuple(set(model_eq) ^ set(actual_eq)),
            )
        for cond in self._declaration.conditions:
            model_cq = [e.pid for e in self.wait_cond.get(cond, [])]
            actual_cq = list(current.cond_pids(cond))
            if model_cq != actual_cq:
                self._report(
                    STRule.COND_QUEUE_MATCHES,
                    f"Wait-Cond-List[{cond}] {model_cq} != actual "
                    f"CQ[{cond}] {actual_cq}",
                    time=now,
                    pids=tuple(set(model_cq) ^ set(actual_cq)),
                )
        self._snapshot_witness(current)
        model_running = sorted(e.pid for e in self.running)
        actual_running = sorted(current.running_pids)
        if model_running != actual_running:
            self._report(
                STRule.RUNNING_MATCHES,
                f"Running-List {model_running} != actual Running "
                f"{actual_running}",
                time=now,
                pids=tuple(set(model_running) ^ set(actual_running)),
            )
        model_urgent = sorted(e.pid for e in self.urgent)
        actual_urgent = sorted(e.pid for e in current.urgent)
        if model_urgent != actual_urgent:
            self._report(
                STRule.RUNNING_MATCHES,
                f"urgent list {model_urgent} != actual urgent "
                f"{actual_urgent}",
                time=now,
                pids=tuple(set(model_urgent) ^ set(actual_urgent)),
            )
        self._sweep_model_timers(now, tmax, tio)

    def compare_unchanged(
        self,
        current: SchedulingState,
        *,
        tmax: Optional[float] = None,
        tio: Optional[float] = None,
    ) -> None:
        """:meth:`compare_with` for lists that :meth:`matches` ``current``.

        Every membership comparison is then a foregone conclusion, so only
        the snapshot's mutual-exclusion witness and the timer sweeps can
        fire — emitted in exactly the order ``compare_with`` would."""
        self._snapshot_witness(current)
        self._sweep_model_timers(current.time, tmax, tio)

    def _snapshot_witness(self, current: SchedulingState) -> None:
        if len(current.running) > 1:
            # The snapshot directly witnesses a mutual-exclusion violation,
            # independent of whether the event replay re-converged: this is
            # how transient double admissions are caught when the checking
            # interval is tight enough (the paper's T-accuracy trade-off).
            self._report(
                STRule.ONE_INSIDE,
                f"snapshot shows {len(current.running)} processes inside "
                f"the monitor simultaneously: {list(current.running_pids)}",
                time=current.time,
                pids=tuple(current.running_pids),
            )

    def _sweep_model_timers(
        self, now: float, tmax: Optional[float], tio: Optional[float]
    ) -> None:
        if tmax is not None:
            for entry in self.running:
                if entry.timer(now) >= tmax:
                    self._report(
                        STRule.TMAX_EXCEEDED,
                        f"P{entry.pid} ({entry.pname}) has been inside the "
                        f"monitor for {entry.timer(now):g} >= Tmax={tmax:g}",
                        time=now,
                        pids=(entry.pid,),
                    )
            for cond, queue in self.wait_cond.items():
                for entry in queue:
                    if entry.timer(now) >= tmax:
                        self._report(
                            STRule.TMAX_EXCEEDED,
                            f"P{entry.pid} has waited on condition {cond!r} "
                            f"for {entry.timer(now):g} >= Tmax={tmax:g}",
                            time=now,
                            pids=(entry.pid,),
                        )
        if tio is not None:
            for entry in self.enter0:
                if entry.timer(now) >= tio:
                    self._report(
                        STRule.TIO_EXCEEDED,
                        f"P{entry.pid} has sat on the entry queue for "
                        f"{entry.timer(now):g} >= Tio={tio:g} (starved or "
                        "lost)",
                        time=now,
                        pids=(entry.pid,),
                    )
