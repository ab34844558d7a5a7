"""Algorithm-3: Calling Orders Checking (Section 3.3.2).

Applies to resource-access-right-allocator monitors — and, generalised via
the declared path expression, to any monitor with a ``call_order``.  Per
the paper this is the one check that runs in *real time*: level-III faults
("the execution sequence of the monitor procedures ... must be kept
correct") cannot wait for the next periodic checkpoint.

Two mechanisms run side by side:

* the paper's **Request-List**: pids with an outstanding Acquire/Request;
  duplicates (ST-8a), releases without requests (ST-8b) and entries older
  than ``Tlimit`` (ST-8c, the periodic Step 2) are reported;
* the **order automaton** compiled from the declaration's path expression:
  each process's Enter sequence must stay a prefix of the declared
  language (reported as ST-PX).  This subsumes Request/Release and also
  covers orders like ``((StartRead ; EndRead) | (StartWrite ; EndWrite))*``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro._rows import INT, LIST, NUMBER, Fields, check_row
from repro.detection.reports import FaultReport
from repro.detection.rules import STRule
from repro.history.events import EventKind, SchedulingEvent
from repro.ids import Pid
from repro.monitor.declaration import MonitorDeclaration
from repro.pathexpr.automaton import OrderAutomaton, compile_order

__all__ = ["CallingOrderChecker", "STATE_FIELDS", "sweep_request_list"]

#: Read once: on CPython 3.11 every ``EventKind.X`` read goes through the
#: Enum metaclass's ``__getattr__`` hook, and the tap runs on every event.
_ENTER = EventKind.ENTER
_SIGNAL_EXIT = EventKind.SIGNAL_EXIT

#: The durable row of a :class:`CallingOrderChecker`: its Request-List and
#: its per-process automaton states, each a list of the pairs below.
STATE_FIELDS: Fields = (("request_list", LIST), ("dfa_state", LIST))
_REQUEST_FIELDS: Fields = (("pid", INT), ("since", NUMBER))
_DFA_FIELDS: Fields = (("pid", INT), ("state", INT))


def sweep_request_list(
    request_list: Sequence[tuple[Pid, float]],
    monitor: str,
    now: float,
    tlimit: float,
) -> list[FaultReport]:
    """Step 2 as a pure function over a frozen Request-List.

    The two-phase engine snapshots ``request_list`` inside the phase-1
    atomic section (so the sweep sees the list as it stood at the
    checkpoint, even though evaluation happens later, while the real-time
    tap keeps mutating the live checker) and evaluates this sweep off the
    critical path.  :meth:`CallingOrderChecker.periodic` delegates here.
    """
    reports: list[FaultReport] = []
    for pid, since in request_list:
        if now - since >= tlimit:
            reports.append(
                FaultReport(
                    rule=STRule.REQUEST_NOT_RELEASED,
                    message=(
                        f"P{pid} has held (or awaited) the resource for "
                        f"{now - since:g} >= Tlimit={tlimit:g} without "
                        "releasing it"
                    ),
                    monitor=monitor,
                    detected_at=now,
                    pids=(pid,),
                )
            )
    return reports


class CallingOrderChecker:
    """Stateful, real-time Algorithm-3 instance for one monitor."""

    def __init__(self, declaration: MonitorDeclaration) -> None:
        self._declaration = declaration
        self._acquire_names = set(declaration.acquire_procedures)
        self._release_names = set(declaration.release_procedures)
        #: The paper's Request-List: (pid, time of the Request's Enter).
        self.request_list: list[tuple[Pid, float]] = []
        self._automaton: Optional[OrderAutomaton] = None
        if declaration.call_order:
            self._automaton = compile_order(declaration.call_order)
        self._dfa_state: dict[Pid, int] = {}

    @property
    def automaton(self) -> Optional[OrderAutomaton]:
        return self._automaton

    def holders(self) -> tuple[Pid, ...]:
        """Pids currently holding (or awaiting) the resource."""
        return tuple(pid for pid, __ in self.request_list)

    # --------------------------------------------------------------- per-event

    def on_event(self, event: SchedulingEvent) -> Sequence[FaultReport]:
        """Real-time Step 1: called for every recorded scheduling event.

        Runs inside the recorded monitor transition, so an event that
        reports nothing returns the empty tuple and builds no list.
        """
        seq, kind, pid, pname, time, __, __ = event
        if kind is _SIGNAL_EXIT:
            if pname in self._release_names:
                request_list = self.request_list
                for index, (holder, __) in enumerate(request_list):
                    if holder == pid:
                        del request_list[index]
                        break
            return ()
        if kind is not _ENTER:
            return ()
        found: Sequence[FaultReport] = ()
        if pname in self._acquire_names:
            request_list = self.request_list
            for holder, __ in request_list:
                if holder == pid:
                    found = [
                        self._make_report(
                            STRule.NO_DUPLICATE_REQUEST,
                            f"P{pid} called {pname} while already holding "
                            "the resource (re-acquisition without release "
                            "is a self-deadlock)",
                            seq,
                            pid,
                            time,
                        )
                    ]
                    break
            request_list.append((pid, time))
        elif pname in self._release_names:
            for holder, __ in self.request_list:
                if holder == pid:
                    break
            else:
                found = [
                    self._make_report(
                        STRule.RELEASE_REQUIRES_REQUEST,
                        f"P{pid} called {pname} without an outstanding "
                        "Request (release before acquire)",
                        seq,
                        pid,
                        time,
                    )
                ]
        automaton = self._automaton
        if automaton is not None:
            dfa_state = self._dfa_state
            nxt = automaton.step(dfa_state.get(pid, automaton.start), pname)
            if nxt is None:
                found = [
                    *found,
                    self._make_report(
                        STRule.CALL_ORDER_VIOLATED,
                        f"P{pid} invoked {pname} in violation of the "
                        f"declared order {automaton.source!r}",
                        seq,
                        pid,
                        time,
                    ),
                ]
            else:
                dfa_state[pid] = nxt
        return found

    # ---------------------------------------------------------------- periodic

    def periodic(self, now: float, tlimit: float) -> list[FaultReport]:
        """Step 2: sweep the Request-List for entries older than Tlimit."""
        return sweep_request_list(
            self.request_list, self._declaration.name, now, tlimit
        )

    # ----------------------------------------------------------- durable state

    def state_dict(self) -> list:
        """The durable row of the checker, in :data:`STATE_FIELDS` order.

        The Request-List as ``[pid, since]`` pairs, and each process's
        order-automaton state as ``[pid, state]`` pairs: pids stay ints.
        """
        return [
            [[pid, since] for pid, since in self.request_list],
            [[pid, state] for pid, state in self._dfa_state.items()],
        ]

    def restore_state(self, row: list) -> None:
        """Adopt a :meth:`state_dict` row (recovery after a restart)."""
        request_list, dfa_state = check_row(row, STATE_FIELDS, "algorithm3")
        self.request_list = [
            tuple(check_row(pair, _REQUEST_FIELDS, "algorithm3 request"))
            for pair in request_list
        ]
        self._dfa_state = dict(
            check_row(pair, _DFA_FIELDS, "algorithm3 dfa_state")
            for pair in dfa_state
        )

    # ----------------------------------------------------------------- helpers

    def _make_report(
        self, rule: STRule, message: str, seq: int, pid: Pid, time: float
    ) -> FaultReport:
        return FaultReport(
            rule=rule,
            message=message,
            monitor=self._declaration.name,
            detected_at=time,
            pids=(pid,),
            event_seq=seq,
        )
