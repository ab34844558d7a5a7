"""The monitor scheduling core: a pure, instrumented state machine.

``MonitorCore`` owns the scheduling state of one monitor — the Running set,
the entry queue (EQ), the condition queues (CQ[Cond]) and, for the Hoare
discipline, the urgent stack — and implements the primitives Enter, Wait,
Signal, Signal-Exit and Exit as *transitions*: plain functions that mutate
the state and return what the substrate must do (block the caller and/or
wake other processes).  The core never blocks and never touches a kernel,
which is what lets the same implementation run under the simulation kernel,
the thread kernel and the unit tests' no-kernel harness.

Two cross-cutting concerns are threaded through every transition:

* **Data gathering** (the paper's real-time recording routines): each
  transition emits a :class:`~repro.history.events.SchedulingEvent` into the
  attached :class:`~repro.history.sink.EventSink` (typically a
  :class:`~repro.history.database.HistoryDatabase`; any sink implementation
  works — the core only speaks the protocol).  A core with no sink attached
  is the paper's "monitor without the extension" baseline used in the
  overhead experiment.
* **Perturbation hooks** (:class:`~repro.monitor.hooks.CoreHooks`): every
  scheduling decision consults the hooks so the fault-injection campaigns
  can realise each taxonomy entry.  Injected misbehaviour changes *reality*
  (the queues, the wake-ups) while recording continues to log what the
  implementation claims happened — exactly the discrepancy the detection
  algorithms exist to catch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Optional

from repro.errors import (
    MonitorUsageError,
    NotInsideMonitorError,
    UnknownConditionError,
    UnknownProcedureError,
)
from repro.history.sink import EventSink
from repro.history.events import EventKind, SchedulingEvent
from repro.history.states import QueueEntry, SchedulingState
from repro.ids import Cond, Pid, Pname
from repro.monitor.declaration import MonitorDeclaration
from repro.monitor.hooks import CoreHooks
from repro.monitor.semantics import Discipline

__all__ = ["Transition", "MonitorCore"]

#: The event kinds, read once: on CPython 3.11 every ``EventKind.X`` read
#: goes through the Enum metaclass's ``__getattr__`` hook, and every
#: transition names one, recording or not.
_ENTER = EventKind.ENTER
_WAIT = EventKind.WAIT
_SIGNAL_EXIT = EventKind.SIGNAL_EXIT
_SIGNAL = EventKind.SIGNAL
#: The record hook builds each ``SchedulingEvent`` as the plain tuple
#: record it is, and ``snapshot`` each ``SchedulingState``.  The event
#: constructor's two checks hold at every ``_record`` call: each flag is
#: the literal 0 or 1 or a local only ever set to one of them, and
#: ``wait`` passes its condition after ``_check_condition``.
_new_tuple = tuple.__new__


@dataclass(frozen=True, slots=True)
class Transition:
    """What the substrate must do after a core transition.

    ``caller_blocks`` — the invoking process must block (the driver yields a
    ``Block`` syscall).  ``wake`` — pids to hand wake-up permits to, in
    order.  ``event`` — the scheduling event recorded (None when recording
    was suppressed or no database is attached).
    """

    caller_blocks: bool
    wake: tuple[Pid, ...] = ()
    event: Optional[SchedulingEvent] = None


class MonitorCore:
    """Scheduling state machine for one monitor.

    Parameters
    ----------
    declaration:
        The monitor's static specification.
    now:
        Time source (the bound kernel's clock); queue entries are stamped
        with it so the checker can evaluate ``Timer(pid)``.
    history:
        Event sink for recording (any :class:`EventSink`), or None to run
        bare (the overhead baseline).
    hooks:
        Perturbation hooks; defaults to correct behaviour.
    resource_probe:
        For communication-coordinator monitors: callable returning ``R#``,
        the number of currently available resources (free buffer slots).
        Captured into every state snapshot.
    """

    def __init__(
        self,
        declaration: MonitorDeclaration,
        now: Callable[[], float],
        history: Optional[EventSink] = None,
        hooks: Optional[CoreHooks] = None,
        resource_probe: Optional[Callable[[], int]] = None,
    ) -> None:
        self.declaration = declaration
        self._now = now
        self._history = history
        self._hooks = hooks or CoreHooks()
        self._probe = resource_probe
        self._running: list[QueueEntry] = []
        self._entry_queue: deque[QueueEntry] = deque()
        self._cond_queues: dict[Cond, deque[QueueEntry]] = {
            cond: deque() for cond in declaration.conditions
        }
        self._urgent: list[QueueEntry] = []

    # --------------------------------------------------------------- plumbing

    @property
    def hooks(self) -> CoreHooks:
        return self._hooks

    @hooks.setter
    def hooks(self, hooks: CoreHooks) -> None:
        self._hooks = hooks

    @property
    def history(self) -> Optional[EventSink]:
        return self._history

    def attach_history(self, history: EventSink) -> None:
        """Attach the event sink and install the initial snapshot."""
        self._history = history
        if not history.opened:
            history.open(self.snapshot())

    def detach_history(self) -> None:
        """Stop recording: the monitor runs bare until a sink is attached."""
        self._history = None

    def _record(
        self,
        kind: EventKind,
        pid: Pid,
        pname: Pname,
        time: float,
        flag: int = 0,
        cond: Optional[Cond] = None,
    ) -> Optional[SchedulingEvent]:
        history = self._history
        if history is None:
            return None
        event = _new_tuple(
            SchedulingEvent,
            (history.next_seq(), kind, pid, pname, time, flag, cond),
        )
        if not self._hooks.should_record(event):
            return None
        history.record(event)
        return event

    # ------------------------------------------------------------- validation

    def _check_procedure(self, pname: Pname) -> None:
        if not self.declaration.has_procedure(pname):
            raise UnknownProcedureError(
                f"monitor {self.declaration.name!r} has no procedure {pname!r}"
            )

    def _check_condition(self, cond: Cond) -> None:
        if cond not in self._cond_queues:
            raise UnknownConditionError(
                f"monitor {self.declaration.name!r} has no condition {cond!r}"
            )

    def _running_entry(self, pid: Pid, op: str) -> QueueEntry:
        for entry in self._running:
            if entry.pid == pid:
                return entry
        raise NotInsideMonitorError(
            f"process P{pid} called {op} on monitor "
            f"{self.declaration.name!r} without being inside it"
        )

    def _where(self, pid: Pid) -> Optional[str]:
        if any(e.pid == pid for e in self._running):
            return "running"
        if any(e.pid == pid for e in self._entry_queue):
            return "entry queue"
        if any(e.pid == pid for e in self._urgent):
            return "urgent stack"
        for cond, queue in self._cond_queues.items():
            if any(e.pid == pid for e in queue):
                return f"condition queue {cond!r}"
        return None

    # ------------------------------------------------------------ transitions

    def enter(self, pid: Pid, pname: Pname) -> Transition:
        """The Enter primitive: acquire mutually exclusive monitor access."""
        self._check_procedure(pname)
        where = self._where(pid)
        if where is not None:
            raise MonitorUsageError(
                f"process P{pid} re-entered monitor {self.declaration.name!r} "
                f"while already in its {where} (nested monitor calls are not "
                "supported)"
            )
        now = self._now()
        if not self._running or self._hooks.enter_admit_despite_owner(pid, pname):
            self._running.append(QueueEntry(pid, pname, now))
            event = self._record(_ENTER, pid, pname, now, 1)
            return Transition(caller_blocks=False, event=event)
        event = self._record(_ENTER, pid, pname, now, 0)
        if not self._hooks.enter_drop_request(pid, pname):
            self._entry_queue.append(QueueEntry(pid, pname, now))
        return Transition(caller_blocks=True, event=event)

    def wait(self, pid: Pid, cond: Cond) -> Transition:
        """The Wait primitive: block on a condition, releasing the monitor."""
        self._check_condition(cond)
        entry = self._running_entry(pid, f"Wait({cond})")
        now = self._now()
        event = self._record(_WAIT, pid, entry.pname, now, 0, cond)
        if self._hooks.wait_no_block(pid, cond):
            # Fault I.b.1: the caller just keeps running inside the monitor.
            return Transition(caller_blocks=False, event=event)
        self._running.remove(entry)
        if not self._hooks.wait_lose_caller(pid, cond):
            self._cond_queues[cond].append(QueueEntry(pid, entry.pname, now))
        if self._hooks.wait_hold_monitor(pid, cond):
            # Fault I.b.6: the lock is never handed over.  Reality: the slot
            # stays occupied by the now-sleeping process.
            self._running.append(entry)
            return Transition(caller_blocks=True, event=event)
        wake = self._admit_next(now, origin="wait")
        return Transition(caller_blocks=True, wake=tuple(wake), event=event)

    def signal_exit(self, pid: Pid, cond: Optional[Cond] = None) -> Transition:
        """The combined Signal-Exit primitive (paper Section 2).

        With ``cond=None`` this is a plain Exit: no condition is signalled,
        flag is recorded 0, and the entry queue head (if any) is admitted.
        """
        if cond is not None:
            self._check_condition(cond)
        entry = self._running_entry(pid, f"Signal-Exit({cond})")
        now = self._now()
        queue = self._cond_queues.get(cond) if cond is not None else None
        waiter: Optional[QueueEntry] = None
        flag = 0
        if queue:
            if self._hooks.sigexit_fake_resume(pid, cond):
                flag = 1  # recorded claim; nobody actually resumed
            else:
                waiter = queue.popleft()
                flag = 1
        event = self._record(
            _SIGNAL_EXIT, pid, entry.pname, now, flag, cond
        )
        wake: list[Pid] = []
        if not self._hooks.sigexit_hold_monitor(pid):
            self._running.remove(entry)
        if waiter is not None:
            self._running.append(QueueEntry(waiter.pid, waiter.pname, now))
            wake.append(waiter.pid)
            if (
                self._hooks.admission_admit_extra("signal-exit-handoff")
                and self._entry_queue
            ):
                extra = self._entry_queue.popleft()
                self._running.append(QueueEntry(extra.pid, extra.pname, now))
                wake.append(extra.pid)
        else:
            wake.extend(self._admit_next(now, origin="signal-exit"))
        return Transition(caller_blocks=False, wake=tuple(wake), event=event)

    def exit(self, pid: Pid) -> Transition:
        """Plain Exit: leave the monitor without signalling any condition."""
        return self.signal_exit(pid, cond=None)

    def signal(self, pid: Pid, cond: Cond) -> Transition:
        """The Signal primitive under the declared discipline.

        * ``SIGNAL_EXIT`` — identical to :meth:`signal_exit`.
        * ``SIGNAL_AND_WAIT`` (Hoare) — the waiter runs at once; the
          signaller is parked on the urgent stack and blocks.
        * ``SIGNAL_AND_CONTINUE`` (Mesa) — the waiter is moved to the entry
          queue; the signaller keeps the monitor.
        """
        discipline = self.declaration.discipline
        if discipline is Discipline.SIGNAL_EXIT:
            return self.signal_exit(pid, cond)
        self._check_condition(cond)
        entry = self._running_entry(pid, f"Signal({cond})")
        now = self._now()
        queue = self._cond_queues[cond]
        if discipline is Discipline.SIGNAL_AND_WAIT:
            if not queue:
                event = self._record(
                    _SIGNAL, pid, entry.pname, now, 0, cond
                )
                return Transition(caller_blocks=False, event=event)
            waiter = queue.popleft()
            event = self._record(
                _SIGNAL, pid, entry.pname, now, 1, cond
            )
            self._running.remove(entry)
            self._urgent.append(QueueEntry(entry.pid, entry.pname, now))
            self._running.append(QueueEntry(waiter.pid, waiter.pname, now))
            return Transition(caller_blocks=True, wake=(waiter.pid,), event=event)
        # SIGNAL_AND_CONTINUE
        flag = 0
        if queue:
            waiter = queue.popleft()
            self._entry_queue.append(QueueEntry(waiter.pid, waiter.pname, now))
            flag = 1
        event = self._record(
            _SIGNAL, pid, entry.pname, now, flag, cond
        )
        return Transition(caller_blocks=False, event=event)

    def broadcast(self, pid: Pid, cond: Cond) -> Transition:
        """Signal every waiter on ``cond`` (Mesa extension, cf. notifyAll).

        Only meaningful under ``SIGNAL_AND_CONTINUE``: each waiter is moved
        to the entry queue (recorded as one Signal event per waiter) and
        re-admitted as the monitor frees up.  Under the other disciplines a
        broadcast cannot preserve mutual exclusion, so it is rejected.
        """
        if self.declaration.discipline is not Discipline.SIGNAL_AND_CONTINUE:
            raise MonitorUsageError(
                f"broadcast requires the signal-and-continue discipline; "
                f"monitor {self.declaration.name!r} declares "
                f"{self.declaration.discipline.value}"
            )
        self._check_condition(cond)
        entry = self._running_entry(pid, f"Broadcast({cond})")
        now = self._now()
        queue = self._cond_queues[cond]
        last_event: Optional[SchedulingEvent] = None
        while queue:
            waiter = queue.popleft()
            self._entry_queue.append(QueueEntry(waiter.pid, waiter.pname, now))
            last_event = self._record(
                _SIGNAL, pid, entry.pname, now, 1, cond
            )
        return Transition(caller_blocks=False, event=last_event)

    def expel(self, pid: Pid) -> list[Pid]:
        """Forcibly vacate ``pid``'s Running slot (recovery extension).

        Out-of-band with respect to the event history: recovery repairs the
        *actual* state, it does not rewrite what happened.  Returns the
        pids to wake from the follow-up admission.
        """
        entry = self._running_entry(pid, "Expel")
        self._running.remove(entry)
        return self._admit_next(self._now(), origin="signal-exit")

    def queue_length(self, cond: Cond) -> int:
        """Number of processes waiting on ``cond`` (Hoare's ``cond.queue``)."""
        self._check_condition(cond)
        return len(self._cond_queues[cond])

    # -------------------------------------------------------------- admission

    def _admit_next(self, now: float, origin: str) -> list[Pid]:
        """Hand the free monitor to the next waiting process, if any.

        Priority: urgent stack (Hoare signallers) over the entry queue.
        Resumption is deliberately *not* recorded as a new event — the
        trimmed EVENTset of Section 3.3.1 infers it from the releasing
        event, which is what keeps checking single-pass.
        """
        if self._hooks.admission_suppressed(origin):
            return []
        if self._running:
            return []
        wake: list[Pid] = []
        chosen: Optional[QueueEntry] = None
        if self._urgent:
            chosen = self._urgent.pop()
        elif self._entry_queue:
            chosen = self._pop_entry_honouring_victims()
        if chosen is not None:
            self._running.append(QueueEntry(chosen.pid, chosen.pname, now))
            wake.append(chosen.pid)
            if self._hooks.admission_admit_extra(origin) and self._entry_queue:
                extra = self._pop_entry_honouring_victims()
                if extra is not None:
                    self._running.append(
                        QueueEntry(extra.pid, extra.pname, now)
                    )
                    wake.append(extra.pid)
        return wake

    def _pop_entry_honouring_victims(self) -> Optional[QueueEntry]:
        """Pop the entry-queue head, skipping injected starvation victims."""
        for index, entry in enumerate(self._entry_queue):
            if not self._hooks.admission_skip_victim(entry.pid):
                del self._entry_queue[index]
                return entry
        return None

    # --------------------------------------------------------------- snapshot

    def snapshot(self) -> SchedulingState:
        """Capture the actual scheduling state (the checker's ``s_t``).

        Built as the tuple record it is, around the read-only mapping the
        constructor would make: this runs once per monitor inside every
        checkpoint's world stop."""
        probe = self._probe
        return _new_tuple(
            SchedulingState,
            (
                self._now(),
                tuple(self._entry_queue),
                MappingProxyType(
                    {
                        cond: tuple(queue)
                        for cond, queue in self._cond_queues.items()
                    }
                ),
                tuple(self._running),
                probe() if probe is not None else None,
                tuple(self._urgent),
            ),
        )

    # ------------------------------------------------------------- inspection

    @property
    def running_pids(self) -> tuple[Pid, ...]:
        return tuple(entry.pid for entry in self._running)

    @property
    def entry_pids(self) -> tuple[Pid, ...]:
        return tuple(entry.pid for entry in self._entry_queue)

    def cond_pids(self, cond: Cond) -> tuple[Pid, ...]:
        self._check_condition(cond)
        return tuple(entry.pid for entry in self._cond_queues[cond])

    def is_inside(self, pid: Pid) -> bool:
        return any(entry.pid == pid for entry in self._running)

    @property
    def idle(self) -> bool:
        """True when nobody is inside and nobody is waiting."""
        return (
            not self._running
            and not self._entry_queue
            and not self._urgent
            and all(not q for q in self._cond_queues.values())
        )

    def __repr__(self) -> str:
        return (
            f"MonitorCore({self.declaration.name!r}, running={self.running_pids}, "
            f"eq={self.entry_pids})"
        )
