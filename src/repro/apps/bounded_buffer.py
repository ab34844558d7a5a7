"""Bounded buffer — the communication-coordinator monitor of Section 2.1.

Processes communicate by calling ``Send`` and ``Receive``; the monitor
handles both scheduling and the buffer operations.  The paper states four
integrity constraints for this monitor type:

1. a Send may be delayed iff the buffer is full,
2. a Receive may be delayed iff the buffer is empty,
3. successful Receives never exceed successful Sends (``r <= s``),
4. successful Sends never exceed capacity + successful Receives
   (``s <= r + Rmax``).

Condition naming follows the paper exactly: a sender blocked because the
buffer is *full* waits on condition ``"full"``; a receiver blocked because
it is *empty* waits on ``"empty"``.  ``R#`` (the available-resource count)
is the number of **free slots**, so constraint 1 reads "Wait on ``full``
implies R# = 0" and constraint 2 "Wait on ``empty`` implies R# = Rmax" —
FD-Rule 6 verbatim.

``BufferIntegrityFault`` selects a deliberately buggy variant of the
procedure logic, one per level-II fault of the taxonomy; the injection
campaigns use it to show Algorithm-2 catching each violation.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Iterator, Optional

from repro.history.sink import EventSink
from repro.kernel.base import Kernel
from repro.kernel.syscalls import Delay, Syscall
from repro.monitor.classification import MonitorType
from repro.monitor.construct import MonitorBase
from repro.monitor.declaration import MonitorDeclaration
from repro.monitor.hooks import CoreHooks
from repro.monitor.procedures import procedure
from repro.monitor.semantics import Discipline

__all__ = ["BufferIntegrityFault", "BoundedBuffer", "HoareBoundedBuffer"]


class BufferIntegrityFault(enum.Enum):
    """Level-II (monitor-procedure-level) faults injectable into the buffer."""

    NONE = "none"
    #: Fault II.a: Send is delayed although the buffer is not full.
    SEND_SPURIOUS_DELAY = "send-spurious-delay"
    #: Fault II.a (second form): Send is not delayed although the buffer is
    #: full — it overwrites; s grows beyond r + Rmax (fault II.d).
    SEND_IGNORES_FULL = "send-ignores-full"
    #: Fault II.b: Receive is delayed although the buffer is not empty.
    RECEIVE_SPURIOUS_DELAY = "receive-spurious-delay"
    #: Fault II.b (second form): Receive is not delayed although the buffer
    #: is empty — r grows beyond s (fault II.c).
    RECEIVE_IGNORES_EMPTY = "receive-ignores-empty"


class BoundedBuffer(MonitorBase):
    """Monitor-protected FIFO buffer with ``Send``/``Receive`` procedures."""

    def __init__(
        self,
        kernel: Kernel,
        capacity: int,
        *,
        history: Optional[EventSink] = None,
        hooks: Optional[CoreHooks] = None,
        integrity_fault: BufferIntegrityFault = BufferIntegrityFault.NONE,
        service_time: float = 0.0,
        name: str = "buffer",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer capacity must be positive, got {capacity}")
        if service_time < 0:
            raise ValueError(f"service_time must be >= 0, got {service_time}")
        self._capacity = capacity
        self._service = service_time
        self._items: deque[Any] = deque()
        self._fault = integrity_fault
        self._name = name
        super().__init__(kernel, history=history, hooks=hooks)

    def declare(self) -> MonitorDeclaration:
        return MonitorDeclaration(
            name=self._name,
            mtype=MonitorType.COMMUNICATION_COORDINATOR,
            procedures=("Send", "Receive"),
            conditions=("full", "empty"),
            rmax=self._capacity,
        )

    # ------------------------------------------------------------- resources

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def occupancy(self) -> int:
        return len(self._items)

    def resource_count(self) -> int:
        """``R#``: the number of free buffer slots."""
        return self._capacity - len(self._items)

    # ------------------------------------------------------------- procedures
    # Written against the paper's signal-exit discipline: a single `if` check
    # suffices because the resumed process receives the monitor directly
    # from its signaller with the condition guaranteed to hold.

    @procedure("Send")
    def send(self, item: Any) -> Iterator[Syscall]:
        """Deposit ``item``, blocking while the buffer is full."""
        if self._should_delay_send():
            yield from self.wait("full")
        if self._service:
            # Time spent copying into the buffer while holding the monitor:
            # this is what creates entry-queue contention under load.
            yield Delay(self._service)
        self._exit_after(lambda: self._deposit(item), "empty")

    @procedure("Receive")
    def receive(self) -> Iterator[Syscall]:
        """Remove and return the oldest item, blocking while empty."""
        if self._should_delay_receive():
            yield from self.wait("empty")
        if self._service:
            yield Delay(self._service)
        return self._exit_after(self._take, "full")

    def _exit_after(self, change: Callable[[], Any], cond: str) -> Any:
        """Apply an ``R#`` change and its Signal-Exit as one atomic step.

        A checkpoint capture can then never observe the new ``R#`` without
        the Signal-Exit event that accounts for it (ST-7b).  The nested
        ``kernel.atomic`` is a plain call on the sim kernel and a
        re-entrant lock on the thread kernel.
        """

        def step() -> Any:
            result = change()
            self.signal_exit(cond)
            return result

        return self.kernel.atomic(step)

    # ----------------------------------------------- fault-selectable innards

    def _should_delay_send(self) -> bool:
        full = len(self._items) >= self._capacity
        if self._fault is BufferIntegrityFault.SEND_SPURIOUS_DELAY:
            return True  # delayed even when not full
        if self._fault is BufferIntegrityFault.SEND_IGNORES_FULL:
            return False  # never delayed, even when full
        return full

    def _should_delay_receive(self) -> bool:
        empty = not self._items
        if self._fault is BufferIntegrityFault.RECEIVE_SPURIOUS_DELAY:
            return True
        if self._fault is BufferIntegrityFault.RECEIVE_IGNORES_EMPTY:
            return False
        return empty

    def _deposit(self, item: Any) -> None:
        if (
            self._fault is BufferIntegrityFault.SEND_IGNORES_FULL
            and len(self._items) >= self._capacity
        ):
            # Buggy implementation clobbers the oldest item instead of
            # blocking: occupancy stays put while `s` keeps climbing.
            self._items.popleft()
        self._items.append(item)

    def _take(self) -> Any:
        if not self._items:
            # Only reachable under RECEIVE_IGNORES_EMPTY: the buggy
            # implementation fabricates a value from an empty buffer.
            return None
        return self._items.popleft()


class HoareBoundedBuffer(BoundedBuffer):
    """The same buffer under the Hoare *signal-and-wait* discipline.

    Instead of the combined Signal-Exit, each procedure signals mid-body:
    the signaller is parked on the urgent stack while the resumed waiter
    runs, and continues (then auto-exits) once the waiter releases the
    monitor.  Functionally identical to :class:`BoundedBuffer`; exists to
    exercise the urgent-stack paths of the construct and the extended
    checker on a realistic workload.
    """

    def declare(self) -> MonitorDeclaration:
        return MonitorDeclaration(
            name=self._name,
            mtype=MonitorType.COMMUNICATION_COORDINATOR,
            procedures=("Send", "Receive"),
            conditions=("full", "empty"),
            rmax=self._capacity,
            discipline=Discipline.SIGNAL_AND_WAIT,
        )

    @procedure("Send")
    def send(self, item: Any) -> Iterator[Syscall]:
        if self._should_delay_send():
            yield from self.wait("full")
        if self._service:
            yield Delay(self._service)
        self._deposit(item)
        # Hoare signal: if a receiver waits, it runs now and we park on the
        # urgent stack; the @procedure wrapper exits for us afterwards.
        yield from self.monitor.signal("empty")

    @procedure("Receive")
    def receive(self) -> Iterator[Syscall]:
        if self._should_delay_receive():
            yield from self.wait("empty")
        if self._service:
            yield Delay(self._service)
        item = self._take()
        yield from self.monitor.signal("full")
        return item
