"""Scheduling states — ``<EQ, CQ[], R#>`` snapshots.

Section 3.1 defines a scheduling state as the 3-tuple ``<EQ, CQ[], R#>``:
entry queue, array of condition queues, and the number of currently
available resources.  Section 3.3.1 additionally records ``Running`` — the
process(es) currently inside the monitor — at every checking time, because
the incremental checker compares its reconstructed Running-List against it.

Each queue position is a :class:`QueueEntry` carrying the pid, the procedure
it invoked, and the time at which it entered that queue.  The ``since``
timestamps implement the paper's ``Timer(Pid)`` without a separate timer
table: ``Timer(pid) = now - entry.since``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from repro.ids import Cond, Pid, Pname

__all__ = ["QueueEntry", "SchedulingState"]


class QueueEntry(NamedTuple):
    """One process sitting in a monitor queue (or in the Running set); an
    immutable tuple record, since one is built on every admission."""

    pid: Pid
    pname: Pname
    #: Time the process entered this queue / the monitor.
    since: float

    def timer(self, now: float) -> float:
        """The paper's ``Timer(Pid)``: how long the process has sat here."""
        return now - self.since

    def __str__(self) -> str:
        return f"P{self.pid}({self.pname})@{self.since:g}"


class _StateFields(NamedTuple):
    """:class:`SchedulingState`'s fields, in order.  A NamedTuple may not
    override ``__new__``, so the freezing subclass below adds it."""

    #: Time at which the snapshot was taken.
    time: float
    #: Entry queue (EQ), in FIFO order: head first.
    entry_queue: tuple[QueueEntry, ...]
    #: Condition queues (CQ[Cond]), each in FIFO order.
    cond_queues: Mapping[Cond, tuple[QueueEntry, ...]]
    #: Processes currently inside the monitor (Running).  A correct monitor
    #: has at most one; snapshots of faulty executions may show more.
    running: tuple[QueueEntry, ...]
    #: Number of currently available resources (R#), None when the monitor
    #: type has no resource-count notion.
    resource_count: Optional[int] = None
    #: Urgent stack used by the Hoare signal-and-wait discipline (extension;
    #: empty under the paper's signal-exit discipline).
    urgent: tuple[QueueEntry, ...] = ()


class SchedulingState(_StateFields):
    """Immutable snapshot of a monitor's scheduling state at one instant.

    A tuple record.  The constructor freezes ``cond_queues`` into a
    read-only copy, so a snapshot can never drift after capture;
    ``_make`` and ``_replace`` skip that, so code builds states through
    the constructor, with two exceptions that build the tuple directly
    (``tuple.__new__(SchedulingState, ...)``) around a mapping they wrap
    in :class:`~types.MappingProxyType` themselves, because they run once
    per checkpoint: :meth:`repro.monitor.core.MonitorCore.snapshot` and
    the state row decoder
    :func:`repro.history.serialize.state_from_row`.
    """

    __slots__ = ()

    def __new__(
        cls,
        time,
        entry_queue,
        cond_queues,
        running,
        resource_count=None,
        urgent=(),
    ):
        return tuple.__new__(
            cls,
            (
                time,
                entry_queue,
                MappingProxyType(dict(cond_queues)),
                running,
                resource_count,
                urgent,
            ),
        )

    # ------------------------------------------------------------- accessors

    @property
    def entry_pids(self) -> tuple[Pid, ...]:
        return tuple(entry.pid for entry in self.entry_queue)

    @property
    def running_pids(self) -> tuple[Pid, ...]:
        return tuple(entry.pid for entry in self.running)

    def cond_pids(self, cond: Cond) -> tuple[Pid, ...]:
        return tuple(entry.pid for entry in self.cond_queues.get(cond, ()))

    def all_waiting_pids(self) -> frozenset[Pid]:
        """Every pid blocked in this monitor (entry + all condition queues)."""
        pids = {entry.pid for entry in self.entry_queue}
        for queue in self.cond_queues.values():
            pids.update(entry.pid for entry in queue)
        return frozenset(pids)

    def find(self, pid: Pid) -> Optional[str]:
        """Locate a pid: 'running', 'entry', 'urgent', a condition name, or None."""
        if pid in self.running_pids:
            return "running"
        if pid in self.entry_pids:
            return "entry"
        if any(entry.pid == pid for entry in self.urgent):
            return "urgent"
        for cond, queue in self.cond_queues.items():
            if any(entry.pid == pid for entry in queue):
                return cond
        return None

    def describe(self) -> str:
        """Multi-line human-readable rendering (diagnostics, examples)."""
        lines = [f"state @ t={self.time:g}"]
        running = ", ".join(map(str, self.running)) or "-"
        lines.append(f"  Running : {running}")
        eq = ", ".join(map(str, self.entry_queue)) or "-"
        lines.append(f"  EQ      : {eq}")
        for cond in sorted(self.cond_queues):
            queue = ", ".join(map(str, self.cond_queues[cond])) or "-"
            lines.append(f"  CQ[{cond}]: {queue}")
        if self.urgent:
            lines.append(f"  Urgent  : {', '.join(map(str, self.urgent))}")
        if self.resource_count is not None:
            lines.append(f"  R#      : {self.resource_count}")
        return "\n".join(lines)
