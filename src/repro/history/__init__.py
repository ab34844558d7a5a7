"""History information recording (paper Section 3.1 / 3.3.1).

The paper models a monitor's run-time behaviour as a finite sequence of
*scheduling events* ``L = l1 ... ln`` with a corresponding sequence of
*scheduling states* ``S = s1 ... sn``.  This package provides:

* :mod:`repro.history.events` — the EVENTset: ``Enter``, ``Wait``,
  ``Signal-Exit`` (plus the non-exiting ``Signal`` extension used by the
  Hoare/Mesa signalling disciplines),
* :mod:`repro.history.states` — scheduling-state snapshots
  ``<EQ, CQ[], R#>`` augmented with the ``Running`` set (Section 3.3.1),
* :mod:`repro.history.sink` — the :class:`EventSink` protocol separating
  the data-gathering routines from the checking routines (Figure 1's
  recording/checking seam), plus the :class:`Segment` checkpoint window,
* :mod:`repro.history.database` — the history information database: an
  event log segmented by checkpoints, with the paper's pruning strategy
  ("only the states at the last checking time and the current checking time
  are recorded ... most of the information can be removed after being
  used"),
* :mod:`repro.history.bounded` — :class:`BoundedHistory`, a fixed-capacity
  ring-buffer sink with explicit drop accounting for long-running
  workloads,
* :mod:`repro.history.wal` — :class:`WriteAheadLog`, a crash-durable
  JSONL sink (segment rotation, fsync policies, torn-tail-tolerant
  replay) backing the restart-recovery layer in
  :mod:`repro.detection.durability`.
"""

from repro.history.bounded import BoundedHistory
from repro.history.database import HistoryDatabase
from repro.history.sink import EventListener, EventSink, Segment
from repro.history.serialize import (
    dump_trace,
    event_to_row,
    events_from_rows,
    load_trace,
    state_from_row,
    state_to_row,
)
from repro.history.events import (
    EventKind,
    SchedulingEvent,
    enter_event,
    signal_event,
    signal_exit_event,
    wait_event,
)
from repro.history.states import QueueEntry, SchedulingState
from repro.history.wal import FSYNC_POLICIES, WriteAheadLog

__all__ = [
    "EventKind",
    "SchedulingEvent",
    "enter_event",
    "wait_event",
    "signal_event",
    "signal_exit_event",
    "QueueEntry",
    "SchedulingState",
    "EventListener",
    "EventSink",
    "HistoryDatabase",
    "BoundedHistory",
    "WriteAheadLog",
    "FSYNC_POLICIES",
    "Segment",
    "dump_trace",
    "load_trace",
    "event_to_row",
    "events_from_rows",
    "state_to_row",
    "state_from_row",
]
