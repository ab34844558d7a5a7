"""The event-sink protocol: the seam between recording and checking.

Figure 1 of the paper separates the *data-gathering routines* (invoked by
the monitor primitives in real time) from the *checking routines* (invoked
periodically).  The seed wired the two together through one concrete
class; this module names the contract itself so the recording side can be
swapped without touching the monitor core or the detection algorithms:

* :class:`EventSink` — the abstract recording interface.  A sink accepts
  scheduling events (``record``), issues monitor-local sequence numbers
  (``next_seq``), fans events out to real-time taps (``subscribe`` /
  ``unsubscribe``) and closes checkpoint windows (``cut``), returning a
  :class:`Segment` for the checker.

``record`` runs inside the monitor's atomic transition — it is the one
sink call the workload pays for on every operation.  The in-memory sinks
therefore stage: ``record`` appends to a plain local list and the batch
is handed to the storage hooks in one ``_flush_batch`` call once the
list reaches the sink class's staging size, at the next checkpoint
``cut``, or whenever the stored window is inspected (``pending_events``
and friends call :meth:`EventSink.flush_staged` first, so staging is
invisible to every reader).  Real-time taps are *not* deferred:
listeners fire synchronously inside ``record``, staged or not.
* :class:`Segment` — one checkpoint window: previous state, event
  sequence, current state, plus the number of events the sink had to drop
  inside the window (0 for unbounded sinks).

Concrete sinks: :class:`~repro.history.database.HistoryDatabase` (the
paper's unbounded open segment with checkpoint pruning) and
:class:`~repro.history.bounded.BoundedHistory` (a fixed-capacity ring
buffer for long-running workloads).
"""

from __future__ import annotations

import abc
from typing import Callable, NamedTuple, Optional, Sequence

from repro.errors import CheckpointError
from repro.history.events import SchedulingEvent
from repro.history.states import SchedulingState

__all__ = ["EventListener", "EventSink", "Segment", "merge_event_streams"]

#: A real-time event tap: called synchronously inside ``record``.
EventListener = Callable[[SchedulingEvent], None]

#: ``cut`` builds each :class:`Segment` as the plain tuple record it is,
#: skipping the Python-level ``__new__`` that NamedTuple generates.
_new_tuple = tuple.__new__


class Segment(NamedTuple):
    """Everything the checker needs for one checking interval.

    ``previous`` is the state at the last checking time (``s_p`` in the
    paper), ``events`` the scheduling event sequence ``L = l1 ... ln``
    generated since then, and ``current`` the state at the current checking
    time (``s_t``).  ``dropped`` counts events the sink discarded inside
    the window (always 0 for :class:`~repro.history.database.HistoryDatabase`;
    nonzero when a :class:`~repro.history.bounded.BoundedHistory` saturated).

    A tuple record: :meth:`EventSink.cut` and the wire decoder build it
    with ``tuple.__new__``.  ``len(segment)`` is the number of events, so
    ``_make`` and ``_replace``, which check the length of the record they
    build, refuse a segment; build a changed one with the constructor.
    """

    previous: SchedulingState
    events: tuple[SchedulingEvent, ...]
    current: SchedulingState
    dropped: int = 0

    @property
    def duration(self) -> float:
        return self.current.time - self.previous.time

    @property
    def complete(self) -> bool:
        """True when no event inside this window was dropped."""
        return self.dropped == 0

    def __len__(self) -> int:
        return len(self.events)


class EventSink(abc.ABC):
    """Abstract recording interface between gathering and checking.

    The base class owns everything every sink needs — sequence numbering,
    the listener registry, checkpoint-state bookkeeping, total-recorded
    accounting and the staging buffer — and delegates the actual event
    storage to three hooks: ``_append`` (store one event), ``_drain``
    (hand over and clear the open window) and ``_take_dropped`` (report
    and reset the window's drop count, 0 by default).  Sinks that can
    store a whole batch cheaper than event-by-event additionally override
    ``_flush_batch``.

    ``staging`` is fixed by each subclass: the events ``record`` may hold
    in the staging list before the batch is flushed to storage.  ``1``
    (the default) stores every event immediately, which is what the
    durable write-ahead log needs.
    """

    def __init__(self, staging: int = 1) -> None:
        self._seq = 0
        self._last_state: Optional[SchedulingState] = None
        self._listeners: list[EventListener] = []
        self._total_recorded = 0
        self._staging_limit = staging
        self._staged: list[SchedulingEvent] = []
        #: Events that went through a staged-batch flush (cumulative).
        self.staged_events = 0
        #: Batch flushes that moved at least one staged event.
        self.staged_flushes = 0

    # ---------------------------------------------------------------- tapping

    def subscribe(self, listener: EventListener) -> None:
        """Register a real-time event tap.

        The detector uses this for the paper's real-time checking of
        calling orders on allocator-type monitors: every recorded event is
        pushed to the listener synchronously, inside the recording call.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: EventListener) -> None:
        """Detach a previously registered tap (no-op when absent).

        Detectors call this from ``stop()`` so a retired checker does not
        keep receiving (and paying for) every future event.
        """
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    @property
    def listener_count(self) -> int:
        """Number of currently attached real-time taps."""
        return len(self._listeners)

    # -------------------------------------------------------------- recording

    def next_seq(self) -> int:
        """Issue the next event sequence number (monitor-local total order)."""
        seq = self._seq
        self._seq += 1
        return seq

    @property
    def upcoming_seq(self) -> int:
        """The sequence number :meth:`next_seq` issues next; every event
        numbered below it has been recorded."""
        return self._seq

    def record(self, event: SchedulingEvent) -> None:
        """Append one scheduling event (called by data-gathering routines).

        On a staging sink the event lands in a cheap local list and
        storage is deferred to the next batch flush; real-time listeners
        are invoked synchronously either way.
        """
        if self._staging_limit > 1:
            self._staged.append(event)
            self._total_recorded += 1
            if len(self._staged) >= self._staging_limit:
                self.flush_staged()
        else:
            self._append(event)
            self._total_recorded += 1
        for listener in self._listeners:
            listener(event)

    def flush_staged(self) -> int:
        """Hand every staged event to storage; returns the batch size.

        Called automatically by ``cut`` and by every inspection property,
        so readers never observe a partially staged window.  Cheap no-op
        when nothing is staged.
        """
        staged = self._staged
        if not staged:
            return 0
        batch = tuple(staged)
        staged.clear()
        self._flush_batch(batch)
        self.staged_events += len(batch)
        self.staged_flushes += 1
        return len(batch)

    def open(self, initial_state: SchedulingState) -> None:
        """Install the state snapshot that starts the first segment."""
        if self._last_state is not None:
            raise CheckpointError("event sink already opened")
        self._last_state = initial_state
        self._on_open(initial_state)

    @property
    def opened(self) -> bool:
        return self._last_state is not None

    # ------------------------------------------------------------ checkpoints

    def cut(self, current_state: SchedulingState) -> Segment:
        """Close the open segment at ``current_state`` and prune its events.

        Returns the :class:`Segment` for the checker.  The events are
        dropped from the live log (the paper's pruning); the new state
        becomes the base of the next segment.
        """
        if self._last_state is None:
            raise CheckpointError("cut() before open(): no base state installed")
        if current_state.time < self._last_state.time:
            raise CheckpointError(
                f"checkpoint at t={current_state.time:g} precedes the last "
                f"checkpoint at t={self._last_state.time:g}"
            )
        self.flush_staged()
        segment = _new_tuple(
            Segment,
            (
                self._last_state,
                self._drain(),
                current_state,
                self._take_dropped(),
            ),
        )
        self._last_state = current_state
        self._on_cut(current_state)
        return segment

    # ---------------------------------------------------------- storage hooks

    @abc.abstractmethod
    def _append(self, event: SchedulingEvent) -> None:
        """Store one recorded event in the open window."""

    def _flush_batch(self, batch: tuple[SchedulingEvent, ...]) -> None:
        """Store one staged batch.  Defaults to ``_append`` per event, so
        subclass accounting (capacity eviction, peaks) is exact; sinks
        with a cheaper bulk path override."""
        append = self._append
        for event in batch:
            append(event)

    @abc.abstractmethod
    def _drain(self) -> tuple[SchedulingEvent, ...]:
        """Return the open window's events and clear it."""

    def _take_dropped(self) -> int:
        """Report and reset the open window's dropped-event count."""
        return 0

    def _on_open(self, state: SchedulingState) -> None:
        """Subclass hook invoked after ``open`` installs the base state."""

    def _on_cut(self, state: SchedulingState) -> None:
        """Subclass hook invoked after ``cut`` advances the base state."""

    # ------------------------------------------------------------- inspection

    @property
    @abc.abstractmethod
    def pending_events(self) -> tuple[SchedulingEvent, ...]:
        """Events recorded since the last checkpoint (not yet consumed)."""

    @property
    def live_events(self) -> int:
        """Events currently held in memory in the open segment."""
        return len(self.pending_events)

    @property
    def last_state(self) -> Optional[SchedulingState]:
        return self._last_state

    @property
    def dropped_events(self) -> int:
        """Total events this sink ever discarded (0 for unbounded sinks)."""
        return 0

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (survives pruning; ablation metric)."""
        return self._total_recorded


def merge_event_streams(
    streams: "Sequence[Sequence[SchedulingEvent]]",
) -> tuple[SchedulingEvent, ...]:
    """Fan several sinks' event streams into one deterministic timeline.

    A sharded detection cluster records into one sink per monitor; audits
    and debugging want the fleet's history as a single sequence.  Events
    are ordered by recording time, then per-sink sequence number, then
    stream position (ties broken by the order the streams were passed in),
    so the merge is total and independent of dict/iteration order.
    """
    keyed = [
        (event.time, event.seq, index, position, event)
        for index, stream in enumerate(streams)
        for position, event in enumerate(stream)
    ]
    keyed.sort(key=lambda item: item[:4])
    return tuple(item[4] for item in keyed)
