"""The history information database (paper Section 3.3 / Figure 1).

The database sits between the *data-gathering routines* (which the monitor
primitives invoke in real time on every Enter/Wait/Signal-Exit) and the
*checking routines* (invoked periodically).  Its contract follows the
paper's space-efficiency strategy:

    "Only the states at the last checking time and the current checking
    time are recorded for checking the mapping; the state sequence in
    between is not needed.  Furthermore only a small amount of information
    needs to be kept (in the last checking state) for later detection; most
    of the information can be removed after being used."

Concretely: events accumulate in the *open segment*; a checkpoint ``cut``
closes the segment — pairing the previous state snapshot, the accumulated
events, and the new snapshot — and (by default) discards the events.  A
``retain_full_trace=True`` mode keeps everything for the offline FD-rule
checker and for the A3 pruning ablation.

``HistoryDatabase`` is the reference implementation of the
:class:`~repro.history.sink.EventSink` protocol; the shared recording /
tapping / checkpoint machinery lives on the base class, this module adds
the unbounded open segment and the optional full-trace retention.
"""

from __future__ import annotations

from repro.errors import HistoryError
from repro.history.events import SchedulingEvent
from repro.history.sink import EventSink, Segment
from repro.history.states import SchedulingState

__all__ = ["DEFAULT_STAGING", "Segment", "HistoryDatabase"]

#: Staging-batch size of the in-memory sinks: ``record`` appends to a
#: plain list inside the atomic section and storage (plus its accounting)
#: runs once per batch / checkpoint instead of per event.
DEFAULT_STAGING = 64


class HistoryDatabase(EventSink):
    """Append-only event log with checkpoint-based pruning.

    Recording stages :data:`DEFAULT_STAGING` events per batch (see
    :class:`~repro.history.sink.EventSink`), observationally transparent:
    every inspection property flushes the staged batch first.
    """

    def __init__(self, *, retain_full_trace: bool = False) -> None:
        super().__init__(DEFAULT_STAGING)
        self._open_events: list[SchedulingEvent] = []
        self._retain_full = retain_full_trace
        self._full_trace: list[SchedulingEvent] = []
        self._full_states: list[SchedulingState] = []
        # accounting for the pruning ablation (A3)
        self._peak_live = 0

    # ---------------------------------------------------------- storage hooks

    def _append(self, event: SchedulingEvent) -> None:
        self._open_events.append(event)
        if self._retain_full:
            self._full_trace.append(event)
        live = len(self._open_events)
        if live > self._peak_live:
            self._peak_live = live

    def _flush_batch(self, batch: tuple[SchedulingEvent, ...]) -> None:
        # One extend per batch.  The open segment only grows between
        # cuts, so its length after the batch is the batch's peak.
        open_events = self._open_events
        open_events.extend(batch)
        if self._retain_full:
            self._full_trace.extend(batch)
        live = len(open_events)
        if live > self._peak_live:
            self._peak_live = live

    def _drain(self) -> tuple[SchedulingEvent, ...]:
        events = tuple(self._open_events)
        self._open_events.clear()
        return events

    def _on_open(self, state: SchedulingState) -> None:
        if self._retain_full:
            self._full_states.append(state)

    def _on_cut(self, state: SchedulingState) -> None:
        if self._retain_full:
            self._full_states.append(state)

    # ------------------------------------------------------------- inspection

    @property
    def pending_events(self) -> tuple[SchedulingEvent, ...]:
        """Events recorded since the last checkpoint (not yet consumed)."""
        self.flush_staged()
        return tuple(self._open_events)

    @property
    def live_events(self) -> int:
        """Events currently held in memory in the open segment."""
        self.flush_staged()
        return len(self._open_events)

    @property
    def full_trace(self) -> tuple[SchedulingEvent, ...]:
        """Complete event sequence (only with ``retain_full_trace=True``)."""
        self.flush_staged()
        if not self._retain_full:
            raise HistoryError(
                "full trace was not retained; construct the database with "
                "retain_full_trace=True"
            )
        return tuple(self._full_trace)

    @property
    def full_states(self) -> tuple[SchedulingState, ...]:
        """Every checkpoint state (only with ``retain_full_trace=True``)."""
        if not self._retain_full:
            raise HistoryError(
                "states were not retained; construct the database with "
                "retain_full_trace=True"
            )
        return tuple(self._full_states)

    @property
    def peak_live_events(self) -> int:
        """High-water mark of the open segment (ablation metric)."""
        self.flush_staged()
        return self._peak_live

    def __repr__(self) -> str:
        return (
            f"HistoryDatabase(live={self.live_events}, "
            f"total={self.total_recorded}, retain_full={self._retain_full})"
        )
