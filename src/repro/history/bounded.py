"""A fixed-capacity event sink for long-running workloads.

``HistoryDatabase`` keeps its open segment unbounded between checkpoints:
a stalled or slow checker lets the segment grow with the event rate.  For
production-style deployments :class:`BoundedHistory` caps the live window
with a ring buffer — when the buffer saturates, the *oldest* event of the
window is discarded and counted, so memory stays ``O(capacity)`` no
matter how late the checker runs.

The trade-off is visible, not silent: every :class:`~repro.history.sink.Segment`
carries the window's ``dropped`` count, and the sink tracks a cumulative
``dropped_events`` total, so the detection layer can flag checkpoints whose
window was incomplete rather than quietly checking a truncated trace.
"""

from __future__ import annotations

from collections import deque

from repro.history.database import DEFAULT_STAGING
from repro.history.events import SchedulingEvent
from repro.history.sink import EventSink

__all__ = ["BoundedHistory"]


class BoundedHistory(EventSink):
    """Ring-buffer event sink with explicit drop accounting.

    Parameters
    ----------
    capacity:
        Maximum number of events held between checkpoints.  Recording the
        ``capacity + 1``-th event of a window evicts the window's oldest
        event and increments the drop counters.

    Recording stages ``min(capacity, DEFAULT_STAGING)`` events per batch
    (see :class:`~repro.history.sink.EventSink`), so the staged batch
    never holds more than one ring's worth of events; eviction accounting
    runs at flush and stays exact.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        super().__init__(min(capacity, DEFAULT_STAGING))
        self._buffer: deque[SchedulingEvent] = deque(maxlen=capacity)
        self._dropped_total = 0
        self._dropped_in_window = 0
        self._peak_live = 0

    # ---------------------------------------------------------- storage hooks

    def _append(self, event: SchedulingEvent) -> None:
        if len(self._buffer) == self._buffer.maxlen:
            # deque(maxlen=...) evicts the oldest entry on append; count it.
            self._dropped_total += 1
            self._dropped_in_window += 1
        self._buffer.append(event)
        if len(self._buffer) > self._peak_live:
            self._peak_live = len(self._buffer)

    def _drain(self) -> tuple[SchedulingEvent, ...]:
        events = tuple(self._buffer)
        self._buffer.clear()
        return events

    def _take_dropped(self) -> int:
        dropped = self._dropped_in_window
        self._dropped_in_window = 0
        return dropped

    # ------------------------------------------------------------- shedding

    def force_drop(self, count: int) -> int:
        """Evict up to ``count`` oldest events from the open window.

        Load shedding under pressure (and the chaos harness's event-drop
        bursts): the evictions are counted exactly like capacity evictions,
        so the next ``cut`` reports an incomplete window and the detection
        layer degrades instead of checking a silently truncated trace.
        Returns the number of events actually evicted.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.flush_staged()
        evicted = min(count, len(self._buffer))
        for __ in range(evicted):
            self._buffer.popleft()
        self._dropped_total += evicted
        self._dropped_in_window += evicted
        return evicted

    # ------------------------------------------------------------- inspection

    @property
    def capacity(self) -> int:
        maxlen = self._buffer.maxlen
        assert maxlen is not None
        return maxlen

    @property
    def pending_events(self) -> tuple[SchedulingEvent, ...]:
        self.flush_staged()
        return tuple(self._buffer)

    @property
    def live_events(self) -> int:
        self.flush_staged()
        return len(self._buffer)

    @property
    def dropped_events(self) -> int:
        """Total events evicted since construction (all windows)."""
        self.flush_staged()
        return self._dropped_total

    @property
    def pending_dropped(self) -> int:
        """Events evicted from the still-open window (reset by ``cut``)."""
        self.flush_staged()
        return self._dropped_in_window

    @property
    def peak_live_events(self) -> int:
        """High-water mark of the ring buffer (never exceeds capacity)."""
        self.flush_staged()
        return self._peak_live

    def __repr__(self) -> str:
        return (
            f"BoundedHistory(capacity={self.capacity}, live={self.live_events}, "
            f"dropped={self._dropped_total}, total={self.total_recorded})"
        )
