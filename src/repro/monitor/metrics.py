"""Monitor performance metrics derived from the scheduling event stream.

The same history information that feeds fault detection also answers the
performance questions an operator asks: how long do processes queue at the
entry, how long do they hold the monitor, how long do condition waits
last, and how busy is each procedure.  ``MonitorMetrics`` subscribes to a
monitor's history database and maintains these figures with the same
inference the checker uses (admissions are inferred from the releasing
event, because resumptions are not re-recorded).

Usage::

    buffer = BoundedBuffer(kernel, capacity=3, history=HistoryDatabase())
    metrics = MonitorMetrics.attach(buffer)
    ... run ...
    print(metrics.render())
"""

from __future__ import annotations

from repro._tables import render_table
from repro.history.events import EventKind, SchedulingEvent
from repro.ids import Cond, Pid, Pname
from repro.observability.registry import Histogram

__all__ = ["DURATION_BUCKETS", "DurationStats", "MonitorMetrics"]

#: Read once: on CPython 3.11 every ``EventKind.X`` read goes through the
#: Enum metaclass's ``__getattr__`` hook, and ``observe`` runs per event.
_ENTER = EventKind.ENTER
_WAIT = EventKind.WAIT
_SIGNAL_EXIT = EventKind.SIGNAL_EXIT
_SIGNAL = EventKind.SIGNAL

#: Bucket bounds of every duration population, in virtual seconds: from a
#: millisecond up to a thousand seconds (the registry's latency buckets
#: stop at 10 s, too short for virtual-time waits).
DURATION_BUCKETS: tuple[float, ...] = (
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)


class DurationStats:
    """Streaming summary of a duration population (seconds of virtual time).

    ``count``, ``total``, ``mean`` and ``maximum`` are exact; percentiles
    are estimated from :data:`DURATION_BUCKETS`, so the state stays the
    same size however many durations are added.
    """

    def __init__(self) -> None:
        self.maximum = 0.0
        self._histogram = Histogram(DURATION_BUCKETS)

    def add(self, value: float) -> None:
        if value > self.maximum:
            self.maximum = value
        self._histogram.observe(value)

    @property
    def count(self) -> int:
        return self._histogram.count

    @property
    def total(self) -> float:
        return self._histogram.sum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Bucket estimate of a percentile (``0 < fraction <= 1``), capped
        at :attr:`maximum`; 0.0 when empty."""
        return min(self._histogram.percentile(fraction), self.maximum)

    def row(self) -> list:
        return [
            self.count,
            f"{self.mean:.4f}",
            f"{self.percentile(0.95):.4f}",
            f"{self.maximum:.4f}",
        ]


class MonitorMetrics:
    """Live metrics for one monitor, fed by its history database."""

    def __init__(self) -> None:
        #: Time spent queued at the entry before admission.
        self.entry_wait = DurationStats()
        #: Time spent inside the monitor (admission to release).
        self.service = DurationStats()
        #: Time spent blocked on each condition queue.
        self.cond_wait: dict[Cond, DurationStats] = {}
        #: Completed invocations per procedure (counted at release).
        self.calls: dict[Pname, int] = {}
        #: Enter invocations that had to queue.
        self.contended_enters = 0
        self.immediate_enters = 0
        # internal model state (mirrors the checker's inference)
        self._entry_since: dict[Pid, float] = {}
        self._entry_order: list[Pid] = []
        self._running_since: dict[Pid, float] = {}
        self._cond_since: dict[Cond, list[tuple[Pid, float]]] = {}

    @classmethod
    def attach(cls, target) -> "MonitorMetrics":
        """Subscribe to a Monitor/MonitorBase's history database."""
        monitor = getattr(target, "monitor", target)
        history = monitor.history
        if history is None:
            raise ValueError(
                f"monitor {monitor.name!r} has no history database attached"
            )
        metrics = cls()
        history.subscribe(metrics.observe)
        return metrics

    # ------------------------------------------------------------- observation

    def observe(self, event: SchedulingEvent) -> None:
        """Fold one scheduling event into the metrics."""
        kind = event.kind
        if kind is _ENTER:
            if event.flag == 1:
                self.immediate_enters += 1
                self._running_since[event.pid] = event.time
            else:
                self.contended_enters += 1
                self._entry_since[event.pid] = event.time
                self._entry_order.append(event.pid)
        elif kind is _WAIT:
            self._leave_running(event.pid, event.time, event.pname, count=False)
            assert event.cond is not None
            self._cond_since.setdefault(event.cond, []).append(
                (event.pid, event.time)
            )
            self._admit_next(event.time)
        elif kind is _SIGNAL_EXIT:
            self._leave_running(event.pid, event.time, event.pname, count=True)
            if event.flag == 1 and event.cond is not None:
                queue = self._cond_since.get(event.cond, [])
                if queue:
                    pid, since = queue.pop(0)
                    self.cond_wait.setdefault(
                        event.cond, DurationStats()
                    ).add(event.time - since)
                    self._running_since[pid] = event.time
            else:
                self._admit_next(event.time)
        elif kind is _SIGNAL:
            # Extended disciplines: approximate — count the resumed waiter's
            # condition wait; urgent-stack residency folds into service time.
            if event.flag == 1 and event.cond is not None:
                queue = self._cond_since.get(event.cond, [])
                if queue:
                    pid, since = queue.pop(0)
                    self.cond_wait.setdefault(
                        event.cond, DurationStats()
                    ).add(event.time - since)
                    self._running_since[pid] = event.time

    def _leave_running(
        self, pid: Pid, now: float, pname: Pname, *, count: bool
    ) -> None:
        since = self._running_since.pop(pid, None)
        if since is not None:
            self.service.add(now - since)
        if count:
            self.calls[pname] = self.calls.get(pname, 0) + 1

    def _admit_next(self, now: float) -> None:
        if self._entry_order:
            pid = self._entry_order.pop(0)
            since = self._entry_since.pop(pid, None)
            if since is not None:
                self.entry_wait.add(now - since)
            self._running_since[pid] = now

    # --------------------------------------------------------------- reporting

    @property
    def total_enters(self) -> int:
        return self.immediate_enters + self.contended_enters

    @property
    def contention_ratio(self) -> float:
        """Fraction of Enter invocations that had to queue."""
        total = self.total_enters
        return self.contended_enters / total if total else 0.0

    def render(self) -> str:
        """Text summary of all duration populations and call counts."""
        rows = [["entry wait", *self.entry_wait.row()]]
        rows.append(["service", *self.service.row()])
        for cond in sorted(self.cond_wait):
            rows.append([f"wait[{cond}]", *self.cond_wait[cond].row()])
        tables = [
            render_table(
                ["population", "n", "mean", "p95", "max"],
                rows,
                title=(
                    f"monitor timings (contention "
                    f"{self.contention_ratio:.1%} of "
                    f"{self.total_enters} enters)"
                ),
            )
        ]
        if self.calls:
            tables.append(
                render_table(
                    ["procedure", "completed calls"],
                    sorted(self.calls.items()),
                    title="\ncompleted calls",
                )
            )
        return "\n".join(tables)
