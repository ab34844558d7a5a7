"""Cross-monitor deadlock detection via a wait-for graph (extension).

Section 2.1 notes that "when more than one resource are to be shared
and/or if a user needs to access more than one resource, deadlock
prevention or avoidance in resource allocation needs to be implemented."
Algorithm-3's Request-List sees only one allocator at a time, so a
*circular* wait spanning several allocator monitors (the greedy dining
philosophers) surfaces there only as eventual ``Tlimit`` timeouts.

``DeadlockDetector`` closes that gap: it assembles the per-allocator
Request-Lists and state snapshots into one wait-for graph —

* a pid *holds* a monitor's resource when it appears in the Request-List
  and is not currently parked in any of that monitor's queues,
* a pid *waits for* a monitor's resource when it is in the Request-List
  and parked in one of its queues (entry queue or condition queue),
* edges run from each waiter to every holder of the awaited resource —

and reports every elementary cycle as a ``ST-WF`` violation naming the
pids and monitors involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.detection.engine import RegisteredMonitor
from repro.detection.reports import FaultReport
from repro.detection.rules import STRule
from repro.ids import Pid

__all__ = ["ResourceWaitEdge", "DeadlockDetector"]

#: A wait-for graph: waiter -> {holder: monitor of the awaited resource}.
WaitForGraph = dict[Pid, dict[Pid, str]]


def simple_cycles(graph: WaitForGraph) -> Iterator[list[Pid]]:
    """Every elementary cycle of ``graph``, each listed once and starting
    at its smallest pid.

    Depth-first from each start pid in ascending order, visiting only
    larger pids, so a cycle is found exactly once: from its minimum.
    Wait-for graphs have a few dozen nodes at most.
    """
    for start in sorted(graph):
        path = [start]
        successors = [iter(sorted(graph[start]))]
        while successors:
            for node in successors[-1]:
                if node == start:
                    yield list(path)
                elif node > start and node not in path:
                    path.append(node)
                    successors.append(iter(sorted(graph.get(node, ()))))
                    break
            else:
                successors.pop()
                path.pop()


@dataclass(frozen=True)
class ResourceWaitEdge:
    """One waiter-to-holder dependency used to build the graph."""

    waiter: Pid
    holder: Pid
    monitor: str


class DeadlockDetector:
    """Detects circular waits across a set of allocator monitors.

    Construct it over the :class:`~repro.detection.engine.RegisteredMonitor`
    entries that :meth:`DetectionSession.register` returns for the
    participating allocators (each must have Algorithm-3 enabled, which is
    automatic for resource-allocator monitors) and call :meth:`check`
    periodically — or spawn :func:`deadlock_process` on the kernel.
    """

    def __init__(self, entries: Iterable[RegisteredMonitor]) -> None:
        self._entries = list(entries)
        for entry in self._entries:
            if entry.algorithm3 is None:
                raise ValueError(
                    f"monitor {entry.monitor.name!r} has no calling-order "
                    "checker; wait-for analysis needs its Request-List"
                )
        self.reports: list[FaultReport] = []
        #: Cycles found so far, as tuples of pids (for tests/diagnostics).
        self.cycles: list[tuple[Pid, ...]] = []

    # ------------------------------------------------------------ graph build

    def edges(self) -> list[ResourceWaitEdge]:
        """Current waiter -> holder dependencies across all monitors."""
        edges: list[ResourceWaitEdge] = []
        for entry in self._entries:
            checker = entry.algorithm3
            assert checker is not None
            snapshot = entry.monitor.snapshot()
            parked = snapshot.all_waiting_pids() | set(snapshot.running_pids)
            requesters = checker.holders()
            holders = [pid for pid in requesters if pid not in parked]
            waiters = [pid for pid in requesters if pid in parked]
            for waiter in waiters:
                for holder in holders:
                    if holder != waiter:
                        edges.append(
                            ResourceWaitEdge(
                                waiter=waiter,
                                holder=holder,
                                monitor=entry.monitor.name,
                            )
                        )
        return edges

    def graph(self) -> WaitForGraph:
        """The wait-for graph as an adjacency dict (nodes are pids).

        A waiter blocked on a holder in several monitors keeps the last
        monitor listed."""
        graph: WaitForGraph = {}
        for edge in self.edges():
            graph.setdefault(edge.waiter, {})[edge.holder] = edge.monitor
        return graph

    # ---------------------------------------------------------------- checks

    def check(self, now: Optional[float] = None) -> list[FaultReport]:
        """Find circular waits; returns (and retains) one report per cycle."""
        graph = self.graph()
        if now is None:
            now = max(
                (e.monitor.kernel.now() for e in self._entries), default=0.0
            )
        new_reports: list[FaultReport] = []
        for cycle in simple_cycles(graph):
            ordered = tuple(sorted(cycle))
            if ordered in self.cycles:
                continue  # already reported
            self.cycles.append(ordered)
            monitors = sorted(
                {
                    monitor
                    for waiter in cycle
                    for holder, monitor in graph[waiter].items()
                    if holder in ordered
                }
            )
            chain = " -> ".join(f"P{pid}" for pid in cycle + [cycle[0]])
            new_reports.append(
                FaultReport(
                    rule=STRule.WAIT_FOR_CYCLE,
                    message=(
                        f"circular wait {chain} across monitors "
                        f"{', '.join(monitors)}: each process holds a "
                        "resource the next one is blocked on"
                    ),
                    monitor=",".join(monitors),
                    detected_at=now,
                    pids=ordered,
                )
            )
        self.reports.extend(new_reports)
        return new_reports

    @property
    def clean(self) -> bool:
        return not self.reports


def deadlock_process(detector: DeadlockDetector, interval: float = 1.0):
    """Kernel process body running the wait-for check every ``interval``.

    Spawn alongside the workload and its session::

        deadlocks = DeadlockDetector(
            [session.register(fork_a), session.register(fork_b)]
        )
        kernel.spawn(deadlock_process(deadlocks, interval=1.0))
    """
    from repro.kernel.syscalls import Delay

    while True:
        yield Delay(interval)
        detector.check()
