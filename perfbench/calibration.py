"""Speed normalisation: an interpreter-shaped calibration loop.

The speed of pure-Python code on a shared machine drifts between
processes, and within one on a scale of a hundred milliseconds, by far
more than the code under test changes.  The loop below is a miniature of
what the detection stack does, written against the standard library
only: generator "processes" resumed by a scheduler with a ``heapq``
timer queue and a ``deque`` ready queue, ``__slots__`` event records
appended on every operation, and a periodic sweep over the recorded
window with dict lookups and string formatting.

The harness brackets every timed section with chunks of this loop, so
they interleave finely with the measured work, and converts the
section's seconds to *reference seconds*: ``seconds * C_REF / c``, where
``c`` is the mean of the two chunks around it.  A normalised latency is
a latency in reference seconds; a normalised rate is work divided by
reference seconds.  On a machine running uniformly slower both
``seconds`` and ``c`` grow, and the normalised figure stays put.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import thread_time

__all__ = ["C_REF", "chunk", "to_reference"]

#: Median seconds of one :func:`chunk` on the reference machine (a shared
#: 2-vCPU x86-64 Linux container, CPython 3.11).  Fixed once; changing it
#: rescales every normalised metric.
C_REF = 0.002

_PROCESSES = 6
_STEPS = 120
_SWEEP_EVERY = 64


class _Event:
    __slots__ = ("seq", "pid", "kind", "time")

    def __init__(self, seq: int, pid: int, kind: str, time: float) -> None:
        self.seq = seq
        self.pid = pid
        self.kind = kind
        self.time = time


class _Resource:
    __slots__ = ("owner", "queue", "log", "seq")

    def __init__(self) -> None:
        self.owner = None
        self.queue: deque = deque()
        self.log: list[_Event] = []
        self.seq = 0

    def record(self, pid: int, kind: str, now: float) -> None:
        self.log.append(_Event(self.seq, pid, kind, now))
        self.seq += 1


def _process(pid: int, resource: _Resource):
    for step in range(_STEPS):
        now = yield 0.01 * (1 + (pid + step) % 3)
        resource.record(pid, "enter", now)
        resource.owner = pid
        resource.record(pid, "exit", now)
        resource.owner = None


def _sweep(window: list[_Event], states: dict) -> int:
    found = 0
    for event in window:
        key = f"P{event.pid}:{event.kind}"
        states[key] = states.get(key, 0) + 1
        if event.kind == "enter" and event.time < 0:
            found += 1
    return found


def _work() -> int:
    resource = _Resource()
    bodies = {pid: _process(pid, resource) for pid in range(_PROCESSES)}
    timers: list[tuple[float, int]] = []
    ready: deque = deque()
    for pid, body in bodies.items():
        heapq.heappush(timers, (next(body), pid))
    states: dict[str, int] = {}
    now = 0.0
    found = 0
    while timers or ready:
        if not ready:
            now, pid = heapq.heappop(timers)
            ready.append(pid)
            while timers and timers[0][0] <= now:
                ready.append(heapq.heappop(timers)[1])
        pid = ready.popleft()
        try:
            delay = bodies[pid].send(now)
        except StopIteration:
            continue
        heapq.heappush(timers, (now + delay, pid))
        if len(resource.log) >= _SWEEP_EVERY:
            window, resource.log = resource.log, []
            found += _sweep(window, states)
    return found + len(states)


def chunk() -> float:
    """Run one calibration chunk; return its thread CPU seconds."""
    started = thread_time()
    _work()
    return thread_time() - started


def to_reference(seconds: float, chunk_seconds: float) -> float:
    """``seconds`` measured next to a chunk that took ``chunk_seconds``,
    converted to seconds on the reference machine."""
    return seconds * C_REF / chunk_seconds
