"""Fault injection: two level-III faults at seeded virtual times.

A fault is committed by :func:`fault_user`, a process that is the only
user of its allocator monitor, so no healthy workload ever waits behind
it:

* ``release-without-request`` — the user calls Release without holding
  the resource (fault III.a), which the Algorithm-3 order check reports
  as ST-8b as soon as it sees the event (in real time in a session, on
  window replay at a server);
* ``hold-past-tlimit`` — the user keeps the resource past ``Tlimit``,
  which only the periodic Request-List sweep at a checkpoint can see
  (ST-8c).

The user runs ordinary Request/Release cycles before, between and after
its faults, so the monitor carries normal traffic for the whole run.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Sequence

from repro import Delay

__all__ = ["FaultScript", "fault_scripts", "fault_user", "detection_latencies"]

#: Think time between the user's Request/Release cycles.
_THINK = 0.05
#: Time the user holds the resource in a healthy cycle.
_HOLD = 0.01


class FaultScript:
    """One fault: what it is, where it runs, and when it was committed."""

    def __init__(
        self, kind: str, label: str, rule: str, start: float, *, tlimit: float
    ) -> None:
        if kind not in ("release-without-request", "hold-past-tlimit"):
            raise ValueError(f"unknown fault kind {kind!r}")
        self.kind = kind
        #: Label of the monitor (or remote stream) the fault runs on.
        self.label = label
        #: The ST rule that must report it.
        self.rule = rule
        #: Earliest virtual time the fault may be committed.
        self.start = start
        self.tlimit = tlimit
        #: Virtual time the faulty call was made (set by :func:`fault_user`).
        self.committed_at: Optional[float] = None

    @property
    def violation_at(self) -> float:
        """When the behaviour became a violation: the stray Release, or
        the instant the hold reached ``Tlimit``."""
        if self.committed_at is None:
            raise RuntimeError(f"fault {self.kind} was never committed")
        if self.kind == "hold-past-tlimit":
            return self.committed_at + self.tlimit
        return self.committed_at


def fault_user(
    kernel, allocator, scripts: Sequence[FaultScript], *, until: float
) -> Iterator:
    """One user process committing ``scripts`` in order of their start
    times, with healthy cycles before, between and after them, up to
    virtual time ``until``."""
    for script in sorted(scripts, key=lambda item: item.start):
        yield from _cycles(kernel, allocator, script.start)
        script.committed_at = kernel.now()
        if script.kind == "release-without-request":
            yield from allocator.release()  # never requested: fault III.a
        else:
            yield from allocator.request()
            # Held twice as long as Tlimit allows: fault III.b while held.
            yield Delay(2.0 * script.tlimit)
            yield from allocator.release()
    yield from _cycles(kernel, allocator, until)


def _cycles(kernel, allocator, until: float) -> Iterator:
    while kernel.now() < until:
        yield Delay(_THINK)
        yield from allocator.request()
        yield Delay(_HOLD)
        yield from allocator.release()


def fault_scripts(
    seed: int,
    labels: tuple[str, str],
    *,
    tlimit: float,
    earliest: float,
    latest: float,
) -> list[FaultScript]:
    """The two faults, with start times drawn from ``seed``."""
    rng = random.Random(f"perfbench-faults-{seed}")
    return [
        FaultScript(
            "release-without-request",
            labels[0],
            "ST-8b",
            round(rng.uniform(earliest, latest), 4),
            tlimit=tlimit,
        ),
        FaultScript(
            "hold-past-tlimit",
            labels[1],
            "ST-8c",
            round(rng.uniform(earliest, latest), 4),
            tlimit=tlimit,
        ),
    ]


def detection_latencies(
    faults: Sequence[FaultScript], reports_by_label: dict
) -> tuple[list[float], list[str]]:
    """Per fault, ``detected_at`` of the first expected-rule report minus
    the violation time.  Returns the latencies and one line per miss."""
    latencies: list[float] = []
    missed: list[str] = []
    for fault in faults:
        hits = [
            report.detected_at
            for report in reports_by_label.get(fault.label, ())
            if report.rule_id == fault.rule
        ]
        if not hits:
            missed.append(
                f"{fault.kind} on {fault.label} not reported as {fault.rule}"
            )
            continue
        latencies.append(min(hits) - fault.violation_at)
    return latencies, missed
