"""Algorithm-1: General Concurrency-Control Checking (Section 3.3.2).

Inputs: the monitor state at the last checking time (``s_p``), the state at
the current checking time (``s_t``), and the scheduling event sequence ``L``
generated in between — i.e. exactly one
:class:`~repro.history.database.Segment`.

Step 1 replays ``L`` against the checking lists initialised from ``s_p``,
reporting per-event violations (ST-Rules 3 and 4).  Step 2 compares the
reconstructed lists against ``s_t`` (ST-Rules 1 and 2, the Running
comparison) and sweeps the timers (ST-Rules 5 and 6).

Two equivalent drivers share the replay machine:

* :func:`check_general_concurrency_control` — the literal, stateless
  algorithm: a fresh machine per window, seeded from ``s_p``.  Kept as
  the ``DetectorConfig(incremental_checking=False)`` fallback and as the
  differential-testing oracle.
* :class:`IncrementalConcurrencyChecker` — one persistent machine per
  monitor that *carries* the checking lists across checkpoints (the
  paper's §3.3.1 lists are designed for exactly this), re-seeding them
  from the snapshot only when the previous window ended on a mismatch.
  Its report stream is byte-identical to the oracle's by construction:
  a window is only evaluated on carried lists after they were verified
  (:meth:`~repro.detection.replay.ReplayMachine.matches`) against a
  snapshot equal to the one the oracle would seed from.

A durable snapshot keeps only the incremental checker's row
``[hits, rebases, fastpaths, carried]``, no lists: carried lists equal the
queues of the sink's last checkpoint state, which the snapshot holds
already, so recovery rebuilds the machine from that state.
"""

from __future__ import annotations

from typing import Optional

from repro._rows import BOOL, INT, Fields, check_row
from repro.detection.replay import ReplayMachine
from repro.detection.reports import FaultReport
from repro.history.database import Segment
from repro.history.states import SchedulingState
from repro.monitor.declaration import MonitorDeclaration

__all__ = [
    "check_general_concurrency_control",
    "IncrementalConcurrencyChecker",
    "STATE_FIELDS",
]

#: The durable row of an :class:`IncrementalConcurrencyChecker`: its
#: three window counters and whether its lists are carried.
STATE_FIELDS: Fields = (
    ("hits", INT),
    ("rebases", INT),
    ("fastpaths", INT),
    ("carried", BOOL),
)


def check_general_concurrency_control(
    declaration: MonitorDeclaration,
    segment: Segment,
    *,
    tmax: Optional[float] = None,
    tio: Optional[float] = None,
) -> list[FaultReport]:
    """Run Algorithm-1 over one checking window; return violations found.

    ``tmax`` bounds residence inside the monitor and on condition queues;
    ``tio`` bounds residence on the entry queue.  Passing None disables the
    corresponding timer sweep (useful for pure sequence checking in tests).
    """
    machine = ReplayMachine(declaration, segment.previous)
    machine.replay(segment.events)
    machine.compare_with(segment.current, tmax=tmax, tio=tio)
    return machine.violations


class IncrementalConcurrencyChecker:
    """Algorithm-1 with per-monitor checking lists carried across windows.

    The stateless oracle above pays O(state) per checkpoint just to
    re-seed the lists from ``s_p`` — even when nothing happened.  This
    checker keeps one :class:`~repro.detection.replay.ReplayMachine`
    alive per monitor and decides per window:

    * **carry** (``hits``): the lists were verified equal to the last
      checkpoint's snapshot *and* this window starts on a state equal to
      it (sinks reuse the very object as the next window's ``previous``;
      a window decoded off the wire brings an equal copy), so the machine
      replays only the new events — no re-seeding.
    * **fast path** (``fastpaths``): a carried window with zero events
      whose lists still equal the current snapshot.
    * **rebase** (``rebases``): first window, a mismatch in the previous
      window, or a window fed out of sequence (e.g. right after crash
      recovery) — re-seed from ``s_p``, exactly like the oracle.

    After the replay one :meth:`~repro.detection.replay.ReplayMachine.matches`
    decides both the comparison and the next carry.  Lists that match
    the current snapshot give the membership comparison nothing to
    report, so a matched window runs only
    :meth:`~repro.detection.replay.ReplayMachine.compare_unchanged` (the
    snapshot witness and the timer sweeps, in ``compare_with``'s order);
    only a mismatch runs the full comparison.

    Because a carry is only ever taken off a verified match, the emitted
    report stream is byte-identical to running the oracle on every
    window; the property suite enforces this differentially.
    """

    def __init__(self, declaration: MonitorDeclaration) -> None:
        self._declaration = declaration
        self._machine: Optional[ReplayMachine] = None
        #: The snapshot the carried lists were last verified against
        #: (compared with the next window's ``previous``).
        self._basis: Optional[SchedulingState] = None
        #: Windows evaluated on carried lists (no re-seeding paid).
        self.hits = 0
        #: Windows that re-seeded the lists from the base snapshot.
        self.rebases = 0
        #: Zero-event carried windows that skipped the full comparison.
        self.fastpaths = 0

    def check_window(
        self,
        segment: Segment,
        *,
        tmax: Optional[float] = None,
        tio: Optional[float] = None,
    ) -> list[FaultReport]:
        """Run Algorithm-1 over one checking window, incrementally."""
        machine = self._machine
        previous = segment.previous
        # A sink hands the next window the very object it cut at; a
        # wire-decoded window brings an equal one (``is`` short-circuits).
        carried = machine is not None and (
            previous is self._basis or previous == self._basis
        )
        if machine is None:
            machine = ReplayMachine(self._declaration, previous)
            self._machine = machine
            self.rebases += 1
        elif carried:
            machine.begin_window(previous.time)
            self.hits += 1
        else:
            machine.rebase(previous)
            self.rebases += 1
        events = segment.events
        machine.replay(events)
        current = segment.current
        if machine.matches(current):
            if carried and not events:
                self.fastpaths += 1
            machine.compare_unchanged(current, tmax=tmax, tio=tio)
            self._basis = current
        else:
            machine.compare_with(current, tmax=tmax, tio=tio)
            self._basis = None
        return machine.take_violations()

    @property
    def carried(self) -> bool:
        """True when the next contiguous window may reuse the lists."""
        return self._basis is not None

    # ------------------------------------------------------------ durability

    def state_dict(self) -> list:
        """The durable row of this checker, in :data:`STATE_FIELDS` order.

        The checking lists are not stored.  Carried lists equal the queues
        of the sink's ``last_state`` (:meth:`ReplayMachine.matches` checked
        that before they were carried), and a snapshot holds that state
        already; lists that are not carried are re-seeded from the next
        window's previous state before anything reads them.
        """
        return [
            self.hits,
            self.rebases,
            self.fastpaths,
            self._basis is not None,
        ]

    def restore_state(
        self, row: list, *, basis: Optional[SchedulingState] = None
    ) -> None:
        """Restore a :meth:`state_dict` row.

        ``basis`` is the sink's restored ``last_state``.  When the row
        says the lists were carried, the machine is rebuilt on that
        object, so the first post-recovery window (whose ``previous`` is
        the same object) is a carry instead of a rebase.  Otherwise the
        machine is left unset and that window re-seeds it.
        """
        self.hits, self.rebases, self.fastpaths, carried = check_row(
            row, STATE_FIELDS, "algorithm1"
        )
        if carried and basis is not None:
            self._machine = ReplayMachine(self._declaration, basis)
            self._basis = basis
        else:
            self._machine = None
            self._basis = None
