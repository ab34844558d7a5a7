"""Property: the replay machine's blocked-pid index never drifts.

``ReplayMachine`` answers ST-Rule 4 ("a blocked process generated an
event") from a ``pid -> count`` index instead of scanning Enter-0-List,
the Wait-Cond-Lists and the urgent list.  The index is only sound if
every append to and pop from those lists keeps it exact.  These tests
drive a two-condition monitor under every discipline with random event
streams — faulty ones included: events by blocked pids, flag-1
Signal-Exits and Signals on empty queues, Waits on an undeclared
condition, and a ``rebase`` onto a random snapshot mid-stream — and
recount the three lists after every step.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.replay import ReplayMachine
from repro.detection.rules import STRule
from repro.history.events import (
    enter_event,
    signal_event,
    signal_exit_event,
    wait_event,
)
from repro.history.states import QueueEntry, SchedulingState
from repro.monitor import Discipline, MonitorDeclaration, MonitorType

CONDITIONS = ("ready", "done")
PIDS = st.integers(min_value=1, max_value=5)
#: Declared conditions, no condition, and one the monitor never declared.
CONDS = st.sampled_from(CONDITIONS + (None, "undeclared"))


def declaration(discipline: Discipline) -> MonitorDeclaration:
    return MonitorDeclaration(
        name="m",
        mtype=MonitorType.OPERATION_MANAGER,
        procedures=("Op",),
        conditions=CONDITIONS,
        discipline=discipline,
    )


def entries(pids: list[int]) -> tuple[QueueEntry, ...]:
    return tuple(QueueEntry(pid, "Op", 0.0) for pid in pids)


queues = st.lists(PIDS, max_size=3)

states = st.builds(
    lambda eq, ready, done, running, urgent: SchedulingState(
        time=0.0,
        entry_queue=entries(eq),
        cond_queues={"ready": entries(ready), "done": entries(done)},
        running=entries(running),
        urgent=entries(urgent),
    ),
    queues,
    queues,
    queues,
    st.lists(PIDS, max_size=2),
    queues,
)

steps = st.one_of(
    st.tuples(st.just("enter"), PIDS, st.integers(0, 1), st.none()),
    st.tuples(st.just("wait"), PIDS, st.just(0), CONDS),
    st.tuples(st.just("signal_exit"), PIDS, st.integers(0, 1), CONDS),
    st.tuples(st.just("signal"), PIDS, st.integers(0, 1), CONDS),
    st.tuples(st.just("rebase"), states, st.none(), st.none()),
)


def make_event(seq: int, kind: str, pid: int, flag: int, cond):
    time = 0.1 * (seq + 1)
    if kind == "enter":
        return enter_event(seq, pid, "Op", time, flag)
    if kind == "wait":
        return wait_event(seq, pid, "Op", cond or "ready", time)
    if kind == "signal_exit":
        return signal_exit_event(seq, pid, "Op", time, flag, cond=cond)
    if flag == 1 and cond is None:
        cond = "ready"  # a resuming Signal must name its condition
    return signal_event(seq, pid, "Op", cond, time, flag)


def recount(machine: ReplayMachine) -> Counter:
    lists = (machine.enter0, *machine.wait_cond.values(), machine.urgent)
    return Counter(entry.pid for queue in lists for entry in queue)


@settings(max_examples=150, deadline=None)
@given(
    discipline=st.sampled_from(list(Discipline)),
    base=states,
    script=st.lists(steps, max_size=40),
)
def test_blocked_index_matches_recount(discipline, base, script):
    machine = ReplayMachine(declaration(discipline), base)
    assert machine._blocked == recount(machine)
    for seq, (kind, arg, flag, cond) in enumerate(script):
        if kind == "rebase":
            machine.rebase(arg)
        else:
            event = make_event(seq, kind, arg, flag, cond)
            blocked_before = arg in recount(machine)
            reported_before = len(machine.violations)
            machine.process(event)
            st4 = [
                v for v in machine.violations[reported_before:]
                if v.rule is STRule.EVENT_WHILE_BLOCKED
            ]
            assert bool(st4) == blocked_before
        assert machine._blocked == recount(machine)
