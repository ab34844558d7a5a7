"""Unit tests for the checking-list replay machine (hand-built sequences).

Each test constructs a small scheduling event sequence by hand and asserts
exactly which ST-rules the replay flags — the machine's per-rule contract.
"""

import pytest

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


def declaration(discipline=Discipline.SIGNAL_EXIT):
    return MonitorDeclaration(
        name="m",
        mtype=MonitorType.OPERATION_MANAGER,
        procedures=("Op", "Other"),
        conditions=("ready",),
        discipline=discipline,
    )


def empty_state(time=0.0, **overrides):
    base = dict(
        time=time,
        entry_queue=(),
        cond_queues={"ready": ()},
        running=(),
    )
    base.update(overrides)
    return SchedulingState(**base)


def machine(base=None, discipline=Discipline.SIGNAL_EXIT):
    return ReplayMachine(declaration(discipline), base or empty_state())


def rules_of(m):
    return [violation.rule for violation in m.violations]


class TestCleanSequences:
    def test_enter_exit(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(signal_exit_event(1, 1, "Op", 0.2, 0))
        assert m.violations == []
        assert m.running == []

    def test_contended_entry_and_inferred_admission(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(enter_event(1, 2, "Op", 0.2, 0))
        m.process(signal_exit_event(2, 1, "Op", 0.3, 0))
        # P2 inferred-admitted by P1's exit:
        m.process(signal_exit_event(3, 2, "Op", 0.4, 0))
        assert m.violations == []

    def test_wait_then_signal_handoff(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(wait_event(1, 1, "Op", "ready", 0.2))
        m.process(enter_event(2, 2, "Other", 0.3, 1))
        m.process(signal_exit_event(3, 2, "Other", 0.4, 1, cond="ready"))
        # P1 now holds the monitor again:
        m.process(signal_exit_event(4, 1, "Op", 0.5, 0))
        assert m.violations == []


class TestPerEventViolations:
    def test_double_successful_enter_flags_3c_and_3a(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(enter_event(1, 2, "Op", 0.2, 1))
        rules = rules_of(m)
        assert STRule.ENTER_TAKES_FREE_MONITOR in rules
        assert STRule.ONE_INSIDE in rules

    def test_blocked_enter_on_free_monitor_flags_3d(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 0))
        assert rules_of(m) == [STRule.BLOCKED_MEANS_BUSY]

    def test_wait_without_entering_flags_3b(self):
        m = machine()
        m.process(wait_event(0, 1, "Op", "ready", 0.1))
        assert STRule.CALLER_IS_RUNNING in rules_of(m)

    def test_event_while_on_entry_queue_flags_st4(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(enter_event(1, 2, "Op", 0.2, 0))
        # P2 acts although it is still queued:
        m.process(signal_exit_event(2, 2, "Op", 0.3, 0))
        assert STRule.EVENT_WHILE_BLOCKED in rules_of(m)

    def test_event_while_on_condition_queue_flags_st4(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(wait_event(1, 1, "Op", "ready", 0.2))
        m.process(signal_exit_event(2, 1, "Op", 0.3, 0))
        assert STRule.EVENT_WHILE_BLOCKED in rules_of(m)

    def test_signal_claiming_resume_with_empty_queue_flags_sg(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(signal_exit_event(1, 1, "Op", 0.2, 1, cond="ready"))
        assert STRule.SIGNAL_CONSISTENT in rules_of(m)

    def test_signal_resuming_nobody_with_waiters_flags_sg(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(wait_event(1, 1, "Op", "ready", 0.2))
        m.process(enter_event(2, 2, "Op", 0.3, 1))
        m.process(signal_exit_event(3, 2, "Op", 0.4, 0, cond="ready"))
        assert STRule.SIGNAL_CONSISTENT in rules_of(m)


class TestCheckpointComparison:
    def test_matching_state_is_clean(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        actual = empty_state(
            time=1.0, running=(QueueEntry(1, "Op", 0.1),)
        )
        m.compare_with(actual)
        assert m.violations == []

    def test_entry_queue_mismatch_flags_st1(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(enter_event(1, 2, "Op", 0.2, 0))
        actual = empty_state(
            time=1.0, running=(QueueEntry(1, "Op", 0.1),), entry_queue=()
        )
        m.compare_with(actual)
        assert STRule.ENTRY_QUEUE_MATCHES in rules_of(m)

    def test_entry_queue_order_matters(self):
        base = empty_state(
            entry_queue=(QueueEntry(1, "Op", 0.0), QueueEntry(2, "Op", 0.0)),
            running=(QueueEntry(9, "Op", 0.0),),
        )
        m = machine(base)
        actual = empty_state(
            time=1.0,
            entry_queue=(QueueEntry(2, "Op", 0.0), QueueEntry(1, "Op", 0.0)),
            running=(QueueEntry(9, "Op", 0.0),),
        )
        m.compare_with(actual)
        assert STRule.ENTRY_QUEUE_MATCHES in rules_of(m)

    def test_cond_queue_mismatch_flags_st2(self):
        m = machine()
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(wait_event(1, 1, "Op", "ready", 0.2))
        actual = empty_state(time=1.0)  # actual lost the waiter
        m.compare_with(actual)
        assert STRule.COND_QUEUE_MATCHES in rules_of(m)

    def test_running_mismatch_flags_str(self):
        m = machine()
        actual = empty_state(time=1.0, running=(QueueEntry(7, "Op", 0.5),))
        m.compare_with(actual)
        assert STRule.RUNNING_MATCHES in rules_of(m)

    def test_snapshot_with_two_running_flags_3a(self):
        m = machine()
        actual = empty_state(
            time=1.0,
            running=(QueueEntry(1, "Op", 0.5), QueueEntry(2, "Op", 0.6)),
        )
        m.compare_with(actual)
        assert STRule.ONE_INSIDE in rules_of(m)


class TestTimers:
    def test_tmax_on_running(self):
        base = empty_state(running=(QueueEntry(1, "Op", 0.0),))
        m = machine(base)
        actual = empty_state(time=10.0, running=(QueueEntry(1, "Op", 0.0),))
        m.compare_with(actual, tmax=5.0)
        assert STRule.TMAX_EXCEEDED in rules_of(m)

    def test_tmax_on_condition_queue(self):
        base = empty_state(
            cond_queues={"ready": (QueueEntry(1, "Op", 0.0),)}
        )
        m = machine(base)
        actual = empty_state(
            time=10.0, cond_queues={"ready": (QueueEntry(1, "Op", 0.0),)}
        )
        m.compare_with(actual, tmax=5.0)
        assert STRule.TMAX_EXCEEDED in rules_of(m)

    def test_tio_on_entry_queue(self):
        base = empty_state(
            entry_queue=(QueueEntry(1, "Op", 0.0),),
            running=(QueueEntry(2, "Op", 0.0),),
        )
        m = machine(base)
        actual = empty_state(
            time=10.0,
            entry_queue=(QueueEntry(1, "Op", 0.0),),
            running=(QueueEntry(2, "Op", 0.0),),
        )
        m.compare_with(actual, tio=5.0)
        assert STRule.TIO_EXCEEDED in rules_of(m)

    def test_timers_disabled_when_none(self):
        base = empty_state(running=(QueueEntry(1, "Op", 0.0),))
        m = machine(base)
        actual = empty_state(time=100.0, running=(QueueEntry(1, "Op", 0.0),))
        m.compare_with(actual, tmax=None, tio=None)
        assert m.violations == []

    def test_within_bounds_is_clean(self):
        base = empty_state(running=(QueueEntry(1, "Op", 0.0),))
        m = machine(base)
        actual = empty_state(time=3.0, running=(QueueEntry(1, "Op", 0.0),))
        m.compare_with(actual, tmax=5.0, tio=5.0)
        assert m.violations == []


class TestExtendedDisciplines:
    def test_hoare_signal_moves_signaller_to_urgent(self):
        m = machine(discipline=Discipline.SIGNAL_AND_WAIT)
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(wait_event(1, 1, "Op", "ready", 0.2))
        m.process(enter_event(2, 2, "Op", 0.3, 1))
        m.process(signal_event(3, 2, "Op", "ready", 0.4, 1))
        assert m.violations == []
        assert [e.pid for e in m.running] == [1]
        assert [e.pid for e in m.urgent] == [2]
        # the waiter's exit readmits the urgent signaller
        m.process(signal_exit_event(4, 1, "Op", 0.5, 0))
        assert [e.pid for e in m.running] == [2]
        assert m.urgent == []
        assert m.violations == []

    def test_mesa_signal_requeues_waiter(self):
        m = machine(discipline=Discipline.SIGNAL_AND_CONTINUE)
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(wait_event(1, 1, "Op", "ready", 0.2))
        m.process(enter_event(2, 2, "Op", 0.3, 1))
        m.process(signal_event(3, 2, "Op", "ready", 0.4, 1))
        assert m.violations == []
        assert [e.pid for e in m.running] == [2]
        assert [e.pid for e in m.enter0] == [1]
        # the signaller's exit admits the requeued waiter
        m.process(signal_exit_event(4, 2, "Op", 0.5, 0))
        assert [e.pid for e in m.running] == [1]
        assert m.violations == []

    def test_signal_with_empty_queue_flag1_flags_sg(self):
        m = machine(discipline=Discipline.SIGNAL_AND_WAIT)
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(signal_event(1, 1, "Op", "ready", 0.2, 1))
        assert STRule.SIGNAL_CONSISTENT in rules_of(m)


class TestRemainingBranches:
    def test_hoare_signal_flag0_with_waiters_flags_sg(self):
        m = machine(discipline=Discipline.SIGNAL_AND_WAIT)
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(wait_event(1, 1, "Op", "ready", 0.2))
        m.process(enter_event(2, 2, "Op", 0.3, 1))
        m.process(signal_event(3, 2, "Op", "ready", 0.4, 0))
        assert STRule.SIGNAL_CONSISTENT in rules_of(m)

    def test_urgent_mismatch_reported_at_checkpoint(self):
        m = machine(discipline=Discipline.SIGNAL_AND_WAIT)
        actual = empty_state(
            time=1.0, urgent=(QueueEntry(9, "Op", 0.5),)
        )
        m.compare_with(actual)
        assert STRule.RUNNING_MATCHES in rules_of(m)

    def test_signal_by_non_running_process_flags_3b(self):
        m = machine(discipline=Discipline.SIGNAL_AND_CONTINUE)
        m.process(signal_event(0, 5, "Op", "ready", 0.1, 0))
        assert STRule.CALLER_IS_RUNNING in rules_of(m)

    def test_mesa_signal_empty_queue_flag1_flags_sg(self):
        m = machine(discipline=Discipline.SIGNAL_AND_CONTINUE)
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(signal_event(1, 1, "Op", "ready", 0.2, 1))
        assert STRule.SIGNAL_CONSISTENT in rules_of(m)


class TestBlockedLocationPrecedence:
    """ST-Rule 4 names the first blocked list holding the actor, in the
    order Enter-0-List, the conditions in declaration order, urgent."""

    def two_condition_machine(self, base):
        decl = MonitorDeclaration(
            name="m",
            mtype=MonitorType.OPERATION_MANAGER,
            procedures=("Op", "Other"),
            conditions=("ready", "done"),
        )
        return ReplayMachine(decl, base)

    def st4_messages(self, m):
        return [
            violation.message
            for violation in m.violations
            if violation.rule is STRule.EVENT_WHILE_BLOCKED
        ]

    def test_entry_list_before_condition_list(self):
        m = machine(
            empty_state(
                entry_queue=(QueueEntry(1, "Op", 0.0),),
                cond_queues={"ready": (QueueEntry(1, "Op", 0.0),)},
                running=(QueueEntry(2, "Op", 0.0),),
            )
        )
        m.process(signal_exit_event(0, 1, "Op", 0.1, 0))
        (message,) = self.st4_messages(m)
        assert "while on the Enter-0-List:" in message

    def test_first_declared_condition_wins(self):
        m = self.two_condition_machine(
            empty_state(
                cond_queues={
                    "done": (QueueEntry(1, "Op", 0.0),),
                    "ready": (QueueEntry(1, "Op", 0.0),),
                },
                running=(QueueEntry(2, "Op", 0.0),),
            )
        )
        m.process(signal_exit_event(0, 1, "Op", 0.1, 0))
        (message,) = self.st4_messages(m)
        assert "while on the Wait-Cond-List[ready]:" in message

    def test_parked_hoare_signaller_reports_urgent_list(self):
        m = machine(discipline=Discipline.SIGNAL_AND_WAIT)
        m.process(enter_event(0, 1, "Op", 0.1, 1))
        m.process(wait_event(1, 1, "Op", "ready", 0.2))
        m.process(enter_event(2, 2, "Op", 0.3, 1))
        m.process(signal_event(3, 2, "Op", "ready", 0.4, 1))
        assert m.violations == []
        m.process(signal_exit_event(4, 2, "Op", 0.5, 0))
        (message,) = self.st4_messages(m)
        assert "while on the urgent list:" in message

    def test_pid_on_two_lists_stays_blocked_after_leaving_one(self):
        m = machine(
            empty_state(
                entry_queue=(QueueEntry(1, "Op", 0.0),),
                cond_queues={"ready": (QueueEntry(1, "Op", 0.0),)},
                running=(QueueEntry(2, "Op", 0.0),),
            )
        )
        m.process(signal_exit_event(0, 2, "Op", 0.1, 0))  # admits P1
        assert m.violations == []
        m.process(signal_exit_event(1, 1, "Op", 0.2, 0))
        (message,) = self.st4_messages(m)
        assert "while on the Wait-Cond-List[ready]:" in message


class CountingPid(int):
    """A pid that counts how often it is compared."""

    comparisons = 0

    def __eq__(self, other):
        CountingPid.comparisons += 1
        return int.__eq__(self, other)

    def __ne__(self, other):
        CountingPid.comparisons += 1
        return int.__ne__(self, other)

    __hash__ = int.__hash__


def contended_trace(n, rounds):
    """One process inside, ``n - 1`` on Enter-0-List, then ``rounds``
    exit-and-re-enter rounds that cycle the queue.  Every event carries a
    fresh pid object, so each index probe that matches costs a compare."""
    base = empty_state(
        running=(QueueEntry(CountingPid(0), "Op", 0.0),),
        entry_queue=tuple(
            QueueEntry(CountingPid(pid), "Op", 0.0) for pid in range(1, n)
        ),
    )
    events = []
    for round_index in range(rounds):
        pid = round_index % n
        time = 0.1 * (round_index + 1)
        events.append(
            signal_exit_event(2 * round_index, CountingPid(pid), "Op", time, 0)
        )
        events.append(
            enter_event(2 * round_index + 1, CountingPid(pid), "Op", time, 0)
        )
    return base, tuple(events)


class TestReplayCostPerEvent:
    """Replaying one event costs the same whatever the queue lengths."""

    @staticmethod
    def comparisons_per_event(n, rounds=4_000):
        base, events = contended_trace(n, rounds)
        m = machine(base)
        CountingPid.comparisons = 0
        m.replay(events)
        assert m.violations == []
        assert len(m.enter0) == n - 1
        return CountingPid.comparisons / len(events)

    def test_pid_comparisons_do_not_grow_with_queue_length(self):
        short = self.comparisons_per_event(4)
        long = self.comparisons_per_event(256)
        assert long <= short, (short, long)
