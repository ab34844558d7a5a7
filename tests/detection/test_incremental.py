"""IncrementalConcurrencyChecker: carry, rebase, fast path, durability.

The differential property suite (``tests/properties/test_prop_incremental``)
pins the stream-level contract — incremental == oracle on live workloads.
These tests pin the mechanism: when the carry is taken, when the lists are
re-seeded, when the zero-event fast path may be used, and that the carried
state round-trips through :meth:`state_dict` / :meth:`restore_state`.
"""

from repro.detection.algorithm1 import (
    IncrementalConcurrencyChecker,
    check_general_concurrency_control,
)
from repro.detection.rules import STRule
from repro.history.events import (
    enter_event,
    signal_event,
    signal_exit_event,
    wait_event,
)
from repro.history.sink import Segment
from repro.history.states import QueueEntry, SchedulingState
from repro.monitor import MonitorDeclaration, MonitorType
from repro.monitor.semantics import Discipline


def declaration(discipline=Discipline.SIGNAL_EXIT):
    return MonitorDeclaration(
        name="buffer",
        mtype=MonitorType.COMMUNICATION_COORDINATOR,
        procedures=("Send", "Receive"),
        conditions=("full", "empty"),
        rmax=3,
        discipline=discipline,
    )


def state(time=0.0, **overrides):
    base = dict(
        time=time,
        entry_queue=(),
        cond_queues={"full": (), "empty": ()},
        running=(),
        resource_count=3,
    )
    base.update(overrides)
    return SchedulingState(**base)


def clean_window(previous, start_seq, t0):
    """A complete Send visit: enter, signal-exit, exit — state unchanged."""
    events = (
        enter_event(start_seq, 1, "Send", t0 + 0.1, 1),
        signal_exit_event(start_seq + 1, 1, "Send", t0 + 0.2, 0, cond="empty"),
    )
    return Segment(previous, events, state(t0 + 1.0))


class TestCarrySemantics:
    def test_first_window_is_a_rebase(self):
        checker = IncrementalConcurrencyChecker(declaration())
        s0 = state(0.0)
        checker.check_window(clean_window(s0, 0, 0.0))
        assert checker.rebases == 1
        assert checker.hits == 0
        assert checker.carried

    def test_contiguous_windows_carry_by_identity(self):
        checker = IncrementalConcurrencyChecker(declaration())
        s0 = state(0.0)
        first = clean_window(s0, 0, 0.0)
        checker.check_window(first)
        # The next window starts on the *same object* the sink handed out
        # as the last window's current — that is the carry condition.
        second = clean_window(first.current, 2, 1.0)
        checker.check_window(second)
        assert checker.hits == 1
        assert checker.rebases == 1

    def test_equal_but_distinct_snapshot_carries(self):
        decl = declaration()
        checker = IncrementalConcurrencyChecker(decl)
        s0 = state(0.0)
        first = clean_window(s0, 0, 0.0)
        checker.check_window(first)
        # Same value, different object (a window decoded off the wire):
        # the lists verified against the last current seed it equally.
        second = clean_window(state(1.0), 2, 1.0)
        assert second.previous is not first.current
        assert checker.check_window(second) == (
            check_general_concurrency_control(decl, second)
        )
        assert checker.hits == 1
        assert checker.rebases == 1
        # A window that starts anywhere else (out of sequence, e.g. right
        # after crash recovery) still re-seeds.
        checker.check_window(clean_window(state(5.0), 4, 5.0))
        assert checker.hits == 1
        assert checker.rebases == 2

    def test_mismatch_invalidates_the_carry(self):
        checker = IncrementalConcurrencyChecker(declaration())
        s0 = state(0.0)
        # Replay says the monitor empties, but the snapshot claims P9 is
        # running: the lists cannot be trusted for the next window.
        events = (
            enter_event(0, 1, "Send", 0.1, 1),
            signal_exit_event(1, 1, "Send", 0.2, 0, cond="empty"),
        )
        bad_current = state(1.0, running=(QueueEntry(9, "Send", 0.5),))
        reports = checker.check_window(Segment(s0, events, bad_current))
        assert reports  # the divergence itself is reported
        assert not checker.carried
        follow_up = clean_window(bad_current, 2, 1.0)
        checker.check_window(follow_up)
        assert checker.rebases == 2

    def test_matches_oracle_across_carried_windows(self):
        decl = declaration()
        checker = IncrementalConcurrencyChecker(decl)
        previous = state(0.0)
        for index in range(5):
            segment = clean_window(previous, index * 2, float(index))
            incremental = checker.check_window(segment, tmax=5.0, tio=5.0)
            oracle = check_general_concurrency_control(
                decl, segment, tmax=5.0, tio=5.0
            )
            assert incremental == oracle
            previous = segment.current
        assert checker.hits == 4


class TestFastPath:
    def test_zero_event_window_takes_fast_path(self):
        checker = IncrementalConcurrencyChecker(declaration())
        s0 = state(0.0)
        first = clean_window(s0, 0, 0.0)
        checker.check_window(first)
        idle = Segment(first.current, (), state(2.0))
        assert checker.check_window(idle) == []
        assert checker.fastpaths == 1

    def test_fast_path_still_sweeps_timers(self):
        decl = declaration()
        checker = IncrementalConcurrencyChecker(decl)
        stuck = QueueEntry(7, "Send", 0.0)
        s0 = state(0.0, running=(stuck,))
        first = Segment(s0, (), state(1.0, running=(stuck,)))
        checker.check_window(first, tmax=100.0)
        late = state(50.0, running=(stuck,))
        reports = checker.check_window(
            Segment(first.current, (), late), tmax=10.0
        )
        assert checker.fastpaths >= 1
        assert {r.rule for r in reports} == {STRule.TMAX_EXCEEDED}
        oracle = check_general_concurrency_control(
            decl, Segment(first.current, (), late), tmax=10.0
        )
        assert reports == oracle

    def test_zero_events_with_changed_state_is_not_fast_pathed(self):
        # Fault hooks can mutate state while suppressing the event record:
        # zero events does NOT imply unchanged lists, so the fast path
        # must verify with matches() — and fall through here.
        decl = declaration()
        checker = IncrementalConcurrencyChecker(decl)
        s0 = state(0.0)
        first = clean_window(s0, 0, 0.0)
        checker.check_window(first)
        ghost = state(2.0, running=(QueueEntry(3, "Send", 1.5),))
        segment = Segment(first.current, (), ghost)
        reports = checker.check_window(segment)
        assert checker.fastpaths == 0
        assert reports == check_general_concurrency_control(decl, segment)


def agree(decl, windows, **timers):
    """Check ``windows`` in order on one incremental checker, and each
    one on the oracle; assert equal report lists, in order, window by
    window.  Returns the checker and each window's reports."""
    checker = IncrementalConcurrencyChecker(decl)
    found = []
    for segment in windows:
        reports = checker.check_window(segment, **timers)
        assert reports == check_general_concurrency_control(
            decl, segment, **timers
        )
        found.append(reports)
    return checker, found


def rules(found):
    return [[report.rule for report in reports] for reports in found]


class TestCarryDecision:
    """One ``matches`` after the replay picks the comparison: a matched
    window runs only the witness and timer sweeps, a mismatch the full
    comparison.  Window by window, the reports equal the oracle's."""

    def test_matched_window_with_events(self):
        first = clean_window(state(0.0), 0, 0.0)
        second = clean_window(first.current, 2, 1.0)
        checker, found = agree(declaration(), [first, second])
        assert found == [[], []]
        assert checker.carried
        assert (checker.hits, checker.fastpaths) == (1, 0)

    def test_waiter_on_an_undeclared_condition_is_a_mismatch(self):
        # The lists and the snapshot agree on every declared queue; only
        # the waiter on "ghost" differs from what a fresh machine seeds.
        inside = QueueEntry(1, "Send", 0.1)
        ghost = QueueEntry(1, "Send", 0.5)
        current = state(
            1.0, cond_queues={"full": (), "empty": (), "ghost": (ghost,)}
        )
        window = Segment(
            state(0.0, running=(inside,)),
            (wait_event(0, 1, "Send", "ghost", 0.5),),
            current,
        )
        after = Segment(current, (), state(2.0, cond_queues=current.cond_queues))
        checker, found = agree(declaration(), [window, after], tmax=0.4)
        assert rules(found) == [[STRule.TMAX_EXCEEDED], []]
        # The mismatch dropped the carry: the next window re-seeds.
        assert (checker.hits, checker.rebases) == (0, 2)

    def test_snapshot_witness_fires_on_a_matched_window(self):
        both = (QueueEntry(1, "Send", 0.1), QueueEntry(2, "Receive", 0.2))
        first = Segment(state(0.0, running=both), (), state(1.0, running=both))
        second = Segment(first.current, (), state(2.0, running=both))
        checker, found = agree(declaration(), [first, second])
        assert rules(found) == [[STRule.ONE_INSIDE]] * 2
        assert checker.carried
        assert checker.fastpaths == 1

    def test_hoare_urgent_list(self):
        # P1 signals P2 awake and waits on the urgent list; P2's exit
        # then hands the monitor back to P1.
        waiting = state(
            0.0,
            running=(QueueEntry(1, "Send", 0.1),),
            cond_queues={"full": (QueueEntry(2, "Receive", 0.05),), "empty": ()},
        )
        handed = state(
            1.0,
            running=(QueueEntry(2, "Receive", 0.5),),
            urgent=(QueueEntry(1, "Send", 0.5),),
        )
        back = state(2.0, running=(QueueEntry(1, "Send", 1.5),))
        windows = [
            Segment(waiting, (signal_event(0, 1, "Send", "full", 0.5, 1),), handed),
            Segment(handed, (signal_exit_event(1, 2, "Receive", 1.5, 0),), back),
            Segment(back, (), state(3.0, running=back.running)),
        ]
        checker, found = agree(
            declaration(Discipline.SIGNAL_AND_WAIT), windows, tmax=1.0
        )
        assert rules(found) == [[], [], [STRule.TMAX_EXCEEDED]]
        assert checker.carried
        assert (checker.hits, checker.fastpaths) == (2, 1)

    def test_mesa_requeue(self):
        # P1 signals P2, who re-queues on the entry queue; P1's exit
        # then admits P2.
        waiting = state(
            0.0,
            running=(QueueEntry(1, "Send", 0.1),),
            cond_queues={"full": (QueueEntry(2, "Receive", 0.05),), "empty": ()},
        )
        requeued = state(
            1.0,
            running=(QueueEntry(1, "Send", 0.1),),
            entry_queue=(QueueEntry(2, "Receive", 0.5),),
        )
        admitted = state(2.0, running=(QueueEntry(2, "Receive", 1.5),))
        windows = [
            Segment(
                waiting, (signal_event(0, 1, "Send", "full", 0.5, 1),), requeued
            ),
            Segment(requeued, (signal_exit_event(1, 1, "Send", 1.5, 0),), admitted),
        ]
        checker, found = agree(
            declaration(Discipline.SIGNAL_AND_CONTINUE), windows, tio=0.4
        )
        assert rules(found) == [[STRule.TIO_EXCEEDED], []]
        assert checker.carried
        assert checker.hits == 1

    def test_timers_fire_on_a_matched_window(self):
        stuck = QueueEntry(1, "Send", 0.0)
        starved = QueueEntry(3, "Receive", 0.0)
        s0 = state(0.0, running=(stuck,), entry_queue=(starved,))
        queued = state(
            1.0,
            running=(stuck,),
            entry_queue=(starved, QueueEntry(4, "Send", 0.5)),
        )
        windows = [
            Segment(s0, (enter_event(0, 4, "Send", 0.5, 0),), queued),
            Segment(
                queued,
                (),
                state(2.0, running=queued.running, entry_queue=queued.entry_queue),
            ),
        ]
        checker, found = agree(declaration(), windows, tmax=0.8, tio=0.8)
        assert rules(found) == [
            [STRule.TMAX_EXCEEDED, STRule.TIO_EXCEEDED],
            [STRule.TMAX_EXCEEDED, STRule.TIO_EXCEEDED, STRule.TIO_EXCEEDED],
        ]
        assert checker.carried
        assert checker.fastpaths == 1


class TestDurability:
    def test_state_round_trip_preserves_carry(self):
        decl = declaration()
        checker = IncrementalConcurrencyChecker(decl)
        s0 = state(0.0)
        first = clean_window(s0, 0, 0.0)
        checker.check_window(first)
        record = checker.state_dict()
        assert record == [checker.hits, checker.rebases, checker.fastpaths, True]

        restored = IncrementalConcurrencyChecker(decl)
        restored.restore_state(record, basis=first.current)
        assert restored.carried
        assert restored.hits == checker.hits
        second = clean_window(first.current, 2, 1.0)
        restored.check_window(second)
        assert restored.hits == checker.hits + 1  # resumed mid-stream

    def test_restore_without_basis_falls_back_to_rebase(self):
        decl = declaration()
        checker = IncrementalConcurrencyChecker(decl)
        first = clean_window(state(0.0), 0, 0.0)
        checker.check_window(first)
        restored = IncrementalConcurrencyChecker(decl)
        restored.restore_state(checker.state_dict())
        assert not restored.carried
        restored.check_window(clean_window(state(1.0), 2, 1.0))
        assert restored.rebases == checker.rebases + 1

    def test_fresh_checker_state_dict_restores_empty(self):
        decl = declaration()
        record = IncrementalConcurrencyChecker(decl).state_dict()
        assert record == [0, 0, 0, False]
        restored = IncrementalConcurrencyChecker(decl)
        restored.restore_state(record)
        assert not restored.carried
