"""Tests for Algorithm-1, Algorithm-2 and Algorithm-3 over segments."""

import json

import pytest

from repro.detection.algorithm1 import check_general_concurrency_control
from repro.detection.algorithm2 import ResourceStateChecker
from repro.detection.algorithm3 import CallingOrderChecker
from repro.detection.rules import STRule
from repro.history.database import Segment
from repro.history.events import enter_event, signal_exit_event, wait_event
from repro.history.states import QueueEntry, SchedulingState
from repro.monitor import MonitorDeclaration, MonitorType


def coordinator_declaration(rmax=3):
    return MonitorDeclaration(
        name="buffer",
        mtype=MonitorType.COMMUNICATION_COORDINATOR,
        procedures=("Send", "Receive"),
        conditions=("full", "empty"),
        rmax=rmax,
    )


def allocator_declaration():
    return MonitorDeclaration(
        name="allocator",
        mtype=MonitorType.RESOURCE_ALLOCATOR,
        procedures=("Request", "Release"),
        conditions=("free",),
        call_order="(Request ; Release)*",
    )


def state(time=0.0, resource=3, **overrides):
    base = dict(
        time=time,
        entry_queue=(),
        cond_queues={"full": (), "empty": ()},
        running=(),
        resource_count=resource,
    )
    base.update(overrides)
    return SchedulingState(**base)


class TestAlgorithm1:
    def test_clean_window(self):
        events = (
            enter_event(0, 1, "Send", 0.1, 1),
            signal_exit_event(1, 1, "Send", 0.2, 0, cond="empty"),
        )
        segment = Segment(state(0.0), events, state(1.0, resource=2))
        reports = check_general_concurrency_control(
            coordinator_declaration(), segment, tmax=5.0, tio=5.0
        )
        assert reports == []

    def test_window_detects_mutex_violation(self):
        events = (
            enter_event(0, 1, "Send", 0.1, 1),
            enter_event(1, 2, "Send", 0.2, 1),
        )
        segment = Segment(
            state(0.0),
            events,
            state(
                1.0,
                running=(QueueEntry(1, "Send", 0.1), QueueEntry(2, "Send", 0.2)),
            ),
        )
        reports = check_general_concurrency_control(
            coordinator_declaration(), segment
        )
        rules = {report.rule for report in reports}
        assert STRule.ONE_INSIDE in rules


class TestAlgorithm2:
    def checker(self):
        return ResourceStateChecker(coordinator_declaration())

    def test_applicable_requires_send_receive(self):
        assert self.checker().applicable
        other = MonitorDeclaration(
            name="shop",
            mtype=MonitorType.COMMUNICATION_COORDINATOR,
            procedures=("GetHaircut",),
            rmax=2,
        )
        assert not ResourceStateChecker(other).applicable

    def test_requires_rmax(self):
        decl = MonitorDeclaration(
            name="m",
            mtype=MonitorType.OPERATION_MANAGER,
            procedures=("Send", "Receive"),
        )
        with pytest.raises(ValueError):
            ResourceStateChecker(decl)

    def test_clean_send_receive_cycle(self):
        events = (
            enter_event(0, 1, "Send", 0.1, 1),
            signal_exit_event(1, 1, "Send", 0.2, 0, cond="empty"),
            enter_event(2, 2, "Receive", 0.3, 1),
            signal_exit_event(3, 2, "Receive", 0.4, 0, cond="full"),
        )
        segment = Segment(state(0.0), events, state(1.0, resource=3))
        assert self.checker().check_window(segment) == []

    def test_receive_overtaking_send_flags_7a(self):
        events = (
            enter_event(0, 2, "Receive", 0.3, 1),
            signal_exit_event(1, 2, "Receive", 0.4, 0, cond="full"),
        )
        segment = Segment(state(0.0), events, state(1.0, resource=4))
        reports = self.checker().check_window(segment)
        rules = {report.rule for report in reports}
        assert STRule.RESOURCE_INVARIANT in rules

    def test_send_beyond_capacity_flags_7a(self):
        checker = self.checker()
        events = []
        seq = 0
        for pid in range(1, 6):  # five sends into capacity 3, no receives
            events.append(enter_event(seq, pid, "Send", 0.1 * pid, 1))
            seq += 1
            events.append(
                signal_exit_event(seq, pid, "Send", 0.1 * pid + 0.05, 0, cond="empty")
            )
            seq += 1
        segment = Segment(state(0.0), tuple(events), state(1.0, resource=0))
        reports = checker.check_window(segment)
        rules = {report.rule for report in reports}
        assert STRule.RESOURCE_INVARIANT in rules

    def test_wait_on_full_with_free_slots_flags_7c(self):
        events = (
            enter_event(0, 1, "Send", 0.1, 1),
            wait_event(1, 1, "Send", "full", 0.2),
        )
        segment = Segment(state(0.0), events, state(1.0, resource=3,
            cond_queues={"full": (QueueEntry(1, "Send", 0.2),), "empty": ()}))
        reports = self.checker().check_window(segment)
        rules = {report.rule for report in reports}
        assert STRule.SEND_WAIT_CONSISTENT in rules

    def test_wait_on_empty_with_items_flags_7d(self):
        checker = self.checker()
        # one prior send leaves resource_no = 2
        warmup = (
            enter_event(0, 1, "Send", 0.1, 1),
            signal_exit_event(1, 1, "Send", 0.2, 0, cond="empty"),
            enter_event(2, 2, "Receive", 0.3, 1),
            wait_event(3, 2, "Receive", "empty", 0.4),
        )
        segment = Segment(state(0.0), warmup, state(1.0, resource=2,
            cond_queues={"full": (), "empty": (QueueEntry(2, "Receive", 0.4),)}))
        reports = checker.check_window(segment)
        rules = {report.rule for report in reports}
        assert STRule.RECEIVE_WAIT_CONSISTENT in rules

    def test_resource_delta_mismatch_flags_7b(self):
        events = (
            enter_event(0, 1, "Send", 0.1, 1),
            signal_exit_event(1, 1, "Send", 0.2, 0, cond="empty"),
        )
        # actual R# claims no slot was consumed
        segment = Segment(state(0.0), events, state(1.0, resource=3))
        reports = self.checker().check_window(segment)
        rules = {report.rule for report in reports}
        assert STRule.RESOURCE_DELTA_MATCHES in rules

    def test_counters_cumulative_across_windows(self):
        checker = self.checker()
        send = (
            enter_event(0, 1, "Send", 0.1, 1),
            signal_exit_event(1, 1, "Send", 0.2, 0, cond="empty"),
        )
        checker.check_window(Segment(state(0.0), send, state(1.0, resource=2)))
        assert checker.sends == 1
        receive = (
            enter_event(2, 2, "Receive", 1.1, 1),
            signal_exit_event(3, 2, "Receive", 1.2, 0, cond="full"),
        )
        checker.check_window(
            Segment(state(1.0, resource=2), receive, state(2.0, resource=3))
        )
        assert checker.receives == 1


class TestAlgorithm3:
    def test_clean_request_release(self):
        checker = CallingOrderChecker(allocator_declaration())
        reports = []
        reports += checker.on_event(enter_event(0, 1, "Request", 0.1, 1))
        reports += checker.on_event(
            signal_exit_event(1, 1, "Release", 0.3, 0, cond="free")
        )
        assert reports == []
        assert checker.holders() == ()

    def test_release_before_request_flags_8b(self):
        checker = CallingOrderChecker(allocator_declaration())
        reports = checker.on_event(enter_event(0, 1, "Release", 0.1, 1))
        rules = {report.rule for report in reports}
        assert STRule.RELEASE_REQUIRES_REQUEST in rules
        # The path expression flags it too:
        assert STRule.CALL_ORDER_VIOLATED in rules

    def test_double_request_flags_8a(self):
        checker = CallingOrderChecker(allocator_declaration())
        checker.on_event(enter_event(0, 1, "Request", 0.1, 1))
        reports = checker.on_event(enter_event(1, 1, "Request", 0.2, 0))
        rules = {report.rule for report in reports}
        assert STRule.NO_DUPLICATE_REQUEST in rules

    def test_holding_too_long_flags_8c(self):
        checker = CallingOrderChecker(allocator_declaration())
        checker.on_event(enter_event(0, 1, "Request", 0.1, 1))
        reports = checker.periodic(now=20.0, tlimit=10.0)
        assert [report.rule for report in reports] == [
            STRule.REQUEST_NOT_RELEASED
        ]
        assert reports[0].pids == (1,)

    def test_periodic_within_limit_is_clean(self):
        checker = CallingOrderChecker(allocator_declaration())
        checker.on_event(enter_event(0, 1, "Request", 0.1, 1))
        assert checker.periodic(now=5.0, tlimit=10.0) == []

    def test_independent_processes_tracked_separately(self):
        checker = CallingOrderChecker(allocator_declaration())
        reports = []
        reports += checker.on_event(enter_event(0, 1, "Request", 0.1, 1))
        reports += checker.on_event(enter_event(1, 2, "Request", 0.2, 0))
        reports += checker.on_event(
            signal_exit_event(2, 1, "Release", 0.3, 0, cond="free")
        )
        reports += checker.on_event(
            signal_exit_event(3, 2, "Release", 0.4, 0, cond="free")
        )
        assert reports == []

    def test_path_expression_generalised_ordering(self):
        decl = MonitorDeclaration(
            name="rw",
            mtype=MonitorType.RESOURCE_ALLOCATOR,
            procedures=("StartRead", "EndRead", "StartWrite", "EndWrite"),
            call_order="((StartRead ; EndRead) | (StartWrite ; EndWrite))*",
        )
        checker = CallingOrderChecker(decl)
        assert checker.on_event(enter_event(0, 1, "StartRead", 0.1, 1)) == ()
        reports = checker.on_event(enter_event(1, 1, "EndWrite", 0.2, 1))
        assert [report.rule for report in reports] == [
            STRule.CALL_ORDER_VIOLATED
        ]

    def test_state_round_trip(self):
        checker = CallingOrderChecker(allocator_declaration())
        checker.on_event(enter_event(0, 1, "Request", 0.1, 1))
        checker.on_event(enter_event(1, 2, "Request", 0.2, 0))
        # Through JSON, as a durable snapshot stores it.
        record = json.loads(json.dumps(checker.state_dict()))
        restored = CallingOrderChecker(allocator_declaration())
        restored.restore_state(record)
        assert restored.state_dict() == checker.state_dict()
        assert restored.holders() == (1, 2)
        # Each automaton resumes mid-order: a Release is now in order.
        assert restored.on_event(enter_event(2, 1, "Release", 0.3, 0)) == ()

    def test_restores_a_durable_snapshot_record(self):
        # The "algorithm3" row of a durable snapshot, verbatim: P1 has
        # requested at t=0.1 and its automaton sits after Request.
        record = [[[1, 0.1]], [[1, 1]]]
        checker = CallingOrderChecker(allocator_declaration())
        checker.restore_state(record)
        assert checker.request_list == [(1, 0.1)]
        assert checker.state_dict() == record
        assert checker.on_event(enter_event(0, 1, "Release", 0.3, 0)) == ()
        checker.on_event(
            signal_exit_event(1, 1, "Release", 0.35, 0, cond="free")
        )
        assert checker.holders() == ()
        reports = checker.on_event(enter_event(2, 1, "Release", 0.4, 0))
        assert {report.rule for report in reports} == {
            STRule.RELEASE_REQUIRES_REQUEST,
            STRule.CALL_ORDER_VIOLATED,
        }

    def test_no_call_order_means_no_dfa(self):
        decl = MonitorDeclaration(
            name="a",
            mtype=MonitorType.RESOURCE_ALLOCATOR,
            procedures=("Request", "Release"),
        )
        checker = CallingOrderChecker(decl)
        assert checker.automaton is None
        # built-in Request-List rules still apply
        reports = checker.on_event(enter_event(0, 1, "Release", 0.1, 1))
        assert [report.rule for report in reports] == [
            STRule.RELEASE_REQUIRES_REQUEST
        ]
