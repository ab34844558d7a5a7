"""Tests for cross-monitor wait-for-graph deadlock detection."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps import SingleResourceAllocator
from repro.apps.dining_philosophers import greedy_philosopher
from repro.detection import (
    DeadlockDetector,
    DetectionSession,
    FaultClass,
    STRule,
)
from repro.detection.waitfor import simple_cycles
from repro.history import HistoryDatabase
from repro.kernel import Delay, SimKernel


def allocator_with_detector(kernel, name):
    """An allocator and its registration with a one-monitor session."""
    allocator = SingleResourceAllocator(
        kernel, history=HistoryDatabase(), name=name
    )
    return allocator, DetectionSession(kernel).register(allocator)


class TestConstruction:
    def test_requires_order_checkers(self, kernel):
        from repro.apps import BoundedBuffer

        buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
        entry = DetectionSession(kernel).register(buffer)
        with pytest.raises(ValueError):  # coordinator: no Algorithm-3
            DeadlockDetector([entry])


class TestCleanRuns:
    def test_no_cycle_on_healthy_workload(self, kernel):
        alloc, det = allocator_with_detector(kernel, "res")

        def user(i):
            for __ in range(3):
                yield Delay(0.05 * (i + 1))
                yield from alloc.request()
                yield Delay(0.1)
                yield from alloc.release()

        for i in range(3):
            kernel.spawn(user(i))
        deadlocks = DeadlockDetector([det])
        kernel.run(until=5)
        kernel.raise_failures()
        assert deadlocks.check() == []
        assert deadlocks.clean

    def test_single_waiter_is_not_a_cycle(self, fifo_kernel):
        alloc, det = allocator_with_detector(fifo_kernel, "res")

        def holder():
            yield from alloc.request()
            yield Delay(5.0)
            yield from alloc.release()

        def waiter():
            yield Delay(0.5)
            yield from alloc.request()
            yield from alloc.release()

        fifo_kernel.spawn(holder())
        fifo_kernel.spawn(waiter())
        fifo_kernel.run(until=1.0)
        deadlocks = DeadlockDetector([det])
        edges = deadlocks.edges()
        assert len(edges) == 1  # waiter -> holder, no cycle
        assert deadlocks.check() == []


class TestCircularWait:
    def test_two_monitor_cycle(self, fifo_kernel):
        a, det_a = allocator_with_detector(fifo_kernel, "res-a")
        b, det_b = allocator_with_detector(fifo_kernel, "res-b")

        def crossing(first, second):
            yield from first.request()
            yield Delay(0.5)
            yield from second.request()
            yield from second.release()
            yield from first.release()

        fifo_kernel.spawn(crossing(a, b), "p1")
        fifo_kernel.spawn(crossing(b, a), "p2")
        result = fifo_kernel.run(until=2.0)
        assert result.deadlocked or result.live
        deadlocks = DeadlockDetector([det_a, det_b])
        reports = deadlocks.check()
        assert len(reports) == 1
        report = reports[0]
        assert report.rule is STRule.WAIT_FOR_CYCLE
        assert len(report.pids) == 2
        assert "res-a" in report.monitor and "res-b" in report.monitor
        assert report.implicates(FaultClass.RESOURCE_NOT_RELEASED)

    def test_greedy_philosophers_cycle_found_and_named(self):
        kernel = SimKernel(on_deadlock="stop")
        forks, detectors = [], []
        for index in range(5):
            fork, detector = allocator_with_detector(kernel, f"fork{index}")
            forks.append(fork)
            detectors.append(detector)
        for seat in range(5):
            kernel.spawn(
                greedy_philosopher(forks, seat, meals=2, think=0.1),
                f"greedy-{seat}",
            )
        result = kernel.run(until=10)
        assert result.deadlocked
        deadlocks = DeadlockDetector(detectors)
        reports = deadlocks.check()
        assert len(reports) == 1
        assert len(reports[0].pids) == 5  # the full 5-philosopher cycle

    def test_cycle_reported_once(self, fifo_kernel):
        a, det_a = allocator_with_detector(fifo_kernel, "res-a")
        b, det_b = allocator_with_detector(fifo_kernel, "res-b")

        def crossing(first, second):
            yield from first.request()
            yield Delay(0.5)
            yield from second.request()

        fifo_kernel.spawn(crossing(a, b))
        fifo_kernel.spawn(crossing(b, a))
        fifo_kernel.run(until=2.0)
        deadlocks = DeadlockDetector([det_a, det_b])
        assert len(deadlocks.check()) == 1
        assert deadlocks.check() == []  # idempotent on the same cycle
        assert len(deadlocks.reports) == 1


class TestDeadlockProcess:
    def test_periodic_check_finds_live_cycle(self):
        from repro.detection.waitfor import deadlock_process

        kernel = SimKernel(on_deadlock="stop")
        a, det_a = allocator_with_detector(kernel, "res-a")
        b, det_b = allocator_with_detector(kernel, "res-b")
        deadlocks = DeadlockDetector([det_a, det_b])

        def crossing(first, second):
            yield from first.request()
            yield Delay(0.5)
            yield from second.request()

        kernel.spawn(crossing(a, b))
        kernel.spawn(crossing(b, a))
        kernel.spawn(deadlock_process(deadlocks, interval=0.5), "wf")
        kernel.run(until=3.0)
        assert len(deadlocks.reports) == 1
        assert deadlocks.reports[0].detected_at <= 1.5  # within ~1 period


class TestSimpleCycles:
    def test_each_cycle_once_from_its_smallest_pid(self):
        graph = {
            5: {3: "a"},
            3: {5: "a", 4: "b"},
            4: {5: "b"},
            7: {5: "c"},
        }
        assert sorted(simple_cycles(graph)) == [[3, 4, 5], [3, 5]]

    def test_acyclic_graph_has_none(self):
        assert list(simple_cycles({1: {2: "a"}, 2: {3: "a"}})) == []


def test_import_repro_without_networkx():
    """The package declares no dependencies, so it must import with
    networkx unavailable."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys, pkgutil, importlib\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if module.name != 'repro.__main__':\n"
        "        importlib.import_module(module.name)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
