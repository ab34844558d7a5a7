#!/usr/bin/env python3
"""Dining philosophers two ways: a correct monitor vs a deadlocking protocol.

Part 1 runs Hoare's fork-table monitor (both forks acquired atomically,
Mesa signalling) — every philosopher finishes every meal, and the attached
detector stays silent.

Part 2 runs the classic broken protocol — each fork is its own allocator
monitor and every philosopher grabs left-then-right.  The simulation
kernel detects the circular wait as a global deadlock, and Algorithm-3's
Tlimit sweep names the forks that were acquired but never released.

Run:  python examples/dining_philosophers.py
"""

from repro import (
    DeadlockDetector,
    DetectionSession,
    DetectorConfig,
    ForkTable,
    HistoryDatabase,
    RandomPolicy,
    SimKernel,
    SingleResourceAllocator,
    philosopher,
)
from repro.apps.dining_philosophers import greedy_philosopher

SEATS = 5


def part1_monitor_table():
    print("=== part 1: Hoare's fork-table monitor " + "=" * 26)
    kernel = SimKernel(RandomPolicy(seed=11), on_deadlock="stop")
    table = ForkTable(kernel, SEATS, history=HistoryDatabase())
    session = DetectionSession(
        kernel,
        monitors=[table],
        config=DetectorConfig(interval=0.5, tmax=20.0, tio=20.0, tlimit=20.0),
    )
    for seat in range(SEATS):
        kernel.spawn(philosopher(table, seat, meals=5), f"philosopher-{seat}")
    session.start()
    result = kernel.run(until=100)
    kernel.raise_failures()
    print(f"meals eaten      : {table.meals}")
    print(f"deadlocked       : {result.deadlocked}")
    print(f"detector reports : {len(session.reports)} "
          f"(clean = {session.clean})")
    print()


def part2_greedy_deadlock():
    print("=== part 2: greedy left-then-right protocol " + "=" * 21)
    kernel = SimKernel(on_deadlock="stop")  # FIFO makes the cycle certain
    session = DetectionSession(
        kernel,
        config=DetectorConfig(interval=0.5, tmax=None, tio=None, tlimit=3.0),
    )
    forks = [
        SingleResourceAllocator(
            kernel, history=HistoryDatabase(), name=f"fork{index}"
        )
        for index in range(SEATS)
    ]
    entries = [session.register(fork) for fork in forks]
    session.start()
    for seat in range(SEATS):
        kernel.spawn(
            greedy_philosopher(forks, seat, meals=5, think=0.1),
            f"greedy-{seat}",
        )
    result = kernel.run(until=30)
    print(f"kernel deadlock detected : {result.deadlocked or result.live != ()}")
    held = [fork.name for fork in forks if fork.busy]
    print(f"forks still held         : {held}")
    print()
    print("Algorithm-3 Tlimit reports (resource acquired, never released):")
    for reports in session.reports_by_monitor().values():
        for report in reports:
            if report.rule_id == "ST-8c":
                print(f"   {report}")
                break
    labels = sorted(fault.label for fault in session.implicated_faults())
    print(f"implicated fault classes : {labels}")
    print()
    print("wait-for graph analysis (cross-monitor extension):")
    deadlocks = DeadlockDetector(entries)
    for report in deadlocks.check():
        print(f"   {report}")
    print()
    print("fault frequency statistics:")
    stats = session.statistics()
    stats.record_all(deadlocks.reports)
    print(stats.render(top=4))


if __name__ == "__main__":
    part1_monitor_table()
    part2_greedy_deadlock()
