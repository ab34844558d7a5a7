#!/usr/bin/env python3
"""One detection session auditing several monitors at once.

A dining-philosophers fork table, a shared printer allocator and a bounded
buffer all run on the same kernel.  Instead of one detection routine per
monitor (three world-stops per checking interval), every monitor
registers with a single :class:`DetectionSession`: one batched checkpoint
per interval snapshots and checks all three back to back, and the session
aggregates the findings per monitor.

One philosopher misbehaves — it releases the printer it never requested —
so the audit shows a real level-III fault attributed to the right monitor
while the other monitors stay clean.

The buffer records through a :class:`BoundedHistory` ring buffer, the
production-style sink: if the engine ever fell behind, the buffer's window
would drop oldest events (visibly, via the drop counters) instead of
growing without bound.

A fourth monitor misbehaves in a different way: its *checker* is broken
(the rule evaluator raises for its first few checkpoints).  The engine's
per-monitor circuit breaker quarantines it — the other monitors keep
getting checked every interval — probes it after the cooldown, and
re-admits it once the probe succeeds.  The printed quarantine lifecycle
shows every breaker transition.

Run:  python examples/multi_monitor_audit.py
"""

from repro import (
    BoundedBuffer,
    BoundedHistory,
    Delay,
    DetectionSession,
    DetectorConfig,
    ForkTable,
    HistoryDatabase,
    RandomPolicy,
    SimKernel,
    SingleResourceAllocator,
    philosopher,
)
from repro.injection import sabotage_entry

SEATS = 4


def main() -> int:
    kernel = SimKernel(RandomPolicy(seed=3), on_deadlock="stop")
    table = ForkTable(kernel, SEATS, history=HistoryDatabase())
    printer = SingleResourceAllocator(
        kernel, history=HistoryDatabase(), name="printer"
    )
    buffer = BoundedBuffer(
        kernel, capacity=3, history=BoundedHistory(capacity=256)
    )
    scanner = SingleResourceAllocator(
        kernel, history=HistoryDatabase(), name="scanner"
    )

    session = DetectionSession(
        kernel,
        config=DetectorConfig(
            interval=0.5,
            tmax=30.0,
            tio=30.0,
            tlimit=30.0,
            # Tight quarantine so the breaker's full lifecycle fits the run.
            breaker_failure_threshold=2,
            breaker_cooldown=1.2,
        ),
    )
    for target in (table, printer, buffer):
        session.register(target)
    # The scanner's *checker* is broken: its first three checks raise.
    scanner_entry = session.register(scanner)
    sabotage_entry(scanner_entry, failures=3)

    # Healthy load on all three monitors...
    for seat in range(SEATS):
        kernel.spawn(philosopher(table, seat, meals=4), f"phil-{seat}")

    def printing_user(index):
        for __ in range(3):
            yield Delay(0.2 * (index + 1))
            yield from printer.request()
            yield Delay(0.1)
            yield from printer.release()

    for index in range(2):
        kernel.spawn(printing_user(index), f"print-user-{index}")

    def scanning_user():
        for __ in range(8):
            yield Delay(0.4)
            yield from scanner.request()
            yield Delay(0.1)
            yield from scanner.release()

    kernel.spawn(scanning_user(), "scan-user")

    def producer():
        for item in range(10):
            yield Delay(0.15)
            yield from buffer.send(item)

    def consumer():
        for __ in range(10):
            yield Delay(0.15)
            yield from buffer.receive()

    kernel.spawn(producer(), "producer")
    kernel.spawn(consumer(), "consumer")

    # ...plus one user-process bug: Release with no preceding Request.
    def rude_philosopher():
        yield Delay(1.0)
        yield from printer.release()

    kernel.spawn(rude_philosopher(), "rude")

    session.start()
    kernel.run(until=20)
    kernel.raise_failures()

    print(f"engine: {len(session.entries)} monitors, "
          f"{session.checkpoints_run} batched checkpoints, "
          f"{session.atomic_sections} atomic sections\n")
    for label, reports in session.reports_by_monitor().items():
        verdict = "clean" if not reports else f"{len(reports)} report(s)"
        print(f"  {label:10s} {verdict}")
        for report in reports:
            print(f"      {report}")
    print(f"\nimplicated fault classes: "
          f"{sorted(fault.label for fault in session.implicated_faults())}")
    sink = buffer.history
    print(f"buffer sink: {sink!r}")

    print("\nquarantine lifecycle of the broken checker:")
    breaker = scanner_entry.breaker
    for time, state in breaker.transitions:
        print(f"  t={time:5.2f}  -> {state.value}")
    print(f"  {scanner_entry.quarantine_record().render()}")
    lifecycle_ok = (
        breaker.times_opened >= 1
        and breaker.times_reclosed >= 1
        and not scanner_entry.quarantined
    )
    print(
        "  broken checker quarantined and re-admitted"
        if lifecycle_ok
        else "  UNEXPECTED: breaker lifecycle incomplete"
    )
    return 0 if (not session.clean and lifecycle_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
