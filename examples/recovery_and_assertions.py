#!/usr/bin/env python3
"""The paper's Section-5 extensions: assertions and error recovery.

A process terminates inside the bounded buffer (fault I.c.4), wedging the
monitor: every later sender piles up on the entry queue.  The detector's
Tmax sweep finds the corpse; the recovery supervisor expels it and the
workload completes.  Alongside, user-supplied assertions check the
buffer's functional invariant (occupancy within bounds) at every
checkpoint.

Run:  python examples/recovery_and_assertions.py
"""

from repro import (
    AlarmStrategy,
    AssertionChecker,
    BoundedBuffer,
    Delay,
    DetectionSession,
    DetectorConfig,
    ExpelStrategy,
    HistoryDatabase,
    RandomPolicy,
    RecoverySupervisor,
    SimKernel,
)


def main():
    kernel = SimKernel(RandomPolicy(seed=5), on_deadlock="stop")
    buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
    session = DetectionSession(
        kernel,
        monitors=[buffer],
        config=DetectorConfig(interval=1.0, tmax=2.0, tio=60.0),
    )
    alarms = AlarmStrategy()
    supervisor = RecoverySupervisor(session, [ExpelStrategy(), alarms])

    assertions = AssertionChecker(buffer)
    assertions.add(
        "occupancy-in-range",
        lambda snapshot: 0 <= buffer.occupancy <= buffer.capacity,
        "buffer occupancy must stay within capacity",
    )

    def saboteur():
        yield Delay(0.5)
        yield from buffer.monitor.enter("Send")
        # Terminates inside the monitor: fault I.c.4.

    sent = []
    received = []

    def sender(tag):
        yield Delay(1.0)
        yield from buffer.send(tag)
        sent.append(tag)

    def receiver():
        for __ in range(3):
            yield Delay(1.5)
            item = yield from buffer.receive()
            received.append(item)

    def supervisor_loop():
        # Paces the session's checkpoints itself (instead of
        # session.start()) so every finding is offered to recovery.
        for __ in range(12):
            yield Delay(1.0)
            supervisor.checkpoint_and_recover()
            assertions.evaluate()

    kernel.spawn(saboteur(), "saboteur")
    for tag in ("a", "b", "c"):
        kernel.spawn(sender(tag), f"sender-{tag}")
    kernel.spawn(receiver(), "receiver")
    kernel.spawn(supervisor_loop(), "supervisor")
    kernel.run(until=15)

    print("fault reports (first three):")
    for report in session.reports[:3]:
        print(f"   {report}")
    print()
    print("recovery actions taken:")
    for record in supervisor.records:
        if record.action.value != "alarm":
            print(f"   {record.action.value}: {record.detail}")
    alarm_count = sum(
        1 for record in supervisor.records if record.action.value == "alarm"
    )
    print(f"   (+ {alarm_count} alarms recorded)")
    print()
    print(f"senders completed after recovery : {sorted(sent)}")
    print(f"items received                   : {sorted(received)}")
    print(f"assertion failures               : {len(assertions.reports)}")
    ok = sorted(sent) == ["a", "b", "c"] == sorted(received)
    print(f"monitor usable again             : {ok}")


if __name__ == "__main__":
    main()
