#!/usr/bin/env python3
"""Resource allocation with real-time calling-order checking.

The paper's resource-access-right allocator declares the partial order
``(Request ; Release)*`` in its monitor declaration; Algorithm-3 checks
every process's call sequence against it *in real time* — the one fault
level the paper requires to be caught immediately rather than at the next
periodic checkpoint.

This example runs three well-behaved users alongside three buggy ones,
each committing one user-process-level fault of Section 2.2:

* III.a — releasing a resource it never acquired,
* III.b — acquiring and never releasing (caught by the Tlimit sweep),
* III.c — re-acquiring while already holding (self-deadlock).

Run:  python examples/robust_allocator.py
"""

from repro import (
    Delay,
    DetectionSession,
    DetectorConfig,
    HistoryDatabase,
    RandomPolicy,
    SimKernel,
    SingleResourceAllocator,
)


def honest_user(allocator, index):
    for __ in range(4):
        yield Delay(0.1 + 0.05 * index)
        yield from allocator.request()
        yield Delay(0.2)  # use the resource (outside the monitor)
        yield from allocator.release()


def release_without_request(allocator):
    yield Delay(0.5)
    yield from allocator.release()  # fault III.a


def never_release(allocator):
    yield Delay(0.8)
    yield from allocator.request()
    yield Delay(1e9)  # fault III.b: holds forever


def double_request(allocator):
    yield Delay(1.1)
    yield from allocator.request()
    yield Delay(0.1)
    yield from allocator.request()  # fault III.c: self-deadlock


def main():
    kernel = SimKernel(RandomPolicy(seed=3), on_deadlock="stop")
    allocator = SingleResourceAllocator(kernel, history=HistoryDatabase())
    session = DetectionSession(
        kernel,
        monitors=[allocator],
        config=DetectorConfig(interval=0.5, tmax=None, tio=None, tlimit=5.0),
    )
    print("monitor declaration (the paper's Section 4 form):")
    print(allocator.declaration.render())
    print()

    for index in range(3):
        kernel.spawn(honest_user(allocator, index), f"honest-{index}")
    kernel.spawn(release_without_request(allocator), "buggy-IIIa")
    kernel.spawn(never_release(allocator), "buggy-IIIb")
    kernel.spawn(double_request(allocator), "buggy-IIIc")
    session.start()
    kernel.run(until=30)

    print(f"grants handed out : {allocator.grants}")
    print(f"fault reports     : {len(session.reports)}")
    print()
    seen_rules = {}
    for report in session.reports:
        seen_rules.setdefault(report.rule_id, report)
    for rule_id in sorted(seen_rules):
        print(f"[{rule_id}] {seen_rules[rule_id].message}")
    print()
    labels = sorted({f.label for f in session.implicated_faults()})
    print(f"implicated fault classes: {labels}")
    expected = {"III.a", "III.b", "III.c"}
    print(f"all three user-process faults caught: "
          f"{expected.issubset(set(labels))}")


if __name__ == "__main__":
    main()
