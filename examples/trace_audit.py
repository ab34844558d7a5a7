#!/usr/bin/env python3
"""Persist a run's history and audit it offline.

Demonstrates the audit-trail workflow the history database enables:

1. run a monitored workload with full-trace retention,
2. dump the scheduling events and checkpoint states to a JSONL file,
3. reload the file (as a post-mortem tool would),
4. re-check the trace offline against FD-Rules 1–7, and
5. render fault-frequency statistics over the live session's reports.

The same offline check is available from the command line::

    python -m repro check trace.jsonl --monitor buffer --rmax 3

Run:  python examples/trace_audit.py
"""

import tempfile
from pathlib import Path

from repro import (
    BoundedBuffer,
    Delay,
    DetectionSession,
    DetectorConfig,
    HistoryDatabase,
    RandomPolicy,
    SimKernel,
    TriggeredHooks,
    check_full_trace,
)
from repro.history import dump_trace, load_trace


def run_workload(hooks=None):
    kernel = SimKernel(RandomPolicy(seed=13), on_deadlock="stop")
    history = HistoryDatabase(retain_full_trace=True)
    buffer = BoundedBuffer(
        kernel, capacity=3, history=history, hooks=hooks, service_time=0.02
    )
    if hooks is not None:
        hooks.core = buffer.monitor.core
    session = DetectionSession(
        kernel, monitors=[buffer], config=DetectorConfig(interval=0.5)
    )

    def producer():
        for item in range(30):
            yield Delay(0.05)
            yield from buffer.send(item)

    def consumer():
        for __ in range(30):
            yield Delay(0.04)
            yield from buffer.receive()

    kernel.spawn(producer())
    kernel.spawn(consumer())
    session.start()
    kernel.run(until=20)
    kernel.raise_failures()
    return buffer, history, session


def main():
    # A run with one injected "lost wakeup" style fault for the audit to find.
    hooks = TriggeredHooks("fake_resume")
    buffer, history, session = run_workload(hooks)
    print(f"live run: {history.total_recorded} events recorded, "
          f"{len(session.reports)} reports")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "buffer-trace.jsonl"
        with path.open("w") as stream:
            lines = dump_trace(stream, history.full_trace, history.full_states)
        print(f"dumped    : {lines} JSONL lines to {path.name} "
              f"({path.stat().st_size} bytes)")

        with path.open() as stream:
            events, states = load_trace(stream)
        print(f"reloaded  : {len(events)} events, {len(states)} states")

        reports = check_full_trace(
            buffer.declaration,
            events,
            final_state=buffer.snapshot(),
        )
        print(f"offline FD check: {len(reports)} violation(s)")
        for report in reports[:3]:
            print(f"   {report}")

    print()
    print("fault-frequency statistics over the live session's reports:")
    print(session.statistics().render(top=5))


if __name__ == "__main__":
    main()
