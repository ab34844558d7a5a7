"""Offline FD-rule checking over a complete retained trace (Section 3.2).

The FD-Rules characterise a valid scheduling sequence from the very first
event.  This checker replays an *entire* trace (requires a history database
constructed with ``retain_full_trace=True``) through the same machinery as
the windowed algorithms, starting from the empty initial state, and reports
violations under FD-Rule identifiers.

It exists for three reasons:

1. it is the paper's Section 3.2 formulation, before the space
   optimisation;
2. it is the ground truth for the A1 ablation (windowed ST checking must
   agree with full-trace FD checking on every injected fault);
3. property-based tests use it to establish "no false positives on
   fault-free schedules" independently of checkpoint placement.
"""

from __future__ import annotations

from typing import Optional

from repro.detection.algorithm3 import CallingOrderChecker
from repro.detection.replay import ReplayMachine
from repro.detection.reports import FaultReport
from repro.detection.rules import FDRule, STRule
from repro.history.events import EventKind, SchedulingEvent
from repro.history.states import SchedulingState
from repro.monitor.declaration import MonitorDeclaration

__all__ = ["check_full_trace", "ST_TO_FD"]

#: Read once: on CPython 3.11 every ``EventKind.X`` read goes through the
#: Enum metaclass's ``__getattr__`` hook.
_WAIT = EventKind.WAIT

#: Translation from the replay machine's ST identifiers to the FD-Rules
#: they realise.  ST-4 is split by queue kind inside ``_translate``.
ST_TO_FD: dict[STRule, FDRule] = {
    STRule.ONE_INSIDE: FDRule.MUTUAL_EXCLUSION_ENTER,
    STRule.ENTER_TAKES_FREE_MONITOR: FDRule.MUTUAL_EXCLUSION_ENTER,
    STRule.BLOCKED_MEANS_BUSY: FDRule.FAIR_RESPONSE,
    STRule.CALLER_IS_RUNNING: FDRule.ENTER_OBSERVED,
    STRule.SIGNAL_CONSISTENT: FDRule.MUTUAL_EXCLUSION_SIGNAL,
    STRule.ENTRY_QUEUE_MATCHES: FDRule.MUTUAL_EXCLUSION_RELEASE,
    STRule.COND_QUEUE_MATCHES: FDRule.MUTUAL_EXCLUSION_SIGNAL,
    STRule.RUNNING_MATCHES: FDRule.MUTUAL_EXCLUSION_ENTER,
    STRule.TMAX_EXCEEDED: FDRule.NONTERMINATION,
    STRule.TIO_EXCEEDED: FDRule.NO_STARVATION,
    STRule.RESOURCE_INVARIANT: FDRule.RESOURCE_INVARIANT,
    STRule.RESOURCE_DELTA_MATCHES: FDRule.RESOURCE_INVARIANT,
    STRule.SEND_WAIT_CONSISTENT: FDRule.SEND_WAIT_CONSISTENT,
    STRule.RECEIVE_WAIT_CONSISTENT: FDRule.RECEIVE_WAIT_CONSISTENT,
    STRule.NO_DUPLICATE_REQUEST: FDRule.ACQUIRE_THEN_RELEASE,
    STRule.RELEASE_REQUIRES_REQUEST: FDRule.RELEASE_AFTER_ACQUIRE,
    STRule.REQUEST_NOT_RELEASED: FDRule.ACQUIRE_THEN_RELEASE,
    STRule.CALL_ORDER_VIOLATED: FDRule.ACQUIRE_THEN_RELEASE,
    STRule.WAIT_FOR_CYCLE: FDRule.ACQUIRE_THEN_RELEASE,
}


def _translate(report: FaultReport) -> FaultReport:
    rule = report.rule
    if isinstance(rule, FDRule):
        return report
    if rule is STRule.EVENT_WHILE_BLOCKED:
        fd = (
            FDRule.CORRECT_SYNC_ENTRY
            if "Enter-0-List" in report.message
            else FDRule.CORRECT_SYNC_COND
        )
    else:
        fd = ST_TO_FD[rule]
    return FaultReport(
        rule=fd,
        message=report.message,
        monitor=report.monitor,
        detected_at=report.detected_at,
        pids=report.pids,
        event_seq=report.event_seq,
        window_start=report.window_start,
    )


def empty_initial_state(
    declaration: MonitorDeclaration, time: float = 0.0
) -> SchedulingState:
    """The scheduling state of a freshly created monitor."""
    return SchedulingState(
        time=time,
        entry_queue=(),
        cond_queues={cond: () for cond in declaration.conditions},
        running=(),
        resource_count=declaration.rmax,
    )


def check_full_trace(
    declaration: MonitorDeclaration,
    trace: tuple[SchedulingEvent, ...],
    *,
    final_state: Optional[SchedulingState] = None,
    tmax: Optional[float] = None,
    tio: Optional[float] = None,
    tlimit: Optional[float] = None,
) -> list[FaultReport]:
    """Check a complete event sequence against FD-Rules 1–7.

    ``final_state`` enables the end-of-trace comparison with the actual
    queues (FD-Rules 1b/1c); timer bounds enable FD-2 / FD-4 sweeps at the
    final instant; ``tlimit`` enables the FD-7 resource-holding sweep.
    """
    machine = ReplayMachine(declaration, empty_initial_state(declaration))
    machine.replay(trace)
    end_time = trace[-1].time if trace else 0.0
    if final_state is not None:
        machine.compare_with(final_state, tmax=tmax, tio=tio)
    else:
        # No actual state available: synthesise one from the model so the
        # queue comparisons are vacuous but the timer sweeps still run.
        synthetic = SchedulingState(
            time=end_time,
            entry_queue=tuple(machine.enter0),
            cond_queues={c: tuple(q) for c, q in machine.wait_cond.items()},
            running=tuple(machine.running),
            urgent=tuple(machine.urgent),
        )
        machine.compare_with(synthetic, tmax=tmax, tio=tio)
    reports = [_translate(report) for report in machine.violations]

    # FD-Rule 6: resource-state consistency (cumulative, from zero).
    if declaration.mtype.needs_resource_checking and declaration.rmax:
        reports.extend(_check_resources(declaration, trace))

    # FD-Rule 7: calling orders over the whole trace.
    if declaration.mtype.needs_order_checking or declaration.call_order:
        order = CallingOrderChecker(declaration)
        order_reports: list[FaultReport] = []
        for event in trace:
            order_reports.extend(order.on_event(event))
        if tlimit is not None:
            order_reports.extend(order.periodic(end_time, tlimit))
        reports.extend(_translate(report) for report in order_reports)
    return reports


def _check_resources(
    declaration: MonitorDeclaration, trace: tuple[SchedulingEvent, ...]
) -> list[FaultReport]:
    """Cumulative FD-6 evaluation: r/s counters and R# from first principles."""
    rmax = declaration.rmax
    assert rmax is not None
    sends = 0
    receives = 0
    reports: list[FaultReport] = []

    def report(rule: FDRule, message: str, event: SchedulingEvent) -> None:
        reports.append(
            FaultReport(
                rule=rule,
                message=message,
                monitor=declaration.name,
                detected_at=event.time,
                pids=(event.pid,),
                event_seq=event.seq,
            )
        )

    from repro.detection.algorithm2 import completion_event_kind

    completion = completion_event_kind(declaration.discipline)
    for event in trace:
        resource = rmax - (sends - receives)  # R# = Rmax - outstanding items
        if event.kind is completion:
            if event.pname == "Send":
                sends += 1
            elif event.pname == "Receive":
                receives += 1
            else:
                continue
            if not 0 <= receives <= sends <= receives + rmax:
                report(
                    FDRule.RESOURCE_INVARIANT,
                    f"after {event.pname} by P{event.pid}: r={receives}, "
                    f"s={sends}, Rmax={rmax} violates 0 <= r <= s <= r+Rmax",
                    event,
                )
        elif event.kind is _WAIT:
            if event.pname == "Send" and event.cond == "full":
                if resource != 0:
                    report(
                        FDRule.SEND_WAIT_CONSISTENT,
                        f"Wait(Send, full) by P{event.pid} with R#={resource}",
                        event,
                    )
            elif event.pname == "Receive" and event.cond == "empty":
                if resource != rmax:
                    report(
                        FDRule.RECEIVE_WAIT_CONSISTENT,
                        f"Wait(Receive, empty) by P{event.pid} with "
                        f"R#={resource}",
                        event,
                    )
    return reports
