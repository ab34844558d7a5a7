"""Ablation harness (experiments A1, A2, A3 of DESIGN.md).

``python -m repro ablations`` runs all three and prints their tables;
the asserted versions live in ``benchmarks/test_ablation_*.py``.

* **A1 — ST vs FD checking:** verdict agreement between the windowed
  checkpoint checker and the offline full-trace checker, plus the memory
  saving of pruning.
* **A2 — interval vs accuracy:** detection latency of a known-time fault
  as a function of the checking period T.
* **A3 — pruning:** live-window memory stays flat as the run grows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro._tables import render_table
from repro.apps.bounded_buffer import BoundedBuffer
from repro.detection.config import DetectorConfig
from repro.detection.session import DetectionSession
from repro.detection.fd_rules import check_full_trace
from repro.history.database import HistoryDatabase
from repro.injection.hooks import TriggeredHooks
from repro.kernel.policies import RandomPolicy
from repro.kernel.sim import SimKernel
from repro.kernel.syscalls import Delay

__all__ = [
    "ablation_st_vs_fd",
    "ablation_interval_accuracy",
    "ablation_pruning",
]


def _buffer_run(
    *,
    hooks: Optional[TriggeredHooks] = None,
    items: int = 60,
    interval: float = 0.5,
    retain: bool = True,
    seed: int = 0,
):
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    history = HistoryDatabase(retain_full_trace=retain)
    buffer = BoundedBuffer(
        kernel, capacity=3, history=history, hooks=hooks, service_time=0.02
    )
    if hooks is not None:
        hooks.core = buffer.monitor.core
    session = DetectionSession(
        kernel,
        monitors=[buffer],
        config=DetectorConfig(interval=interval, tmax=100.0, tio=100.0),
    )

    def producer():
        for item in range(items):
            yield Delay(0.03)
            yield from buffer.send(item)

    def consumer():
        for __ in range(items):
            yield Delay(0.03)
            yield from buffer.receive()

    for __ in range(2):
        kernel.spawn(producer())
        kernel.spawn(consumer())
    session.start()
    kernel.run(until=500, max_steps=5_000_000)
    return buffer, history, session


# ----------------------------------------------------------------------- A1


def ablation_st_vs_fd() -> str:
    rows = []
    for label, hooks in (
        ("clean", None),
        ("faulty (I.a.1)", TriggeredHooks("enter_despite_owner", fire_at=2)),
    ):
        buffer, history, session = _buffer_run(hooks=hooks)
        fd_reports = check_full_trace(
            buffer.declaration,
            history.full_trace,
            final_state=buffer.snapshot(),
            tmax=100.0,
            tio=100.0,
        )
        rows.append(
            [
                label,
                len(session.reports),
                len(fd_reports),
                "yes" if bool(session.reports) == bool(fd_reports) else "NO",
                history.peak_live_events,
                history.total_recorded,
            ]
        )
    return render_table(
        ["run", "ST reports", "FD reports", "verdicts agree",
         "window peak", "total events"],
        rows,
        title="A1: windowed ST checking vs offline FD checking",
    )


# ----------------------------------------------------------------------- A2

_INJECTION_TIME = 1.0
_TMAX = 0.5


def _detection_latency(interval: float) -> float:
    kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
    buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
    session = DetectionSession(
        kernel,
        monitors=[buffer],
        config=DetectorConfig(interval=interval, tmax=_TMAX, tio=100.0),
    )

    def saboteur():
        yield Delay(_INJECTION_TIME)
        yield from buffer.monitor.enter("Send")
        # terminates inside (fault I.c.4)

    def ticker():
        yield Delay(60.0)

    kernel.spawn(saboteur(), "saboteur")
    kernel.spawn(ticker(), "ticker")
    session.start()
    kernel.run(until=40.0)
    if not session.reports:
        return float("nan")
    first = min(report.detected_at for report in session.reports)
    return first - (_INJECTION_TIME + _TMAX)


def ablation_interval_accuracy(
    intervals: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> str:
    rows = [
        [f"{interval:g}", f"{_detection_latency(interval):.3f}"]
        for interval in intervals
    ]
    return render_table(
        ["checking interval T", "detection latency past earliest"],
        rows,
        title="A2: checking interval vs detection latency (fault I.c.4)",
    )


# ----------------------------------------------------------------------- A3


def ablation_pruning(sizes: Sequence[int] = (50, 100, 200)) -> str:
    rows = []
    for items in sizes:
        __, pruned, __d = _buffer_run(items=items, retain=False)
        __, retained, __d = _buffer_run(items=items, retain=True)
        rows.append(
            [
                items,
                pruned.total_recorded,
                pruned.peak_live_events,
                len(retained.full_trace),
            ]
        )
    return render_table(
        ["items/process", "events recorded", "pruned window peak",
         "retained trace size"],
        rows,
        title="A3: pruning keeps live memory flat as the run grows",
    )
