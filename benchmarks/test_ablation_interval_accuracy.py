"""A2 — ablation: checking interval vs detection latency.

Section 3.3: "Although this post-checking is less accurate ... by properly
defining the checking frequency T, the checking can be made more accurate.
When T = 1, the checking becomes real-time."

Reproduced: a fault injected at a known instant is reported within one
checking period, so the measured detection latency grows with T.
"""

from __future__ import annotations

import pytest

from repro.apps import BoundedBuffer
from repro.detection import DetectionSession, DetectorConfig
from repro.history import HistoryDatabase
from repro.kernel import Delay, RandomPolicy, SimKernel

#: The saboteur wedges the monitor at this instant (terminates inside).
INJECTION_TIME = 1.0
TMAX = 0.5


def detection_latency(interval: float) -> float:
    kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
    buffer = BoundedBuffer(kernel, capacity=2, history=HistoryDatabase())
    detector = DetectionSession(
        kernel,
        monitors=[buffer],
        config=DetectorConfig(interval=interval, tmax=TMAX, tio=100.0),
    )

    def saboteur():
        yield Delay(INJECTION_TIME)
        yield from buffer.monitor.enter("Send")
        # terminates inside: fault I.c.4

    def ticker():
        yield Delay(60.0)

    kernel.spawn(saboteur(), "saboteur")
    kernel.spawn(ticker(), "ticker")
    detector.start()
    kernel.run(until=40.0)
    assert detector.reports, f"fault undetected at interval {interval}"
    first = min(report.detected_at for report in detector.reports)
    return first - (INJECTION_TIME + TMAX)  # latency past earliest possible


@pytest.mark.parametrize("interval", (0.25, 1.0, 4.0))
def test_fault_detected_within_one_period(benchmark, interval):
    latency = benchmark.pedantic(
        lambda: detection_latency(interval), rounds=1, iterations=1
    )
    assert 0 <= latency <= interval + 1e-9, (
        f"latency {latency:.3f} exceeds one checking period {interval}"
    )


def test_latency_grows_with_interval(benchmark):
    def sweep():
        return [detection_latency(interval) for interval in (0.25, 4.0)]

    tight, loose = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert loose > tight
