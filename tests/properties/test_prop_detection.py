"""Property-based tests of the detection machinery on live workloads.

The two load-bearing properties of the paper's approach:

* **Soundness (no false positives):** on a *fault-free* execution, no rule
  fires — for any workload shape, scheduling seed and checking interval.
* **ST/FD agreement:** the windowed checkpoint checker and the offline
  full-trace FD checker agree on whether an injected implementation-level
  fault occurred.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BoundedBuffer, SingleResourceAllocator
from repro.detection import (
    DetectionSession,
    DetectorConfig,
    check_full_trace,
)
from repro.history import HistoryDatabase
from repro.injection import TriggeredHooks
from repro.kernel import Delay, RandomPolicy, SimKernel
from tests.conftest import consumer, producer


def run_buffer(
    *,
    seed: int,
    producers: int,
    consumers_n: int,
    capacity: int,
    items: int,
    interval: float,
    service: float,
    hooks=None,
):
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    history = HistoryDatabase(retain_full_trace=True)
    buffer = BoundedBuffer(
        kernel,
        capacity=capacity,
        history=history,
        hooks=hooks,
        service_time=service,
    )
    if hooks is not None:
        hooks.core = buffer.monitor.core
    detector = DetectionSession(
        kernel,
        monitors=[buffer],
        config=DetectorConfig(interval=interval, tmax=100.0, tio=100.0),
    )
    for __ in range(producers):
        kernel.spawn(producer(buffer, items, delay=0.04))
    for __ in range(consumers_n):
        kernel.spawn(consumer(buffer, items, delay=0.04))
    detector.start()
    kernel.run(until=120, max_steps=5_000_000)
    return kernel, buffer, history, detector


class TestNoFalsePositives:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        pairs=st.integers(1, 3),
        capacity=st.integers(1, 6),
        interval=st.floats(0.1, 3.0),
        service=st.sampled_from([0.0, 0.01, 0.05]),
    )
    def test_clean_buffer_runs_are_report_free(
        self, seed, pairs, capacity, interval, service
    ):
        kernel, buffer, history, detector = run_buffer(
            seed=seed,
            producers=pairs,
            consumers_n=pairs,
            capacity=capacity,
            items=12,
            interval=interval,
            service=service,
        )
        kernel.raise_failures()
        assert detector.clean, [str(r) for r in detector.reports]
        fd_reports = check_full_trace(
            buffer.declaration,
            history.full_trace,
            final_state=buffer.snapshot(),
            tmax=100.0,
            tio=100.0,
        )
        assert fd_reports == []

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), users=st.integers(2, 5))
    def test_clean_allocator_runs_are_report_free(self, seed, users):
        kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
        history = HistoryDatabase(retain_full_trace=True)
        allocator = SingleResourceAllocator(kernel, history=history)
        detector = DetectionSession(
            kernel,
            monitors=[allocator],
            config=DetectorConfig(interval=0.5, tlimit=100.0),
        )

        def user(i):
            for __ in range(4):
                yield Delay(0.03 * (i + 1))
                yield from allocator.request()
                yield Delay(0.08)
                yield from allocator.release()

        for i in range(users):
            kernel.spawn(user(i))
        detector.start()
        kernel.run(until=120)
        kernel.raise_failures()
        assert detector.clean, [str(r) for r in detector.reports]
        fd_reports = check_full_trace(
            allocator.declaration,
            history.full_trace,
            final_state=allocator.snapshot(),
            tlimit=100.0,
        )
        assert fd_reports == []


# Perturbations whose effects are visible in the event sequence itself (as
# opposed to requiring timer sweeps), so both checkers must notice them.
SEQUENCE_VISIBLE = (
    "enter_despite_owner",
    "wait_no_block",
    "fake_resume",
    "hold_monitor_on_exit",
)


class TestStFdAgreement:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 5_000),
        perturbation=st.sampled_from(SEQUENCE_VISIBLE),
        fire_at=st.integers(1, 3),
    )
    def test_windowed_and_offline_checkers_agree(
        self, seed, perturbation, fire_at
    ):
        hooks = TriggeredHooks(perturbation, fire_at=fire_at)
        kernel, buffer, history, detector = run_buffer(
            seed=seed,
            producers=2,
            consumers_n=2,
            capacity=2,
            items=15,
            interval=0.4,
            service=0.03,
            hooks=hooks,
        )
        if hooks.fired == 0:
            return  # the perturbation found no opportunity under this seed
        fd_reports = check_full_trace(
            buffer.declaration,
            history.full_trace,
            final_state=buffer.snapshot(),
            tmax=100.0,
            tio=100.0,
        )
        st_found = not detector.clean
        fd_found = bool(fd_reports)
        assert st_found == fd_found
        assert st_found, (
            f"activated {perturbation} went undetected "
            f"(events={history.total_recorded})"
        )
