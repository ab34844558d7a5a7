"""Differential property: incremental checking == full re-walk, byte for byte.

The incremental hot path (``DetectorConfig(incremental_checking=True)``,
the default) carries each monitor's checking lists across checkpoints so
phase-2 evaluation costs O(new events).  Its contract is that the emitted
report stream is *byte-identical* to the stateless oracle — a fresh replay
machine seeded from ``s_p`` every window
(``incremental_checking=False``).  These tests enforce the contract
differentially: every scenario runs twice on the same scheduling seed,
once per mode, and the two engines' report streams must compare equal —
including under forced sink drops (degraded windows + Algorithm-2
``resync``) and injected faults.

The sim kernel makes the pairing sound: evaluation is pure computation
with no feedback into the schedule, so same seed ⇒ same event stream on
both sides.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BoundedBuffer
from repro.detection import DetectorConfig, supervisor_process
from repro.detection.engine import DetectionEngine
from repro.history import BoundedHistory, HistoryDatabase
from repro.injection import TriggeredHooks
from repro.kernel import RandomPolicy, SimKernel
from repro.workloads.scenarios import WorkloadSpec, build_fleet
from tests.conftest import consumer, producer, supervise


def run_fleet(
    seed: int,
    *,
    incremental: bool,
    count: int = 3,
    sink_factory=None,
    interval: float = 0.5,
    operations: int = 12,
    until: float = 60.0,
):
    """One seeded fleet run: build, detect, finish; return the engine."""
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    config = DetectorConfig(
        interval=interval,
        tmax=100.0,
        tio=100.0,
        tlimit=100.0,
        incremental_checking=incremental,
    )
    engine = DetectionEngine(kernel, config)
    spec = WorkloadSpec(operations=operations, seed=seed)
    fleet = build_fleet(kernel, count, spec, sink_factory=sink_factory)
    for run in fleet:
        engine.register(run.monitor)
        run.spawn_all(kernel)
    kernel.spawn(supervisor_process(supervise(engine)), "engine")
    kernel.run(until=until, max_steps=5_000_000)
    kernel.raise_failures()
    return engine


def run_buffer_with_hooks(
    seed: int, *, incremental: bool, perturbation: str, fire_at: int
):
    """One seeded fault-injected buffer run under the batched engine."""
    kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
    history = HistoryDatabase()
    hooks = TriggeredHooks(perturbation, fire_at=fire_at)
    buffer = BoundedBuffer(
        kernel, capacity=2, history=history, hooks=hooks, service_time=0.03
    )
    hooks.core = buffer.monitor.core
    config = DetectorConfig(
        interval=0.4, tmax=100.0, tio=100.0,
        incremental_checking=incremental,
    )
    engine = DetectionEngine(kernel, config)
    engine.register(buffer)
    for __ in range(2):
        kernel.spawn(producer(buffer, 15, delay=0.04))
        kernel.spawn(consumer(buffer, 15, delay=0.04))
    kernel.spawn(supervisor_process(supervise(engine)), "engine")
    kernel.run(until=120, max_steps=5_000_000)
    kernel.raise_failures()
    return engine, hooks


def assert_equivalent(incremental: DetectionEngine, full: DetectionEngine):
    """The load-bearing comparison: identical report streams and windows."""
    assert incremental.reports == full.reports, (
        f"incremental diverged from the oracle:\n"
        f"  incremental: {[str(r) for r in incremental.reports]}\n"
        f"  oracle:      {[str(r) for r in full.reports]}"
    )
    assert incremental.reports_by_monitor().keys() == (
        full.reports_by_monitor().keys()
    )
    assert incremental.checkpoints_run == full.checkpoints_run
    assert incremental.dropped_events == full.dropped_events
    assert incremental.degraded_windows == full.degraded_windows
    # Mode bookkeeping: the oracle never touches the incremental counters,
    # the incremental engine accounts every window as a hit or a rebase.
    assert full.incremental_hits == 0
    assert full.incremental_rebases == 0
    windows = incremental.evaluations_run
    assert (
        incremental.incremental_hits + incremental.incremental_rebases
        == windows
    )


class TestCleanFleets:
    """Clean multi-monitor fleets: all three scenario/monitor classes."""

    @pytest.mark.parametrize("seed", range(10))
    def test_fleet_reports_match_oracle(self, seed):
        incremental = run_fleet(seed, incremental=True)
        full = run_fleet(seed, incremental=False)
        assert_equivalent(incremental, full)
        # The hot path must actually engage for the test to mean anything.
        assert incremental.incremental_hits > 0

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(1, 4),
        interval=st.floats(0.2, 2.0),
    )
    def test_random_fleet_shapes_match_oracle(self, seed, count, interval):
        incremental = run_fleet(
            seed, incremental=True, count=count, interval=interval
        )
        full = run_fleet(
            seed, incremental=False, count=count, interval=interval
        )
        assert_equivalent(incremental, full)

    def test_idle_tail_takes_the_fast_path(self):
        # Run far past workload completion: the trailing checkpoints see
        # zero new events and verified-unchanged lists.
        incremental = run_fleet(3, incremental=True, until=200.0)
        full = run_fleet(3, incremental=False, until=200.0)
        assert_equivalent(incremental, full)
        assert incremental.incremental_fastpaths > 0


class TestDropsAndResync:
    """Lossy sinks: degraded windows, carried-list invalidation, resync."""

    @pytest.mark.parametrize("seed", range(8))
    def test_bounded_sink_drops_match_oracle(self, seed):
        def tiny_sink():
            return BoundedHistory(6)

        incremental = run_fleet(
            seed, incremental=True, sink_factory=tiny_sink, interval=1.0
        )
        full = run_fleet(
            seed, incremental=False, sink_factory=tiny_sink, interval=1.0
        )
        assert_equivalent(incremental, full)
        # These runs must actually be lossy, and the cumulative-counter
        # checker must have re-based, or the scenario tests nothing.
        assert incremental.dropped_events > 0
        resyncs = sum(
            entry.algorithm2.resyncs
            for entry in incremental.entries
            if entry.algorithm2 is not None
        )
        assert resyncs > 0


# Perturbations whose effects appear in the event sequence itself.
SEQUENCE_VISIBLE = (
    "enter_despite_owner",
    "wait_no_block",
    "fake_resume",
)


class TestInjectedFaults:
    """Fault-injected runs: both modes must report the same violations."""

    @pytest.mark.parametrize(
        "seed,perturbation",
        [(s, p) for s in (1, 2) for p in SEQUENCE_VISIBLE],
    )
    def test_fault_reports_match_oracle(self, seed, perturbation):
        incremental, hooks_a = run_buffer_with_hooks(
            seed, incremental=True, perturbation=perturbation, fire_at=2
        )
        full, hooks_b = run_buffer_with_hooks(
            seed, incremental=False, perturbation=perturbation, fire_at=2
        )
        assert hooks_a.fired == hooks_b.fired
        assert_equivalent(incremental, full)
        if hooks_a.fired:
            assert incremental.reports, (
                f"activated {perturbation} went undetected"
            )
