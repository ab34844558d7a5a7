"""Tests for the benchmark workload scenarios."""

import pytest

from repro.history import HistoryDatabase
from repro.kernel import RandomPolicy, SimKernel
from repro.workloads import SCENARIOS, WorkloadSpec, build_scenario


class TestRegistry:
    def test_three_scenarios_matching_monitor_types(self):
        assert set(SCENARIOS) == {"coordinator", "allocator", "manager"}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("bogus", SimKernel(), None)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestEachScenario:
    def test_runs_clean_without_history(self, name):
        kernel = SimKernel(RandomPolicy(seed=1), on_deadlock="stop")
        spec = WorkloadSpec(processes=4, operations=10)
        run = build_scenario(name, kernel, None, spec)
        assert run.monitor.history is None
        run.spawn_all(kernel)
        result = kernel.run(until=200, max_steps=2_000_000)
        kernel.raise_failures()
        assert result.quiesced

    def test_records_history_when_attached(self, name):
        kernel = SimKernel(RandomPolicy(seed=1), on_deadlock="stop")
        history = HistoryDatabase()
        spec = WorkloadSpec(processes=4, operations=10)
        run = build_scenario(name, kernel, history, spec)
        run.spawn_all(kernel)
        kernel.run(until=200, max_steps=2_000_000)
        kernel.raise_failures()
        # every operation produces at least an Enter and an exit event
        assert history.total_recorded >= spec.total_operations

    def test_deterministic_given_seed(self, name):
        def run_once():
            kernel = SimKernel(RandomPolicy(seed=5), on_deadlock="stop")
            history = HistoryDatabase(retain_full_trace=True)
            spec = WorkloadSpec(processes=4, operations=8)
            run = build_scenario(name, kernel, history, spec)
            run.spawn_all(kernel)
            kernel.run(until=200, max_steps=2_000_000)
            kernel.raise_failures()
            return [
                (e.kind.value, e.pid, e.pname, e.flag)
                for e in history.full_trace
            ]

        assert run_once() == run_once()


class TestSpec:
    def test_total_operations(self):
        assert WorkloadSpec(processes=4, operations=25).total_operations == 100


class TestFleet:
    def test_builds_count_instances_round_robin(self):
        from repro.workloads import build_fleet

        kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
        fleet = build_fleet(kernel, 7, WorkloadSpec(processes=2, operations=2))
        assert len(fleet) == 7
        names = [run.name for run in fleet]
        # all three scenario types are represented, cycling
        assert names[:3] == sorted(SCENARIOS)
        assert names[3:6] == sorted(SCENARIOS)
        # every instance has its own monitor and its own sink
        monitors = {id(run.monitor) for run in fleet}
        sinks = {id(run.monitor.history) for run in fleet}
        assert len(monitors) == len(sinks) == 7

    def test_sink_factory_and_validation(self):
        from repro.history import BoundedHistory
        from repro.workloads import build_fleet

        kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
        fleet = build_fleet(
            kernel, 2, sink_factory=lambda: BoundedHistory(capacity=16)
        )
        assert all(isinstance(run.monitor.history, BoundedHistory) for run in fleet)
        with pytest.raises(ValueError):
            build_fleet(kernel, 0)
        with pytest.raises(ValueError):
            build_fleet(kernel, 2, names=["nope"])

    def test_fleet_runs_under_one_engine(self):
        from repro.detection import (
            DetectionEngine,
            DetectorConfig,
            supervisor_process,
        )
        from repro.workloads import build_fleet
        from tests.conftest import supervise

        kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
        spec = WorkloadSpec(processes=2, operations=4)
        fleet = build_fleet(kernel, 4, spec)
        engine = DetectionEngine(
            kernel, DetectorConfig(interval=0.5, tmax=60.0, tio=60.0, tlimit=60.0)
        )
        for run in fleet:
            engine.register(run.monitor)
        for index, run in enumerate(fleet):
            run.spawn_all(kernel, prefix=f"m{index}-")
        kernel.spawn(supervisor_process(supervise(engine)), "engine")
        kernel.run(until=30, max_steps=2_000_000)
        kernel.raise_failures()
        assert engine.clean
        assert engine.checkpoints_run > 0
        assert engine.atomic_sections == engine.checkpoints_run
