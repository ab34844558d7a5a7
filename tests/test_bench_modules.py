"""Tests for the benchmark harness modules themselves."""

import pytest

from repro._tables import render_table
from repro.bench.coverage import coverage_table, run_coverage
from repro.bench.harness import render_registry
from repro.bench.overhead import fleet_bench, overhead_bench, table1_pivot
from repro.observability.export import to_json_dict
from repro.workloads import WorkloadSpec

FAST_SPEC = WorkloadSpec(processes=2, operations=10, think_time=0.05)


def cells(registry, name):
    """``{label-values: value}`` for one bench gauge family."""
    family = registry.get(f"repro_bench_{name}")
    return {
        tuple(labels.values()): child.value
        for labels, child in family.samples()
    }


class TestTables:
    def test_render_alignment(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["longer-name", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_render_without_title(self):
        text = render_table(["x"], [["1"]])
        assert text.splitlines()[0] == "x"


class TestOverheadHarness:
    def test_measure_produces_consistent_row(self):
        registry = overhead_bench(
            intervals=(1.0,),
            scenarios=("coordinator",),
            backend="sim",
            spec=FAST_SPEC,
            repeats=1,
        )
        cell = {"scenario": "coordinator", "interval": "1"}

        def value(name):
            return registry.value(f"repro_bench_{name}", cell)

        assert value("base_seconds") > 0
        assert value("extended_seconds") > 0
        assert value("events") > 0
        assert value("overhead_ratio") == pytest.approx(
            (value("extended_seconds") + value("checking_seconds"))
            / value("base_seconds")
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            overhead_bench(intervals=(1.0,), backend="quantum", repeats=1)

    def test_grid_covers_all_cells(self):
        registry = overhead_bench(
            intervals=(1.0,),
            scenarios=("coordinator", "manager"),
            backend="sim",
            spec=FAST_SPEC,
            repeats=1,
        )
        assert set(cells(registry, "overhead_ratio")) == {
            ("coordinator", "1"),
            ("manager", "1"),
        }

    def test_render_layout(self):
        registry = overhead_bench(
            intervals=(1.0,),
            scenarios=("coordinator",),
            backend="sim",
            spec=FAST_SPEC,
            repeats=1,
        )
        text = table1_pivot(registry)
        assert "Table 1" in text
        assert "coordinator" in text
        assert "T=1s" in text
        detail = render_registry(registry, title="overhead")
        assert "overhead_ratio" in detail and "coordinator" in detail


class TestFleetHarness:
    @pytest.fixture(scope="class")
    def registry(self):
        return fleet_bench(2, backend="sim", spec=FAST_SPEC, repeats=1)

    def test_paired_rows_same_workload(self, registry):
        events = cells(registry, "events")
        assert set(events) == {("incremental",), ("full",)}
        # Identical seeded workload and checkpoint schedule on both sides.
        assert events[("incremental",)] == events[("full",)]
        checkpoints = cells(registry, "checkpoints")
        assert len(set(checkpoints.values())) == 1
        assert events[("incremental",)] > 0
        assert cells(registry, "evaluate_seconds")[("incremental",)] > 0

    def test_mode_counters(self, registry):
        hits = cells(registry, "incremental_hits")
        assert hits[("incremental",)] > 0
        assert hits[("full",)] == 0
        assert cells(registry, "incremental_rebases")[("full",)] == 0
        assert cells(registry, "staged_flushes")[("incremental",)] > 0

    def test_render_and_json(self, registry):
        text = render_registry(registry, title="overhead-fleet")
        assert "incremental" in text and "full" in text
        modes = {
            entry["labels"]["mode"]
            for entry in to_json_dict(registry)["metrics"]
            if entry["name"] == "repro_bench_evaluate_seconds"
        }
        assert modes == {"incremental", "full"}


class TestCoverageHarness:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return run_coverage(seed=0)

    def test_all_classes_present(self, outcomes):
        from repro.detection import FaultClass

        assert set(outcomes) == set(FaultClass)

    def test_table_renders_each_class(self, outcomes):
        text = coverage_table(outcomes)
        assert "I.a.1" in text
        assert "III.c" in text
        assert "21/21" in text


class TestAblationsHarness:
    def test_st_vs_fd_table(self):
        from repro.bench.ablations import ablation_st_vs_fd

        text = ablation_st_vs_fd()
        assert "verdicts agree" in text
        assert "NO" not in text.splitlines()[2]  # clean row agrees

    def test_pruning_table(self):
        from repro.bench.ablations import ablation_pruning

        text = ablation_pruning(sizes=(30, 60))
        assert "pruned window peak" in text

    def test_interval_accuracy_table(self):
        from repro.bench.ablations import ablation_interval_accuracy

        text = ablation_interval_accuracy(intervals=(0.5, 2.0))
        assert "detection latency" in text
        assert "nan" not in text


class TestTableValidation:
    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row 0"):
            render_table(["a", "b"], [["only-one"]])


class TestScalingHarness:
    def test_thread_kernel_fleet_reports_nothing(self):
        from repro.bench.engine_scaling import (
            QUICK_SCALING_SPEC,
            scaling_bench,
        )

        # Thread-kernel processes run from spawn: a monitor registered
        # after its workload started would miss early events and report.
        registry = scaling_bench(
            counts=(16,),
            shards=(1, 4),
            backend="threads",
            spec=QUICK_SCALING_SPEC,
        )
        assert cells(registry, "reports") == {
            ("16", "session", "1"): 0,
            ("16", "session", "4"): 0,
        }
