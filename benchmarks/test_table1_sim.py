"""E1-sim — Table 1 analogue on the deterministic simulation kernel.

Same workloads and ratio definition as ``test_table1_overhead`` but on the
virtual-time kernel: no world-stop stalls, so this isolates the pure CPU
cost of recording + checking.  The asserted shape is weaker (ratio > 1;
checking time decreases with T) because without stalls the T-dependent
share of the cost is only the per-checkpoint fixed work.
"""

from __future__ import annotations

import pytest

from repro.bench.overhead import overhead_bench
from repro.workloads import WorkloadSpec

SPEC = WorkloadSpec(processes=4, operations=120, think_time=0.05)


def cell(scenario, interval):
    """One Table-1 cell's registry (a single ``{scenario, interval}``)."""
    return overhead_bench(
        intervals=(interval,),
        scenarios=(scenario,),
        backend="sim",
        spec=SPEC,
        repeats=3,
    )


@pytest.mark.parametrize("scenario", ("coordinator", "allocator", "manager"))
def test_sim_overhead_ratio_positive(benchmark, scenario):
    registry = benchmark.pedantic(
        lambda: cell(scenario, 1.0), rounds=1, iterations=1
    )
    assert registry.value("repro_bench_overhead_ratio") > 1.0
    assert registry.value("repro_bench_base_seconds") > 0


def test_sim_checking_time_decreases_with_interval(benchmark):
    """Fewer checkpoints -> strictly less time inside the checker."""

    def measure():
        return cell("coordinator", 0.25), cell("coordinator", 3.0)

    tight, loose = benchmark.pedantic(measure, rounds=1, iterations=1)
    for name in ("repro_bench_checkpoints", "repro_bench_checking_seconds"):
        assert tight.value(name) > loose.value(name), name
