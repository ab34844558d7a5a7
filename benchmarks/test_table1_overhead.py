"""E1 — Table 1: detection overhead vs checking interval (thread kernel).

The paper reports overhead ratios (augmented / plain monitor-operation
time) of roughly 7.4–7.6 at T = 0.5 s falling to 4.0–4.2 at T = 3.0 s,
similar across the three monitor types.  The reproduced *shape*:

* every ratio is > 1 (the extension is never free), and
* the endpoint ratio at T = 0.5 s exceeds the ratio at T = 3.0 s
  (aggregated across monitor types — more frequent checking costs more).

Absolute magnitudes differ from the 2001 JVM prototype; EXPERIMENTS.md
records the measured grid next to the paper's numbers.
"""

from __future__ import annotations

import pytest

from repro.bench.overhead import overhead_bench
from repro.workloads import WorkloadSpec

#: Smaller than the CLI harness so the suite stays quick; the shape is
#: robust at this size.
SPEC = WorkloadSpec(processes=4, operations=80, think_time=0.05)
SCENARIOS = ("coordinator", "allocator", "manager")
ENDPOINTS = (0.5, 3.0)


def cell(scenario, interval, repeats):
    """One Table-1 cell's registry (a single ``{scenario, interval}``)."""
    return overhead_bench(
        intervals=(interval,),
        scenarios=(scenario,),
        backend="threads",
        spec=SPEC,
        repeats=repeats,
    )


@pytest.fixture(scope="module")
def ratio_grid():
    return {
        (scenario, interval): cell(scenario, interval, 3).value(
            "repro_bench_overhead_ratio"
        )
        for scenario in SCENARIOS
        for interval in ENDPOINTS
    }


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("interval", ENDPOINTS)
def test_overhead_cell(benchmark, scenario, interval):
    """Benchmark one Table-1 cell and assert the extension costs > 1x."""
    registry = benchmark.pedantic(
        lambda: cell(scenario, interval, 1), rounds=1, iterations=1
    )
    ratio = registry.value("repro_bench_overhead_ratio")
    assert ratio > 1.0, (
        f"{scenario} @ T={interval}: extension measured cheaper than the "
        f"plain construct (ratio={ratio:.3f})"
    )
    assert registry.value("repro_bench_events") > 0
    assert registry.value("repro_bench_checkpoints") > 0


def test_overhead_decreases_with_interval(benchmark, ratio_grid):
    """The paper's headline trend: larger T, lower overhead."""

    def aggregate():
        tight = sum(ratio_grid[(s, 0.5)] for s in SCENARIOS) / len(SCENARIOS)
        loose = sum(ratio_grid[(s, 3.0)] for s in SCENARIOS) / len(SCENARIOS)
        return tight, loose

    tight, loose = benchmark.pedantic(aggregate, rounds=1, iterations=1)
    assert tight > loose, (
        f"expected overhead at T=0.5s ({tight:.3f}) to exceed overhead at "
        f"T=3.0s ({loose:.3f})"
    )
    assert tight > 1.0 and loose > 1.0
