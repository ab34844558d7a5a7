"""E3 — scaling: one shared session vs per-monitor detection.

Regenerates the acceptance grid (fleet sizes 1/4/16) on the simulation
kernel and asserts the amortisation claims:

* a one-shard session enters exactly one atomic (world-stop) section per
  checking interval regardless of fleet size, while per-monitor
  detection (one session per monitor, the paper's Figure 1) enters one
  per monitor per interval;
* the shared session's checkpoint overhead therefore grows *sublinearly*
  in the number of monitors, where the per-monitor baseline grows
  linearly.
"""

from __future__ import annotations

from statistics import median

import pytest

from repro.bench.engine_scaling import scaling_bench
from repro.workloads import WorkloadSpec

SPEC = WorkloadSpec(processes=2, operations=20, think_time=0.05)


def grid(counts):
    """``{(monitors, mode): {metric: value}}`` for the default grid."""
    registry = scaling_bench(counts=counts, backend="sim", spec=SPEC)
    cells: dict = {}
    for family in registry.collect():
        name = family.name.removeprefix("repro_bench_")
        for labels, child in family.samples():
            if "mode" in labels:
                key = (int(labels["monitors"]), labels["mode"])
                cells.setdefault(key, {})[name] = child.value
    return cells


@pytest.mark.parametrize("monitors", (1, 4, 16))
def test_engine_runs_one_atomic_section_per_interval(benchmark, monitors):
    cells = benchmark.pedantic(
        lambda: grid((monitors,)), rounds=1, iterations=1
    )
    shared = cells[(monitors, "session")]
    assert shared["checkpoints"] > 0
    assert shared["atomic_sections"] == shared["checkpoints"]


def test_detector_sections_scale_linearly_engine_constant(benchmark):
    cells = benchmark.pedantic(
        lambda: grid((1, 4, 16)), rounds=1, iterations=1
    )
    for count in (4, 16):
        per_monitor = cells[(count, "per-monitor")]
        shared = cells[(count, "session")]
        # Linear in the baseline: N sections per interval...
        assert (
            per_monitor["atomic_sections"]
            == count * shared["atomic_sections"]
        )
        # ...constant in the shared session: one section per interval.
        assert shared["atomic_sections"] == shared["checkpoints"]
        assert shared["atomic_sections"] < per_monitor["atomic_sections"]


#: Grids per fleet size in the overhead comparison.
REPEATS = 5


def test_engine_checkpoint_overhead_sublinear(benchmark):
    """Growing the fleet 16x must cost the session < 16x checking time.

    The 1-monitor session checks for only a few milliseconds, so one
    scheduler hiccup can push a single run past the bound.  Each grid
    runs both fleet sizes back to back, so its 16-to-1 ratio pairs
    measurements taken under the same machine load; the bound applies
    to the median ratio over ``REPEATS`` grids.
    """
    grids = benchmark.pedantic(
        lambda: [grid((1, 16)) for __ in range(REPEATS)],
        rounds=1,
        iterations=1,
    )
    ratios = []
    for cells in grids:
        small = cells[(1, "session")]["checking_seconds"]
        assert small > 0
        ratios.append(cells[(16, "session")]["checking_seconds"] / small)
    assert median(ratios) < 16
