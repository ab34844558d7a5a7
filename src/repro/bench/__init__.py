"""Benchmark harnesses regenerating the paper's evaluation artefacts.

Every bench is a function that builds its detection stack through
:class:`~repro.detection.session.DetectionSession` and returns a
:class:`~repro.observability.registry.MetricsRegistry` of
``repro_bench_*`` gauges (see :mod:`repro.bench.harness`); the CLI
renders and exports only that registry.  Run them through
``python -m repro``:

* :mod:`repro.bench.overhead` — experiment E1, ``repro overhead``:
  Table 1, the overhead ratio of the augmented monitor versus the plain
  construct as a function of the checking interval, across the three
  monitor types (``--wal`` and ``--fleet`` select the WAL-cost and
  hot-path modes).
* :mod:`repro.bench.engine_scaling` — experiment E3, ``repro scaling``:
  per-monitor detection versus one shared session at fleet sizes 1/4/16,
  and shard counts (``--shards``).
* :mod:`repro.bench.service_bench` — ``repro overhead --service``:
  detection-service ingest throughput.
* :mod:`repro.bench.coverage` — experiment E2, ``repro coverage``: the
  robustness result ("all injected faults are detected").
* :mod:`repro.bench.ablations` — ablations A1–A3, ``repro ablations``.
"""

from repro.bench.coverage import coverage_table, run_coverage
from repro.bench.engine_scaling import scaling_bench
from repro.bench.harness import render_registry
from repro.bench.overhead import (
    fleet_bench,
    overhead_bench,
    table1_pivot,
    wal_bench,
)

__all__ = [
    "coverage_table",
    "fleet_bench",
    "overhead_bench",
    "render_registry",
    "run_coverage",
    "scaling_bench",
    "table1_pivot",
    "wal_bench",
]
