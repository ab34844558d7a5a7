"""Golden per-layer counts of a five-iteration traced perfbench run.

``python3 perfbench/run.py --workload all --seed 1 --seconds 0.001
--trace 1`` runs exactly the minimum five iterations of every workload,
so its counted metrics read the same on every run of one tree: calls per
layer (``kernel.atomic_calls``, ``engine.windows_evaluated``, ...), bytes
(``durability.snapshot_bytes``, ``history.wal_bytes_per_event``,
``wire.bytes_per_event``), shares (``engine.incremental_hit_ratio``) and
``observability.series``.  A change that means to do the same work and
write the same bytes, however fast, must pass this test untouched.  The
timed metrics are left out, and so is ``trace.coverage``, which is a
share of time.

Regenerate the golden (only for a change that moves a count on purpose,
and say so in CHANGES.md) from the repository root with::

    PYTHONPATH=src python -m tests.test_perfbench_counts
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("perfbench_counts_golden.json")
REGENERATE = "PYTHONPATH=src python -m tests.test_perfbench_counts"
COMMAND = (
    "perfbench/run.py", "--workload", "all", "--seed", "1",
    "--seconds", "0.001", "--trace", "1",
)
WORKLOADS = ("table1", "durable-fleet", "remote")
#: The units of the metrics that count work or bytes.
COUNTED_UNITS = frozenset({"count", "count/iter", "B", "B/iter", "share"})
#: Counted by unit, but a share of time.
TIMED = frozenset({"trace.coverage"})


def traced_counts(directory: Path) -> dict:
    """``{"<workload> <metric>": value}`` of one run's counted metrics,
    ``correct`` and ``failed`` among them, with ``directory`` as its
    working directory (perfbench writes its span dumps there)."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / COMMAND[0]), *COMMAND[1:]],
        cwd=directory,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    results = [
        json.loads(line)
        for line in completed.stdout.splitlines()
        if line.startswith("{")
    ]
    assert len(results) == len(WORKLOADS), completed.stdout
    counts: dict = {}
    for workload, result in zip(WORKLOADS, results):
        counts[f"{workload} correct"] = result["correct"]
        counts[f"{workload} failed"] = result["failed"]
        for name, metric in result["metrics"].items():
            if metric["unit"] in COUNTED_UNITS and name not in TIMED:
                counts[f"{workload} {name}"] = metric["value"]
    return counts


def test_traced_counts_match_golden(tmp_path):
    actual = traced_counts(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = sorted(
        f"{key}: {golden.get(key)!r} -> {actual.get(key)!r}"
        for key in golden.keys() | actual.keys()
        if golden.get(key) != actual.get(key)
    )
    assert not changed, (
        f"perfbench counts changed: {changed}; if the change is "
        f"deliberate, regenerate with `{REGENERATE}`"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        document = traced_counts(Path(directory))
    GOLDEN.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
