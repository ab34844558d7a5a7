"""Golden bytes of the files a durable session writes.

WAL segments, report journals and snapshots are a durable format: a
restarted detector (possibly an older or newer build) reads what the
crashed one wrote.  This test runs a small seeded two-shard durable
session on the sim kernel — a fleet of healthy monitors plus one
misused allocator, so shard 0's report journal holds reports — and
compares the sha256 of every file left under the session's root with
``durable_files_golden.json``.  A change that means to keep the files
byte-identical (a faster encoder, a different write path) must pass it
untouched.

Regenerate the file (only for a deliberate change to a durable format,
and say so in CHANGES.md) from the repository root with::

    PYTHONPATH=src python -m tests.detection.test_durable_files
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.apps import SingleResourceAllocator
from repro.detection import DetectionSession, DetectorConfig
from repro.kernel import Delay, RandomPolicy, SimKernel
from repro.workloads import WorkloadSpec, build_fleet

GOLDEN = Path(__file__).with_name("durable_files_golden.json")
REGENERATE = "PYTHONPATH=src python -m tests.detection.test_durable_files"
SEED = 5


def misuser(allocator):
    """A release with no request (ST-8b), then a well-formed pair and a
    second rogue release."""
    yield Delay(0.3)
    yield from allocator.release()
    yield Delay(0.4)
    yield from allocator.request()
    yield Delay(0.1)
    yield from allocator.release()
    yield Delay(0.3)
    yield from allocator.release()


def write_durable_session(root: Path) -> None:
    """Run the seeded session for a while, retire the misused allocator
    mid-window (its shard snapshots the rest of its fleet, pending events
    included), then stop and close the session."""
    kernel = SimKernel(RandomPolicy(seed=SEED), on_deadlock="stop")
    runs = build_fleet(
        kernel,
        3,
        WorkloadSpec(processes=4, operations=30, think_time=0.05),
        sink_factory=lambda: None,
    )
    allocator = SingleResourceAllocator(kernel, name="misused")
    session = DetectionSession(
        kernel,
        config=DetectorConfig(interval=0.25, tmax=5.0, tio=10.0, tlimit=1.0),
        shards=2,
        durable_dir=root,
    )
    for index, run in enumerate(runs):
        session.register(run.monitor, label=f"{run.name}-{index}")
        run.spawn_all(kernel, prefix=f"{index}-")
    # Beside allocator-0, which is still busy when the run stops.
    session.register(allocator, label="misused", shard=0)
    kernel.spawn(misuser(allocator), "misuser")
    session.start()
    kernel.run(until=2.1)
    kernel.raise_failures()
    session.unregister("misused")
    session.stop()
    session.close()


def file_digests(root: Path) -> dict[str, str]:
    """``{relative path: sha256}`` of every file under ``root``."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_durable_files_match_golden(tmp_path):
    write_durable_session(tmp_path)
    actual = file_digests(tmp_path)
    # The session keeps covering every kind of durable file.
    for shard in ("shard-0", "shard-1"):
        assert any(name.startswith(f"{shard}/wal/") for name in actual)
        assert any(name.startswith(f"{shard}/snapshots/") for name in actual)
    assert (tmp_path / "shard-0" / "reports.jsonl").read_text(encoding="utf-8")
    golden = json.loads(GOLDEN.read_text())
    changed = sorted(
        name for name in golden.keys() | actual.keys()
        if golden.get(name) != actual.get(name)
    )
    assert not changed, (
        f"durable files changed: {changed}; if the change is deliberate, "
        f"regenerate with `{REGENERATE}`"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        write_durable_session(Path(directory))
        document = file_digests(Path(directory))
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(document)} files)", file=sys.stderr)
