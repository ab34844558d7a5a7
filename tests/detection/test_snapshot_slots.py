"""Snapshot slot files are opened once per store and held until close.

A :class:`SnapshotStore` opens each of its four slot files at the slot's
first write and keeps it open; ``DurableEngine.close()`` (and so
``DetectionSession.close()``) releases them, and a store dropped without
``close()`` releases them when it is collected.  The tests read the
process's descriptors from ``/proc/self/fd``.
"""

import gc
import os
import random
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.apps import SingleResourceAllocator
from repro.detection import DetectionSession, DetectorConfig, SnapshotStore
from repro.detection.durability import SNAPSHOT_SLOTS
from repro.injection import CrashPoint
from repro.injection.chaos import SimulatedCrash, _CrashContext
from repro.kernel import RandomPolicy, SimKernel, ThreadKernel
from tests.detection.test_durability import build_durable, run_with_misuse

FD_DIR = Path("/proc/self/fd")

pytestmark = pytest.mark.skipif(
    not FD_DIR.is_dir(), reason="counts descriptors through /proc/self/fd"
)


def held_under(directory) -> set[int]:
    """The descriptors this process holds on files under ``directory``."""
    root = str(Path(directory).resolve()) + os.sep
    held = set()
    for name in os.listdir(FD_DIR):
        try:
            target = os.readlink(FD_DIR / name)
        except OSError:
            continue  # the descriptor that listed the directory
        if target.startswith(root):
            held.add(int(name))
    return held


def snapshots_of(root) -> Path:
    return Path(root) / "shard-0" / "snapshots"


def test_a_store_holds_at_most_four_descriptors(tmp_path):
    store = SnapshotStore(tmp_path)
    counts = []
    for index in range(SNAPSHOT_SLOTS):
        store.write({"round": index})
        counts.append(len(held_under(tmp_path)))
    assert counts == [1, 2, 3, 4]
    ring = held_under(tmp_path)
    # Past each slot's first write, a write opens and closes nothing.
    for index in range(2 * SNAPSHOT_SLOTS):
        store.write({"round": SNAPSHOT_SLOTS + index})
        assert held_under(tmp_path) == ring
    store.close()
    assert held_under(tmp_path) == set()


@pytest.mark.parametrize("closer", ["durable-engine", "session"])
def test_close_releases_the_slot_descriptors(tmp_path, closer):
    session = run_with_misuse(tmp_path)
    assert len(held_under(snapshots_of(tmp_path))) == SNAPSHOT_SLOTS
    if closer == "session":
        session.close()
    else:
        session.shards[0].durable.close()
    assert held_under(snapshots_of(tmp_path)) == set()


def test_fifty_durable_sessions_leave_no_descriptor_behind(tmp_path):
    # Collect first, so that no earlier test's dropped session is freed
    # (with its descriptors) while this one counts.
    gc.collect()
    before = len(os.listdir(FD_DIR))
    for index in range(50):
        run_with_misuse(tmp_path / str(index), rounds=2).close()
    assert len(os.listdir(FD_DIR)) == before


def test_a_dropped_store_releases_its_descriptors_when_collected(tmp_path):
    kernel, allocator, session = build_durable(tmp_path)
    session.baseline()
    for __ in range(SNAPSHOT_SLOTS):
        session.checkpoint()
    assert len(held_under(snapshots_of(tmp_path))) == SNAPSHOT_SLOTS
    # A crashed incarnation: the session is forgotten, never closed.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResourceWarning)
        del kernel, allocator, session
        gc.collect()
    assert held_under(snapshots_of(tmp_path)) == set()


def test_a_torn_write_goes_through_the_held_descriptor(tmp_path):
    kernel = SimKernel(RandomPolicy(seed=0), on_deadlock="stop")
    allocator = SingleResourceAllocator(kernel, name="allocator")
    context = _CrashContext(
        kernel,
        tmp_path,
        [(allocator, "allocator")],
        DetectorConfig(interval=0.25, tmax=60.0, tio=60.0, tlimit=60.0),
        fsync="interval",
        rng=random.Random(0),
    )
    # After the baseline and these, every slot is open and the torn
    # write lands on a slot that holds an older record.
    for __ in range(SNAPSHOT_SLOTS):
        context.session.checkpoint()
    store = context.durable.snapshots
    ring = held_under(store.directory)
    assert len(ring) == SNAPSHOT_SLOTS
    previous, __ = store.load_latest()
    context.trigger(CrashPoint.MID_SNAPSHOT_WRITE)
    tear = store.before_write
    used = []

    def spy(fd, record):
        used.append(fd)
        tear(fd, record)

    store.before_write = spy
    with pytest.raises(SimulatedCrash, match="mid-snapshot-write"):
        context.session.checkpoint()
    assert len(used) == 1 and used[0] in ring
    assert held_under(store.directory) == ring
    context.rebuild()
    assert context.snapshot_fallbacks == 1
    assert context.durable.snapshots.load_latest()[0] == previous
    context.durable.close()


def test_closing_a_thread_session_while_its_shards_checkpoint(tmp_path):
    # Two shards pace their checkpoints on their own threads while the
    # test thread closes the session again and again.  Each write pauses
    # after taking its slot's descriptor, so a close that did not wait
    # for it would release that descriptor mid-write; the file the test
    # thread opens next would then get it and the record would land
    # there, outside snapshots/.
    kernel = ThreadKernel(time_scale=0.002)
    session = DetectionSession(
        kernel,
        config=DetectorConfig(interval=0.25, tmax=60.0, tio=60.0),
        shards=2,
        durable_dir=tmp_path / "durable",
        fsync="never",
    )
    for label in ("a", "b"):
        session.register(
            SingleResourceAllocator(kernel, name=label), label=label
        )
    session.baseline()
    for shard in session.shards:
        shard.durable.snapshots.before_write = (
            lambda fd, record: time.sleep(0.001)
        )
    bystanders = tmp_path / "bystanders"
    bystanders.mkdir()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        session.spawn_processes()
        for index in range(25):
            time.sleep(0.004)
            session.close()
            with open(bystanders / f"{index}.bin", "wb"):
                time.sleep(0.002)
        written = [shard.durable.snapshots.written for shard in session.shards]
        session.stop()
        # Returns once both pacing threads leave; the deadline (20 s of
        # wall time) only bounds a hung run.
        result = kernel.run(until=kernel.now() + 10_000.0)
    finally:
        sys.setswitchinterval(interval)
    session.close()
    assert result.live == ()
    assert kernel.failures() == {}
    failures = [
        event.detail
        for __, event in session.supervisor_events()
        if event.kind == "failure"
    ]
    assert failures == []
    assert all(count > 25 for count in written), written
    assert [path.stat().st_size for path in bystanders.iterdir()] == [0] * 25
