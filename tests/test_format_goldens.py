"""Golden bytes of the two row formats that leave a process outside the
durable session: trace files and window frames.

``tests/detection/test_durable_files.py`` pins what a durable session
writes (WAL segments, snapshots, report journals).  This module pins the
rest of the row codec's output the same way: the ``dump_trace`` file of a
seeded sim run of two producers and two consumers on a bounded buffer
(events with and without conditions, and checkpoint states), and the
window frames of the service tests' seeded ``corpus()``, each encoded
with ``encode_frame``.  The sha256 of each is compared with
``format_goldens.json``.  A change that means to keep both formats (a
faster encoder, a different write path) must pass it untouched.

Regenerate the file (only for a deliberate change to the trace or the
window format, and say so in CHANGES.md) from the repository root with::

    PYTHONPATH=src python -m tests.test_format_goldens
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

from repro.apps import BoundedBuffer
from repro.detection import DetectionEngine, DetectorConfig
from repro.detection.supervision import supervisor_process
from repro.history import HistoryDatabase, dump_trace
from repro.kernel import RandomPolicy, SimKernel
from repro.service.framing import encode_frame
from tests.conftest import consumer, producer, supervise
from tests.service.test_service import corpus

GOLDEN = Path(__file__).with_name("format_goldens.json")
REGENERATE = "PYTHONPATH=src python -m tests.test_format_goldens"
SEED = 3


def trace_bytes() -> bytes:
    """The ``dump_trace`` file of a seeded run, checkpointed every 0.25 s
    so the file holds states as well as events."""
    kernel = SimKernel(RandomPolicy(seed=SEED), on_deadlock="stop")
    history = HistoryDatabase(retain_full_trace=True)
    buffer = BoundedBuffer(kernel, capacity=2, history=history)
    engine = DetectionEngine(kernel, DetectorConfig(interval=0.25))
    engine.register(buffer)
    kernel.spawn(supervisor_process(supervise(engine), rounds=8), "engine")
    for index in range(2):
        kernel.spawn(producer(buffer, 8, delay=0.03), f"producer-{index}")
        kernel.spawn(consumer(buffer, 8, delay=0.07), f"consumer-{index}")
    kernel.run(until=2.5)
    kernel.raise_failures()
    stream = io.StringIO()
    dump_trace(stream, history.full_trace, history.full_states)
    return stream.getvalue().encode("utf-8")


def window_frame_bytes() -> bytes:
    """Every window frame of the service tests' seeded corpus."""
    __, windows = corpus()
    return b"".join(encode_frame(window) for window in windows)


def digests() -> dict[str, str]:
    return {
        "trace": hashlib.sha256(trace_bytes()).hexdigest(),
        "window_frames": hashlib.sha256(window_frame_bytes()).hexdigest(),
    }


def test_trace_file_matches_golden():
    text = trace_bytes().decode("utf-8")
    # The run keeps covering both records and a Wait's condition.
    widths = {len(json.loads(line)) for line in text.splitlines()}
    assert widths == {6, 7}
    assert '"Wait"' in text
    assert digests()["trace"] == json.loads(GOLDEN.read_text())["trace"], (
        f"trace file changed; if the change is deliberate, regenerate "
        f"with `{REGENERATE}`"
    )


def test_window_frames_match_golden():
    golden = json.loads(GOLDEN.read_text())["window_frames"]
    assert digests()["window_frames"] == golden, (
        f"window frames changed; if the change is deliberate, regenerate "
        f"with `{REGENERATE}`"
    )


if __name__ == "__main__":
    document = digests()
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
