"""The detection server's metrics export.

Each server counter is declared once, in ``SERVICE_COUNTERS``, and read
by both ``stats()`` and ``metrics()``; the shadow engine and the round
supervisor export their own families into the same registry.
``server_metrics_stable.json`` pins the stable export of
:func:`failing_round_server` byte for byte.  Regenerate it (only for a
deliberate change to the server's exported counts, and say so in
CHANGES.md) from the repository root with::

    PYTHONPATH=src python -m tests.service.test_server_metrics
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.observability.export import to_json_dict
from repro.service.framing import encode_frame
from repro.service.server import (
    SERVICE_COUNTERS,
    DetectionServer,
    ServiceConfig,
)
from tests.service.test_service import misuse_corpus
from tests.service.workload import make_kernel

GOLDEN = Path(__file__).with_name("server_metrics_stable.json")
REGENERATE = "PYTHONPATH=src python -m tests.service.test_server_metrics"


def failing_round_server() -> DetectionServer:
    """A server whose buffer shadow evaluator raises on its first three
    windows (the breaker threshold) and whose journal fails one write.

    Each window is fed and polled in turn, so the failed journal write
    fails one round; the next poll's round delivers its reports.  The
    OPEN misused:buffer breaker refuses the next two windows (acked,
    not evaluated; both are empty, so the window after them owes no
    loss), goes HALF_OPEN at the cooldown and re-closes on the last
    window (``repro_monitor_checkpoints_total{monitor="misused:buffer"}``
    1, ``repro_breaker_reclosed_total`` 1).
    """
    server = DetectionServer(
        make_kernel(0), service=ServiceConfig(window_credits=50)
    )
    hello, windows = misuse_corpus()
    server.connect(1)
    server.feed(1, encode_frame(hello))
    entry = server.engine.entry_for("misused:buffer")
    evaluate = entry.evaluate
    faults = {"evaluate": 3, "admit": 1}

    def sabotaged(capture):
        if faults["evaluate"]:
            faults["evaluate"] -= 1
            raise RuntimeError("sabotaged shadow evaluator")
        return evaluate(capture)

    admit = server.journal.admit

    def flaky_admit(report):
        if faults["admit"]:
            faults["admit"] -= 1
            raise OSError("disk full")
        return admit(report)

    entry.evaluate = sabotaged
    server.journal.admit = flaky_admit
    for window in windows:
        server.feed(1, encode_frame(window))
        server.poll()
    server.poll()
    assert faults == {"evaluate": 0, "admit": 0}
    return server


def stable_export(server: DetectionServer) -> str:
    document = to_json_dict(server.metrics(), stable_only=True)
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def server():
    return failing_round_server()


def test_each_service_counter_reads_the_same_in_stats_and_metrics(server):
    stats = server.stats()
    registry = server.metrics()
    for attr, family, __ in SERVICE_COUNTERS:
        assert registry.value(family) == stats[attr], attr
    assert stats["delivered_reports"] > 0
    assert stats["windows_accepted"] > 0


def test_export_carries_breaker_and_supervisor_event_families(server):
    registry = server.metrics()
    assert registry.value("repro_breaker_opened_total") == 1
    assert registry.value("repro_breaker_reclosed_total") == 1
    assert (
        registry.value("repro_supervisor_events_total", {"kind": "failure"})
        == 1
    )
    assert registry.value("repro_supervisor_completed_total") > 0
    assert registry.value("repro_engine_check_failures_total") == 3


def test_stable_export_matches_committed_golden_file(server):
    if stable_export(server) != GOLDEN.read_text(encoding="utf-8"):
        pytest.fail(
            f"the server's stable metrics export differs from {GOLDEN.name}; "
            f"if the counts changed on purpose, regenerate it with:\n"
            f"  {REGENERATE}"
        )


if __name__ == "__main__":
    GOLDEN.write_text(stable_export(failing_round_server()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
