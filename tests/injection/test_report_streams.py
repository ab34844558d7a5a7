"""Golden report streams for the 21 fault-injection campaigns.

The coverage table (``results_coverage.txt``) pins only which rules fired
and how often, and the incremental-vs-oracle property test compares two
drivers of the same replay machine.  Neither notices a change in report
*text* or *order*.  This test pins both: for every fault class and seed it
compares the report count and a sha256 over each report's rule, message,
monitor, pids, event seq, window start, detection time and confidence, in
stream order, with ``report_streams_golden.json``.

Regenerate the file (only for a deliberate change to report output, and
say so in CHANGES.md) from the repository root with::

    PYTHONPATH=src python -m tests.injection.test_report_streams
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.detection.reports import FaultReport
from repro.injection.campaigns import run_all_campaigns

GOLDEN = Path(__file__).with_name("report_streams_golden.json")
SEEDS = (0, 1, 2)
REGENERATE = "PYTHONPATH=src python -m tests.injection.test_report_streams"


def stream_digest(reports: tuple[FaultReport, ...]) -> str:
    """sha256 over the reports' identifying fields, in stream order."""
    digest = hashlib.sha256()
    for report in reports:
        record = [
            report.rule_id,
            report.message,
            report.monitor,
            list(report.pids),
            report.event_seq,
            report.window_start,
            report.detected_at,
            report.confidence.value,
        ]
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def campaign_streams(seed: int) -> dict[str, dict]:
    """``{fault label: {"count", "sha256"}}`` for one campaign seed."""
    return {
        fault.label: {
            "count": len(outcome.reports),
            "sha256": stream_digest(outcome.reports),
        }
        for fault, outcome in run_all_campaigns(seed).items()
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_report_streams_match_golden(seed):
    golden = json.loads(GOLDEN.read_text())[str(seed)]
    actual = campaign_streams(seed)
    changed = sorted(
        label for label in golden.keys() | actual.keys()
        if golden.get(label) != actual.get(label)
    )
    assert not changed, (
        f"seed {seed}: report streams changed for {changed}; if the change "
        f"is deliberate, regenerate with `{REGENERATE}`"
    )


if __name__ == "__main__":
    document = {str(seed): campaign_streams(seed) for seed in SEEDS}
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
