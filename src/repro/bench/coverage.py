"""Experiment E2 — the robustness result of Section 4.

The paper: "Faults of different kinds as classified in Section 3.2 are
injected randomly for evaluating the coverage of the fault detection
algorithms.  The results show that all injected faults are detected."

This harness runs the full campaign table (one deterministic campaign per
taxonomy entry, 21 total) and renders the per-class outcome.  Run it with
``python -m repro coverage``.
"""

from __future__ import annotations

from repro._tables import render_table
from repro.detection.faults import FaultClass
from repro.injection.campaigns import CAMPAIGNS, CampaignOutcome, run_all_campaigns

__all__ = ["run_coverage", "coverage_table"]


def run_coverage(seed: int = 0) -> dict[FaultClass, CampaignOutcome]:
    """Run all 21 campaigns; returns per-fault outcomes."""
    return run_all_campaigns(seed=seed)


def coverage_table(outcomes: dict[FaultClass, CampaignOutcome]) -> str:
    """Render the robustness table (one row per fault class)."""
    rows = []
    detected = 0
    for fault in FaultClass:
        outcome = outcomes[fault]
        if outcome.detected:
            detected += 1
        rows.append(
            [
                fault.label,
                CAMPAIGNS[fault].description[:58],
                "yes" if outcome.activated else "NO",
                "yes" if outcome.detected else "NO",
                ",".join(outcome.rules[:4]) or "-",
                len(outcome.reports),
            ]
        )
    table = render_table(
        ["fault", "campaign", "activated", "detected", "rules", "reports"],
        rows,
        title="Robustness (reproduced): fault-injection coverage",
    )
    return f"{table}\n\ndetected {detected}/{len(FaultClass)} injected fault classes"
